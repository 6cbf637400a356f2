#!/usr/bin/env python3
"""Fixpoint benchmark for the RecStep engine.

Run from the repository root:

    python3 fixbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 fixbench/run.py --workload all --seed 1 --seconds 10 --trace 0   # every workload, as a table
    python3 fixbench/run.py --test                                          # the benchmark's own tests

The first call compiles the engine from the repository's sources together
with the benchmark (sbt, offline) into .bench_build/; later calls reuse that
build until a source file changes. Each measurement runs in one fresh JVM with
a fixed heap. The last line of standard output is the JSON result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "fixbench"
WORKLOADS = ["csda-tiny-delta", "tc-pbme", "sssp-min-agg"]

# Whole-run limits: a measuring run must end within 180 s, a run that also
# builds within 900 s.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 840
HEAP = "3g"
# One processor: on a shared 4-vCPU host whose speed varied by a quarter from
# second to second, two Spark task threads made each stage wait for whichever
# thread the host slowed, and the spread between runs of tc-pbme was 15 %
# against 9 % with one.
MAX_CORES = 1


def fail(msg, code=2):
    print(f"fixbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads from the checkout."""
    engine = ROOT / "src" / "main" / "scala"
    if not (engine / "repro").is_dir():
        fail(f"engine sources not found under {engine}; run from a full checkout of the repository")
    files = [p for p in engine.rglob("*") if p.is_file()]
    files.append(ROOT / "src" / "test" / "scala" / "repro" / "TestUtil.scala")
    files += [p for p in (HERE / "src").rglob("*") if p.is_file()]
    files += [HERE / "build.sbt", HERE / "project" / "build.properties"]
    return sorted(files)


def source_stamp(files):
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    return env


def build():
    """Compile if any source changed; return the runtime classpath."""
    stamp = source_stamp(source_files())
    cp_file, stamp_file = BUILD / "classpath.txt", BUILD / "stamp.txt"
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip(), False
    if shutil.which("sbt") is None:
        fail("sbt is required to build the benchmark")
    print("fixbench: building engine and benchmark (sbt)", file=sys.stderr)
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "export Runtime/fullClasspath"],
        cwd=HERE, env=sbt_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=BUILD_LIMIT_S)
    lines = [l.strip() for l in proc.stdout.splitlines() if l.strip()]
    classpath = next((l for l in reversed(lines) if not l.startswith("[") and ".jar" in l), None)
    if proc.returncode != 0 or classpath is None:
        sys.stderr.write(proc.stdout)
        fail("build failed", code=1)
    BUILD.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(classpath)
    stamp_file.write_text(stamp)
    return classpath, True


def jvm_command(classpath, workdir, main_args):
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    options = [l.strip() for l in (HERE / "jvm.options").read_text().splitlines()
               if l.strip() and not l.startswith("#")]
    cores = min(MAX_CORES, os.cpu_count() or 1)
    return [str(java),
            # Spark's local[*] and PBME's thread pool both follow this.
            f"-XX:ActiveProcessorCount={cores}",
            f"-Xms{HEAP}", f"-Xmx{HEAP}",
            f"-Djava.io.tmpdir={workdir}",
            f"-Dspark.local.dir={workdir}",
            *options, "-cp", classpath, "fixbench.Main", *main_args]


def measure(classpath, workload, seed, seconds, trace, limit_s):
    """One measuring JVM; returns its stdout, or exits on failure."""
    workdir = BUILD / "tmp"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = jvm_command(classpath, workdir, ["--workload", workload, "--seed", str(seed),
                                           "--seconds", str(seconds), "--trace", str(trace)])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=limit_s)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {limit_s:.0f} s", code=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{workload}: benchmark JVM exited with {proc.returncode}", code=1)
    return proc.stdout


def run_tests():
    proc = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "test"],
                          cwd=HERE, env=sbt_env())
    sys.exit(proc.returncode)


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args()
    if args.test:
        run_tests()
    if args.workload is None:
        ap.error("--workload is required")

    classpath, built = build()
    if args.workload != "all":
        limit = (BUILD_LIMIT_S + 50 if built else RUN_LIMIT_S) - (time.monotonic() - start)
        out = measure(classpath, args.workload, args.seed, args.seconds, args.trace, limit)
        sys.stdout.write(out)
        return

    rows, ok = [], True
    for w in WORKLOADS:
        result = json.loads(measure(classpath, w, args.seed, args.seconds, args.trace, RUN_LIMIT_S)
                            .strip().splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        for name, m in result["metrics"].items():
            rows.append((w, name, m["value"], m["unit"]))
        rows.append((w, "attempted/failed", f'{result["attempted"]}/{result["failed"]}',
                     "correct" if result["correct"] else "WRONG"))
    for w, name, value, unit in rows:
        value = f"{value:14.4f}" if isinstance(value, (int, float)) else f"{value:>14}"
        print(f"{w:18} {name:32} {value} {unit}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
