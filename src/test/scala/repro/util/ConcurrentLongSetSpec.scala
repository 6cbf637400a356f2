package repro.util

import java.util.concurrent.{CountDownLatch, Executors, TimeUnit}
import java.util.concurrent.atomic.AtomicIntegerArray
import org.scalatest.funsuite.AnyFunSuite

class ConcurrentLongSetSpec extends AnyFunSuite {

  test("4 threads inserting overlapping keys: each key's add returns true exactly once") {
    val set = new ConcurrentLongSet
    val keys = 1 << 17
    val wins = new AtomicIntegerArray(keys)
    val threads = 4
    val start = new CountDownLatch(1)
    val pool = Executors.newFixedThreadPool(threads)
    try {
      // thread t walks all keys with its own odd stride, a permutation of a
      // power-of-two range, so all four insert every key, in different orders
      val done = (0 until threads).map { t =>
        pool.submit(new Runnable {
          def run(): Unit = {
            start.await()
            var i = 0
            while (i < keys) {
              val k = ((i.toLong * (2 * t + 1)) + t) % keys
              if (set.add(k * 7919L)) wins.incrementAndGet(k.toInt)
              i += 1
            }
          }
        })
      }
      start.countDown()
      done.foreach(_.get(60, TimeUnit.SECONDS))
    } finally pool.shutdownNow()
    assert((0 until keys).forall(wins.get(_) == 1))
    assert(set.size == keys)
  }
}
