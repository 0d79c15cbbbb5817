// Tests for the small concurrency utilities: spinlock mutual exclusion,
// parallel_for coverage, padded alignment, timers, thread pinning.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/padded.h"
#include "util/parallel_for.h"
#include "util/spinlock.h"
#include "util/thread_pin.h"
#include "util/timer.h"

namespace relax::util {
namespace {

TEST(Spinlock, MutualExclusion) {
  Spinlock lock;
  std::uint64_t counter = 0;  // deliberately non-atomic
  constexpr int kThreads = 8, kIters = 20000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kIters; ++i) {
          lock.lock();
          ++counter;
          lock.unlock();
        }
      });
    }
  }
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Spinlock, TryLockSemantics) {
  Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());  // already held
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Spinlock, WorksWithLockGuard) {
  Spinlock lock;
  {
    std::lock_guard<Spinlock> guard(lock);
    EXPECT_FALSE(lock.try_lock());
  }
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Padded, CacheLineAlignment) {
  EXPECT_GE(alignof(Padded<int>), kCacheLine);
  EXPECT_GE(sizeof(Padded<int>), kCacheLine);
  std::vector<Padded<std::atomic<int>>> v(4);
  for (std::size_t i = 1; i < v.size(); ++i) {
    const auto gap = reinterpret_cast<char*>(&v[i]) -
                     reinterpret_cast<char*>(&v[i - 1]);
    EXPECT_GE(gap, static_cast<std::ptrdiff_t>(kCacheLine));
  }
}

TEST(Padded, ForwardsConstructorAndAccess) {
  Padded<std::pair<int, int>> p(3, 4);
  EXPECT_EQ(p->first, 3);
  EXPECT_EQ((*p).second, 4);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::uint64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  parallel_for(0, kN, 8, [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  int count = 0;
  parallel_for(5, 5, 4, [&](std::uint64_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(10, 11, 4, [&](std::uint64_t i) {
    EXPECT_EQ(i, 10u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelChunks, ChunksPartitionTheRange) {
  std::atomic<std::uint64_t> total{0};
  parallel_chunks(100, 100100, 8, [&](std::uint64_t lo, std::uint64_t hi) {
    total.fetch_add(hi - lo);
  });
  EXPECT_EQ(total.load(), 100000u);
}

// A short range of heavy items (generator chunks are 64k edges each) must
// still be spread over the workers asked for.
TEST(ParallelFor, FewHeavyItemsUseSeveralThreads) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(0, 8, 4, [&](std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GT(ids.size(), 1u);
}

// A grain caps the workers at one per `grain` items.
TEST(WorkerCount, GrainBoundsWorkers) {
  EXPECT_EQ(worker_count(1000, 4, 4096), 1u);
  EXPECT_EQ(worker_count(3 * 4096, 4, 4096), 3u);
  EXPECT_EQ(worker_count(1 << 20, 4, 4096), 4u);
  EXPECT_EQ(worker_count(8, 4), 4u);
  EXPECT_EQ(worker_count(0, 4), 1u);
}

TEST(ParallelChunksIndexed, SlotsAreDistinct) {
  std::vector<std::atomic<int>> slot_hits(8);
  for (auto& s : slot_hits) s.store(0);
  parallel_chunks_indexed(
      0, 1 << 20, 8,
      [&](unsigned slot, std::uint64_t, std::uint64_t) {
        slot_hits[slot].fetch_add(1);
      });
  for (auto& s : slot_hits) EXPECT_LE(s.load(), 1);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(ThreadPin, HardwareThreadsPositive) {
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ThreadPin, PinningDoesNotCrash) {
  // Pinning may fail in restricted environments; it must never crash and
  // the modulo wrap must accept any cpu index.
  (void)pin_thread_to_cpu(0);
  (void)pin_thread_to_cpu(hardware_threads() + 100);
}

TEST(CpuRelax, Callable) {
  cpu_relax();  // smoke: must compile and not crash on this platform
}

}  // namespace
}  // namespace relax::util
