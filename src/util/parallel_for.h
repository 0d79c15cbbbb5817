// Fork-join parallel loop over an index range, used by graph construction
// and generators. Spawns std::jthreads per call; call sites are coarse
// (graph-sized) so thread-creation cost is negligible. Not a work-stealing
// runtime on purpose — the paper's point is that the *scheduler data
// structure* provides the parallelism for the algorithms themselves.
//
// The range is split into one contiguous chunk per thread, however short
// it is: an item may be a 64k-edge generator chunk, and 8 such items still
// deserve 4 threads. A caller whose items are fine-grained (single edges)
// sizes its thread count with worker_count(total, threads, grain) first.
#pragma once

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/thread_pin.h"

namespace relax::util {

/// Number of workers a range of `total` items gets: `threads` (0 =
/// hardware concurrency), but no more than one per `grain` items, and at
/// least one.
inline unsigned worker_count(std::uint64_t total, unsigned threads,
                             std::uint64_t grain = 1) {
  if (threads == 0) threads = hardware_threads();
  const std::uint64_t by_grain = total / std::max<std::uint64_t>(grain, 1);
  return static_cast<unsigned>(
      std::clamp<std::uint64_t>(by_grain, 1, threads));
}

/// Invokes fn(worker, lo, hi) on contiguous chunks of [begin, end), one per
/// worker, with worker in [0, worker_count(end - begin, threads)).
/// The split depends only on the range and the worker count, so two calls
/// with the same arguments hand each worker the same chunk. Workers whose
/// chunk is empty are not invoked. A single worker runs on the calling
/// thread. Returns the number of workers.
template <typename Fn>
unsigned parallel_chunks_indexed(std::uint64_t begin, std::uint64_t end,
                                 unsigned threads, Fn&& fn) {
  const std::uint64_t total = end > begin ? end - begin : 0;
  const unsigned workers = worker_count(total, threads);
  if (workers == 1) {
    fn(0u, begin, end);
    return 1;
  }
  std::vector<std::jthread> pool;
  pool.reserve(workers);
  const std::uint64_t chunk = (total + workers - 1) / workers;
  for (unsigned t = 0; t < workers; ++t) {
    const std::uint64_t lo = begin + static_cast<std::uint64_t>(t) * chunk;
    const std::uint64_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    pool.emplace_back([&fn, t, lo, hi] { fn(t, lo, hi); });
  }
  return workers;
}

/// Like parallel_chunks_indexed, without the worker index: fn(lo, hi).
template <typename Fn>
void parallel_chunks(std::uint64_t begin, std::uint64_t end, unsigned threads,
                     Fn&& fn) {
  parallel_chunks_indexed(
      begin, end, threads,
      [&fn](unsigned, std::uint64_t lo, std::uint64_t hi) { fn(lo, hi); });
}

/// Element-wise parallel for: fn(i) for i in [begin, end).
template <typename Fn>
void parallel_for(std::uint64_t begin, std::uint64_t end, unsigned threads,
                  Fn&& fn) {
  parallel_chunks(begin, end, threads,
                  [&fn](std::uint64_t lo, std::uint64_t hi) {
                    for (std::uint64_t i = lo; i < hi; ++i) fn(i);
                  });
}

}  // namespace relax::util
