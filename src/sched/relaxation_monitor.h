// Empirical measurement of a scheduler's relaxation quality (Definition 1).
//
// Wraps any SequentialScheduler and maintains an exact order-statistics
// mirror of its contents. On every pop it records:
//
//   * rank error: the popped element's 0-based rank among present elements
//     (0 == exact behaviour). Definition 1 demands Pr[rank >= l] <=
//     exp(-l/k).
//   * inversions: for a deterministic 1-in-`sample_stride` subset of
//     priorities, the number of lower-priority pops that occur while the
//     tracked element is present (Definition 1: Pr[inv >= l] <=
//     exp(-l/phi)). Sampling keeps per-pop overhead O(#tracked).
//
// The monitor itself satisfies SequentialScheduler, so it can be dropped
// into the execution framework to measure in-situ relaxation during real
// algorithm runs — which is exactly how bench/scheduler_quality produces
// the Definition 1 validation tables.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/order_stat_set.h"
#include "sched/scheduler.h"
#include "util/stats.h"

namespace relax::sched {

template <SequentialScheduler Inner>
class RelaxationMonitor {
 public:
  /// capacity: priority universe size. sample_stride: track inversions for
  /// priorities p with p % sample_stride == 0 (1 = track everything).
  RelaxationMonitor(Inner inner, std::uint32_t capacity,
                    std::uint32_t sample_stride = 1)
      : inner_(std::move(inner)),
        mirror_(capacity),
        stride_(sample_stride == 0 ? 1 : sample_stride) {}

  /// Same, but the monitor owns the scheduler it measures, constructed in
  /// place from `inner_args` (concurrent backends are not movable).
  template <typename... Args>
  RelaxationMonitor(std::in_place_t, std::uint32_t capacity,
                    std::uint32_t sample_stride, Args&&... inner_args)
      : inner_(std::forward<Args>(inner_args)...),
        mirror_(capacity),
        stride_(sample_stride == 0 ? 1 : sample_stride) {}

  void insert(Priority p) {
    mirror_.insert(p);
    if (p % stride_ == 0) tracked_.emplace(p, 0);
    inner_.insert(p);
  }

  /// Batched insert, measured: the mirror observes every key individually
  /// (a batched insert is k inserts as far as Definition 1 is concerned —
  /// inserts carry no rank), then the run is handed to the wrapped
  /// scheduler's own batched path so the audit measures the same splice
  /// the production path runs.
  void insert_batch(std::span<const Priority> keys) {
    for (const Priority p : keys) {
      mirror_.insert(p);
      if (p % stride_ == 0) tracked_.emplace(p, 0);
    }
    sched::insert_batch(inner_, keys);
  }

  std::optional<Priority> approx_get_min() {
    auto popped = inner_.approx_get_min();
    if (!popped) return popped;
    record_pop(*popped);
    return popped;
  }

  /// Batched pop, measured: pulls the batch from the wrapped scheduler
  /// (its native batched claim when it has one) and accounts each label in
  /// pop order — element i's rank is taken with the batch's earlier labels
  /// already erased from the mirror, i.e. a batch is assessed as k
  /// successive pops, which is exactly what Definition 1's per-pop rank
  /// speaks about.
  std::size_t approx_get_min_batch(std::size_t k, std::vector<Priority>& out) {
    const std::size_t before = out.size();
    const std::size_t got = pop_batch(inner_, k, out);
    for (std::size_t i = before; i < out.size(); ++i) record_pop(out[i]);
    return got;
  }

  [[nodiscard]] bool empty() const noexcept { return inner_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return inner_.size(); }

  [[nodiscard]] const util::ExponentialHistogram& rank_histogram() const {
    return rank_hist_;
  }
  [[nodiscard]] const util::ExponentialHistogram& inversion_histogram()
      const {
    return inversion_hist_;
  }

  [[nodiscard]] Inner& inner() noexcept { return inner_; }

 private:
  void record_pop(Priority p) {
    rank_hist_.add(mirror_.rank_of(p));
    mirror_.erase(p);
    for (auto& [tp, inv] : tracked_) {
      if (tp < p) ++inv;
    }
    if (const auto it = tracked_.find(p); it != tracked_.end()) {
      inversion_hist_.add(it->second);
      tracked_.erase(it);
    }
  }

  Inner inner_;
  OrderStatSet mirror_;
  std::uint32_t stride_;
  std::unordered_map<Priority, std::uint64_t> tracked_;
  util::ExponentialHistogram rank_hist_;
  util::ExponentialHistogram inversion_hist_;
};

}  // namespace relax::sched
