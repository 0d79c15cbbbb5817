// Uniform access shims over the two concurrent-scheduler surfaces.
//
// The library's concurrent backends come in two shapes:
//
//   * handle-based: MultiQueue, LockFreeMultiQueue, SprayList expose
//     get_handle(), and each thread drives its own handle (a private RNG
//     stream plus a pointer — handles may not be shared);
//   * plain: LockedScheduler wrappers (and anything else satisfying
//     sched::ConcurrentScheduler directly) are safe to call from any thread.
//
// make_handle() erases the difference for generic code (the engine's job
// loop, the cross-backend conformance tests): it returns the backend's own
// handle when one exists and a DirectHandle forwarding shim otherwise.
//
// SequentialView is the complementary adapter for *quiescent* access: it
// narrows a concurrent backend's single-threaded convenience API down to
// the SequentialScheduler concept, which is what RelaxationMonitor needs to
// keep its exact order-statistics mirror in lock-step with the scheduler
// (the monitored engine jobs serialize it under one LockedScheduler lock).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "sched/scheduler.h"

namespace relax::sched {

/// Forwarding shim for backends without per-thread handles. The wrapped
/// scheduler must itself be safe for concurrent calls (LockedScheduler).
/// The batched pop and batched insert forward to the backend's native
/// batch ops when it has them (LockedScheduler amortizes its lock over the
/// batch) and degrade to one-at-a-time ops otherwise, so every backend —
/// locked, sim, deterministic — accepts batching on both sides with
/// unchanged semantics.
template <typename Queue>
struct DirectHandle {
  Queue* queue;
  void insert(Priority p) { queue->insert(p); }
  void insert_batch(std::span<const Priority> keys) {
    sched::insert_batch(*queue, keys);
  }
  std::optional<Priority> approx_get_min() {
    return queue->approx_get_min();
  }
  std::size_t approx_get_min_batch(std::size_t k, std::vector<Priority>& out) {
    return pop_batch(*queue, k, out);
  }
};

/// One thread-private access point for `queue`, whatever its shape.
template <typename Queue>
auto make_handle(Queue& queue) {
  if constexpr (requires { queue.get_handle(); }) {
    return queue.get_handle();
  } else {
    return DirectHandle<Queue>{&queue};
  }
}

/// SequentialScheduler view over a concurrent backend's single-threaded
/// convenience API; only valid while no concurrent operations are in
/// flight (or under an external lock, as in sched::LockedScheduler).
template <typename Queue>
class SequentialView {
 public:
  explicit SequentialView(Queue& queue) : queue_(&queue) {}
  void insert(Priority p) { queue_->insert(p); }
  void insert_batch(std::span<const Priority> keys) {
    sched::insert_batch(*queue_, keys);
  }
  std::optional<Priority> approx_get_min() {
    return queue_->approx_get_min();
  }
  std::size_t approx_get_min_batch(std::size_t k, std::vector<Priority>& out) {
    return pop_batch(*queue_, k, out);
  }
  [[nodiscard]] bool empty() const { return queue_->empty(); }
  [[nodiscard]] std::size_t size() const { return queue_->size(); }

 private:
  Queue* queue_;
};

}  // namespace relax::sched
