// Backend registry — every concurrent scheduler in the library as a named,
// first-class execution backend.
//
// The paper's claims are about a *family* of relaxed schedulers
// (MultiQueues, SprayList-style skip lists, deterministic k-bounded
// windows), all interchangeable behind Insert/ApproxGetMin. The registry
// makes that family operational: each entry maps a stable name (the key
// used by `relaxsched --backend=`, `bench/backend_matrix`, the engine's
// make_backend_job, and the conformance/quality test fixtures) to the
// backend's kind, its sampling parameters, and metadata (deterministic?
// lock-serialized adapter or genuinely scalable?).
//
// Because the backends are heterogeneous C++ types, the "factory closure"
// is expressed as a visitor: dispatch_backend(info, params, f) invokes
// f(BackendTag<Queue>{}, ctor-args...) with the concrete scheduler type and
// its fully resolved constructor arguments. Callers either construct on the
// stack (tests, benches) or inside an owning job (engine/backend_jobs.h) —
// one registry, no type erasure at the scheduler layer.
//
// Sizing conventions, mirroring the paper's experiments:
//   * MultiQueue family: q = queue_factor * threads sub-queues (paper: 4).
//   * SprayList: spray height/width derived from the thread count p.
//   * k-bounded / sequential simulations: relaxation k defaults to q, so
//     locked baselines are parameter-matched with the scalable backends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sched/concurrent_multiqueue.h"
#include "sched/exact_heap.h"
#include "sched/kbounded.h"
#include "sched/lockfree_multiqueue.h"
#include "sched/scheduler.h"
#include "sched/sim_multiqueue.h"
#include "sched/sim_spraylist.h"
#include "sched/spraylist.h"

namespace relax::sched {

enum class BackendKind : std::uint8_t {
  kMultiQueue,          // ConcurrentMultiQueue (locked sub-queues, top cache)
  kLockFreeMultiQueue,  // Harris-list MultiQueue (the paper's own variant)
  kSprayList,           // lazy skip list with randomized spray deletes
  kSimMultiQueue,       // LockedScheduler<SimMultiQueue> (Table 1 simulation)
  kSimSprayList,        // LockedScheduler<SimSprayList>
  kKBounded,            // LockedScheduler<KBoundedScheduler>, deterministic
  kExact,               // LockedScheduler<ExactHeapScheduler>, k = 1 baseline
};

struct BackendInfo {
  std::string_view name;         // registry key, e.g. "multiqueue-c4"
  BackendKind kind;
  unsigned choices;              // sampled sub-queues per pop (MQ family)
  bool deterministic;            // pop sequence is schedule-independent when
                                 // driven single-threaded with a fixed seed
  bool scalable;                 // true concurrent structure (false: one-lock
                                 // adapter, correctness/quality baseline)
  std::string_view description;  // one line for --help / README
};

/// All registered backends, in stable presentation order.
[[nodiscard]] std::span<const BackendInfo> backend_registry();

/// Lookup by registry name; nullptr when unknown.
[[nodiscard]] const BackendInfo* find_backend(std::string_view name);

/// Lookup that throws std::invalid_argument listing the valid names.
[[nodiscard]] const BackendInfo& backend_or_throw(std::string_view name);

/// Comma-separated list of every registry name (for CLI errors / --help).
[[nodiscard]] std::string backend_names();

/// The engine's default backend ("multiqueue-c2", the paper's two-choice
/// MultiQueue).
[[nodiscard]] const BackendInfo& default_backend();

/// Instantiation-time parameters shared by every backend. Unused fields are
/// ignored by backends that do not need them.
struct BackendParams {
  unsigned threads = 1;        // intended concurrency (sizes MQ/spray)
  unsigned queue_factor = 4;   // MQ sub-queues per thread (paper: 4)
  std::uint64_t seed = 1;      // scheduler randomness
  std::uint32_t kbound = 0;    // relaxation k for window/sim backends;
                               // 0 derives q = queue_factor * threads
  std::uint32_t capacity = 0;  // priority universe size (labels are
                               // < capacity); required by sim-spraylist
};

namespace detail {

inline std::uint32_t resolved_queues(const BackendParams& p) noexcept {
  return std::max<std::uint32_t>(
      2, p.queue_factor * std::max<unsigned>(p.threads, 1));
}

inline std::uint32_t resolved_k(const BackendParams& p) noexcept {
  return p.kbound != 0 ? p.kbound : resolved_queues(p);
}

}  // namespace detail

/// Carries the concrete scheduler type through dispatch_backend.
template <typename Queue>
struct BackendTag {
  using type = Queue;
};

/// Invokes f(BackendTag<Queue>{}, ctor-args...) for the backend `info`
/// describes, with constructor arguments resolved from `params`. All
/// branches must yield the same result type (typically void or a
/// type-erased job/pointer).
template <typename F>
decltype(auto) dispatch_backend(const BackendInfo& info,
                                const BackendParams& params, F&& f) {
  const std::uint32_t queues = detail::resolved_queues(params);
  const unsigned threads = std::max<unsigned>(params.threads, 1);
  switch (info.kind) {
    case BackendKind::kMultiQueue:
      return f(BackendTag<ConcurrentMultiQueue>{}, queues, params.seed,
               info.choices);
    case BackendKind::kLockFreeMultiQueue:
      return f(BackendTag<LockFreeMultiQueue>{}, queues, params.seed,
               info.choices);
    case BackendKind::kSprayList:
      return f(BackendTag<SprayList>{}, threads, params.seed);
    case BackendKind::kSimMultiQueue:
      return f(BackendTag<LockedScheduler<SimMultiQueue>>{},
               detail::resolved_k(params), params.seed);
    case BackendKind::kSimSprayList: {
      // make_sim_spraylist's parameterization for p = threads.
      const SimSprayParams spray = sim_spray_params(threads);
      return f(BackendTag<LockedScheduler<SimSprayList>>{}, params.capacity,
               spray.height, spray.width, params.seed);
    }
    case BackendKind::kKBounded:
      return f(BackendTag<LockedScheduler<KBoundedScheduler>>{},
               detail::resolved_k(params), params.seed);
    case BackendKind::kExact:
      return f(BackendTag<LockedScheduler<ExactHeapScheduler>>{},
               params.seed);
  }
  throw std::logic_error("dispatch_backend: unknown BackendKind");
}

/// Nominal Definition 1 rank-bound scale k for `info` under `params`: the
/// quantity the exponential tail Pr[rank >= l] <= exp(-l/k) decays against.
/// Deterministic backends honour it strictly (rank < k); randomized ones in
/// expectation/tail. Tests compare empirical measurements against generous
/// multiples of this value.
[[nodiscard]] inline std::uint64_t expected_rank_bound(
    const BackendInfo& info, const BackendParams& params) {
  const unsigned threads = std::max<unsigned>(params.threads, 1);
  switch (info.kind) {
    case BackendKind::kMultiQueue:
    case BackendKind::kLockFreeMultiQueue:
    case BackendKind::kSimMultiQueue:
      return detail::resolved_queues(params);
    case BackendKind::kSprayList:
      return SprayList::spray_params(threads).reach();
    case BackendKind::kSimSprayList:
      return sim_spray_params(threads).reach();
    case BackendKind::kKBounded:
      return detail::resolved_k(params);
    case BackendKind::kExact:
      return 1;
  }
  throw std::logic_error("expected_rank_bound: unknown BackendKind");
}

/// Batch-aware Definition 1 rank scale: a native batched pop claims k
/// consecutive minima from ONE sub-structure (one best-of-c sub-queue, one
/// sub-list, one spray neighbourhood), so batch element i is served at rank
/// up to ~i sub-structure spacings past the single-pop bound — O(k * k_0)
/// overall, where k_0 = expected_rank_bound. Backends without a native
/// batch (the generic one-at-a-time shim) stay at k_0 per pop, which this
/// bound dominates, so one envelope covers the whole registry.
[[nodiscard]] inline std::uint64_t batched_rank_bound(
    const BackendInfo& info, const BackendParams& params, std::uint64_t k) {
  return std::max<std::uint64_t>(k, 1) * expected_rank_bound(info, params);
}

}  // namespace relax::sched
