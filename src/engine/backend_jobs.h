// Registry-driven job construction: the bridge between the backend
// registry (sched/backend_registry.h) and the engine's type-erased Job
// boundary.
//
// make_backend_job resolves a BackendInfo into a concrete scheduler type
// via dispatch_backend, stands the scheduler up *inside* a RelaxedJob that
// owns it (as an AuditedQueue when the config opts into the Definition 1
// audit), and returns the type-erased handle the engine multiplexes. This
// is the "factory closure" per backend name: everything past this point —
// admission batching, slice execution, retirement counting — is
// backend-agnostic. Submit the result with SchedulingEngine::submit or
// try_submit; the engine hands it its telemetry sinks and placement at
// activation.
//
// Sizing: the backend sees the engine's pool width as its thread count, so
// MultiQueues get queue_factor * width sub-queues and the SprayList sprays
// for p = width, exactly as the one-shot executors sized them.
#pragma once

#include <memory>
#include <utility>

#include "core/problem.h"
#include "engine/job.h"
#include "graph/permutation.h"
#include "sched/backend_registry.h"

namespace relax::engine {

/// Backend instantiation parameters for a job of `num_tasks` tasks running
/// on a pool of `pool_width` workers. A registry name pins its own sampling
/// width (that is what distinguishes multiqueue-c2 from multiqueue-c8), so
/// choices come from BackendInfo, never from the job config.
inline sched::BackendParams backend_params(const JobConfig& cfg,
                                           unsigned pool_width,
                                           std::uint32_t num_tasks) {
  sched::BackendParams params;
  params.threads = pool_width;
  params.queue_factor = cfg.queue_factor;
  params.seed = cfg.seed;
  params.kbound = cfg.relaxation_k;
  params.capacity = num_tasks;
  return params;
}

/// Builds a relaxed job over the backend `info` describes. The returned job
/// owns its scheduler; with cfg.monitor_relaxation it runs in audit mode
/// and its stats carry Definition 1 rank-error / inversion measurements.
template <core::Problem P>
std::shared_ptr<Job> make_backend_job(const sched::BackendInfo& info,
                                      P& problem,
                                      const graph::Priorities& pri,
                                      unsigned pool_width,
                                      const JobConfig& cfg = {}) {
  const auto params = backend_params(cfg, pool_width, problem.num_tasks());
  return sched::dispatch_backend(
      info, params,
      [&](auto tag, auto&&... queue_args) -> std::shared_ptr<Job> {
        using Queue = typename decltype(tag)::type;
        if (cfg.monitor_relaxation) {
          return std::make_shared<RelaxedJob<P, AuditedQueue<Queue>>>(
              problem, pri, cfg, std::in_place, std::in_place,
              problem.num_tasks(), cfg.monitor_stride,
              std::forward<decltype(queue_args)>(queue_args)...);
        }
        return std::make_shared<RelaxedJob<P, Queue>>(
            problem, pri, cfg, std::in_place,
            std::forward<decltype(queue_args)>(queue_args)...);
      });
}

}  // namespace relax::engine
