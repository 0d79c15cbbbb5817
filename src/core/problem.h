// The problem-adapter interface consumed by the execution framework.
//
// A *problem* exposes the iterative algorithm's tasks to the scheduler
// framework (paper §2.2). Tasks are dense uint32 ids; the priority
// permutation pi lives outside the problem (graph::Priorities). The single
// entry point is try_process:
//
//   kProcessed  the task had no unprocessed higher-priority dependency and
//               was executed (paper: "successful step");
//   kNotReady   the task has an unprocessed predecessor; the framework
//               re-inserts it with its original priority (paper: "failed
//               delete" / "wasted step");
//   kRetired    the task no longer needs processing and must not be
//               re-inserted — e.g. an MIS vertex already marked dead
//               (Algorithm 4's "if v_t marked dead then continue").
//
// Sequential problems may keep plain state; problems passed to the parallel
// executor must make try_process linearizable (atomic status arrays — see
// algorithms/*_parallel adapters) such that the decided outcome for every
// task equals the sequential execution under the same pi, for any schedule.
//
// Optional hook, not part of the Problem concept:
//
//   void prefetch(Task t) const noexcept;
//
// A hint that try_process(t) will run soon. The relaxed engine job
// (engine/job.h) calls it a few labels ahead of processing each claimed
// batch, so a problem can issue cache prefetches for the state try_process
// will read. It must not change any observable state, and it may be called
// for a task that is then never processed in this claim. Mark it
// [[gnu::always_inline]]: the hint only pays if it inlines into the
// engine's claim loop.
#pragma once

#include <concepts>
#include <cstdint>

namespace relax::core {

using Task = std::uint32_t;

enum class Outcome : std::uint8_t {
  kProcessed,
  kNotReady,
  kRetired,
};

template <typename P>
concept Problem = requires(P p, Task t) {
  { p.num_tasks() } -> std::convertible_to<std::uint32_t>;
  { p.try_process(t) } -> std::same_as<Outcome>;
};

}  // namespace relax::core
