#include "algorithms/sssp.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "sched/batch_controller.h"
#include "sched/concurrent_multiqueue.h"
#include "sched/dary_heap.h"
#include "util/rng.h"
#include "util/spinlock.h"
#include "util/thread_pin.h"
#include "util/timer.h"

namespace relax::algorithms {

std::vector<std::uint32_t> synthetic_edge_weights(const graph::Graph& g,
                                                  std::uint64_t seed,
                                                  std::uint32_t max_w) {
  std::vector<std::uint32_t> weights(g.num_arcs());
  for (graph::Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto offset = g.arc_offset(u);
    const auto nb = g.neighbors(u);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      const graph::Vertex v = nb[j];
      const std::uint64_t a = std::min(u, v), b = std::max(u, v);
      // Symmetric per-edge hash -> both arc directions agree.
      util::SplitMix64 h(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                         (b * 0xc2b2ae3d27d4eb4fULL));
      weights[offset + j] = static_cast<std::uint32_t>(h() % max_w) + 1;
    }
  }
  return weights;
}

std::vector<std::uint32_t> dijkstra(const graph::Graph& g,
                                    const std::vector<std::uint32_t>& weights,
                                    graph::Vertex source) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  sched::DaryHeap<std::uint64_t> heap;  // (dist << 32) | vertex
  dist[source] = 0;
  heap.push(static_cast<std::uint64_t>(source));
  while (!heap.empty()) {
    const std::uint64_t key = heap.pop();
    const auto d = static_cast<std::uint32_t>(key >> 32);
    const auto v = static_cast<graph::Vertex>(key & 0xffffffffu);
    if (d > dist[v]) continue;  // stale entry (lazy deletion)
    const auto offset = g.arc_offset(v);
    const auto nb = g.neighbors(v);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      const graph::Vertex u = nb[j];
      const std::uint32_t nd = d + weights[offset + j];
      if (nd < dist[u]) {
        dist[u] = nd;
        heap.push((static_cast<std::uint64_t>(nd) << 32) | u);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> parallel_relaxed_sssp(
    const graph::Graph& g, const std::vector<std::uint32_t>& weights,
    graph::Vertex source, const SsspOptions& options, SsspStats* stats_out) {
  const unsigned threads = options.num_threads == 0
                               ? util::hardware_threads()
                               : options.num_threads;
  // Clamp defensively (mirroring engine::JobConfig::kMaxPopBatch): a
  // negative CLI value cast to unsigned would otherwise make each worker
  // reserve a multi-GiB pop buffer. Far above any useful batch.
  const std::uint32_t batch = std::clamp(options.pop_batch, 1u, 1u << 16);
  std::vector<std::atomic<std::uint32_t>> dist(g.num_vertices());
  for (auto& d : dist) d.store(kUnreachable, std::memory_order_relaxed);
  dist[source].store(0, std::memory_order_relaxed);

  using Queue = sched::BasicConcurrentMultiQueue<std::uint64_t>;
  Queue queue(options.queue_factor * threads, options.seed);
  // Topology placement: socket-fill pin order plus a per-domain stripe map
  // over the sub-queues (quiescent here — no worker exists yet). Flat
  // placement (off / single domain) leaves both at the historical layout.
  const util::WorkerPlacement placement =
      util::plan_workers(options.topology, threads);
  if (placement.num_domains > 1) {
    queue.set_stripe_map(
        sched::StripeMap(queue.num_queues(), placement.num_domains));
  }
  queue.insert(static_cast<std::uint64_t>(source));

  // Termination: pending = queued-but-unprocessed entries. Incremented
  // before each insert (including buffered ones: the increment happens at
  // relaxation time, before the key ever sits in a local buffer, so the
  // count can never drop to zero while keys await their flush), and
  // decremented only after a popped batch is fully handled AND its
  // re-insertions flushed; zero means no thread can generate more work.
  std::atomic<std::int64_t> pending{1};
  std::vector<SsspStats> per_thread(threads);
  util::Timer timer;
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        util::pin_thread_to_cpu(placement.pin_slot[t]);
        // This thread's scheduler session: one handle plus one adaptive
        // batch controller for the whole execution — the same
        // occupancy-aware sizing the engine's jobs run (engine/job.h).
        // The handle carries the thread's topology domain so claims and
        // bulk re-inserts prefer same-domain stripes.
        auto handle = queue.get_handle();
        handle.set_domain(placement.domain[t]);
        sched::BatchController controller(
            batch, options.pop_batch_auto, /*high_watermark=*/0,
            sched::BatchController::kDefaultConsultPeriod, threads);
        // Stack-local; written back once (no false sharing between workers).
        SsspStats stats;
        std::vector<std::uint64_t> popped;
        std::vector<std::uint64_t> reinsert;
        popped.reserve(batch);
        while (pending.load(std::memory_order_acquire) > 0) {
          popped.clear();
          const std::uint32_t want =
              controller.next_claim(sched::QueueOccupancy<Queue>{&queue});
          if (want <= 1) {
            if (const auto key = handle.approx_get_min())
              popped.push_back(*key);
          } else {
            handle.approx_get_min_batch(want, popped);
          }
          controller.feedback(want,
                              static_cast<std::uint32_t>(popped.size()));
          if (popped.empty()) {
            util::cpu_relax();
            continue;
          }
          ++stats.batches;
          stats.max_claim = std::max<std::uint64_t>(stats.max_claim, want);
          stats.min_claim = stats.min_claim == 0
                                ? want
                                : std::min<std::uint64_t>(stats.min_claim,
                                                          want);
          reinsert.clear();
          for (const std::uint64_t key : popped) {
            ++stats.pops;
            const auto d = static_cast<std::uint32_t>(key >> 32);
            const auto v = static_cast<graph::Vertex>(key & 0xffffffffu);
            if (d > dist[v].load(std::memory_order_acquire)) {
              ++stats.stale_pops;
              continue;
            }
            const auto offset = g.arc_offset(v);
            const auto nb = g.neighbors(v);
            for (std::size_t j = 0; j < nb.size(); ++j) {
              const graph::Vertex u = nb[j];
              const std::uint32_t nd = d + weights[offset + j];
              std::uint32_t cur = dist[u].load(std::memory_order_relaxed);
              while (nd < cur) {
                if (dist[u].compare_exchange_weak(
                        cur, nd, std::memory_order_acq_rel)) {
                  ++stats.relaxations;
                  pending.fetch_add(1, std::memory_order_acq_rel);
                  reinsert.push_back((static_cast<std::uint64_t>(nd) << 32) |
                                     u);
                  break;
                }
              }
            }
          }
          // Batched re-insert: the whole run of successful relaxations goes
          // back in one bulk_insert (one lock per target sub-queue) instead
          // of one lock + heap sift per key. Must happen before the
          // pending decrement for the popped keys — see the invariant note
          // above.
          if (reinsert.size() == 1) {
            handle.insert(reinsert.front());
          } else if (!reinsert.empty()) {
            handle.bulk_insert(std::span<const std::uint64_t>(reinsert));
          }
          pending.fetch_sub(static_cast<std::int64_t>(popped.size()),
                            std::memory_order_acq_rel);
        }
        per_thread[t] = stats;
      });
    }
  }
  if (stats_out != nullptr) {
    for (const auto& s : per_thread) {
      stats_out->pops += s.pops;
      stats_out->stale_pops += s.stale_pops;
      stats_out->relaxations += s.relaxations;
      stats_out->batches += s.batches;
      stats_out->max_claim = std::max(stats_out->max_claim, s.max_claim);
      if (s.min_claim != 0) {
        stats_out->min_claim = stats_out->min_claim == 0
                                   ? s.min_claim
                                   : std::min(stats_out->min_claim,
                                              s.min_claim);
      }
    }
    stats_out->seconds = timer.seconds();
  }
  std::vector<std::uint32_t> out(g.num_vertices());
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v)
    out[v] = dist[v].load(std::memory_order_relaxed);
  return out;
}

}  // namespace relax::algorithms
