// relaxbench: the repository benchmark (see README.md beside this file).
//
// Four fixed workloads, each driving one layer of the library through its
// public entry points and timing those calls from outside:
//
//   mis_batch   AtomicMisProblem jobs on a 4-worker SchedulingEngine
//   sssp_batch  parallel_relaxed_sssp runs on 4 threads
//   wire_small  requests to an in-process JobServer over 1 connection
//   wire_mixed  a light and a heavy tenant on 2 connections
//
// Every output is checked against a sequential reference. Prints one
// "name value unit" line per metric. Exits 1 on a wrong result or a dropped
// request, 2 on a usage error or a load plan over the thread/connection cap.
//
// Usage: relaxbench [--workload=<a,b,...>] [--seed=<s>] [--seconds=<t>]
//                   [--json=<rows.json>] [--trace=<chrome.json>]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "algorithms/sssp.h"
#include "engine/backend_jobs.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/permutation.h"
#include "obs/metrics.h"
#include "relaxbench.h"
#include "sched/backend_registry.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/thread_pin.h"

namespace {

namespace alg = relax::algorithms;
namespace engine = relax::engine;
namespace graph = relax::graph;
namespace obs = relax::obs;
namespace protocol = relax::server::protocol;
namespace sched = relax::sched;
namespace server = relax::server;
using relaxbench::now_ns;
using relaxbench::quantile;
using relaxbench::Span;
using relaxbench::Tracer;

// Load discipline: the reference box has 4 cores, and the benchmark's load
// must come from one process that never runs more threads than that.
constexpr unsigned kMaxThreads = 4;
constexpr unsigned kMaxConnections = 2;
// Set-up is repeated and its median reported, so one slow allocation or
// page-fault storm does not decide setup_s. With 3 repetitions the
// quartile spread of setup_s over 10 mis_batch runs reached 23%.
constexpr int kSetupReps = 5;
// Fewest timed repetitions a batch pass makes, however short --seconds is.
constexpr std::size_t kMinReps = 3;
// An open-loop generator later than this at p99 measured itself, not the
// server; such a run is marked invalid.
constexpr double kMaxLagMs = 1.0;

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

double s_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

// ------------------------------------------------------------ catalogue

/// Which workloads report a metric.
enum class Coverage {
  kAll,       // every workload measures it
  kIdleZero,  // a count or ratio; reads 0 where its layer does not run
  kOwn,       // only the workloads that exercise it report it
};

struct MetricDef {
  const char* name;
  const char* unit;
  Coverage coverage;
  bool trace_only;  // measured only by the traced pass
};

// BENCHMARK.json lists these and every kAll / kIdleZero per-layer metric.
constexpr MetricDef kEndToEnd[] = {
    {"latency_p50_ms", "ms", Coverage::kAll, false},
    {"setup_s", "s", Coverage::kAll, false},
};

// latency_p99_ms and throughput_per_s are end-to-end quantities kept here
// because their run-to-run spread is too wide to bound (see README.md).
constexpr MetricDef kPerLayer[] = {
    {"latency_p99_ms", "ms", Coverage::kAll, false},
    {"throughput_per_s", "1/s", Coverage::kAll, false},
    {"graph.gnm_s", "s", Coverage::kAll, false},
    {"graph.priorities_s", "s", Coverage::kAll, false},
    {"algorithms.seq_s", "s", Coverage::kAll, false},
    {"algorithms.problem_init_ms", "ms", Coverage::kOwn, false},
    {"algorithms.result_ms", "ms", Coverage::kOwn, false},
    {"sched.pop_calls", "count", Coverage::kAll, false},
    {"sched.ns_per_pop", "ns", Coverage::kAll, false},
    {"sched.empty_pop_ratio", "ratio", Coverage::kOwn, false},
    {"sched.pop_ns_p50", "ns", Coverage::kOwn, true},
    {"sched.pop_ns_p99", "ns", Coverage::kOwn, true},
    {"sched.insert_calls", "count", Coverage::kOwn, true},
    {"sched.insert_ns_p50", "ns", Coverage::kOwn, true},
    {"sched.insert_ns_p99", "ns", Coverage::kOwn, true},
    {"sched.time_share", "ratio", Coverage::kOwn, true},
    {"sched.sssp_stale_ratio", "ratio", Coverage::kIdleZero, false},
    {"sched.sssp_pops_per_vertex", "ratio", Coverage::kIdleZero, false},
    {"engine.wasted_ratio", "ratio", Coverage::kIdleZero, false},
    {"engine.dead_skip_ratio", "ratio", Coverage::kIdleZero, false},
    {"engine.busy_ratio", "ratio", Coverage::kIdleZero, false},
    {"engine.parks_per_request", "count", Coverage::kIdleZero, false},
    {"engine.slice_p50_us", "us", Coverage::kOwn, false},
    {"engine.slice_p99_us", "us", Coverage::kOwn, false},
    {"engine.submit_us", "us", Coverage::kOwn, false},
    {"engine.park_p50_us", "us", Coverage::kOwn, false},
    {"server.wire_overhead_ratio", "ratio", Coverage::kIdleZero, false},
    {"server.latency_p50_ms", "ms", Coverage::kOwn, false},
    {"server.wire_overhead_mean_ms", "ms", Coverage::kOwn, false},
    {"server.encode_ns", "ns", Coverage::kOwn, false},
    {"server.decode_ns", "ns", Coverage::kOwn, false},
    {"client.lag_p99_ms", "ms", Coverage::kOwn, false},
    {"client.heavy_latency_p50_ms", "ms", Coverage::kOwn, false},
    {"obs.trace_overhead", "ratio", Coverage::kAll, true},
};

/// How a workload loads the box while it measures. `threads` counts the
/// threads that run at once: engine workers or SSSP threads, plus the
/// server's event loop and the client, which is the main thread. A main
/// thread blocked in wait() is not counted.
struct Plan {
  const char* workload;
  unsigned threads;
  unsigned connections;
  const char* load;
};

constexpr Plan kPlans[] = {
    {"mis_batch", 4, 0, "closed loop, one G(2M,10M) MIS job at a time"},
    {"sssp_batch", 4, 0, "closed loop, one G(300k,1.5M) SSSP run at a time"},
    {"wire_small", 4, 1,
     "open loop at 600 req/s, then closed loop with 8 in flight"},
    {"wire_mixed", 4, 2,
     "open loop, light 300 req/s + heavy 30 req/s, then closed loop with "
     "4 light + 2 heavy in flight"},
};

const Plan* find_plan(std::string_view name) {
  for (const Plan& p : kPlans)
    if (name == p.workload) return &p;
  return nullptr;
}

/// One workload's results.
struct Row {
  const Plan* plan = nullptr;
  bool valid = true;
  std::string invalid_reason;
  bool correct = true;  // no wrong output, no dropped request
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, std::vector<double>> raw;
  std::map<std::string, relaxbench::SelfTime> spans;

  void count(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string json_path;
  std::string trace_path;
};

/// Set-up timings of one repetition, seconds.
struct SetupTimes {
  double gnm = 0.0;
  double priorities = 0.0;
  double seq = 0.0;
  double total = 0.0;
};

void record_setup(Row& row, const SetupTimes& t) {
  row.raw["setup_s"].push_back(t.total);
  row.raw["graph.gnm_s"].push_back(t.gnm);
  row.raw["graph.priorities_s"].push_back(t.priorities);
  row.raw["algorithms.seq_s"].push_back(t.seq);
}

void finish_setup(Row& row) {
  row.e2e["setup_s"] = relaxbench::median(row.raw["setup_s"]);
  for (const char* name :
       {"graph.gnm_s", "graph.priorities_s", "algorithms.seq_s"})
    row.layer[name] = relaxbench::median(row.raw[name]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// latency_p50_ms and latency_p99_ms from one sample set, scaled to ms.
void record_latency(Row& row, const std::vector<double>& samples,
                    double to_ms) {
  std::vector<double> ms = samples;
  for (double& x : ms) x *= to_ms;
  row.e2e["latency_p50_ms"] = quantile(ms, 0.5);
  row.layer["latency_p99_ms"] = quantile(ms, 0.99);
  row.raw["latency_ms"] = std::move(ms);
}

/// Traced over untraced median latency, minus 1.
void record_trace_overhead(Row& row, const std::vector<double>& traced,
                           const std::vector<double>& plain) {
  row.layer["obs.trace_overhead"] =
      relaxbench::median(traced) / relaxbench::median(plain) - 1.0;
}

/// Engine and scheduler metrics from the registry the engine recorded into
/// for `wall_s` seconds; a request is one engine job.
void record_engine(Row& row, const obs::MetricsSnapshot& snap,
                   double wall_s) {
  std::uint64_t claims = 0, pops = 0, processed = 0, failed_deletes = 0,
                dead_skips = 0, empty_polls = 0, parks = 0;
  for (const auto& w : snap.workers) {
    claims += w.claims;
    pops += w.pops;
    processed += w.processed;
    failed_deletes += w.failed_deletes;
    dead_skips += w.dead_skips;
    empty_polls += w.empty_polls;
    parks += w.parks;
  }
  const auto busy_ns = static_cast<double>(snap.slice_ns.sum());
  row.layer["sched.pop_calls"] = ratio(claims, snap.jobs_completed);
  row.layer["sched.ns_per_pop"] = ratio(busy_ns, pops);
  row.layer["sched.empty_pop_ratio"] = ratio(empty_polls, claims);
  row.layer["engine.wasted_ratio"] = ratio(failed_deletes, processed);
  row.layer["engine.dead_skip_ratio"] = ratio(dead_skips, pops);
  row.layer["engine.busy_ratio"] =
      ratio(busy_ns / 1e9, snap.workers.size() * wall_s);
  row.layer["engine.parks_per_request"] = ratio(parks, snap.jobs_completed);
  row.layer["engine.slice_p50_us"] = snap.slice_ns.percentile(50) / 1e3;
  row.layer["engine.slice_p99_us"] = snap.slice_ns.percentile(99) / 1e3;
  row.layer["engine.park_p50_us"] = snap.park_ns.percentile(50) / 1e3;
}

// ------------------------------------------------------------ mis_batch

constexpr graph::Vertex kMisN = 2'000'000;
constexpr graph::EdgeId kMisM = 10'000'000;
constexpr unsigned kMisWorkers = 4;

struct MisInputs {
  graph::Graph g;
  graph::Priorities pri;
  std::vector<std::uint8_t> ref;
  obs::MetricsRegistry registry;  // outlives the engine recording into it
  std::optional<engine::SchedulingEngine> eng;
  std::int64_t engine_start_ns = 0;
};

struct JobSample {
  bool ok = false;
  double total_s = 0.0;
  double init_ms = 0.0;
  double submit_us = 0.0;
  double result_ms = 0.0;
};

using SubmitFn =
    std::function<engine::JobTicket(alg::AtomicMisProblem& problem)>;

/// One job: problem construction -> submit -> wait -> result(), each call
/// in its own span; the check against the sequential MIS is not timed.
JobSample run_mis_job(MisInputs& in, const SubmitFn& submit, Tracer& tr) {
  JobSample out;
  std::vector<std::uint8_t> result;
  {
    auto job = tr.scope("job");
    const std::int64_t t0 = now_ns();
    std::optional<alg::AtomicMisProblem> problem;
    {
      auto s = tr.scope("algorithms.problem_init");
      problem.emplace(in.g, in.pri);
    }
    const std::int64_t t1 = now_ns();
    engine::JobTicket ticket;
    {
      auto s = tr.scope("engine.submit");
      ticket = submit(*problem);
    }
    const std::int64_t t2 = now_ns();
    {
      auto s = tr.scope("engine.wait");
      ticket.wait();
    }
    const std::int64_t t3 = now_ns();
    {
      auto s = tr.scope("algorithms.result");
      result = problem->result();
    }
    const std::int64_t t4 = now_ns();
    out.total_s = s_between(t0, t4);
    out.init_ms = ms_between(t0, t1);
    out.submit_us = ms_between(t1, t2) * 1e3;
    out.result_ms = ms_between(t3, t4);
  }
  auto check = tr.scope("check");
  out.ok = result == in.ref;
  return out;
}

JobSample run_plain_mis_job(MisInputs& in, Tracer& tr) {
  return run_mis_job(
      in,
      [&in](alg::AtomicMisProblem& p) {
        return in.eng->submit_relaxed_backend(p, in.pri,
                                              sched::default_backend());
      },
      tr);
}

/// The same job on the registry's default backend wrapped in TimedQueue,
/// submitted through submit_relaxed_on with the sizing the registry path
/// would use.
JobSample run_timed_mis_job(MisInputs& in, relaxbench::SchedTally& tally,
                            Tracer& tr) {
  const engine::JobConfig cfg;
  const sched::BackendParams params =
      engine::backend_params(cfg, in.eng->width(), kMisN);
  return sched::dispatch_backend(
      sched::default_backend(), params,
      [&](auto tag, auto&&... args) -> JobSample {
        using Queue = typename decltype(tag)::type;
        relaxbench::TimedQueue<Queue> queue(
            std::forward<decltype(args)>(args)...);
        JobSample s = run_mis_job(
            in,
            [&](alg::AtomicMisProblem& p) {
              return in.eng->submit_relaxed_on(p, in.pri, queue, cfg);
            },
            tr);
        for (const auto& t : queue.tallies()) tally.merge(*t);
        return s;
      });
}

std::unique_ptr<MisInputs> mis_setup(Row& row, std::uint64_t seed,
                                     Tracer& tr) {
  auto span = tr.scope("setup");
  SetupTimes t;
  const std::int64_t t0 = now_ns();
  auto in = std::make_unique<MisInputs>();
  {
    auto s = tr.scope("graph.gnm");
    in->g = graph::gnm(kMisN, kMisM, seed);
  }
  const std::int64_t t1 = now_ns();
  {
    auto s = tr.scope("graph.priorities");
    in->pri = graph::random_priorities(kMisN, seed + 1);
  }
  const std::int64_t t2 = now_ns();
  {
    auto s = tr.scope("algorithms.sequential_greedy_mis");
    in->ref = alg::sequential_greedy_mis(in->g, in->pri);
  }
  const std::int64_t t3 = now_ns();
  {
    auto s = tr.scope("engine.construct");
    engine::EngineOptions eo;
    eo.num_threads = kMisWorkers;
    eo.metrics = &in->registry;
    in->engine_start_ns = now_ns();
    in->eng.emplace(eo);
  }
  {
    auto s = tr.scope("warm_up");
    row.count(run_plain_mis_job(*in, tr).ok);
  }
  t.gnm = s_between(t0, t1);
  t.priorities = s_between(t1, t2);
  t.seq = s_between(t2, t3);
  t.total = s_between(t0, now_ns());
  record_setup(row, t);
  return in;
}

struct MisPass {
  std::vector<double> job_s, init_ms, submit_us, result_ms;
  relaxbench::SchedTally sched;
};

MisPass mis_pass(MisInputs& in, Row& row, double seconds, bool timed_queue,
                 Tracer& tr) {
  MisPass pass;
  const std::int64_t start = now_ns();
  while (pass.job_s.size() < kMinReps || s_between(start, now_ns()) < seconds) {
    const JobSample s = timed_queue ? run_timed_mis_job(in, pass.sched, tr)
                                    : run_plain_mis_job(in, tr);
    row.count(s.ok);
    pass.job_s.push_back(s.total_s);
    pass.init_ms.push_back(s.init_ms);
    pass.submit_us.push_back(s.submit_us);
    pass.result_ms.push_back(s.result_ms);
  }
  return pass;
}

void run_mis_batch(Row& row, const Options& opt, Tracer& tr) {
  std::unique_ptr<MisInputs> in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in.reset();  // one input set in memory at a time
    in = mis_setup(row, opt.seed, tr);
  }
  finish_setup(row);

  const bool traced = tr.enabled();
  tr.set_enabled(false);
  const MisPass plain =
      mis_pass(*in, row, traced ? opt.seconds / 2 : opt.seconds, false, tr);
  tr.set_enabled(traced);
  record_latency(row, plain.job_s, 1e3);
  row.layer["throughput_per_s"] = kMisN / relaxbench::median(plain.job_s);
  row.layer["algorithms.problem_init_ms"] = relaxbench::median(plain.init_ms);
  row.layer["algorithms.result_ms"] = relaxbench::median(plain.result_ms);
  row.layer["engine.submit_us"] = relaxbench::median(plain.submit_us);
  {
    auto s = tr.scope("obs.snapshot");
    record_engine(row, in->registry.snapshot(),
                  s_between(in->engine_start_ns, now_ns()));
  }

  if (traced) {
    const MisPass timed = mis_pass(*in, row, opt.seconds / 2, true, tr);
    const relaxbench::SchedTally& t = timed.sched;
    const double jobs = static_cast<double>(timed.job_s.size());
    double worker_ns = 0.0;
    for (const double s : timed.job_s) worker_ns += s * 1e9 * kMisWorkers;
    row.layer["sched.insert_calls"] = t.insert_calls / jobs;
    row.layer["sched.pop_ns_p50"] = quantile(t.pop_ns, 0.5);
    row.layer["sched.pop_ns_p99"] = quantile(t.pop_ns, 0.99);
    row.layer["sched.insert_ns_p50"] = quantile(t.insert_ns, 0.5);
    row.layer["sched.insert_ns_p99"] = quantile(t.insert_ns, 0.99);
    row.layer["sched.time_share"] = ratio(
        static_cast<double>(t.sampled_ns) * relaxbench::SchedTally::kSampleEvery,
        worker_ns);
    record_trace_overhead(row, timed.job_s, plain.job_s);
    for (const Span& s : t.spans) tr.add(s);
  }
}

// ----------------------------------------------------------- sssp_batch

constexpr graph::Vertex kSsspN = 300'000;
constexpr graph::EdgeId kSsspM = 1'500'000;
constexpr unsigned kSsspThreads = 4;
constexpr graph::Vertex kSource = 0;

struct SsspInputs {
  graph::Graph g;
  std::vector<std::uint32_t> weights;
  std::vector<std::uint32_t> ref;
};

struct SsspSample {
  bool ok = false;
  double seconds = 0.0;
  alg::SsspStats stats;
};

SsspSample run_sssp(const SsspInputs& in, Tracer& tr) {
  SsspSample out;
  alg::SsspOptions options;
  options.num_threads = kSsspThreads;
  std::vector<std::uint32_t> dist;
  {
    auto run = tr.scope("run");
    const std::int64_t t0 = now_ns();
    {
      auto s = tr.scope("algorithms.parallel_relaxed_sssp");
      dist = alg::parallel_relaxed_sssp(in.g, in.weights, kSource, options,
                                        &out.stats);
    }
    out.seconds = s_between(t0, now_ns());
  }
  auto check = tr.scope("check");
  out.ok = dist == in.ref;
  return out;
}

std::unique_ptr<SsspInputs> sssp_setup(Row& row, std::uint64_t seed,
                                       Tracer& tr) {
  auto span = tr.scope("setup");
  SetupTimes t;
  const std::int64_t t0 = now_ns();
  auto in = std::make_unique<SsspInputs>();
  {
    auto s = tr.scope("graph.gnm");
    in->g = graph::gnm(kSsspN, kSsspM, seed);
  }
  const std::int64_t t1 = now_ns();
  {
    auto s = tr.scope("graph.edge_weights");
    in->weights = alg::synthetic_edge_weights(in->g, seed, 100);
  }
  const std::int64_t t2 = now_ns();
  {
    auto s = tr.scope("algorithms.dijkstra");
    in->ref = alg::dijkstra(in->g, in->weights, kSource);
  }
  const std::int64_t t3 = now_ns();
  {
    auto s = tr.scope("warm_up");
    row.count(run_sssp(*in, tr).ok);
  }
  t.gnm = s_between(t0, t1);
  t.priorities = s_between(t1, t2);
  t.seq = s_between(t2, t3);
  t.total = s_between(t0, now_ns());
  record_setup(row, t);
  return in;
}

struct SsspPass {
  std::vector<double> run_s;
  std::uint64_t pops = 0, stale = 0, batches = 0;
};

SsspPass sssp_pass(const SsspInputs& in, Row& row, double seconds,
                   Tracer& tr) {
  SsspPass pass;
  const std::int64_t start = now_ns();
  while (pass.run_s.size() < kMinReps || s_between(start, now_ns()) < seconds) {
    const SsspSample s = run_sssp(in, tr);
    row.count(s.ok);
    pass.run_s.push_back(s.seconds);
    pass.pops += s.stats.pops;
    pass.stale += s.stats.stale_pops;
    pass.batches += s.stats.batches;
  }
  return pass;
}

void run_sssp_batch(Row& row, const Options& opt, Tracer& tr) {
  std::unique_ptr<SsspInputs> in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in.reset();
    in = sssp_setup(row, opt.seed, tr);
  }
  finish_setup(row);

  const bool traced = tr.enabled();
  tr.set_enabled(false);
  const SsspPass plain =
      sssp_pass(*in, row, traced ? opt.seconds / 2 : opt.seconds, tr);
  tr.set_enabled(traced);
  record_latency(row, plain.run_s, 1e3);
  row.layer["throughput_per_s"] = kSsspN / relaxbench::median(plain.run_s);
  const auto runs = static_cast<double>(plain.run_s.size());
  double thread_ns = 0.0;  // the SSSP threads are busy for the whole run
  for (const double s : plain.run_s) thread_ns += s * 1e9 * kSsspThreads;
  row.layer["sched.pop_calls"] = plain.batches / runs;
  row.layer["sched.ns_per_pop"] = ratio(thread_ns, plain.pops);
  row.layer["sched.sssp_stale_ratio"] = ratio(plain.stale, plain.pops);
  row.layer["sched.sssp_pops_per_vertex"] = ratio(plain.pops, runs * kSsspN);
  if (traced)
    record_trace_overhead(row, sssp_pass(*in, row, opt.seconds / 2, tr).run_s,
                          plain.run_s);
}

// ----------------------------------------------------------------- wire

/// One tenant's request stream on one connection.
struct Stream {
  unsigned conn = 0;
  std::uint32_t graph_id = 0;
  double rate = 0.0;    // requests per second in the open-loop phase
  unsigned window = 0;  // requests kept in flight in the closed-loop phase
  bool heavy = false;   // latency reported apart from the light tenant's
};

// The rated (open-loop) phase gives the latency; the closed-loop phase
// that follows gives the throughput, with windows that keep both workers
// busy while staying below the admission bound, so nothing is shed. An
// open loop far past capacity was tried for the throughput first; its
// goodput spread further still from run to run (see README.md).
struct WirePlan {
  std::vector<server::GraphSpec> graphs;  // seeds are offsets from --seed
  std::vector<Stream> streams;
  double rated_share = 0.5;  // share of --seconds in the rated phase
  unsigned warm_up_per_stream = 0;
  unsigned connections = 0;
};

WirePlan wire_plan(std::string_view workload) {
  const server::GraphSpec small{4000, 24000, 0};
  const server::GraphSpec large{50000, 250000, 7919};
  WirePlan p;
  if (workload == "wire_small") {
    p.graphs = {small};
    p.streams = {Stream{0, 0, 600.0, 8, false}};
    p.rated_share = 0.6;
    p.warm_up_per_stream = 60;
    p.connections = 1;
  } else {
    p.graphs = {small, large};
    p.streams = {Stream{0, 0, 300.0, 4, false}, Stream{1, 1, 30.0, 2, true}};
    p.rated_share = 0.7;
    p.warm_up_per_stream = 30;
    p.connections = 2;
  }
  return p;
}

constexpr protocol::Kind kKinds[] = {protocol::Kind::kMis,
                                     protocol::Kind::kColoring,
                                     protocol::Kind::kMatching};
/// Expected OK-response `processed` per resident graph, indexed by Kind.
using ExpectedCounts = std::vector<std::array<std::uint64_t, 3>>;

constexpr std::int64_t kDrainNs = 2'000'000'000;
constexpr std::uint32_t kServerTid = 100;  // trace track of server.request

/// Single-threaded load generator over 1-2 loopback connections: sends on
/// an open-loop schedule or keeps a window of requests in flight, reads
/// replies with ppoll between sends, and checks every OK reply against the
/// sequential count.
class WireClient {
 public:
  struct Phase {
    bool closed = false;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;         // end of the send window
    std::uint64_t ok_in_window = 0;  // OK replies read before end_ns
    std::vector<double> light_ms;    // due -> reply read, light tenant, OK
    std::vector<double> heavy_ms;    // the same for the heavy tenant
    std::vector<double> server_ms;   // server-side latency, light, OK
    std::vector<double> rtt_ms;      // write -> reply read, light, OK
    std::vector<double> lag_ms;      // send start - due, open loop only
  };

  WireClient(std::uint16_t port, unsigned connections,
             const ExpectedCounts& expected, Tracer& tr)
      : expected_(&expected), tr_(&tr) {
    for (unsigned i = 0; i < connections; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) throw std::runtime_error("socket failed");
      conns_.push_back(Conn{fd, {}, true});
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0)
        throw std::runtime_error(std::string("connect: ") +
                                 std::strerror(errno));
    }
  }

  ~WireClient() {
    for (const Conn& c : conns_) ::close(c.fd);
  }

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Closed loop: each request is sent after the previous reply arrived.
  void warm_up(const std::vector<Stream>& streams, unsigned per_stream) {
    auto span = tr_->scope("client.warm_up");
    begin_phase(true, now_ns(), INT64_MAX, streams.size());
    for (unsigned i = 0; i < per_stream; ++i) {
      for (std::size_t s = 0; s < streams.size(); ++s) {
        send(streams[s], s, i, now_ns());
        const std::int64_t deadline = now_ns() + kDrainNs;
        while (!records_.back().done && any_open() && now_ns() < deadline)
          poll_for(deadline - now_ns());
      }
    }
  }

  /// Sends for `seconds`: on each stream's open-loop schedule, or (closed)
  /// keeping each stream's window of requests in flight. Then waits
  /// (bounded) for the phase's replies.
  Phase run(const std::vector<Stream>& streams, double seconds, bool closed,
            const char* span_name) {
    auto span = tr_->scope(span_name);
    // The open loop starts 1 ms out, so its first request is not born late.
    const std::int64_t start = now_ns() + (closed ? 0 : 1'000'000);
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    begin_phase(closed, start, end, streams.size());
    std::vector<std::uint64_t> seq(streams.size(), 0);
    const auto due = [&](std::size_t s) {
      return start + static_cast<std::int64_t>(static_cast<double>(seq[s]) *
                                               1e9 / streams[s].rate);
    };
    while (any_open()) {
      const std::int64_t now = now_ns();
      if (now >= end) break;
      std::int64_t next = end;
      for (std::size_t s = 0; s < streams.size(); ++s) {
        if (closed) {
          while (conns_[streams[s].conn].open &&
                 in_flight_[s] < streams[s].window)
            send(streams[s], s, seq[s]++, now);
          continue;
        }
        while (due(s) < end && due(s) <= now) {
          send(streams[s], s, seq[s], due(s));
          ++seq[s];
        }
        if (due(s) < end) next = std::min(next, due(s));
      }
      if (!closed && next >= end) break;
      poll_for(next - now_ns());
    }
    const std::int64_t deadline = end + kDrainNs;
    while (outstanding_[cur_] > 0 && any_open() && now_ns() < deadline)
      poll_for(std::min<std::int64_t>(deadline - now_ns(), 10'000'000));
    return phases_[cur_];
  }

  /// Waits for every outstanding reply; what is still missing is dropped.
  void finish() {
    const std::int64_t deadline = now_ns() + kDrainNs;
    while (any_outstanding() && any_open() && now_ns() < deadline)
      poll_for(std::min<std::int64_t>(deadline - now_ns(), 10'000'000));
    for (const Record& r : records_) {
      if (r.done) continue;
      ++failed_;
      correct_ = false;
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return records_.size(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] const std::vector<double>& encode_ns() const {
    return encode_ns_;
  }
  [[nodiscard]] const std::vector<double>& decode_ns() const {
    return decode_ns_;
  }

 private:
  struct Conn {
    int fd = -1;
    protocol::FrameReader reader;
    bool open = true;
  };

  struct Record {
    std::int64_t due_ns = 0;
    std::int64_t send_ns = 0;
    std::uint32_t phase = 0;
    std::uint32_t stream = 0;
    std::uint32_t graph_id = 0;
    protocol::Kind kind = protocol::Kind::kMis;
    bool heavy = false;
    bool done = false;
  };

  void begin_phase(bool closed, std::int64_t start, std::int64_t end,
                   std::size_t streams) {
    Phase ph;
    ph.closed = closed;
    ph.start_ns = start;
    ph.end_ns = end;
    phases_.push_back(std::move(ph));
    outstanding_.push_back(0);
    in_flight_.assign(streams, 0);
    cur_ = static_cast<std::uint32_t>(phases_.size() - 1);
  }

  bool any_open() const {
    for (const Conn& c : conns_)
      if (c.open) return true;
    return false;
  }

  bool any_outstanding() const {
    for (const std::uint64_t n : outstanding_)
      if (n > 0) return true;
    return false;
  }

  void send(const Stream& s, std::size_t stream, std::uint64_t seq,
            std::int64_t due_ns) {
    const std::uint64_t id = records_.size() + 1;  // 0 means "no id"
    Record rec;
    rec.due_ns = due_ns;
    rec.phase = cur_;
    rec.stream = static_cast<std::uint32_t>(stream);
    rec.graph_id = s.graph_id;
    rec.kind = kKinds[seq % 3];
    rec.heavy = s.heavy;
    protocol::Request req;
    req.id = id;
    req.kind = rec.kind;
    req.graph_id = s.graph_id;
    req.seed = id;
    const std::int64_t t0 = now_ns();
    wire_.clear();
    protocol::encode(req, wire_);
    const std::int64_t t1 = now_ns();
    const bool sent = send_all(conns_[s.conn].fd);
    const std::int64_t t2 = now_ns();
    rec.send_ns = t1;
    encode_ns_.push_back(static_cast<double>(t1 - t0));
    Phase& ph = phases_[cur_];
    if (!ph.closed) ph.lag_ms.push_back(ms_between(due_ns, t0));
    tr_->add(Span{"client.encode", t0, t1, -1, 0, 0, id});
    tr_->add(Span{"client.send", t1, t2, -1, 0, 0, id});
    if (sent) {
      ++outstanding_[cur_];
      ++in_flight_[stream];
    } else {
      conns_[s.conn].open = false;
      rec.done = true;
      ++failed_;
      correct_ = false;
    }
    records_.push_back(rec);
  }

  bool send_all(int fd) {
    std::size_t off = 0;
    while (off < wire_.size()) {
      const ssize_t w = ::send(fd, wire_.data() + off, wire_.size() - off,
                               MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<std::size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    return true;
  }

  void poll_for(std::int64_t timeout_ns) {
    std::array<pollfd, kMaxConnections> fds{};
    std::array<std::size_t, kMaxConnections> which{};
    nfds_t n = 0;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!conns_[i].open) continue;
      fds[n] = pollfd{conns_[i].fd, POLLIN, 0};
      which[n++] = i;
    }
    timeout_ns = std::max<std::int64_t>(timeout_ns, 0);
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), n, &ts, nullptr) <= 0) return;
    for (nfds_t i = 0; i < n; ++i)
      if (fds[i].revents != 0) receive(conns_[which[i]]);
  }

  void receive(Conn& c) {
    std::uint8_t buf[16384];
    for (;;) {
      const std::int64_t t0 = now_ns();
      const ssize_t r = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (r <= 0) {  // the server closed the connection or it failed
        c.open = false;
        return;
      }
      const std::int64_t t1 = now_ns();
      tr_->add(Span{"client.recv", t0, t1, -1, 0, 0, 0});
      c.reader.feed(
          std::span<const std::uint8_t>(buf, static_cast<std::size_t>(r)));
      if (c.reader.corrupt()) {
        c.open = false;
        return;
      }
      while (auto payload = c.reader.next()) {
        const std::int64_t d0 = now_ns();
        const auto resp =
            protocol::decode_response(std::span<const std::uint8_t>(*payload));
        const std::int64_t d1 = now_ns();
        decode_ns_.push_back(static_cast<double>(d1 - d0));
        if (!resp) {
          ++failed_;
          correct_ = false;
          continue;
        }
        tr_->add(Span{"client.decode", d0, d1, -1, 0, 0, resp->id});
        handle(*resp, t1);
      }
    }
  }

  void handle(const protocol::Response& resp, std::int64_t recv_ns) {
    if (resp.id == 0 || resp.id > records_.size() ||
        records_[resp.id - 1].done) {
      ++failed_;
      correct_ = false;
      return;
    }
    Record& rec = records_[resp.id - 1];
    rec.done = true;
    --outstanding_[rec.phase];
    if (rec.phase == cur_) --in_flight_[rec.stream];
    Phase& ph = phases_[rec.phase];
    Span server_span{"server.request", rec.send_ns, recv_ns, -1, 0,
                     kServerTid + (rec.heavy ? 1u : 0u), resp.id};
    server_span.async = true;
    tr_->add(server_span);
    switch (resp.status) {
      case protocol::Status::kOk: {
        const auto kind = static_cast<std::size_t>(rec.kind);
        if (resp.processed != (*expected_)[rec.graph_id][kind]) {
          ++failed_;
          correct_ = false;
          return;
        }
        (rec.heavy ? ph.heavy_ms : ph.light_ms)
            .push_back(ms_between(rec.due_ns, recv_ns));
        if (!rec.heavy) {
          ph.server_ms.push_back(static_cast<double>(resp.latency_ns) / 1e6);
          ph.rtt_ms.push_back(ms_between(rec.send_ns, recv_ns));
        }
        if (recv_ns <= ph.end_ns) ++ph.ok_in_window;
        return;
      }
      case protocol::Status::kBusy:
        // Neither phase loads the server past its admission bound, so a
        // shed request is a failed one, though not a wrong output.
        ++failed_;
        return;
      case protocol::Status::kError:
        ++failed_;
        correct_ = false;
        return;
    }
  }

  const ExpectedCounts* expected_;
  Tracer* tr_;
  std::vector<Conn> conns_;
  std::vector<Record> records_;  // request id - 1 -> record
  std::vector<Phase> phases_;
  std::vector<std::uint64_t> outstanding_;  // per phase
  std::vector<unsigned> in_flight_;         // per stream, current phase
  std::uint32_t cur_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::uint8_t> wire_;
  std::vector<double> encode_ns_, decode_ns_;
};

constexpr unsigned kWireWorkers = 2;

/// Pins the calling thread to a CPU slot (util::pin_thread_to_cpu) and
/// restores its previous affinity when destroyed. Taken only after the
/// engine's workers exist, since new threads inherit the creator's mask.
class ScopedPin {
 public:
  explicit ScopedPin(unsigned slot) {
    saved_ok_ =
        ::pthread_getaffinity_np(::pthread_self(), sizeof(saved_), &saved_) ==
        0;
    relax::util::pin_thread_to_cpu(slot);
  }
  ~ScopedPin() {
    if (saved_ok_)
      ::pthread_setaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool saved_ok_ = false;
};

/// A running server with its event-loop thread and a connected client.
/// Members are torn down client first, then the loop, then the server.
struct WireInputs {
  WireInputs() = default;
  WireInputs(const WireInputs&) = delete;
  WireInputs& operator=(const WireInputs&) = delete;
  ~WireInputs() {
    client.reset();
    if (server) server->request_stop();
    if (loop.joinable()) loop.join();
  }

  ExpectedCounts expected;
  obs::MetricsRegistry registry;  // outlives the server recording into it
  std::optional<server::JobServer> server;
  std::int64_t server_start_ns = 0;
  std::thread loop;
  std::optional<WireClient> client;
};

std::unique_ptr<WireInputs> wire_setup(Row& row, const WirePlan& plan,
                                       std::uint64_t seed, Tracer& tr) {
  auto span = tr.scope("setup");
  SetupTimes t;
  const std::int64_t t0 = now_ns();
  auto in = std::make_unique<WireInputs>();
  std::vector<server::GraphSpec> specs = plan.graphs;
  for (server::GraphSpec& spec : specs) {
    spec.seed += seed;
    std::int64_t a = now_ns();
    graph::Graph g;
    {
      auto s = tr.scope("graph.gnm");
      g = graph::gnm(spec.n, spec.m, spec.seed);
    }
    std::int64_t b = now_ns();
    t.gnm += s_between(a, b);
    // JobServer derives a resident graph's priorities from its spec seed
    // this way (vertices seed + 1, edges seed + 2); the oracle must match.
    std::optional<alg::EdgeIncidence> incidence;
    graph::Priorities vertex_pri, edge_pri;
    {
      auto s = tr.scope("graph.priorities");
      vertex_pri = graph::random_priorities(spec.n, spec.seed + 1);
      incidence.emplace(g);
      edge_pri = graph::random_priorities(incidence->num_edges(), spec.seed + 2);
    }
    a = now_ns();
    t.priorities += s_between(b, a);
    std::uint64_t mis = 0, matching = 0;
    {
      auto s = tr.scope("algorithms.sequential_greedy_mis");
      for (const auto v : alg::sequential_greedy_mis(g, vertex_pri)) mis += v;
    }
    {
      auto s = tr.scope("algorithms.sequential_greedy_matching");
      for (const auto e : alg::sequential_greedy_matching(*incidence, edge_pri))
        matching += e;
    }
    t.seq += s_between(a, now_ns());
    // Coloring colours every vertex: n processed tasks.
    in->expected.push_back({mis, spec.n, matching});
  }
  {
    auto s = tr.scope("server.construct");
    server::ServerOptions so;
    so.engine.num_threads = kWireWorkers;
    so.graphs = specs;
    so.metrics = &in->registry;
    in->server_start_ns = now_ns();
    in->server.emplace(std::move(so));
  }
  server::JobServer* srv = &*in->server;
  // The engine pins its workers to the first CPU slots; the event loop
  // and the client take the next two, so no thread shares a CPU.
  in->loop = std::thread([srv] {
    relax::util::pin_thread_to_cpu(kWireWorkers);
    try {
      srv->run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: server loop: %s\n", e.what());
    }
  });
  {
    auto s = tr.scope("client.connect");
    in->client.emplace(in->server->port(), plan.connections, in->expected, tr);
  }
  in->client->warm_up(plan.streams, plan.warm_up_per_stream);
  t.total = s_between(t0, now_ns());
  record_setup(row, t);
  return in;
}

struct WirePass {
  WireClient::Phase rated, closed;
  obs::MetricsSnapshot snap;  // taken when the rated phase has drained
  double snap_wall_s = 0.0;   // server lifetime at the snapshot
};

WirePass wire_pass(WireInputs& in, const WirePlan& plan, double seconds,
                   Tracer& tr) {
  WirePass pass;
  pass.rated = in.client->run(plan.streams, seconds * plan.rated_share, false,
                              "client.rated");
  {
    auto s = tr.scope("obs.snapshot");
    pass.snap = in.registry.snapshot();
    pass.snap_wall_s = s_between(in.server_start_ns, now_ns());
  }
  pass.closed = in.client->run(plan.streams,
                               seconds * (1.0 - plan.rated_share), true,
                               "client.closed");
  return pass;
}

void run_wire(Row& row, const Options& opt, Tracer& tr) {
  const WirePlan plan = wire_plan(row.plan->workload);
  // Only the client's counts of the kept set-up matter; earlier
  // repetitions are checked by their own clients before teardown.
  std::unique_ptr<WireInputs> in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (in) {
      in->client->finish();
      row.attempted += in->client->attempted();
      row.failed += in->client->failed();
      row.correct = row.correct && in->client->correct();
    }
    in.reset();
    in = wire_setup(row, plan, opt.seed, tr);
  }
  finish_setup(row);

  const ScopedPin pin(kWireWorkers + 1);
  const bool traced = tr.enabled();
  tr.set_enabled(false);
  const WirePass plain =
      wire_pass(*in, plan, traced ? opt.seconds / 2 : opt.seconds, tr);
  tr.set_enabled(traced);
  if (traced)
    record_trace_overhead(
        row, wire_pass(*in, plan, opt.seconds / 2, tr).rated.light_ms,
        plain.rated.light_ms);
  WireClient& client = *in->client;
  client.finish();
  row.attempted += client.attempted();
  row.failed += client.failed();
  row.correct = row.correct && client.correct();

  const WireClient::Phase& rated = plain.rated;
  record_latency(row, rated.light_ms, 1.0);
  row.layer["throughput_per_s"] =
      plain.closed.ok_in_window /
      s_between(plain.closed.start_ns, plain.closed.end_ns);

  const double lag_p99 = quantile(rated.lag_ms, 0.99);
  row.layer["client.lag_p99_ms"] = lag_p99;
  if (lag_p99 > kMaxLagMs) {
    row.valid = false;
    row.invalid_reason = "client.lag_p99_ms above 1 ms";
  }
  if (!rated.heavy_ms.empty())
    row.layer["client.heavy_latency_p50_ms"] =
        relaxbench::median(rated.heavy_ms);
  const double rtt_mean = relaxbench::mean(rated.rtt_ms);
  const double server_mean = relaxbench::mean(rated.server_ms);
  row.layer["server.latency_p50_ms"] = relaxbench::median(rated.server_ms);
  row.layer["server.wire_overhead_mean_ms"] = rtt_mean - server_mean;
  row.layer["server.wire_overhead_ratio"] =
      ratio(rtt_mean - server_mean, rtt_mean);
  row.layer["server.encode_ns"] = relaxbench::median(client.encode_ns());
  row.layer["server.decode_ns"] = relaxbench::median(client.decode_ns());
  record_engine(row, plain.snap, plain.snap_wall_s);
}

// --------------------------------------------------------------- output

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The metrics a row reports, in catalogue order: trace-only ones only in a
/// traced run, kOwn ones where the workload measured them, kIdleZero ones
/// as 0 where their layer did not run.
std::vector<std::pair<const MetricDef*, double>> row_metrics(
    const Row& row, std::span<const MetricDef> defs,
    const std::map<std::string, double>& values, bool traced) {
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(defs.begin(), defs.end(), [&](const auto& d) {
      return name == d.name;
    });
    if (!known)
      throw std::logic_error(std::string(row.plan->workload) +
                             " set an uncatalogued metric " + name);
  }
  std::vector<std::pair<const MetricDef*, double>> out;
  for (const MetricDef& d : defs) {
    if (d.trace_only && !traced) continue;
    const auto it = values.find(d.name);
    if (it != values.end()) {
      out.emplace_back(&d, it->second);
    } else if (d.coverage == Coverage::kIdleZero) {
      out.emplace_back(&d, 0.0);
    } else if (d.coverage == Coverage::kAll) {
      throw std::logic_error(std::string(row.plan->workload) +
                             " did not measure " + d.name);
    }
  }
  return out;
}

void print_row(const Row& row, bool traced) {
  std::printf("# workload %s\n", row.plan->workload);
  for (const auto& [d, v] : row_metrics(row, kEndToEnd, row.e2e, traced))
    std::printf("%s %.6g %s\n", d->name, v, d->unit);
  for (const auto& [d, v] : row_metrics(row, kPerLayer, row.layer, traced))
    std::printf("%s %.6g %s\n", d->name, v, d->unit);
  std::printf("ops_attempted %llu count\nops_failed %llu count\n"
              "failed_ratio %.6g ratio\n",
              static_cast<unsigned long long>(row.attempted),
              static_cast<unsigned long long>(row.failed),
              ratio(static_cast<double>(row.failed),
                    static_cast<double>(row.attempted)));
  for (const auto& [name, t] : row.spans)
    std::printf("span %s count=%llu self_ms=%.3f total_ms=%.3f\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.self_ms, t.total_ms);
  if (!row.valid) std::printf("# invalid: %s\n", row.invalid_reason.c_str());
  if (!row.correct) std::printf("# WRONG OUTPUT or dropped request\n");
  std::fflush(stdout);
}

std::string metrics_json(const Row& row, std::span<const MetricDef> defs,
                         const std::map<std::string, double>& values,
                         bool traced) {
  std::string out = "{";
  for (const auto& [d, v] : row_metrics(row, defs, values, traced)) {
    if (out.size() > 1) out += ", ";
    out += json_string(d->name) + ": {\"value\": " + json_number(v) +
           ", \"unit\": " + json_string(d->unit) + "}";
  }
  return out + "}";
}

bool write_json(const std::string& path, const Options& opt, bool traced,
                const std::vector<Row>& rows) {
  std::string out = "{\"header\": {\"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"max_threads\": " + std::to_string(kMaxThreads) +
                    ", \"max_connections\": " +
                    std::to_string(kMaxConnections) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"seconds\": " + json_number(opt.seconds) +
                    ", \"traced\": " + (traced ? "true" : "false") +
                    "},\n \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += i == 0 ? "\n  {" : ",\n  {";
    out += "\"workload\": " + json_string(r.plan->workload);
    out += ", \"threads\": " + std::to_string(r.plan->threads);
    out += ", \"connections\": " + std::to_string(r.plan->connections);
    out += ", \"load\": " + json_string(r.plan->load);
    out += ", \"valid\": " + std::string(r.valid ? "true" : "false");
    out += ", \"invalid_reason\": " + json_string(r.invalid_reason);
    out += ", \"correct\": " + std::string(r.correct ? "true" : "false");
    out += ", \"ops_attempted\": " + std::to_string(r.attempted);
    out += ", \"ops_failed\": " + std::to_string(r.failed);
    out += ",\n   \"e2e\": " + metrics_json(r, kEndToEnd, r.e2e, traced);
    out += ",\n   \"layer\": " + metrics_json(r, kPerLayer, r.layer, traced);
    out += ",\n   \"raw\": {";
    bool first = true;
    for (const auto& [name, values] : r.raw) {
      out += first ? "" : ", ";
      first = false;
      out += json_string(name) + ": [";
      for (std::size_t k = 0; k < values.size(); ++k)
        out += (k == 0 ? "" : ", ") + json_number(values[k]);
      out += "]";
    }
    out += "},\n   \"spans\": {";
    first = true;
    for (const auto& [name, t] : r.spans) {
      out += first ? "" : ", ";
      first = false;
      out += json_string(name) + ": {\"count\": " + std::to_string(t.count) +
             ", \"self_ms\": " + json_number(t.self_ms) +
             ", \"total_ms\": " + json_number(t.total_ms) + "}";
    }
    out += "}}";
  }
  out += "\n]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && wrote;
}

// ---------------------------------------------------------------- options

[[noreturn]] void usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: relaxbench [--workload=<a,b,...>] [--seed=<s>] "
               "[--seconds=<t>] [--json=<rows.json>] [--trace=<chrome.json>]\n"
               "workloads: mis_batch, sssp_batch, wire_small, wire_mixed "
               "(default: all)\n",
               error);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  std::string workloads = "mis_batch,sssp_batch,wire_small,wire_mixed";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (!arg.starts_with("--") || eq == std::string_view::npos)
      usage("flags take the form --name=value");
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string value(arg.substr(eq + 1));
    char* end = nullptr;
    if (key == "workload") {
      workloads = value;
    } else if (key == "seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (key == "seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 600.0)
        usage("--seconds takes a number in (0, 600]");
    } else if (key == "json") {
      opt.json_path = value;
    } else if (key == "trace") {
      opt.trace_path = value;
    } else {
      usage("unknown flag");
    }
  }
  std::size_t pos = 0;
  while (pos <= workloads.size()) {
    const std::size_t comma = std::min(workloads.find(',', pos), workloads.size());
    opt.workloads.push_back(workloads.substr(pos, comma - pos));
    if (find_plan(opt.workloads.back()) == nullptr) usage("unknown workload");
    pos = comma + 1;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const bool traced = !opt.trace_path.empty();
  std::printf("# relaxbench nproc=%u seed=%llu seconds=%g traced=%d "
              "max_threads=%u max_connections=%u\n",
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              traced ? 1 : 0, kMaxThreads, kMaxConnections);
  for (const std::string& w : opt.workloads) {
    const Plan& p = *find_plan(w);
    std::printf("# plan %s: threads=%u connections=%u load: %s\n",
                p.workload, p.threads, p.connections, p.load);
    if (p.threads > kMaxThreads || p.connections > kMaxConnections) {
      std::fprintf(stderr,
                   "error: %s would run %u threads on %u connections; the "
                   "cap is %u threads and %u connections\n",
                   p.workload, p.threads, p.connections, kMaxThreads,
                   kMaxConnections);
      return 2;
    }
  }
  std::fflush(stdout);

  Tracer tracer;
  std::vector<Row> rows;
  try {
    for (const std::string& w : opt.workloads) {
      Row row;
      row.plan = find_plan(w);
      tracer.begin_process(w);
      tracer.set_enabled(traced);
      if (w == "mis_batch") {
        run_mis_batch(row, opt, tracer);
      } else if (w == "sssp_batch") {
        run_sssp_batch(row, opt, tracer);
      } else {
        run_wire(row, opt, tracer);
      }
      row.spans = tracer.self_times();
      print_row(row, traced);
      rows.push_back(std::move(row));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!opt.json_path.empty() && !write_json(opt.json_path, opt, traced, rows)) {
    std::fprintf(stderr, "error: cannot write %s\n", opt.json_path.c_str());
    return 1;
  }
  if (traced && !tracer.write_chrome(opt.trace_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", opt.trace_path.c_str());
    return 1;
  }
  for (const Row& r : rows)
    if (!r.correct) return 1;
  return 0;
}
