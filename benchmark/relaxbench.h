// Support code for relaxbench (relaxbench.cc): sample statistics, the
// in-memory span recorder with its Chrome trace-event writer, and the
// timing decorator the traced mis_batch pass puts around the scheduler.
//
// Everything here sits outside the library: spans wrap calls into a layer
// from the caller's side, and the decorator forwards every scheduler call
// unchanged, timing one call in kSampleEvery.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sched/handles.h"
#include "sched/scheduler.h"

namespace relaxbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Quantile q in [0, 1] by linear interpolation between closest ranks; 0 for
/// an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Small dense id for the calling thread (trace-event tid). The main thread
/// records its spans under tid 0; other threads get 1, 2, ... on first use.
inline std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 for a root
  std::uint32_t pid = 0;     // workload index
  std::uint32_t tid = 0;
  std::uint64_t flow = 0;    // wire request id linking spans; 0 = none
  bool async = false;        // may overlap its track's other spans
};

struct SelfTime {
  std::uint64_t count = 0;
  double self_ms = 0.0;   // duration minus the time child spans cover
  double total_ms = 0.0;  // duration
};

/// In-memory span recorder. Nested spans (scope()) come from the main thread
/// only; spans other threads produced are handed over with add() once those
/// threads are quiescent. Disabled, every call is a branch and nothing more.
class Tracer {
 public:
  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::int32_t index_ = -1;
  };

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Starts a new trace process (one per workload).
  void begin_process(std::string name) {
    pid_ = static_cast<std::uint32_t>(process_names_.size());
    process_names_.push_back(std::move(name));
  }

  /// Opens a span on the main thread, nested in the innermost open one.
  [[nodiscard]] Scope scope(const char* name, std::uint64_t flow = 0) {
    if (!enabled_) return Scope{};
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0,
                          open_.empty() ? -1 : open_.back(), pid_, 0, flow});
    open_.push_back(index);
    return Scope(this, index);
  }

  /// Records a finished span; main-thread ones nest in the open span.
  void add(Span span) {
    if (!enabled_) return;
    span.pid = pid_;
    if (span.tid == 0 && !open_.empty()) span.parent = open_.back();
    spans_.push_back(span);
  }

  /// Self time per span name for the current process.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.pid == pid_ && s.parent >= 0)
        child_ms[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.pid != pid_) continue;
      const double total = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      SelfTime& t = out[s.name];
      ++t.count;
      t.total_ms += total;
      t.self_ms += total - child_ms[i];
    }
    return out;
  }

  /// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev): one
  /// complete event per span, flow events joining spans of one request.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    bool first = true;
    const auto sep = [&] {
      if (!first) std::fputs(",\n", f);
      first = false;
    };
    for (std::size_t p = 0; p < process_names_.size(); ++p) {
      sep();
      std::fprintf(f,
                   "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%zu,"
                   "\"args\":{\"name\":\"%s\"}}",
                   p, process_names_[p].c_str());
    }
    // Flow steps: the first span of a request starts the arrow, later ones
    // continue it, the last one ends it.
    using FlowKey = std::pair<std::uint32_t, std::uint64_t>;
    std::map<FlowKey, std::size_t> total;
    for (const Span& s : spans_)
      if (s.flow != 0 && !s.async) ++total[{s.pid, s.flow}];
    std::map<FlowKey, std::size_t> seen;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = static_cast<double>(s.start_ns - t0) / 1e3;
      const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      sep();
      if (s.async) {  // pipelined requests overlap: async begin/end pair
        std::fprintf(f,
                     "{\"ph\":\"b\",\"name\":\"%s\",\"cat\":\"wire\","
                     "\"id\":%llu,\"pid\":%u,\"tid\":%u,\"ts\":%.3f},\n"
                     "{\"ph\":\"e\",\"name\":\"%s\",\"cat\":\"wire\","
                     "\"id\":%llu,\"pid\":%u,\"tid\":%u,\"ts\":%.3f}",
                     s.name, static_cast<unsigned long long>(s.flow), s.pid,
                     s.tid, ts, s.name,
                     static_cast<unsigned long long>(s.flow), s.pid, s.tid,
                     ts + dur);
        continue;
      }
      std::fprintf(f,
                   "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%u,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%d,\"request\":%llu}}",
                   s.name, s.pid, s.tid, ts, dur, i, s.parent,
                   static_cast<unsigned long long>(s.flow));
      if (s.flow == 0) continue;
      const FlowKey key{s.pid, s.flow};
      if (total[key] < 2) continue;
      const std::size_t step = ++seen[key];
      const char* ph = step == 1 ? "s" : step == total[key] ? "f" : "t";
      sep();
      std::fprintf(f,
                   "{\"ph\":\"%s\",\"name\":\"request\",\"cat\":\"wire\","
                   "\"id\":%llu,\"pid\":%u,\"tid\":%u,\"ts\":%.3f%s}",
                   ph, static_cast<unsigned long long>(s.flow), s.pid, s.tid,
                   ts, ph[0] == 's' ? "" : ",\"bp\":\"e\"");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  bool enabled_ = false;
  std::uint32_t pid_ = 0;
  std::vector<std::string> process_names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  // stack of open main-thread spans
};

/// What one scheduler handle saw: one call in kSampleEvery timed, and the
/// insert calls counted (the engine's registry counts the pops).
struct SchedTally {
  static constexpr std::uint32_t kSampleEvery = 64;

  std::uint64_t insert_calls = 0;
  std::uint64_t sampled_ns = 0;  // sum over timed calls, pops and inserts
  std::vector<double> pop_ns;
  std::vector<double> insert_ns;
  std::vector<Span> spans;  // the first timed calls, for the trace

  void merge(const SchedTally& o) {
    insert_calls += o.insert_calls;
    sampled_ns += o.sampled_ns;
    pop_ns.insert(pop_ns.end(), o.pop_ns.begin(), o.pop_ns.end());
    insert_ns.insert(insert_ns.end(), o.insert_ns.begin(), o.insert_ns.end());
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  }
};

/// Scheduler decorator for the traced mis_batch pass: a job runs on it
/// through SchedulingEngine::submit_relaxed_on. Every handle call is
/// forwarded to the wrapped backend's own handle. Each handle writes only
/// its own tally, so the hot path takes no lock; tallies are read after the
/// job's wait() returns.
template <typename Queue>
class TimedQueue {
 public:
  static constexpr std::size_t kMaxSpansPerKind = 32;  // per handle
  using Tally = SchedTally;

  class Handle {
    using Inner = decltype(relax::sched::make_handle(std::declval<Queue&>()));

   public:
    Handle(Inner inner, Tally* tally) : inner_(std::move(inner)), tally_(tally) {}

    void insert(relax::sched::Priority p) {
      timed(false, [&] { inner_.insert(p); });
    }
    void insert_batch(std::span<const relax::sched::Priority> keys) {
      timed(false, [&] { relax::sched::insert_batch(inner_, keys); });
    }
    void bulk_insert(std::span<const relax::sched::Priority> keys)
      requires requires(Inner& h, std::span<const relax::sched::Priority> s) {
        h.bulk_insert(s);
      }
    {
      timed(false, [&] { inner_.bulk_insert(keys); });
    }
    std::optional<relax::sched::Priority> approx_get_min() {
      std::optional<relax::sched::Priority> got;
      timed(true, [&] { got = inner_.approx_get_min(); });
      return got;
    }
    std::size_t approx_get_min_batch(std::size_t k,
                                     std::vector<relax::sched::Priority>& out) {
      std::size_t got = 0;
      timed(true, [&] { got = relax::sched::pop_batch(inner_, k, out); });
      return got;
    }

   private:
    template <typename Op>
    void timed(bool pop, Op&& op) {
      if (!pop) ++tally_->insert_calls;
      if (++tick_ % Tally::kSampleEvery != 0) {
        op();
        return;
      }
      const std::int64_t t0 = now_ns();
      op();
      const std::int64_t t1 = now_ns();
      tally_->sampled_ns += static_cast<std::uint64_t>(t1 - t0);
      std::vector<double>& samples = pop ? tally_->pop_ns : tally_->insert_ns;
      samples.push_back(static_cast<double>(t1 - t0));
      if (samples.size() <= kMaxSpansPerKind)
        tally_->spans.push_back(Span{pop ? "sched.pop" : "sched.insert", t0,
                                     t1, -1, 0, thread_index(), 0});
    }

    Inner inner_;
    Tally* tally_;
    std::uint32_t tick_ = 0;
  };

  template <typename... Args>
  explicit TimedQueue(Args&&... args) : queue_(std::forward<Args>(args)...) {}

  TimedQueue(const TimedQueue&) = delete;
  TimedQueue& operator=(const TimedQueue&) = delete;

  /// Called by each engine worker on its first slice of a job.
  [[nodiscard]] Handle get_handle() {
    std::lock_guard<std::mutex> guard(mu_);
    tallies_.push_back(std::make_unique<Tally>());
    return Handle(relax::sched::make_handle(queue_), tallies_.back().get());
  }

  /// Forwarded so the job's occupancy consults and its quiescent initial
  /// load behave exactly as on the bare backend.
  [[nodiscard]] std::size_t size() const
    requires requires(const Queue& q) { q.size(); }
  {
    return queue_.size();
  }
  void bulk_load(std::span<const relax::sched::Priority> keys)
    requires requires(Queue& q, std::span<const relax::sched::Priority> s) {
      q.bulk_load(s);
    }
  {
    queue_.bulk_load(keys);
  }

  /// Per-handle tallies; read only after the job's wait() has returned.
  [[nodiscard]] const std::vector<std::unique_ptr<Tally>>& tallies() const {
    return tallies_;
  }

 private:
  Queue queue_;
  std::mutex mu_;  // guards tallies_ while workers open their handles
  std::vector<std::unique_ptr<Tally>> tallies_;
};

}  // namespace relaxbench
