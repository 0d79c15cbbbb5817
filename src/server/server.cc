#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "graph/generators.h"
#include "sched/backend_registry.h"

namespace relax::server {

namespace {

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

}  // namespace

JobServer::JobServer(ServerOptions opts) : opts_(std::move(opts)) {
  graphs_.reserve(opts_.graphs.size());
  for (const GraphSpec& spec : opts_.graphs) {
    graph::Graph g = graph::gnm(spec.n, spec.m, spec.seed);
    graph::Priorities vertex_pri =
        graph::random_priorities(spec.n, spec.seed + 1);
    algorithms::EdgeIncidence incidence(g);
    graph::Priorities edge_pri =
        graph::random_priorities(incidence.num_edges(), spec.seed + 2);
    graphs_.push_back(ResidentGraph{std::move(g), std::move(vertex_pri),
                                    std::move(incidence),
                                    std::move(edge_pri)});
  }
  if (opts_.engine.metrics == nullptr) opts_.engine.metrics = opts_.metrics;
  engine_.emplace(opts_.engine);

  if (!opts_.listen) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("invalid listen host: " + opts_.host);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw_errno("bind");
  if (::listen(listen_fd_, 128) != 0) throw_errno("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0)
    throw_errno("getsockname");
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw_errno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // listen sentinel
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0)
    throw_errno("epoll_ctl(listen)");
  ev.data.u64 = 1;  // wake sentinel
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0)
    throw_errno("epoll_ctl(wake)");
}

JobServer::~JobServer() {
  // Drain in-flight jobs first: their completion callbacks still push onto
  // the (alive) channel and write the (alive) eventfd; nobody reads either
  // again, which is fine — the connections are going away regardless.
  engine_.reset();
  for (auto& [id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void JobServer::request_stop() noexcept {
  stop_.store(true, std::memory_order_release);
  wake();
}

void JobServer::wake() noexcept {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // write(2) is async-signal-safe; a short/failed write only means the
  // loop was already awake (eventfd add never short-writes in practice).
  [[maybe_unused]] const ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
}

void JobServer::run() {
  if (!opts_.listen)
    throw std::logic_error("JobServer::run() in in-process mode");
  std::array<epoll_event, 64> events;
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      const std::uint64_t tag = ev.data.u64;
      if (tag == 0) {
        handle_accept();
        continue;
      }
      if (tag == 1) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) ==
               static_cast<ssize_t>(sizeof(drained))) {
        }
        drain_completions();
        continue;
      }
      if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(tag);
        continue;
      }
      if ((ev.events & EPOLLIN) != 0) {
        auto it = conns_.find(tag);
        if (it != conns_.end()) handle_readable(it->second);
      }
      if ((ev.events & EPOLLOUT) != 0) {
        auto it = conns_.find(tag);  // re-find: the read may have closed it
        if (it != conns_.end()) handle_writable(it->second);
      }
    }
  }
  // Stop: drop every connection. In-flight jobs keep running (the engine
  // owns them); their completions land on the channel and are dropped with
  // it — by then no client is listening.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) close_connection(id);
}

void JobServer::handle_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    // Replies are small frames written as soon as a job completes; with
    // Nagle on, each one would wait for the client's next request to carry
    // the ACK of the previous reply.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    if (opts_.metrics != nullptr)
      opts_.metrics->server().connections_opened.add();
  }
}

void JobServer::handle_readable(Connection& conn) {
  const std::uint64_t id = conn.id;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t r = ::read(conn.fd, buf, sizeof(buf));
    if (r > 0) {
      conn.reader.feed(
          std::span<const std::uint8_t>(buf, static_cast<std::size_t>(r)));
      if (conn.reader.corrupt()) {
        // A bad length prefix is unrecoverable — there is no frame
        // boundary to resync on. Count it and drop the stream.
        if (opts_.metrics != nullptr)
          opts_.metrics->server().request_errors.add();
        close_connection(id);
        return;
      }
      while (auto payload = conn.reader.next()) {
        handle_frame(conn, std::span<const std::uint8_t>(*payload));
        if (conns_.find(id) == conns_.end()) return;  // frame closed us
      }
      continue;
    }
    if (r == 0) {  // orderly client close
      close_connection(id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_connection(id);
    return;
  }
}

void JobServer::handle_writable(Connection& conn) { flush_writes(conn); }

void JobServer::handle_frame(Connection& conn,
                             std::span<const std::uint8_t> payload) {
  const auto req = protocol::decode_request(payload);
  if (!req) {
    // Framing was intact but the payload is not a request we understand:
    // answer (id 0 — an undecodable request has no trustworthy id) and
    // keep the connection; the next frame may be fine.
    if (opts_.metrics != nullptr)
      opts_.metrics->server().request_errors.add();
    protocol::Response resp;
    resp.status = protocol::Status::kError;
    resp.error = protocol::ErrorCode::kBadFrame;
    resp.message = "undecodable request payload";
    queue_response(conn, resp);
    return;
  }
  const std::uint64_t conn_id = conn.id;
  protocol::Response immediate;
  const protocol::Status status = admit_request(
      *req,
      [this, conn_id](const protocol::Response& resp) {
        {
          std::lock_guard<std::mutex> guard(completions_mu_);
          completions_.push_back(Completion{conn_id, resp});
        }
        wake();
      },
      &immediate);
  if (status != protocol::Status::kOk) queue_response(conn, immediate);
}

protocol::Status JobServer::admit_request(
    const protocol::Request& req,
    std::function<void(const protocol::Response&)> deliver,
    protocol::Response* immediate) {
  const auto reject = [&](protocol::ErrorCode code, std::string msg) {
    if (opts_.metrics != nullptr)
      opts_.metrics->server().request_errors.add();
    *immediate = protocol::Response{};
    immediate->id = req.id;
    immediate->status = protocol::Status::kError;
    immediate->error = code;
    immediate->message = std::move(msg);
    return protocol::Status::kError;
  };
  if (req.graph_id >= graphs_.size())
    return reject(protocol::ErrorCode::kBadGraph,
                  "graph_id names no resident graph");
  const sched::BackendInfo* backend = nullptr;
  if (req.backend.empty()) {
    if (!opts_.backend_rotation.empty()) {
      // Defaulted requests round-robin through the rotation (the
      // --backend=mix multi-tenant pool); a request that names a backend
      // bypasses it below.
      const std::uint64_t at =
          rotation_next_.fetch_add(1, std::memory_order_relaxed);
      backend = sched::find_backend(
          opts_.backend_rotation[at % opts_.backend_rotation.size()]);
    } else {
      backend = opts_.default_backend.empty()
                    ? &sched::default_backend()
                    : sched::find_backend(opts_.default_backend);
    }
  } else {
    backend = sched::find_backend(req.backend);
  }
  if (backend == nullptr)
    return reject(protocol::ErrorCode::kBadBackend,
                  "unknown backend '" + req.backend + "'");

  engine::JobConfig cfg;
  cfg.seed = req.seed;
  if (req.pop_batch == 0 && !req.pop_batch_auto) {
    cfg.pop_batch = opts_.default_pop_batch;
    cfg.pop_batch_auto = opts_.default_pop_batch_auto;
  } else {
    cfg.pop_batch = std::clamp<std::uint32_t>(
        req.pop_batch == 0 ? engine::JobConfig::kDefaultAutoPopBatch
                           : req.pop_batch,
        1, engine::JobConfig::kMaxPopBatch);
    cfg.pop_batch_auto = req.pop_batch_auto;
  }
  cfg.monitor_relaxation = req.audit;
  // QoS weight: 0 on the wire means "server default" (--default-weight);
  // pre-weight clients decode as 1 and keep their historical share.
  cfg.weight = std::clamp<std::uint32_t>(
      req.weight == 0 ? opts_.default_weight : req.weight, 1,
      engine::JobConfig::kMaxWeight);

  // Per-request problem storage, owned by the completion callback: the
  // engine is done with the job before the callback fires (CompletionFn
  // contract), so the holder's destruction there is the earliest safe
  // point — and on BUSY it dies right here, nothing was admitted.
  struct Holder {
    std::unique_ptr<algorithms::AtomicMisProblem> mis;
    std::unique_ptr<algorithms::AtomicColoringProblem> coloring;
    std::unique_ptr<algorithms::AtomicMatchingProblem> matching;
  };
  auto holder = std::make_shared<Holder>();
  const std::uint64_t start_ns = now_ns();
  obs::MetricsRegistry* metrics = opts_.metrics;
  engine::CompletionFn on_complete =
      [deliver = std::move(deliver), holder, id = req.id, start_ns,
       metrics](const core::ExecutionStats& stats) {
        protocol::Response resp;
        resp.id = id;
        resp.status = protocol::Status::kOk;
        resp.iterations = stats.iterations;
        resp.processed = stats.processed;
        resp.failed_deletes = stats.failed_deletes;
        resp.latency_ns = now_ns() - start_ns;
        resp.rank_samples = stats.rank_samples;
        resp.mean_rank_error = stats.mean_rank_error;
        resp.max_rank_error = stats.max_rank_error;
        if (metrics != nullptr) {
          metrics->server().requests_completed.add();
          metrics->server().request_latency_ns.record(resp.latency_ns);
        }
        deliver(resp);
      };

  ResidentGraph& rg = graphs_[req.graph_id];
  const auto try_admit = [&](auto& problem, const graph::Priorities& pri) {
    return engine_->try_submit(
        engine::make_backend_job(*backend, problem, pri, engine_->width(),
                                 cfg),
        std::move(on_complete));
  };
  std::optional<engine::JobTicket> ticket;
  switch (req.kind) {
    case protocol::Kind::kMis:
      holder->mis = std::make_unique<algorithms::AtomicMisProblem>(
          rg.g, rg.vertex_pri);
      ticket = try_admit(*holder->mis, rg.vertex_pri);
      break;
    case protocol::Kind::kColoring:
      holder->coloring = std::make_unique<algorithms::AtomicColoringProblem>(
          rg.g, rg.vertex_pri);
      ticket = try_admit(*holder->coloring, rg.vertex_pri);
      break;
    case protocol::Kind::kMatching:
      holder->matching = std::make_unique<algorithms::AtomicMatchingProblem>(
          rg.incidence, rg.edge_pri);
      ticket = try_admit(*holder->matching, rg.edge_pri);
      break;
  }
  if (!ticket) {  // admission full: shed with BUSY, never queue unboundedly
    if (opts_.metrics != nullptr)
      opts_.metrics->server().requests_rejected.add();
    *immediate = protocol::Response{};
    immediate->id = req.id;
    immediate->status = protocol::Status::kBusy;
    return protocol::Status::kBusy;
  }
  if (opts_.metrics != nullptr)
    opts_.metrics->server().requests_accepted.add();
  return protocol::Status::kOk;
}

protocol::Status JobServer::submit_local(
    const protocol::Request& req,
    std::function<void(const protocol::Response&)> deliver,
    protocol::Response* immediate) {
  return admit_request(req, std::move(deliver), immediate);
}

void JobServer::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> guard(completions_mu_);
    batch.swap(completions_);
  }
  for (const Completion& done : batch) {
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // connection gone; reply unread
    queue_response(it->second, done.response);
  }
}

void JobServer::queue_response(Connection& conn,
                               const protocol::Response& resp) {
  protocol::encode(resp, conn.out);
  flush_writes(conn);
}

bool JobServer::flush_writes(Connection& conn) {
  const std::uint64_t id = conn.id;
  while (conn.out_pos < conn.out.size()) {
    const ssize_t w = ::write(conn.fd, conn.out.data() + conn.out_pos,
                              conn.out.size() - conn.out_pos);
    if (w > 0) {
      conn.out_pos += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(id);
    return false;
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
    if (conn.want_write) update_epoll(conn, false);
    return true;
  }
  // Bounded buffering: a reader slower than its own response stream gets
  // closed instead of growing the buffer without limit.
  if (conn.out.size() - conn.out_pos > opts_.max_out_buffer) {
    close_connection(id);
    return false;
  }
  if (!conn.want_write) update_epoll(conn, true);
  return true;
}

void JobServer::update_epoll(Connection& conn, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
    conn.want_write = want_write;
}

void JobServer::close_connection(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
  if (opts_.metrics != nullptr)
    opts_.metrics->server().connections_closed.add();
}

}  // namespace relax::server
