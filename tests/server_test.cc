// End-to-end tests for the networked job server (src/server/server.h):
// loopback round trips for every problem kind, deterministic BUSY shedding
// at admission, error responses for bad requests, connection teardown on
// corrupt streams, and the in-process submit_local path.
#include "server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "graph/permutation.h"
#include "obs/metrics.h"

namespace protocol = relax::server::protocol;
using relax::server::GraphSpec;
using relax::server::JobServer;
using relax::server::ServerOptions;

namespace {

/// Problem whose tasks spin on a shared gate — holds engine slots open
/// deterministically so admission-full states can be scripted.
class GatedProblem {
 public:
  GatedProblem(std::uint32_t n, const std::atomic<bool>& gate)
      : n_(n), gate_(&gate) {}
  [[nodiscard]] std::uint32_t num_tasks() const { return n_; }
  relax::core::Outcome try_process(relax::core::Task /*t*/) {
    return gate_->load(std::memory_order_acquire)
               ? relax::core::Outcome::kProcessed
               : relax::core::Outcome::kNotReady;
  }

 private:
  std::uint32_t n_;
  const std::atomic<bool>* gate_;
};

ServerOptions small_server_options() {
  ServerOptions opts;
  opts.engine.num_threads = 2;
  opts.graphs = {GraphSpec{200, 600, 1}};  // small: tests stay fast
  return opts;
}

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Blocking-reads one response frame off the socket; nullopt on EOF.
std::optional<protocol::Response> read_response(int fd,
                                                protocol::FrameReader& r) {
  for (;;) {
    if (auto payload = r.next())
      return protocol::decode_response(
          std::span<const std::uint8_t>(*payload));
    std::uint8_t buf[1024];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) return std::nullopt;
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    r.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    if (r.corrupt()) return std::nullopt;
  }
}

std::optional<protocol::Response> call(int fd, protocol::FrameReader& r,
                                       const protocol::Request& req) {
  std::vector<std::uint8_t> wire;
  protocol::encode(req, wire);
  if (!send_all(fd, wire)) return std::nullopt;
  return read_response(fd, r);
}

/// RAII: run() on a background thread, stopped and joined on destruction.
class Serving {
 public:
  explicit Serving(JobServer& server)
      : server_(server), thread_([this] { server_.run(); }) {}
  ~Serving() {
    server_.request_stop();
    thread_.join();
  }

 private:
  JobServer& server_;
  std::thread thread_;
};

}  // namespace

TEST(JobServer, LoopbackRoundTripEveryKind) {
  JobServer server(small_server_options());
  Serving serving(server);
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);
  protocol::FrameReader reader;

  std::uint64_t id = 100;
  for (const auto kind :
       {protocol::Kind::kMis, protocol::Kind::kColoring,
        protocol::Kind::kMatching}) {
    protocol::Request req;
    req.id = ++id;
    req.kind = kind;
    req.audit = true;  // exercise the Definition 1 monitor over the wire
    const auto resp = call(fd, reader, req);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->id, id);
    EXPECT_EQ(resp->status, protocol::Status::kOk);
    EXPECT_EQ(resp->error, protocol::ErrorCode::kNone);
    EXPECT_GT(resp->iterations, 0u);
    EXPECT_GT(resp->processed, 0u);
    EXPECT_GT(resp->latency_ns, 0u);
    EXPECT_GT(resp->rank_samples, 0u) << "audit was requested";
  }
  ::close(fd);
}

TEST(JobServer, PipelinedRequestsAllComplete) {
  ServerOptions opts = small_server_options();
  opts.engine.max_in_flight = 4;
  opts.engine.max_pending = 64;
  relax::obs::MetricsRegistry registry;
  opts.metrics = &registry;
  JobServer server(std::move(opts));
  Serving serving(server);
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);

  // Fire 16 requests without reading, then collect: responses may arrive
  // in any order (the engine multiplexes), ids are the correlation.
  constexpr int kRequests = 16;
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < kRequests; ++i) {
    protocol::Request req;
    req.id = static_cast<std::uint64_t>(i) + 1;
    req.kind = static_cast<protocol::Kind>(i % 3);
    req.seed = static_cast<std::uint64_t>(i) + 1;
    protocol::encode(req, wire);
  }
  ASSERT_TRUE(send_all(fd, wire));

  protocol::FrameReader reader;
  std::vector<bool> seen(kRequests + 1, false);
  for (int i = 0; i < kRequests; ++i) {
    const auto resp = read_response(fd, reader);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, protocol::Status::kOk);
    ASSERT_GE(resp->id, 1u);
    ASSERT_LE(resp->id, static_cast<std::uint64_t>(kRequests));
    EXPECT_FALSE(seen[resp->id]) << "duplicate response id " << resp->id;
    seen[resp->id] = true;
  }
  ::close(fd);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.server.requests_accepted, kRequests);
  EXPECT_EQ(snap.server.requests_completed, kRequests);
  EXPECT_EQ(snap.server.requests_rejected, 0u);
  EXPECT_EQ(snap.server.request_latency_ns.count(), kRequests);
}

// Deterministic BUSY: gate jobs fill max_in_flight + max_pending, so the
// next request MUST be shed with an explicit BUSY response — bounded
// admission made visible on the wire.
TEST(JobServer, ShedsBusyWhenAdmissionIsFull) {
  ServerOptions opts = small_server_options();
  opts.engine.max_in_flight = 1;
  opts.engine.max_pending = 1;
  relax::obs::MetricsRegistry registry;
  opts.metrics = &registry;
  JobServer server(std::move(opts));
  Serving serving(server);

  std::atomic<bool> gate{false};
  GatedProblem j1(64, gate), j2(64, gate);
  const auto pri = relax::graph::identity_priorities(64);
  const relax::sched::BackendInfo& backend = relax::sched::default_backend();
  auto& eng = server.engine();
  auto t1 = eng.submit_relaxed_backend(j1, pri, backend);  // active, gated
  auto t2 = eng.submit_relaxed_backend(j2, pri, backend);  // fills the queue

  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);
  protocol::FrameReader reader;
  protocol::Request req;
  req.id = 7;
  const auto busy = call(fd, reader, req);
  ASSERT_TRUE(busy.has_value());
  EXPECT_EQ(busy->id, 7u);
  EXPECT_EQ(busy->status, protocol::Status::kBusy);

  gate.store(true, std::memory_order_release);
  t1.wait();
  t2.wait();

  // Capacity is back: the same request now completes on the same
  // connection — BUSY is a retryable state, not a connection error.
  req.id = 8;
  const auto ok = call(fd, reader, req);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->id, 8u);
  EXPECT_EQ(ok->status, protocol::Status::kOk);
  ::close(fd);

  const auto snap = registry.snapshot();
  EXPECT_GE(snap.server.requests_rejected, 1u);
}

TEST(JobServer, RejectsBadGraphAndBadBackend) {
  JobServer server(small_server_options());
  Serving serving(server);
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);
  protocol::FrameReader reader;

  protocol::Request req;
  req.id = 1;
  req.graph_id = 42;  // only graph 0 is resident
  auto resp = call(fd, reader, req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, protocol::Status::kError);
  EXPECT_EQ(resp->error, protocol::ErrorCode::kBadGraph);

  req.graph_id = 0;
  req.id = 2;
  req.backend = "no-such-backend";
  resp = call(fd, reader, req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->id, 2u);
  EXPECT_EQ(resp->status, protocol::Status::kError);
  EXPECT_EQ(resp->error, protocol::ErrorCode::kBadBackend);

  // The connection survived both rejections.
  req.id = 3;
  req.backend.clear();
  resp = call(fd, reader, req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, protocol::Status::kOk);
  ::close(fd);
}

TEST(JobServer, AnswersUndecodablePayloadAndKeepsConnection) {
  JobServer server(small_server_options());
  Serving serving(server);
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);
  protocol::FrameReader reader;

  // Well-framed garbage: correct length prefix, meaningless payload.
  const std::vector<std::uint8_t> frame = {6, 0, 0, 0,  // length 6
                                           9, 9, 9, 9, 9, 9};
  ASSERT_TRUE(send_all(fd, frame));
  const auto resp = read_response(fd, reader);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->id, 0u) << "an undecodable request has no usable id";
  EXPECT_EQ(resp->status, protocol::Status::kError);
  EXPECT_EQ(resp->error, protocol::ErrorCode::kBadFrame);

  // Framing was never broken, so the stream is still usable.
  protocol::Request req;
  req.id = 11;
  const auto ok = call(fd, reader, req);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->id, 11u);
  EXPECT_EQ(ok->status, protocol::Status::kOk);
  ::close(fd);
}

TEST(JobServer, ClosesConnectionOnOversizedLengthPrefix) {
  JobServer server(small_server_options());
  Serving serving(server);
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);

  const std::uint32_t len = protocol::kMaxFrameBytes + 1;
  const std::vector<std::uint8_t> prefix = {
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 24)};
  ASSERT_TRUE(send_all(fd, prefix));

  // No resync is possible past a bad length: the server must drop us.
  std::uint8_t buf[64];
  ssize_t n;
  do {
    n = ::read(fd, buf, sizeof(buf));
  } while (n < 0 && errno == EINTR);
  EXPECT_EQ(n, 0) << "expected EOF after a corrupt length prefix";
  ::close(fd);
}

TEST(JobServer, SubmitLocalDrivesTheSamePath) {
  ServerOptions opts = small_server_options();
  opts.listen = false;  // in-process mode: no sockets at all
  JobServer server(std::move(opts));
  EXPECT_EQ(server.num_graphs(), 1u);

  for (const auto kind :
       {protocol::Kind::kMis, protocol::Kind::kColoring,
        protocol::Kind::kMatching}) {
    protocol::Request req;
    req.id = 5;
    req.kind = kind;
    std::promise<protocol::Response> done;
    auto fut = done.get_future();
    protocol::Response immediate;
    const auto status = server.submit_local(
        req, [&done](const protocol::Response& r) { done.set_value(r); },
        &immediate);
    ASSERT_EQ(status, protocol::Status::kOk);
    const auto resp = fut.get();
    EXPECT_EQ(resp.id, 5u);
    EXPECT_EQ(resp.status, protocol::Status::kOk);
    EXPECT_GT(resp.processed, 0u);
  }

  // Validation errors surface synchronously in *immediate.
  protocol::Request bad;
  bad.id = 6;
  bad.graph_id = 9;
  protocol::Response immediate;
  const auto status = server.submit_local(
      bad, [](const protocol::Response&) { FAIL() << "must not deliver"; },
      &immediate);
  EXPECT_EQ(status, protocol::Status::kError);
  EXPECT_EQ(immediate.id, 6u);
  EXPECT_EQ(immediate.error, protocol::ErrorCode::kBadGraph);
}
