#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serving/clock.hpp"
#include "serving/daemon.hpp"
#include "serving/fleet.hpp"
#include "serving/service.hpp"
#include "serving/stats.hpp"
#include "serving/workload.hpp"
#include "serving_goldens.hpp"
#include "util/run_control.hpp"

namespace fcad::serving {
namespace {

Request make_request(std::int64_t id, int user, int branch, double arrival_us) {
  Request r;
  r.id = id;
  r.user = user;
  r.branch = branch;
  r.arrival_us = arrival_us;
  return r;
}

ServiceModel make_service(std::vector<BranchService> branches) {
  ServiceModel m;
  m.branches = std::move(branches);
  return m;
}

/// A mixed-user trace with two branches, moderately loaded.
std::vector<Request> make_trace(int n, double spacing_us = 400.0) {
  std::vector<Request> trace;
  trace.reserve(n);
  for (int i = 0; i < n; ++i) {
    trace.push_back(make_request(i, i % 5, i % 2, i * spacing_us));
  }
  return trace;
}

// ------------------------------------------------------------------ parity --
TEST(DaemonTest, RunTraceMatchesSimulateFleetBitExactly) {
  // The headline contract: the same trace through the daemon's online
  // submit path (admission off) and through simulate_fleet must produce
  // identical per-request decisions and latencies — across shard counts
  // and dispatch policies.
  const ServiceModel service = make_service({{2, 3000.0}, {2, 5000.0}});
  const std::vector<Request> trace = make_trace(200);

  for (int shards : {1, 2, 4}) {
    for (DispatchPolicy policy :
         {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastLoaded,
          DispatchPolicy::kBranchAffinity}) {
      ServeSpec spec;
      spec.fleet.instances = 4;
      spec.fleet.shards = shards;
      spec.fleet.policy = policy;
      spec.fleet.keep_records = true;

      auto reference = simulate_fleet(service, trace, spec);
      ASSERT_TRUE(reference.is_ok());

      const Daemon daemon(service, spec);
      auto live = daemon.run_trace(trace);
      ASSERT_TRUE(live.is_ok());
      EXPECT_EQ(live->shed, 0);

      EXPECT_EQ(serving_csv_row({}, *reference),
                serving_csv_row({}, live->stats));
      ASSERT_EQ(reference->records.size(), live->stats.records.size());
      for (std::size_t i = 0; i < reference->records.size(); ++i) {
        const RequestRecord& a = reference->records[i];
        const RequestRecord& b = live->stats.records[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.user, b.user);
        EXPECT_EQ(a.branch, b.branch);
        EXPECT_EQ(a.instance, b.instance);
        EXPECT_EQ(a.arrival_us, b.arrival_us);
        EXPECT_EQ(a.start_us, b.start_us);    // bit-identical doubles
        EXPECT_EQ(a.finish_us, b.finish_us);  // bit-identical doubles
      }
    }
  }
}

TEST(DaemonTest, RunTraceIsDeterministicAcrossThreadCounts) {
  const ServiceModel service = make_service({{2, 3000.0}, {1, 4000.0}});
  const std::vector<Request> trace = make_trace(300);

  ServeSpec spec;
  spec.fleet.instances = 4;
  spec.fleet.shards = 4;
  spec.fleet.keep_records = true;

  // Goldens captured before the daemon shared fleet.cpp's shard loop. The
  // default window never fills on these 75-request shards; a 16-completion
  // window sheds, which pins which samples feed it and in what order.
  struct Golden {
    int window;
    std::int64_t shed;
    const char* csv;
    const char* digest;
  };
  for (const Golden& golden :
       {Golden{256, 0,
               "300,300,904.7045,58270.0000,35000.0000,185000.0000,"
               "206000.0000,212000.0000,203000.0000,225,1.0000,49.5507,76,"
               "33333.3000,0.5433,0,0.6220,0,0,0,0,0",
               "e7255f193ac98dc1fa40f605860b77e4"},
        Golden{16, 115,
               "185,185,1388.8889,25073.5135,23000.0000,59000.0000,"
               "73000.0000,74600.0000,70000.0000,138,1.0000,29.9745,27,"
               "33333.3000,0.2595,0,0.9478,0,0,0,0,0",
               "fb839dd5c212a949eadc442320e6c27c"}}) {
    const DaemonOptions options{.admission_enabled = true,
                                .admission_window = golden.window};
    spec.fleet.threads = 1;
    const Daemon single(service, spec, options);
    auto a = single.run_trace(trace);
    spec.fleet.threads = 4;
    const Daemon pooled(service, spec, options);
    auto b = pooled.run_trace(trace);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    EXPECT_EQ(a->shed, b->shed);
    EXPECT_EQ(serving_csv_row({}, a->stats), serving_csv_row({}, b->stats));
    for (const DaemonResult* run : {&*a, &*b}) {
      EXPECT_EQ(run->shed, golden.shed) << golden.window;
      EXPECT_EQ(csv_line(run->stats), golden.csv) << golden.window;
      EXPECT_EQ(decisions_digest(run->stats), golden.digest) << golden.window;
    }
  }
}

// --------------------------------------------------------------- admission --
TEST(DaemonTest, AdmissionShedsUnderOverloadAndBalancesTheBooks) {
  // One slow instance (8 ms per pass), arrivals every 2 ms: the backlog —
  // and with it every completion latency — grows without bound. Shedding
  // starts only once `admission_window` completions have landed, so the
  // arrival rate must stay close enough to the service rate for the window
  // to fill mid-trace; after that the rolling p99 is far above the bound
  // and the daemon refuses the rest of the trace.
  const ServiceModel service = make_service({{1, 8000.0}});
  std::vector<Request> trace;
  for (int i = 0; i < 400; ++i) {
    trace.push_back(make_request(i, 0, 0, i * 2000.0));
  }

  ServeSpec spec;
  spec.fleet.instances = 1;
  spec.fleet.sla_bound_us = 10000;
  spec.fleet.keep_records = true;

  DaemonOptions options;
  options.admission_enabled = true;
  options.admission_window = 8;

  const Daemon daemon(service, spec, options);
  auto result = daemon.run_trace(trace);
  ASSERT_TRUE(result.is_ok());
  EXPECT_GT(result->shed, 0);
  // Shed requests never enter the engine: admitted + shed must cover the
  // trace exactly, and stats are over admitted requests only.
  EXPECT_EQ(result->stats.completed + result->shed,
            static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(result->stats.offered, result->stats.completed);

  // Goldens captured before the daemon shared fleet.cpp's shard loop.
  EXPECT_EQ(result->shed, 371);
  EXPECT_EQ(csv_line(result->stats),
            "29,29,125.0000,92000.0000,92000.0000,170000.0000,176000.0000,"
            "176000.0000,168000.0000,29,1.0000,10.5000,22,10000.0000,0.9655,"
            "0,1.0000,0,0,0,0,0");
  ASSERT_EQ(result->stats.records.size(), 29u);
  EXPECT_EQ(decisions_digest(result->stats),
            "edaceb499854c55a9fb84419e9d44b6f");
  const RequestRecord& last = result->stats.records.back();
  EXPECT_EQ(last.id, 28);
  EXPECT_EQ(last.start_us, 224000.0);
  EXPECT_EQ(last.finish_us, 232000.0);
}

TEST(DaemonTest, AdmissionOffNeverSheds) {
  const ServiceModel service = make_service({{1, 8000.0}});
  std::vector<Request> trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back(make_request(i, 0, 0, i * 100.0));
  }
  ServeSpec spec;
  spec.fleet.instances = 1;
  spec.fleet.sla_bound_us = 10000;
  const Daemon daemon(service, spec);  // admission disabled by default
  auto result = daemon.run_trace(trace);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->shed, 0);
  EXPECT_EQ(result->stats.completed, static_cast<std::int64_t>(trace.size()));
}

// -------------------------------------------------------------- validation --
TEST(DaemonTest, BothEntryPointsValidateAdmissionOptions) {
  const ServiceModel service = make_service({{1, 2000.0}, {1, 2000.0}});
  const std::vector<Request> trace = make_trace(20);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    DaemonOptions options;
    const char* field;
  };
  const std::vector<Case> cases = {
      {{.admission_enabled = true, .admission_window = 0},
       "admission_window"},
      {{.admission_enabled = true, .admission_window = -3},
       "admission_window"},
      {{.admission_enabled = true, .admission_headroom = nan},
       "admission_headroom"},
      {{.admission_enabled = true, .admission_headroom = inf},
       "admission_headroom"},
      {{.admission_enabled = true, .admission_headroom = 0},
       "admission_headroom"},
      {{.admission_headroom = -1}, "admission_headroom"},
  };
  for (const Case& c : cases) {
    ServeSpec spec;
    const Daemon replay(service, spec, c.options);
    auto traced = replay.run_trace(trace);
    ASSERT_FALSE(traced.is_ok()) << c.field;
    EXPECT_EQ(traced.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(traced.status().message().find(c.field), std::string::npos)
        << traced.status().message();

    spec.fleet.clock = ClockKind::kSteady;
    DaemonOptions live_options = c.options;
    live_options.socket_path = "/tmp/fcad_daemon_invalid_admission.sock";
    Daemon live(service, spec, live_options);
    auto served = live.serve();
    ASSERT_FALSE(served.is_ok()) << c.field;
    EXPECT_EQ(served.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(served.status().message().find(c.field), std::string::npos)
        << served.status().message();
  }
  // With admission off the window is unused and may be anything.
  const Daemon off(service, ServeSpec{}, {.admission_window = 0});
  EXPECT_TRUE(off.run_trace(trace).is_ok());
}

TEST(DaemonTest, AdmissionRejectsCheckpointAndProcessSharding) {
  // A checkpoint carries no shed count, and a process range is a partial
  // run: neither can balance admitted + shed against the trace.
  const ServiceModel service = make_service({{1, 2000.0}, {1, 2000.0}});
  const std::vector<Request> trace = make_trace(20);
  ServeSpec checkpointed;
  checkpointed.fleet.checkpoint_path =
      (std::filesystem::path(::testing::TempDir()) / "fcad-daemon-adm.ckpt")
          .string();
  ServeSpec process_sharded;
  process_sharded.fleet.instances = 2;
  process_sharded.fleet.shards = 2;
  process_sharded.fleet.process_count = 2;
  for (const auto& [spec, setting] :
       {std::pair{checkpointed, "checkpoint_path"},
        std::pair{process_sharded, "process_count"}}) {
    const Daemon daemon(service, spec, {.admission_enabled = true});
    auto result = daemon.run_trace(trace);
    ASSERT_FALSE(result.is_ok()) << setting;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = result.status().message();
    EXPECT_NE(message.find("admission_enabled"), std::string::npos)
        << message;
    EXPECT_NE(message.find(setting), std::string::npos) << message;
  }
  EXPECT_FALSE(std::filesystem::exists(checkpointed.fleet.checkpoint_path));
}

TEST(DaemonTest, RunTraceHonoursEveryReplayOption) {
  // run_trace is simulate_fleet's replay: every option behaves the same way
  // through both entry points.
  const ServiceModel service = make_service({{2, 3000.0}, {1, 4000.0}});
  const std::vector<Request> trace = make_trace(400);
  ServeSpec base;
  base.fleet.instances = 4;
  base.fleet.shards = 2;
  base.fleet.threads = 1;

  // Sketch latency accounting.
  ServeSpec sketch = base;
  sketch.fleet.latency_mode = LatencyMode::kSketch;
  auto reference = simulate_fleet(service, trace, sketch);
  ASSERT_TRUE(reference.is_ok());
  auto live = Daemon(service, sketch).run_trace(trace);
  ASSERT_TRUE(live.is_ok());
  EXPECT_EQ(live->stats.latency_mode, LatencyMode::kSketch);
  EXPECT_EQ(serving_csv_row({}, *reference), serving_csv_row({}, live->stats));

  // Invalid specs are rejected exactly like simulate_fleet rejects them.
  ServeSpec records_in_sketch = sketch;
  records_in_sketch.fleet.keep_records = true;
  ServeSpec process_range = base;
  process_range.fleet.process_count = 2;
  for (const ServeSpec& bad : {records_in_sketch, process_range}) {
    auto replayed = simulate_fleet(service, trace, bad);
    auto traced = Daemon(service, bad).run_trace(trace);
    ASSERT_FALSE(replayed.is_ok());
    ASSERT_FALSE(traced.is_ok());
    EXPECT_EQ(traced.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(traced.status().message(), replayed.status().message());
  }

  // Progress ticks, cancellation, and checkpoint resume. The shards run
  // one after the other, and at 300 of 400 completions one has finished
  // whichever ran first (they hold 240 and 160 requests).
  ServeSpec checkpointed = base;
  checkpointed.fleet.checkpoint_path =
      (std::filesystem::path(::testing::TempDir()) / "fcad-daemon-trace.ckpt")
          .string();
  std::filesystem::remove(checkpointed.fleet.checkpoint_path);
  util::RunControl control;
  std::vector<util::ProgressEvent> events;
  control.on_progress = [&](const util::ProgressEvent& event) {
    events.push_back(event);
    if (event.step >= 300) control.cancel.request_cancel();
  };
  const Daemon daemon(service, checkpointed);
  {
    const util::RunScope scope(control);
    auto cancelled = daemon.run_trace(trace, &scope);
    ASSERT_FALSE(cancelled.is_ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  }
  std::vector<int> steps;
  for (const util::ProgressEvent& event : events) steps.push_back(event.step);
  EXPECT_EQ(steps, (std::vector<int>{21, 40, 60, 81, 100, 120, 141, 160, 180,
                                     201, 220, 240, 260, 280, 300}));
  ASSERT_TRUE(std::filesystem::exists(checkpointed.fleet.checkpoint_path));
  // The resumed run counts on from the reloaded shard's 240 requests.
  util::RunControl resume_control;
  events.clear();
  resume_control.on_progress = [&](const util::ProgressEvent& event) {
    events.push_back(event);
  };
  const util::RunScope resume_scope(resume_control);
  auto resumed = daemon.run_trace(trace, &resume_scope);
  ASSERT_TRUE(resumed.is_ok());
  EXPECT_EQ(resumed->stats.resumed_shards, 1);
  expect_fleet_ticks(events, resumed->stats.completed,
                     {{260, 400},
                      {280, 400},
                      {300, 400},
                      {320, 400},
                      {340, 400},
                      {360, 400},
                      {380, 400},
                      {400, 400}});
  auto plain = simulate_fleet(service, trace, base);
  ASSERT_TRUE(plain.is_ok());
  EXPECT_EQ(serving_csv_row({}, *plain), serving_csv_row({}, resumed->stats));
  std::filesystem::remove(checkpointed.fleet.checkpoint_path);
}

TEST(DaemonTest, ServeRejectsWhatALiveSocketCannotHonour) {
  const ServiceModel service = make_service({{1, 2000.0}});
  DaemonOptions options;
  options.socket_path = "/tmp/fcad_daemon_unhonoured.sock";
  ServeSpec live;
  live.fleet.clock = ClockKind::kSteady;
  ServeSpec checkpointed = live;
  checkpointed.fleet.checkpoint_path = "/tmp/fcad_daemon_unhonoured.ckpt";
  ServeSpec process_range = live;
  process_range.fleet.process_count = 2;
  // A rejected spec leaves whatever sits at the socket path alone.
  std::ofstream(options.socket_path) << "not a socket\n";
  for (const auto& [spec, field] :
       {std::pair{checkpointed, "checkpoint_path"},
        std::pair{process_range, "process_count"}}) {
    Daemon daemon(service, spec, options);
    auto result = daemon.serve();
    ASSERT_FALSE(result.is_ok()) << field;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(field), std::string::npos)
        << result.status().message();
    EXPECT_TRUE(std::filesystem::is_regular_file(options.socket_path))
        << field;
  }
  std::filesystem::remove(options.socket_path);
}

TEST(DaemonTest, ServeRequiresSteadyClockAndSocketPath) {
  const ServiceModel service = make_service({{1, 2000.0}});
  {
    ServeSpec spec;  // kVirtual by default
    DaemonOptions options;
    options.socket_path = "/tmp/fcad_daemon_invalid.sock";
    Daemon daemon(service, spec, options);
    auto result = daemon.serve();
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ServeSpec spec;
    spec.fleet.clock = ClockKind::kSteady;
    Daemon daemon(service, spec);  // no socket path
    auto result = daemon.serve();
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

// ------------------------------------------------------------- live socket --
/// Connects to the daemon's socket, retrying while it boots.
int connect_with_retry(const std::string& path) {
  SteadyClock clock(0.0);
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    clock.sleep_until_us(clock.now_us() + 10000.0);  // 10 ms
  }
  return -1;
}

/// Sends `text` fully; false once the daemon has closed the connection.
bool send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::send(fd, text.data() + sent, text.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Bounds every blocking read on `fd`, so a reply that never comes fails
/// the test instead of hanging it.
void set_read_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Reads until `lines` newline-terminated replies arrived, EOF, or a read
/// timeout.
std::vector<std::string> read_lines(int fd, int lines) {
  std::string buffer;
  int seen = 0;
  char chunk[512];
  while (seen < lines) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) {
      if (chunk[i] == '\n') ++seen;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  std::vector<std::string> out;
  std::istringstream stream(buffer);
  std::string line;
  while (std::getline(stream, line)) out.push_back(line);
  return out;
}

TEST(DaemonTest, ServeAnswersRequestsAndDrainsOnShutdown) {
  const ServiceModel service = make_service({{2, 1000.0}, {2, 1500.0}});
  const std::string socket_path = "/tmp/fcad_daemon_test.sock";

  ServeSpec spec;
  spec.fleet.clock = ClockKind::kSteady;
  spec.fleet.instances = 2;
  spec.fleet.batch_timeout_us = 1000;

  DaemonOptions options;
  options.socket_path = socket_path;

  Daemon daemon(service, spec, options);
  StatusOr<DaemonResult> result = Status::internal("serve never ran");
  std::thread server([&] { result = daemon.serve(); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0) << "could not connect to " << socket_path;

  constexpr int kRequests = 20;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += "req " + std::to_string(i % 3) + " " + std::to_string(i % 2) +
             "\n";
  }
  ASSERT_TRUE(send_all(fd, burst));

  const std::vector<std::string> replies = read_lines(fd, kRequests);
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kRequests));
  for (const std::string& line : replies) {
    // Every admitted request gets "ok <id> <branch> <instance> <latency>".
    std::istringstream fields(line);
    std::string verb;
    std::int64_t id = -1;
    int branch = -1, instance = -1;
    double latency = -1;
    fields >> verb >> id >> branch >> instance >> latency;
    EXPECT_EQ(verb, "ok") << line;
    EXPECT_GE(id, 0);
    EXPECT_TRUE(branch == 0 || branch == 1) << line;
    EXPECT_TRUE(instance == 0 || instance == 1) << line;
    EXPECT_GT(latency, 0) << line;
  }

  // Graceful shutdown via the signal-safe path; the drain must answer
  // everything already admitted (it did — we read all replies) and return
  // a consistent session.
  daemon.request_shutdown();
  server.join();
  ::close(fd);

  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.completed, kRequests);
  EXPECT_EQ(result->stats.offered, kRequests);
  EXPECT_EQ(result->shed, 0);
  EXPECT_GT(result->stats.latency.p99, 0);
}

TEST(DaemonTest, ServeRejectsMalformedAndOutOfRangeLines) {
  const ServiceModel service = make_service({{1, 1000.0}});
  const std::string socket_path = "/tmp/fcad_daemon_err_test.sock";

  ServeSpec spec;
  spec.fleet.clock = ClockKind::kSteady;
  spec.fleet.instances = 1;
  spec.fleet.batch_timeout_us = 500;

  DaemonOptions options;
  options.socket_path = socket_path;

  Daemon daemon(service, spec, options);
  StatusOr<DaemonResult> result = Status::internal("serve never ran");
  std::thread server([&] { result = daemon.serve(); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);

  ASSERT_TRUE(send_all(fd, "bogus line\nreq 0 99\nreq 0 0\n"));
  const std::vector<std::string> replies = read_lines(fd, 3);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].rfind("err ", 0), 0u) << replies[0];
  EXPECT_EQ(replies[1].rfind("err ", 0), 0u) << replies[1];
  EXPECT_EQ(replies[2].rfind("ok ", 0), 0u) << replies[2];

  ASSERT_TRUE(send_all(fd, "shutdown\n"));
  server.join();
  ::close(fd);

  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.completed, 1);  // only the well-formed request
}

TEST(DaemonTest, ServeStopsReadingAClientThatNeverSendsANewline) {
  const ServiceModel service = make_service({{1, 1000.0}});
  const std::string socket_path = "/tmp/fcad_daemon_flood_test.sock";

  ServeSpec spec;
  spec.fleet.clock = ClockKind::kSteady;
  spec.fleet.batch_timeout_us = 500;

  DaemonOptions options;
  options.socket_path = socket_path;

  Daemon daemon(service, spec, options);
  StatusOr<DaemonResult> result = Status::internal("serve never ran");
  std::thread server([&] { result = daemon.serve(); });

  // The flooder offers 1 MiB with no newline through a small, non-blocking
  // send buffer: once the daemon stops reading, the buffer fills and the
  // flood stalls well short of 1 MiB.
  const int flood = connect_with_retry(socket_path);
  ASSERT_GE(flood, 0);
  const int sndbuf = 16 * 1024;
  const socklen_t len = sizeof(sndbuf);
  ASSERT_EQ(::setsockopt(flood, SOL_SOCKET, SO_SNDBUF, &sndbuf, len), 0);
  const int flags = ::fcntl(flood, F_GETFL);
  ASSERT_EQ(::fcntl(flood, F_SETFL, flags | O_NONBLOCK), 0);
  constexpr std::size_t kFloodBytes = 1 << 20;
  const std::string chunk(4096, 'x');
  std::size_t flooded = 0;
  while (flooded < kFloodBytes) {
    const ssize_t n = ::send(flood, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n > 0) {
      flooded += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) break;
    pollfd writable{flood, POLLOUT, 0};
    if (::poll(&writable, 1, 200) <= 0) break;  // no reader drains it
  }
  EXPECT_GT(flooded, 4096u);        // past the line cap
  EXPECT_LT(flooded, kFloodBytes);  // and no longer read

  // A well-behaved client is served normally meanwhile.
  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  constexpr int kRequests = 10;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) burst += "req 0 0\n";
  ASSERT_TRUE(send_all(fd, burst));
  const std::vector<std::string> replies = read_lines(fd, kRequests);
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kRequests));
  for (const std::string& line : replies) {
    EXPECT_EQ(line.rfind("ok ", 0), 0u) << line;
  }

  ASSERT_TRUE(send_all(fd, "shutdown\n"));
  server.join();
  ::close(fd);
  // The flooder was never answered.
  char byte = 0;
  EXPECT_LE(::recv(flood, &byte, 1, MSG_DONTWAIT), 0);
  ::close(flood);

  // The books balance: every offered request completed or was shed.
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.offered, kRequests);
  EXPECT_EQ(result->stats.completed + result->shed, result->stats.offered);
  EXPECT_EQ(result->shed, 0);
}

TEST(DaemonTest, ServeHonoursSketchLatencyMode) {
  const ServiceModel service = make_service({{1, 1000.0}});
  const std::string socket_path = "/tmp/fcad_daemon_sketch_test.sock";

  ServeSpec spec;
  spec.fleet.clock = ClockKind::kSteady;
  spec.fleet.batch_timeout_us = 500;
  spec.fleet.latency_mode = LatencyMode::kSketch;

  DaemonOptions options;
  options.socket_path = socket_path;

  Daemon daemon(service, spec, options);
  StatusOr<DaemonResult> result = Status::internal("serve never ran");
  std::thread server([&] { result = daemon.serve(); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "req 0 0\nreq 1 0\nreq 2 0\n"));
  EXPECT_EQ(read_lines(fd, 3).size(), 3u);
  ASSERT_TRUE(send_all(fd, "shutdown\n"));
  server.join();
  ::close(fd);

  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.latency_mode, LatencyMode::kSketch);
  EXPECT_EQ(result->stats.completed, 3);
  EXPECT_GT(result->stats.latency.p99, 0);
}

TEST(DaemonTest, ServeAnswersAHalfClosedClient) {
  // A client that shuts down its write side after two complete lines (and
  // a partial third) still gets both answers, then EOF.
  const ServiceModel service = make_service({{1, 1000.0}});
  const std::string socket_path = "/tmp/fcad_daemon_half_close_test.sock";

  ServeSpec spec;
  spec.fleet.clock = ClockKind::kSteady;
  spec.fleet.batch_timeout_us = 500;

  DaemonOptions options;
  options.socket_path = socket_path;

  Daemon daemon(service, spec, options);
  StatusOr<DaemonResult> result = Status::internal("serve never ran");
  std::thread server([&] { result = daemon.serve(); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);
  set_read_timeout(fd, 5.0);
  ASSERT_TRUE(send_all(fd, "req 0 0\nreq 1 0\nreq 2"));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const std::vector<std::string> replies = read_lines(fd, 3);
  daemon.request_shutdown();
  server.join();
  ::close(fd);

  ASSERT_EQ(replies.size(), 2u);
  for (const std::string& line : replies) {
    EXPECT_EQ(line.rfind("ok ", 0), 0u) << line;
  }
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.offered, 2);
  EXPECT_EQ(result->stats.completed, 2);
}

TEST(DaemonTest, ServeClosesAClientThatStopsReading) {
  // Client A floods requests and never reads a reply; client B must still
  // be answered promptly. A's unsent backlog passes the 64 KiB limit, so A
  // is closed and counted as a slow client.
  const ServiceModel service = make_service({{64, 10.0}});
  const std::string socket_path = "/tmp/fcad_daemon_slow_reader_test.sock";

  ServeSpec spec;
  spec.fleet.clock = ClockKind::kSteady;
  spec.fleet.instances = 4;
  spec.fleet.batch_timeout_us = 100;

  DaemonOptions options;
  options.socket_path = socket_path;

  obs::Counter& slow_clients =
      obs::MetricsRegistry::global().counter("serving.daemon.slow_clients");
  const std::int64_t slow_before = slow_clients.value();

  Daemon daemon(service, spec, options);
  StatusOr<DaemonResult> result = Status::internal("serve never ran");
  std::thread server([&] { result = daemon.serve(); });

  const int a = connect_with_retry(socket_path);
  ASSERT_GE(a, 0);
  std::string flood;
  for (int i = 0; i < 100000; ++i) flood += "req 0 0\n";
  // Fails part-way once the daemon closes A; either way A never reads.
  (void)send_all(a, flood);

  const int b = connect_with_retry(socket_path);
  ASSERT_GE(b, 0);
  set_read_timeout(b, 3.0);
  SteadyClock clock(0.0);
  ASSERT_TRUE(send_all(b, "req 1 0\n"));
  const std::vector<std::string> replies = read_lines(b, 1);
  const double waited_us = clock.now_us();

  ::close(a);
  ASSERT_TRUE(send_all(b, "shutdown\n"));
  server.join();
  ::close(b);

  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("ok ", 0), 0u) << replies[0];
  EXPECT_LT(waited_us, 1e6);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.completed, result->stats.offered);
  EXPECT_EQ(slow_clients.value() - slow_before, 1);
}

TEST(DaemonTest, ServeRefusesConnectionsPastTheCap) {
  // The daemon holds at most 64 connections; the next one is answered
  // "err too many connections" and closed while the others keep working.
  constexpr int kCap = 64;
  const ServiceModel service = make_service({{4, 1000.0}});
  const std::string socket_path = "/tmp/fcad_daemon_conn_cap_test.sock";

  ServeSpec spec;
  spec.fleet.clock = ClockKind::kSteady;
  spec.fleet.instances = 2;
  spec.fleet.batch_timeout_us = 500;

  DaemonOptions options;
  options.socket_path = socket_path;

  obs::Counter& refused = obs::MetricsRegistry::global().counter(
      "serving.daemon.refused_connections");
  const std::int64_t refused_before = refused.value();

  Daemon daemon(service, spec, options);
  StatusOr<DaemonResult> result = Status::internal("serve never ran");
  std::thread server([&] { result = daemon.serve(); });

  // Accepts are first in, first out, so the last socket is the extra one.
  std::vector<int> fds;
  for (int i = 0; i <= kCap; ++i) {
    const int fd = connect_with_retry(socket_path);
    ASSERT_GE(fd, 0) << "connection " << i;
    set_read_timeout(fd, 5.0);
    fds.push_back(fd);
  }
  const std::vector<std::string> refusal = read_lines(fds.back(), 1);

  for (int i = 0; i < kCap; ++i) {
    ASSERT_TRUE(send_all(fds[static_cast<std::size_t>(i)],
                         "req " + std::to_string(i) + " 0\n"));
  }
  int answered = 0;
  for (int i = 0; i < kCap; ++i) {
    const std::vector<std::string> reply =
        read_lines(fds[static_cast<std::size_t>(i)], 1);
    if (reply.size() == 1 && reply[0].rfind("ok ", 0) == 0) ++answered;
  }

  daemon.request_shutdown();
  server.join();
  for (const int fd : fds) ::close(fd);

  ASSERT_EQ(refusal.size(), 1u);
  EXPECT_EQ(refusal[0], "err too many connections");
  EXPECT_EQ(answered, kCap);
  EXPECT_EQ(refused.value() - refused_before, 1);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.offered, kCap);
  EXPECT_EQ(result->stats.completed + result->shed, result->stats.offered);
}

}  // namespace
}  // namespace fcad::serving
