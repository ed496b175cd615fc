#include "serving/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <list>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "serving/shard_loop.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace fcad::serving {
namespace {

/// Both entry points' checks on the daemon's own options.
Status validate_daemon_options(const DaemonOptions& options) {
  if (options.admission_enabled && options.admission_window < 1) {
    return Status::invalid_argument(
        "daemon: admission_window must be >= 1 with admission on, got " +
        std::to_string(options.admission_window));
  }
  if (!(std::isfinite(options.admission_headroom) &&
        options.admission_headroom > 0)) {
    return Status::invalid_argument(
        "daemon: admission_headroom must be finite and > 0, got " +
        format_exact(options.admission_headroom));
  }
  return Status::ok();
}

/// Arms `plan`'s admission gate as `options` configure it.
void set_admission(ReplayPlan& plan, const DaemonOptions& options) {
  plan.admission_window =
      options.admission_enabled ? options.admission_window : 0;
  plan.admission_bound_us =
      options.admission_headroom * plan.options.sla_bound_us;
}

/// Either entry point's result, its shed count fed to the metrics registry.
StatusOr<DaemonResult> daemon_result(StatusOr<ServingStats> stats,
                                     std::int64_t shed) {
  if (!stats.is_ok()) return stats.status();
  obs::MetricsRegistry::global()
      .counter("serving.daemon.shed_requests")
      .add(shed);
  return DaemonResult{std::move(stats).value(), shed};
}

/// Longest unterminated line the receiver buffers per connection; a request
/// line ("req <user> <branch>") is a few dozen bytes.
constexpr std::size_t kMaxLineBytes = 4096;
/// Largest unsent reply backlog of a connection: a client past it has
/// stopped reading, so it is closed and counted as a slow client.
constexpr std::size_t kMaxBacklogBytes = 64 * 1024;
/// A connection with this many requests unanswered is not read until some
/// are answered, so one client's burst cannot queue ahead of every other's.
constexpr std::int64_t kMaxInFlight = 1024;
/// Connections the receiver holds at once (those still owed answers after
/// closing included); one past it is refused, so the poll set and the
/// per-connection buffers stay bounded.
constexpr std::size_t kMaxConnections = 64;
/// How long the receiver keeps flushing backlogs once the session drained.
constexpr double kLingerUs = 1e6;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// One client connection, owned by the receiver thread. Replies address
/// the Connection, never its fd number: a closed one is kept, with fd -1,
/// until every answer it is owed has arrived and been dropped.
struct Connection {
  int fd = -1;
  std::string in{};           ///< received bytes not yet split into lines
  std::string out{};          ///< replies the socket has not taken yet
  std::int64_t awaiting = 0;  ///< admitted requests not yet answered
  bool reading = true;        ///< false after EOF or an overlong line
};

/// One async-signal-safe wake-pipe write ('s' = shutdown, 'r' = replies).
/// The receiver drains the pipe on every wake, so it never fills up.
void poke(int fd, char byte) {
  if (fd < 0) return;
  [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
}

/// The receiver <-> serving-loop handoff, guarded by `mutex`. Its loop end
/// is run_shard's arrival source and observer at once: peek() tells three
/// states apart — a request due now (stamped at the clock reading it is
/// taken at); nothing yet (an arrival at +infinity: the steady clock sleeps
/// until the receiver's wake()); intake closed (nullptr) — and each
/// dispatched or shed request queues one reply line for the receiver.
struct Handoff : ShardObserver {
  Handoff(Clock& clock, int wake_fd) : clock(clock), wake_fd(wake_fd) {}

  const Request* peek(const ShardObserver&) {
    static const Request nothing_yet{.arrival_us = kInf};
    if (!head) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (arrivals.empty()) return intake_closed ? nullptr : &nothing_yet;
      head = arrivals.front();
      head->arrival_us = clock.now_us();
      arrivals.pop_front();
    }
    return &*head;
  }
  void pop() { head.reset(); }
  void on_batch(const Batch& batch, int instance, double, double finish_us) {
    for (const Request& r : batch.requests) {
      answer(r.id, "ok " + std::to_string(r.id) + " " +
                       std::to_string(r.branch) + " " +
                       std::to_string(instance) + " " +
                       std::to_string(finish_us - r.arrival_us) + "\n");
    }
  }
  void on_shed(const Request& r) {
    answer(r.id, "shed " + std::to_string(r.id) + "\n");
  }
  void answer(std::int64_t id, std::string line) {
    std::unique_lock<std::mutex> lock(mutex);
    const bool first = replies.empty();
    replies.emplace_back(id, std::move(line));
    lock.unlock();
    if (first) poke(wake_fd, 'r');  // later ones find it pending
  }

  Clock& clock;
  const int wake_fd;
  std::optional<Request> head;  ///< the arrival the loop is looking at
  std::mutex mutex;
  std::deque<Request> arrivals;  ///< parsed requests, in receive order
  bool intake_closed = false;    ///< shutdown seen: no arrival follows
  /// (request id, reply line) pairs the serving loop has answered.
  std::vector<std::pair<std::int64_t, std::string>> replies;
  std::atomic<double> finish_by_us = kInf;  ///< set when the loop returns
};

/// The receiver thread, the only code that touches client sockets: it
/// queues parsed requests for the serving loop, routes the loop's replies
/// and flushes them as sockets turn writable. Client fds are non-blocking,
/// so a client that stops reading only grows its own backlog. After EOF a
/// connection is no longer read, but is answered until nothing is owed.
void receive_loop(int listen_fd, int wake_fd, int num_branches,
                  Handoff& handoff, Clock& clock) {
  obs::Counter& slow_clients =
      obs::MetricsRegistry::global().counter("serving.daemon.slow_clients");
  obs::Counter& refused = obs::MetricsRegistry::global().counter(
      "serving.daemon.refused_connections");
  std::list<Connection> conns;  // pfds[2 + i] polls the i-th connection
  std::unordered_map<std::int64_t, Connection*> owner;  // request -> conn
  std::int64_t next_id = 0;
  bool draining = false;
  std::vector<pollfd> pfds;
  std::vector<Request> arrivals;
  // Splits the complete lines out of c.in: a request is queued in
  // `arrivals`, anything else is answered straight into c.out.
  const auto parse_lines = [&](Connection& c) {
    std::size_t start = 0;
    for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string line = c.in.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line == "shutdown") {
        draining = true;
        continue;
      }
      std::istringstream fields(line);
      std::string verb;
      Request r;
      fields >> verb >> r.user >> r.branch;
      if (verb != "req" || fields.fail()) {
        c.out += "err expected 'req <user> <branch>'\n";
      } else if (draining) {
        c.out += "err draining\n";
      } else if (r.branch < 0 || r.branch >= num_branches) {
        c.out += "err branch out of range\n";
      } else {
        r.id = next_id++;
        owner[r.id] = &c;
        ++c.awaiting;
        arrivals.push_back(r);
      }
    }
    c.in.erase(0, start);
  };
  while (true) {
    const double finish_by_us = handoff.finish_by_us;  // read before replies
    const bool finished = finish_by_us < kInf;
    std::vector<std::pair<std::int64_t, std::string>> replies;
    {
      const std::lock_guard<std::mutex> lock(handoff.mutex);
      replies.swap(handoff.replies);
    }
    for (auto& [id, line] : replies) {
      Connection* c = owner.extract(id).mapped();  // it admitted the request
      if (c->fd >= 0) c->out += line;
      --c->awaiting;
    }
    bool backlog = false;
    for (Connection& c : conns) {
      if (c.fd < 0) continue;
      bool failed = false;
      if (!c.out.empty()) {
        const ssize_t n =
            ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n > 0) c.out.erase(0, static_cast<std::size_t>(n));
        failed = n < 0 && errno != EAGAIN && errno != EINTR;
      }
      const bool slow = c.out.size() > kMaxBacklogBytes;
      if (slow) slow_clients.add(1);
      if (failed || slow ||
          (c.out.empty() && (finished || (!c.reading && c.awaiting == 0)))) {
        ::close(c.fd);
        c.fd = -1;
      }
      backlog = backlog || (c.fd >= 0 && !c.out.empty());
    }
    std::erase_if(conns,
                  [](const Connection& c) { return c.fd < 0 && !c.awaiting; });
    if (finished && (!backlog || clock.now_us() > finish_by_us)) break;
    pfds.assign({{wake_fd, POLLIN, 0}, {listen_fd, POLLIN, 0}});
    for (const Connection& c : conns) {
      const int events = (c.reading && c.awaiting < kMaxInFlight ? POLLIN : 0) |
                         (c.out.empty() ? 0 : POLLOUT);
      pfds.push_back({c.fd, static_cast<short>(events), 0});
    }
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
               finished ? 10 : -1) < 0 &&
        errno != EINTR) {
      draining = true;  // no way to wait for input: drain the session
    }
    if ((pfds[0].revents & POLLIN) != 0) {
      char bytes[64];
      const ssize_t n = ::read(wake_fd, bytes, sizeof bytes);
      if (n > 0 && std::memchr(bytes, 's', static_cast<std::size_t>(n))) {
        draining = true;
      }
    }
    if ((pfds[1].revents & POLLIN) != 0) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (fd >= 0 && conns.size() < kMaxConnections) {
        conns.emplace_back().fd = fd;
      } else if (fd >= 0) {
        // The fresh socket's send buffer is empty, so the line fits.
        constexpr std::string_view kRefusal = "err too many connections\n";
        [[maybe_unused]] const ssize_t n =
            ::send(fd, kRefusal.data(), kRefusal.size(), MSG_NOSIGNAL);
        ::close(fd);
        refused.add(1);
      }
    }
    arrivals.clear();
    auto conn = conns.begin();
    for (std::size_t i = 2; i < pfds.size(); ++i) {
      Connection& c = *conn++;
      // A writable socket is flushed at the top of the next round.
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[4096];
      const ssize_t n = c.reading ? ::read(c.fd, buf, sizeof buf) : -1;
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        parse_lines(c);
        // An unterminated line past the cap is a misbehaving client: stop
        // reading it instead of buffering without bound.
        c.reading = c.in.size() <= kMaxLineBytes;
      } else if (n == 0) {
        c.reading = false;  // half-closed: keep answering what it admitted
      } else if (!c.reading || (errno != EAGAIN && errno != EINTR)) {
        ::close(c.fd);  // hung up or failed: nobody is left to answer
        c.fd = -1;
      }
    }
    if (!arrivals.empty() || draining) {
      const std::lock_guard<std::mutex> lock(handoff.mutex);
      handoff.arrivals.insert(handoff.arrivals.end(), arrivals.begin(),
                              arrivals.end());
      handoff.intake_closed = draining;
      clock.wake();
    }
  }
  for (const Connection& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

}  // namespace

Daemon::Daemon(ServiceModel service, ServeSpec spec, DaemonOptions options)
    : service_(std::move(service)),
      spec_(std::move(spec)),
      options_(std::move(options)) {
  // The wake pipe exists for the daemon's whole lifetime so a signal
  // handler may call request_shutdown() at any point relative to serve().
  if (::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
    FCAD_LOG(kWarn) << "daemon: wake pipe unavailable: "
                    << std::strerror(errno);
  }
}

Daemon::~Daemon() {
  for (const int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void Daemon::request_shutdown() { poke(wake_pipe_[1], 's'); }

StatusOr<DaemonResult> Daemon::run_trace(const std::vector<Request>& trace,
                                         const util::RunScope* scope) const {
  if (Status s = validate_daemon_options(options_); !s.is_ok()) return s;
  // A checkpoint block carries no shed count, so admitted + shed could not
  // balance over a resumed or process-sharded run.
  const FleetOptions& fleet = spec_.fleet;
  if (options_.admission_enabled && (!fleet.checkpoint_path.empty() ||
                                     fleet.process_count > 1)) {
    return Status::invalid_argument(
        std::string("daemon: admission_enabled cannot be combined with ") +
        (fleet.checkpoint_path.empty() ? "process_count > 1"
                                       : "checkpoint_path"));
  }
  auto plan = plan_replay(service_, spec_, &trace);
  if (!plan.is_ok()) return plan.status();
  set_admission(*plan, options_);
  std::int64_t shed = 0;
  auto stats = run_replay(std::move(*plan), service_, spec_, scope, &shed);
  return daemon_result(std::move(stats), shed);
}

StatusOr<DaemonResult> Daemon::serve() {
  if (Status s = validate_daemon_options(options_); !s.is_ok()) return s;
  if (options_.socket_path.empty()) {
    return Status::invalid_argument("daemon: serve() needs a socket_path");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::invalid_argument("daemon: socket path too long: " +
                                    options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (wake_pipe_[0] < 0) {
    return Status::internal("daemon: wake pipe unavailable");
  }

  // The session's clock: fault schedules run in its microseconds since
  // serve() started, and the receiver wakes it on every arrival.
  SteadyClock clock(0);
  // An empty trace: the plan validates the spec and lays out the one shard.
  const std::vector<Request> no_trace;
  auto plan = plan_replay(service_, spec_, &no_trace);
  if (!plan.is_ok()) return plan.status();
  const FleetOptions& fleet = plan->options;
  // What a live session cannot honour is rejected by name, never dropped.
  const char* unhonoured =
      fleet.shards != 1 ? "shards != 1 (deploy one daemon per shard)"
      : !fleet.checkpoint_path.empty() ? "checkpoint_path"
      : fleet.clock != ClockKind::kSteady
          ? "a virtual clock (run_trace replays virtual time)"
          : nullptr;
  if (unhonoured != nullptr) {
    return Status::invalid_argument(
        std::string("daemon: a live session cannot honour ") + unhonoured);
  }
  set_admission(*plan, options_);

  // Listening waits for a validated spec: a rejected one leaves the path be.
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ::unlink(options_.socket_path.c_str());
  if (listen_fd < 0 ||
      ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 16) != 0) {
    const int error = errno;
    if (listen_fd >= 0) ::close(listen_fd);
    return Status::internal("daemon: cannot listen on " + options_.socket_path +
                            ": " + std::strerror(error));
  }
  Handoff handoff(clock, wake_pipe_[1]);
  std::thread receiver([&] {
    receive_loop(listen_fd, wake_pipe_[0], service_.num_branches(), handoff,
                 clock);
  });
  ShardTally tally;
  auto shard = run_shard(service_, handoff, clock, *plan, spec_.elastic, 0,
                         /*expected_requests=*/0, /*scope=*/nullptr, tally,
                         handoff);
  handoff.finish_by_us = clock.now_us() + kLingerUs;
  poke(wake_pipe_[1], 'r');
  receiver.join();
  ::unlink(options_.socket_path.c_str());
  ::close(listen_fd);
  if (!shard.is_ok()) return shard.status();
  std::vector<ShardStats> shards;
  shards.push_back(std::move(shard).value());
  ServingStats stats =
      merge_shard_stats(std::move(shards), service_, fleet.sla_bound_us,
                        plan->provisioned_total, 0);
  return daemon_result(std::move(stats), tally.shed);
}

}  // namespace fcad::serving
