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
#include "serving/engine.hpp"
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

/// The receiver <-> serving-loop handoff, guarded by `mutex`.
struct Handoff {
  std::mutex mutex;
  std::deque<Request> arrivals;  ///< parsed requests, in receive order
  bool intake_closed = false;    ///< shutdown seen: no arrival follows
  /// (request id, reply line) pairs the serving loop has answered.
  std::vector<std::pair<std::int64_t, std::string>> replies;
  std::atomic<double> finish_by_us = kInf;  ///< set when the loop returns
};

/// One async-signal-safe wake-pipe write ('s' = shutdown, 'r' = replies).
/// The receiver drains the pipe on every wake, so it never fills up.
void poke(int fd, char byte) {
  if (fd < 0) return;
  [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
}

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
  std::int64_t shed = 0;
  auto stats = simulate_fleet_admitted(
      service_, trace, spec_,
      options_.admission_enabled ? options_.admission_window : 0,
      options_.admission_headroom, &shed, scope);
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
  Handoff handoff;
  int listen_fd = -1;
  std::thread receiver;
  // Listening waits for a validated spec: a rejected one leaves the path be.
  const auto start_listening = [&]() -> Status {
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ::unlink(options_.socket_path.c_str());
    if (listen_fd < 0 ||
        ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd, 16) != 0) {
      return Status::internal("daemon: cannot listen on " +
                              options_.socket_path + ": " +
                              std::strerror(errno));
    }
    receiver = std::thread([&] {
      receive_loop(listen_fd, wake_pipe_[0], service_.num_branches(),
                   handoff, clock);
    });
    return Status::ok();
  };
  const auto answer = [&](std::int64_t id, std::string line) {
    std::unique_lock<std::mutex> lock(handoff.mutex);
    const bool first = handoff.replies.empty();
    handoff.replies.emplace_back(id, std::move(line));
    lock.unlock();
    if (first) poke(wake_pipe_[1], 'r');  // later ones find it pending
  };
  std::optional<Request> head;  // the arrival the loop is looking at
  const Request nothing_yet{.arrival_us = kInf};
  LiveSession session{
      start_listening,
      [&]() -> const Request* {
        if (!head) {
          const std::lock_guard<std::mutex> lock(handoff.mutex);
          if (handoff.arrivals.empty()) {
            return handoff.intake_closed ? nullptr : &nothing_yet;
          }
          head = handoff.arrivals.front();
          head->arrival_us = clock.now_us();
          handoff.arrivals.pop_front();
        }
        return &*head;
      },
      [&] { head.reset(); },
      [&](const Request& r, int instance, double latency_us) {
        answer(r.id, "ok " + std::to_string(r.id) + " " +
                         std::to_string(r.branch) + " " +
                         std::to_string(instance) + " " +
                         std::to_string(latency_us) + "\n");
      },
      [&](const Request& r) {
        answer(r.id, "shed " + std::to_string(r.id) + "\n");
      }};
  std::int64_t shed = 0;
  auto stats = session.run(
      service_, spec_, clock,
      options_.admission_enabled ? options_.admission_window : 0,
      options_.admission_headroom, &shed);
  if (receiver.joinable()) {
    handoff.finish_by_us = clock.now_us() + kLingerUs;
    poke(wake_pipe_[1], 'r');
    receiver.join();
    ::unlink(options_.socket_path.c_str());
  }
  if (listen_fd >= 0) ::close(listen_fd);
  return daemon_result(std::move(stats), shed);
}

}  // namespace fcad::serving
