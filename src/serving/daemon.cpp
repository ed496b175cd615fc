#include "serving/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/metrics.hpp"
#include "serving/elastic.hpp"
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

/// Longest unterminated line the receiver buffers per connection; a request
/// line ("req <user> <branch>") is a few dozen bytes.
constexpr std::size_t kMaxLineBytes = 4096;

/// One parsed unit of receiver -> serving-loop traffic.
struct Incoming {
  int fd = -1;
  std::int64_t id = 0;
  int user = 0;
  int branch = 0;
  bool disconnect = false;
  bool malformed = false;
};

/// Splits complete lines out of a connection buffer and appends the parsed
/// events. Returns true when a line asked for shutdown.
bool parse_lines(int fd, std::string& buffer, std::int64_t& next_id,
                 std::vector<Incoming>& events) {
  bool shutdown = false;
  std::size_t start = 0;
  for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
       nl = buffer.find('\n', start)) {
    std::string line = buffer.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line == "shutdown") {
      shutdown = true;
      continue;
    }
    std::istringstream fields(line);
    std::string verb;
    Incoming in;
    in.fd = fd;
    fields >> verb >> in.user >> in.branch;
    if (verb != "req" || fields.fail()) {
      in.malformed = true;
    } else {
      in.id = next_id++;
    }
    events.push_back(in);
  }
  buffer.erase(0, start);
  return shutdown;
}

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

Daemon::Daemon(ServiceModel service, ServeSpec spec, DaemonOptions options)
    : service_(std::move(service)),
      spec_(std::move(spec)),
      options_(std::move(options)) {
  // The shutdown pipe exists for the daemon's whole lifetime so a signal
  // handler may call request_shutdown() at any point relative to serve().
  if (::pipe2(shutdown_pipe_, O_CLOEXEC) != 0) {
    shutdown_pipe_[0] = shutdown_pipe_[1] = -1;
    FCAD_LOG(kWarn) << "daemon: shutdown pipe unavailable: "
                    << std::strerror(errno);
  }
}

Daemon::~Daemon() {
  close_fd(shutdown_pipe_[0]);
  close_fd(shutdown_pipe_[1]);
}

void Daemon::request_shutdown() {
  if (shutdown_pipe_[1] < 0) return;
  const char byte = 's';
  // Single async-signal-safe syscall; a full pipe already means a shutdown
  // is pending, so a failed write is still a delivered request.
  [[maybe_unused]] const ssize_t n =
      ::write(shutdown_pipe_[1], &byte, 1);
}

StatusOr<DaemonResult> Daemon::run_trace(const std::vector<Request>& trace,
                                         const util::RunScope* scope) const {
  if (Status s = validate_daemon_options(options_); !s.is_ok()) return s;
  DaemonResult result;
  auto stats = simulate_fleet_admitted(
      service_, trace, spec_,
      options_.admission_enabled ? options_.admission_window : 0,
      options_.admission_headroom, &result.shed, scope);
  if (!stats.is_ok()) return stats.status();
  result.stats = std::move(stats).value();
  obs::MetricsRegistry::global()
      .counter("serving.daemon.shed_requests")
      .add(result.shed);
  return result;
}

StatusOr<DaemonResult> Daemon::serve() {
  if (Status s = validate_daemon_options(options_); !s.is_ok()) return s;
  // What a live socket cannot honour is rejected by name, never dropped.
  if (spec_.fleet.shards != 1) {
    return Status::invalid_argument(
        "daemon: serve() runs one shard per process; deploy one daemon per "
        "shard instead of shards=" +
        std::to_string(spec_.fleet.shards));
  }
  if (!spec_.fleet.checkpoint_path.empty() ||
      spec_.fleet.process_count > 1) {
    return Status::invalid_argument(
        std::string("daemon: a live session cannot honour ") +
        (spec_.fleet.checkpoint_path.empty() ? "process_count > 1"
                                             : "checkpoint_path"));
  }
  auto validated = validated_fleet_options(service_, spec_);
  if (!validated.is_ok()) return validated.status();
  const FleetOptions& options = *validated;
  if (options.clock != ClockKind::kSteady) {
    return Status::invalid_argument(
        "daemon: serve() requires ClockKind::kSteady (a virtual clock has "
        "no time source to pace an idle socket on); run_trace replays "
        "virtual time");
  }
  // Arrival shaping is meaningless live (the daemon serves whatever
  // arrives); the scenario's *fault schedule* does apply, in steady-clock
  // microseconds since serve() started.
  auto plans_or = plan_elastic_shards(spec_.elastic, spec_.scenario.faults,
                                      options.instances, 1);
  if (!plans_or.is_ok()) return plans_or.status();
  const ShardElasticPlan& plan = plans_or->front();
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
  if (shutdown_pipe_[0] < 0) {
    return Status::internal("daemon: shutdown pipe unavailable");
  }

  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    return Status::internal(std::string("daemon: socket(): ") +
                            std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 16) != 0) {
    const Status status = Status::internal(
        "daemon: cannot listen on " + options_.socket_path + ": " +
        std::strerror(errno));
    close_fd(listen_fd);
    return status;
  }

  SteadyClock clock(0);
  // A live session is never merged with another, so its sketch (in sketch
  // mode) needs no fingerprint-derived seed.
  FleetEngine engine(service_,
                     shard_engine_config(options, spec_.elastic, plan, 0,
                                         options_.expected_requests, 0),
                     &clock);

  std::optional<ElasticController> controller;
  if (spec_.elastic.enabled() || !plan.faults.empty()) {
    controller.emplace(spec_.elastic, plan, options.sla_bound_us);
    engine.set_controller(&*controller);
  }

  // Receiver thread: owns poll() over the listen socket, the shutdown pipe,
  // and every connection; parses lines into `queue` and wakes the serving
  // loop. It never writes to or closes a client fd — the serving loop is
  // the sole writer, and fds stay open until the drain finishes so a late
  // reply can never race a recycled descriptor.
  std::mutex queue_mutex;
  std::vector<Incoming> queue;
  std::vector<int> accepted_fds;  // guarded by queue_mutex; closed at exit
  std::atomic<bool> stopping{false};
  std::thread receiver([&] {
    std::vector<pollfd> pfds;
    pfds.push_back({shutdown_pipe_[0], POLLIN, 0});
    pfds.push_back({listen_fd, POLLIN, 0});
    std::unordered_map<int, std::string> buffers;
    std::int64_t next_id = 0;
    bool stop = false;
    while (!stop) {
      if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      std::vector<Incoming> events;
      if ((pfds[0].revents & POLLIN) != 0) stop = true;
      if ((pfds[1].revents & POLLIN) != 0) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd >= 0) {
          pfds.push_back({fd, POLLIN, 0});
          buffers.emplace(fd, std::string());
          const std::lock_guard<std::mutex> lock(queue_mutex);
          accepted_fds.push_back(fd);
        }
      }
      for (std::size_t i = pfds.size(); i-- > 2;) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const int fd = pfds[i].fd;
        char buf[4096];
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        bool drop = n == 0 || (n < 0 && errno != EINTR);
        if (n > 0) {
          std::string& buffer = buffers[fd];
          buffer.append(buf, static_cast<std::size_t>(n));
          stop = parse_lines(fd, buffer, next_id, events) || stop;
          // An unterminated line past the cap is a misbehaving client: stop
          // reading it instead of buffering without bound.
          drop = buffer.size() > kMaxLineBytes;
        }
        if (drop) {
          Incoming gone;
          gone.fd = fd;
          gone.disconnect = true;
          events.push_back(gone);
          buffers.erase(fd);
          pfds.erase(pfds.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      if (!events.empty()) {
        const std::lock_guard<std::mutex> lock(queue_mutex);
        queue.insert(queue.end(), events.begin(), events.end());
      }
      if (stop) stopping.store(true, std::memory_order_release);
      if (!events.empty() || stop) clock.wake();
    }
    stopping.store(true, std::memory_order_release);
    clock.wake();
  });

  std::unordered_map<std::int64_t, int> reply_fd;
  std::unordered_set<int> dead_fds;
  auto reply = [&](int fd, const std::string& line) {
    // Disconnected fds stay open (and unused) until the drain finishes, so a
    // late reply can never hit a recycled descriptor number.
    if (fd < 0 || dead_fds.count(fd) != 0) return;
    // Best-effort: a peer that vanished mid-reply only loses its answer.
    (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
  };

  std::optional<RollingP99Window> admission;
  if (options_.admission_enabled) admission.emplace(options_.admission_window);
  obs::Counter& shed_counter =
      obs::MetricsRegistry::global().counter("serving.daemon.shed_requests");
  std::int64_t shed = 0;

  engine.set_batch_hook([&](const Batch& batch, int instance, double,
                            double finish_us) {
    for (const Request& r : batch.requests) {
      if (admission) admission->add(finish_us - r.arrival_us);
      const auto it = reply_fd.find(r.id);
      if (it == reply_fd.end()) continue;
      reply(it->second, "ok " + std::to_string(r.id) + " " +
                            std::to_string(r.branch) + " " +
                            std::to_string(instance) + " " +
                            std::to_string(finish_us - r.arrival_us) + "\n");
      reply_fd.erase(it);
    }
  });

  bool closed = false;
  while (true) {
    std::vector<Incoming> events;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      events.swap(queue);
    }
    for (const Incoming& in : events) {
      if (in.disconnect) {
        dead_fds.insert(in.fd);
        continue;
      }
      if (in.malformed) {
        reply(in.fd, "err expected 'req <user> <branch>'\n");
        continue;
      }
      if (closed) {
        reply(in.fd, "err draining\n");
        continue;
      }
      if (in.branch < 0 || in.branch >= service_.num_branches()) {
        reply(in.fd, "err branch out of range\n");
        continue;
      }
      if (admission &&
          admission_should_shed(
              *admission, options_.admission_headroom * options.sla_bound_us,
              controller ? &*controller : nullptr)) {
        ++shed;
        shed_counter.add(1);
        reply(in.fd, "shed " + std::to_string(in.id) + "\n");
        continue;
      }
      Request r;
      r.id = in.id;
      r.user = in.user;
      r.branch = in.branch;
      r.arrival_us = engine.now_us();
      reply_fd[r.id] = in.fd;
      engine.enqueue(r);
    }
    if (stopping.load(std::memory_order_acquire) && !closed) {
      engine.close();  // graceful drain: the batcher tail flushes on the
      closed = true;   // timeout schedule and every straggler is answered
    }
    if (controller) controller->tick(engine, engine.now_us());
    engine.dispatch_ready();
    if (closed && engine.drained()) break;
    // Sleep to the next engine or controller event (batching deadline /
    // instance free / elastic boundary); +infinity waits for the receiver's
    // wake. Early wakes just loop.
    double t_us = engine.next_event_us();
    if (controller) {
      t_us = std::min(t_us, controller->next_event_us(engine.now_us()));
    }
    engine.advance_to(t_us);
  }

  receiver.join();
  for (int fd : accepted_fds) ::close(fd);
  close_fd(listen_fd);
  ::unlink(options_.socket_path.c_str());

  DaemonResult result;
  std::vector<ShardStats> shards;
  shards.push_back(engine.take_stats());
  result.stats = merge_shard_stats(std::move(shards), service_,
                                   options.sla_bound_us, plan.provisioned,
                                   0);
  result.shed = shed;
  return result;
}

}  // namespace fcad::serving
