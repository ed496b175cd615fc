#include "util/log.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace fcad {
namespace {

/// Initial level: FCAD_LOG_LEVEL when set and parsable, else kWarn.
LogLevel initial_level() {
  const char* env = std::getenv("FCAD_LOG_LEVEL");
  return env == nullptr ? LogLevel::kWarn : log_level_from_name(env);
}

std::atomic<LogLevel>& level_ref() {
  static std::atomic<LogLevel> level{initial_level()};
  return level;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "T";
    case LogLevel::kDebug: return "D";
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarn: return "W";
    case LogLevel::kError: return "E";
    case LogLevel::kOff: return "-";
  }
  return "?";
}

/// Seconds since the logger first emitted; monotonic, so log lines carry a
/// cheap relative timeline without any wall-clock dependence.
double elapsed_s() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::mutex& emit_mutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

void set_log_level(LogLevel level) { level_ref().store(level); }
LogLevel log_level() { return level_ref().load(); }

LogLevel log_level_from_name(const std::string& name, LogLevel fallback) {
  std::string lower;
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "trace") return LogLevel::kTrace;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return fallback;
}

namespace detail {

void log_emit(LogLevel level, const std::string& msg) {
  const double t = elapsed_s();
  const std::lock_guard<std::mutex> lock(emit_mutex());
  std::fprintf(stderr, "[fcad:%s +%.3fs] %s\n", level_tag(level), t,
               msg.c_str());
}

}  // namespace detail
}  // namespace fcad
