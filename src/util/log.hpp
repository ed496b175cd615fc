// Leveled, thread-safe structured logger.
//
// Five severities (trace < debug < info < warn < error) plus kOff; the DSE
// engine logs search progress at Info, the obs layer reports anomalies
// (histogram bucket overflow, dropped trace events) at Warn, and benches
// leave the default Warn so table output stays clean. The initial level
// comes from the FCAD_LOG_LEVEL environment variable
// (trace|debug|info|warn|error|off); set_log_level() overrides it at
// runtime. Emission is serialized behind a mutex, so concurrent FCAD_LOG
// lines from pool workers never interleave mid-line.
//
//   FCAD_LOG(kInfo) << "search round " << round;
//   FCAD_LOG(kWarn).field("bucket", 12) << "histogram overflow";
#pragma once

#include <sstream>
#include <string>

namespace fcad {

enum class LogLevel {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5
};

/// Global minimum level; messages below it are dropped.
void set_log_level(LogLevel level);

/// Current minimum level. The first call reads FCAD_LOG_LEVEL; unset or
/// unparsable values fall back to kWarn.
LogLevel log_level();

/// Parses "trace" | "debug" | "info" | "warn" | "error" | "off"
/// (case-insensitive); anything else returns `fallback`.
LogLevel log_level_from_name(const std::string& name,
                             LogLevel fallback = LogLevel::kWarn);

namespace detail {
void log_emit(LogLevel level, const std::string& msg);

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() {
    os_ << fields_.str();
    log_emit(level_, os_.str());
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

  /// Structured `key=value` pair, rendered space-separated after the free
  /// text regardless of call order: message words first, fields last.
  template <typename T>
  LogLine& field(const std::string& key, const T& value) {
    fields_ << ' ' << key << '=' << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
  std::ostringstream fields_;
};

}  // namespace detail

#define FCAD_LOG(level)                                \
  if (::fcad::LogLevel::level < ::fcad::log_level()) { \
  } else                                               \
    ::fcad::detail::LogLine(::fcad::LogLevel::level)

}  // namespace fcad
