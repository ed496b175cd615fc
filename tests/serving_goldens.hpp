// Compact golden forms of a serving run for bit-for-bit expectations: the
// stats CSV row as one line, a 128-bit digest of the full stats text, and a
// 128-bit digest of every per-request decision.
#pragma once

#include <sstream>
#include <string>

#include "serving/stats.hpp"
#include "util/hash.hpp"

namespace fcad::serving {

/// serving_csv_row with no key columns, joined by commas.
inline std::string csv_line(const ServingStats& stats) {
  std::string line;
  for (const std::string& cell : serving_csv_row({}, stats)) {
    if (!line.empty()) line += ',';
    line += cell;
  }
  return line;
}

/// Digest of serving_stats_to_text: every field bit-exact, per-instance
/// rows and retained records included.
inline std::string stats_text_digest(const ServingStats& stats) {
  std::ostringstream text;
  serving_stats_to_text(text, stats);
  util::Hash128 h;
  h.absorb_string(text.str());
  return h.hex();
}

/// Digest of the records in order: (id, instance, start_us, finish_us),
/// the doubles absorbed by bit pattern.
inline std::string decisions_digest(const ServingStats& stats) {
  util::Hash128 h;
  h.absorb(stats.records.size());
  for (const RequestRecord& r : stats.records) {
    h.absorb(static_cast<std::uint64_t>(r.id));
    h.absorb(static_cast<std::uint64_t>(r.instance));
    h.absorb_double(r.start_us);
    h.absorb_double(r.finish_us);
  }
  return h.hex();
}

}  // namespace fcad::serving
