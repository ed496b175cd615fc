// Compact golden forms of a serving run for bit-for-bit expectations: the
// stats CSV row as one line, a 128-bit digest of the full stats text, a
// 128-bit digest of every per-request decision, and the pinned sequence of
// "fleet" progress ticks.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "serving/stats.hpp"
#include "util/hash.hpp"
#include "util/run_control.hpp"

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

/// One pinned "fleet" ProgressEvent: the completion count it reports and
/// the offered total.
struct FleetTick {
  int step;
  int total_steps;
};

/// `events` are exactly the `pinned` fleet ticks. Every tick carries counts
/// only (best_fitness 0), and the run's `completed` count is reported once,
/// by the last tick.
inline void expect_fleet_ticks(const std::vector<util::ProgressEvent>& events,
                               std::int64_t completed,
                               const std::vector<FleetTick>& pinned) {
  ASSERT_EQ(events.size(), pinned.size());
  int at_completed = 0;
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(events[i].stage, "fleet") << "tick " << i;
    EXPECT_EQ(events[i].step, pinned[i].step) << "tick " << i;
    EXPECT_EQ(events[i].total_steps, pinned[i].total_steps) << "tick " << i;
    EXPECT_EQ(events[i].best_fitness, 0) << "tick " << i;
    if (events[i].step == completed) ++at_completed;
  }
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().step, completed);
  EXPECT_EQ(at_completed, 1);
}

}  // namespace fcad::serving
