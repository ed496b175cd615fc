// Streaming workload generation — the pull-based twin of
// generate_workload / generate_scenario_workload. A RequestStream yields
// requests one at a time in (arrival_us, id) order without ever
// materializing the request vector, which is what lets a billion-request
// replay run in bounded memory: each shard pulls its own copy of the
// stream and keeps only the requests it owns.
//
// The generated stream IS the generator: the materialized entry points in
// workload.cpp / scenario.cpp drain a stream from here, so the lazy and
// materialized paths can never diverge — every per-user candidate draw,
// acceptance draw, heap-merge pop, and branch fan-out happens in exactly
// the same order in both.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "serving/scenario.hpp"
#include "serving/workload.hpp"
#include "util/status.hpp"

namespace fcad::serving {

/// Pull interface over an arrival-ordered request sequence with dense ids.
class RequestStream {
 public:
  virtual ~RequestStream() = default;

  /// Next request, or std::nullopt once the stream ends. Arrivals are
  /// non-decreasing and ids dense from 0.
  virtual std::optional<Request> next() = 0;

  /// Inspect after exhaustion: ok for a completed stream, an error when the
  /// stream ended early (e.g. target_requests unreachable because every
  /// user stream ran out of activity windows).
  virtual Status finish_status() const { return Status::ok(); }
};

/// A materialized workload exposed through the stream interface (the
/// replay of a caller-supplied request vector, and handy for tests).
class VectorRequestStream final : public RequestStream {
 public:
  explicit VectorRequestStream(std::vector<Request> requests)
      : requests_(std::move(requests)) {}

  std::optional<Request> next() override {
    if (next_ >= requests_.size()) return std::nullopt;
    return requests_[next_++];
  }

 private:
  std::vector<Request> requests_;
  std::size_t next_ = 0;
};

/// Builds the arrival stream for `options` shaped by `scenario`
/// (bit-identical to what generate_scenario_workload materializes,
/// including the plain-generator fallback when the scenario does not shape
/// arrivals). Validates both specs.
StatusOr<std::unique_ptr<RequestStream>> make_request_stream(
    const WorkloadOptions& options, const ScenarioSpec& scenario = {});

/// Pulls `stream` to exhaustion into a materialized workload, propagating
/// its finish_status — the implementation of the classic generators.
StatusOr<std::vector<Request>> drain_request_stream(RequestStream& stream,
                                                    std::int64_t reserve = 0);

}  // namespace fcad::serving
