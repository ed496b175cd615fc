// Deterministic mergeable quantile sketch — the bounded-memory latency
// accounting behind `FleetOptions::latency_mode = kSketch`, which is what
// lets a billion-request replay finish with O(1) memory per shard instead
// of an O(requests) latency stream.
//
// The sketch is a logarithmic-bucket histogram (DDSketch-family): sample v
// lands in bucket ceil(log_gamma(v)) with gamma = (1+alpha)/(1-alpha), so
// every reported quantile is within a relative error of `alpha` (0.1% at
// the default) of the exact nearest-rank value. Exact zeros get their own
// counter; count/min/max are tracked exactly and the sum accumulates in
// 128-bit fixed point (2^-24 microsecond units — integer addition is
// associative where floating-point is not), so max is exact and the mean is
// exact to within the unit in sketch mode.
//
// Determinism and mergeability are the design constraints, not afterthoughts:
// the final bucket state is a pure function of the value *multiset* — the
// bucket schedule is fixed up front (no data-dependent compaction like a
// classic KLL), and the memory bound collapses the lowest buckets into a
// floor whose position depends only on the largest index seen. Merging is
// therefore associative and commutative down to the byte, which is what
// lets N processes fold fingerprint-bound checkpoints into one final result
// that is bit-identical to the single-process run for any merge order.
//
// `seed` binds a sketch to the replay fingerprint that produced it: merges
// refuse to fold sketches from different replays (or different alpha), the
// same contract the checkpoint fingerprint enforces for exact streams.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>

#include "util/status.hpp"

namespace fcad::serving {

/// How a fleet replay accounts per-request latencies.
enum class LatencyMode {
  kExact,   ///< full per-request latency/wait streams (the default)
  kSketch,  ///< bounded-memory quantile sketches (lossy, mergeable)
};

const char* to_string(LatencyMode mode);

/// Lookup by name ("exact", "sketch"); case-insensitive.
StatusOr<LatencyMode> latency_mode_by_name(const std::string& name);

/// Derives the sketch-binding seed from a replay fingerprint string (the
/// 32-hex-digit checkpoint fingerprint), so sketches and the checkpoints
/// that carry them are bound to one exact replay.
std::uint64_t sketch_seed_from_fingerprint(const std::string& fingerprint);

class QuantileSketch {
 public:
  /// Default relative-error bound; gamma = (1+alpha)/(1-alpha).
  static constexpr double kDefaultAlpha = 0.001;
  /// Bucket-span cap: 16384 buckets cover a dynamic range of gamma^16384
  /// (~10^14 at the default alpha), so the collapse below is a safety
  /// valve for pathological inputs, never the steady state for latencies.
  static constexpr int kMaxBuckets = 1 << 14;

  explicit QuantileSketch(std::uint64_t seed = 0,
                          double alpha = kDefaultAlpha);

  /// Largest accepted sample: 2^39 microseconds (~6.4 days), the bound that
  /// keeps one sample's fixed-point sum contribution inside 64 bits.
  static constexpr double kMaxSample = 549755813888.0;

  /// Adds one sample; `v` must be finite and in [0, kMaxSample].
  void add(double v);

  /// Folds `other` into this sketch. Status::invalid_argument when the
  /// seeds or alphas differ — sketches from different replays never merge.
  Status merge(const QuantileSketch& other);

  /// Nearest-rank quantile (`pct` in (0, 100]) over the samples added so
  /// far: the reported value is within relative error `alpha` of the exact
  /// nearest-rank pick, clamped into [min, max]; exact for the max and for
  /// all-zero prefixes. Returns 0 on an empty sketch.
  double quantile(double pct) const;

  std::int64_t count() const { return count_; }
  std::int64_t zero_count() const { return zero_count_; }
  /// Sum of the samples, exact to within 2^-24 per sample and — unlike a
  /// floating-point running sum — independent of add/merge order.
  double sum() const;
  /// Smallest / largest sample (min is +inf, max 0 on an empty sketch).
  double min() const { return min_; }
  double max() const { return max_; }
  double alpha() const { return alpha_; }
  std::uint64_t seed() const { return seed_; }
  /// Current bucket-span size (diagnostic; bounded by kMaxBuckets).
  int buckets() const { return static_cast<int>(counts_.size()); }
  /// Times the memory bound folded mass into the floor bucket (0 unless the
  /// sample dynamic range exceeded ~10^14). Merges sum the inputs'
  /// counters, then add any folds the merge itself performs.
  std::int64_t compactions() const { return compactions_; }

  /// Canonical little-endian binary encoding — byte-stable, so two sketches
  /// over the same value multiset (whatever the add/merge order) serialize
  /// identically as long as no compaction fired. Used by the sketch-mode
  /// shard blocks of the fleet checkpoint format.
  void write_binary(std::ostream& os) const;
  /// Reads the encoding back; false on a torn block or a broken invariant
  /// (an alpha other than kDefaultAlpha, an unreachable bucket index,
  /// negative or mismatched counts, min/max outside [0, kMaxSample] or out
  /// of order or disagreeing with the zero count), and the checkpoint
  /// loader then rejects the file wholesale.
  static bool read_binary(std::istream& in, QuantileSketch& out);
  /// write_binary into a string (byte-identity tests and checkpoints).
  std::string to_bytes() const;

 private:
  std::int32_t index_of(double v) const;
  double representative(std::int32_t index) const;
  /// Adds `n` samples' mass at bucket `index`, growing the span or folding
  /// below the floor as needed to keep it canonical and bounded.
  void add_bucket(std::int32_t index, std::int64_t n);

  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  std::uint64_t seed_;
  std::int64_t count_ = 0;
  std::int64_t zero_count_ = 0;
  /// Sample sum in 2^-24 units (gcc/clang 128-bit integer: 1e9 samples of
  /// kMaxSample still fit with ~25 bits to spare).
  __int128 sum_units_ = 0;
  double min_;
  double max_ = 0;
  std::int64_t compactions_ = 0;
  std::int32_t lo_ = 0;  ///< index of counts_[0]; meaningless when empty
  /// Dense bucket span [lo_, lo_ + size). A deque because the span grows at
  /// both ends: a new minimum prepends and a new maximum appends, each in
  /// O(buckets added) with no reallocation, no copy of the existing buckets
  /// and no 2x capacity slack (a vector shifts everything on a prepend).
  std::deque<std::int64_t> counts_;
};

}  // namespace fcad::serving
