#include "serving/sketch.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>

#include "serving/binary_io.hpp"
#include "util/hash.hpp"

namespace fcad::serving {
namespace {

constexpr std::uint32_t kSketchMagic = 0x46534b31;  // "FSK1"

/// Whether add() can produce bucket `index`: samples lie in (0, kMaxSample]
/// and index_of is monotone, so spans in this range never overflow int32.
bool index_reachable(std::int64_t index, double inv_log_gamma) {
  const double lo = std::log(std::numeric_limits<double>::denorm_min());
  const double hi = std::log(QuantileSketch::kMaxSample);
  return index >= std::ceil(lo * inv_log_gamma) &&
         index <= std::ceil(hi * inv_log_gamma);
}

}  // namespace

const char* to_string(LatencyMode mode) {
  switch (mode) {
    case LatencyMode::kExact: return "exact";
    case LatencyMode::kSketch: return "sketch";
  }
  return "?";
}

StatusOr<LatencyMode> latency_mode_by_name(const std::string& name) {
  std::string lower;
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "exact") return LatencyMode::kExact;
  if (lower == "sketch") return LatencyMode::kSketch;
  return Status::not_found("unknown latency mode '" + name + "'");
}

std::uint64_t sketch_seed_from_fingerprint(const std::string& fingerprint) {
  util::Hash128 h;
  h.absorb_string("fcad-sketch-seed");
  h.absorb_string(fingerprint);
  return h.lo ^ h.hi;
}

QuantileSketch::QuantileSketch(std::uint64_t seed, double alpha)
    : alpha_(alpha),
      gamma_((1.0 + alpha) / (1.0 - alpha)),
      inv_log_gamma_(1.0 / std::log((1.0 + alpha) / (1.0 - alpha))),
      seed_(seed),
      min_(std::numeric_limits<double>::infinity()) {
  FCAD_CHECK_MSG(alpha > 0 && alpha < 1, "sketch: alpha out of (0, 1)");
}

std::int32_t QuantileSketch::index_of(double v) const {
  return static_cast<std::int32_t>(std::ceil(std::log(v) * inv_log_gamma_));
}

double QuantileSketch::representative(std::int32_t index) const {
  // Harmonic midpoint of the bucket (gamma^{i-1}, gamma^i]: every value in
  // the bucket is within relative error alpha of it.
  return 2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
}

void QuantileSketch::add_bucket(std::int32_t index, std::int64_t n) {
  // Inside the span (the steady state) nothing grows or folds; an index
  // below lo_ wraps to a huge offset.
  const auto offset = static_cast<std::size_t>(index - lo_);
  if (offset < counts_.size()) {
    counts_[offset] += n;
    return;
  }
  if (counts_.empty()) {
    lo_ = index;
    counts_.push_back(n);
    return;
  }
  const std::int32_t hi = lo_ + static_cast<std::int32_t>(counts_.size()) - 1;
  if (index > hi) {
    counts_.resize(counts_.size() + static_cast<std::size_t>(index - hi), 0);
    counts_.back() += n;
    // A raised ceiling may push the span past the cap; fold everything
    // below the new floor into it. The floor position depends only on the
    // largest index ever seen, which keeps the state a pure function of
    // the value multiset.
    const std::int32_t floor = index - kMaxBuckets + 1;
    if (lo_ < floor) {
      const auto cut = counts_.begin() + (floor - lo_);
      const std::int64_t folded =
          std::accumulate(counts_.begin(), cut, std::int64_t{0});
      counts_.erase(counts_.begin(), cut);
      counts_.front() += folded;
      lo_ = floor;
      ++compactions_;
    }
    return;
  }
  // index < lo_: the span may grow down only as far as the floor the cap
  // allows; mass below it folds into the floor bucket.
  const std::int32_t target = std::max(index, hi - kMaxBuckets + 1);
  counts_.insert(counts_.begin(), static_cast<std::size_t>(lo_ - target), 0);
  lo_ = target;
  counts_.front() += n;
  if (index < target) ++compactions_;
}

void QuantileSketch::add(double v) {
  FCAD_CHECK_MSG(std::isfinite(v) && v >= 0 && v <= kMaxSample,
                 "sketch: sample must be finite and in [0, kMaxSample]");
  ++count_;
  // Fixed-point accumulation (2^-24 us units): integer addition is
  // associative, so the serialized sum is identical for any add/merge order.
  sum_units_ += static_cast<__int128>(std::llround(std::ldexp(v, 24)));
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  if (v == 0) {
    ++zero_count_;
    return;
  }
  add_bucket(index_of(v), 1);
}

double QuantileSketch::sum() const {
  return std::ldexp(static_cast<double>(sum_units_), -24);
}

Status QuantileSketch::merge(const QuantileSketch& other) {
  if (seed_ != other.seed_) {
    return Status::invalid_argument(
        "sketch: cannot merge sketches with different seeds (they belong "
        "to different replays)");
  }
  if (alpha_ != other.alpha_) {
    return Status::invalid_argument(
        "sketch: cannot merge sketches with different alpha");
  }
  count_ += other.count_;
  zero_count_ += other.zero_count_;
  sum_units_ += other.sum_units_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  compactions_ += other.compactions_;
  // Inside this span a bucket adds in place (an empty one adds nothing);
  // outside it, add_bucket grows or folds the span exactly as if other's
  // nonzero buckets were added one by one in index order.
  std::int32_t index = other.lo_;
  for (std::int64_t n : other.counts_) {
    const auto offset = static_cast<std::size_t>(index - lo_);
    if (offset < counts_.size()) {
      counts_[offset] += n;
    } else if (n != 0) {
      add_bucket(index, n);
    }
    ++index;
  }
  return Status::ok();
}

double QuantileSketch::quantile(double pct) const {
  FCAD_CHECK_MSG(pct > 0 && pct <= 100, "sketch: pct out of (0, 100]");
  if (count_ == 0) return 0;
  const auto k = std::max<std::int64_t>(
      static_cast<std::int64_t>(
          std::ceil(pct / 100.0 * static_cast<double>(count_))),
      1);
  if (k >= count_) return max_;  // the top rank is tracked exactly
  std::int64_t cum = zero_count_;
  if (k <= cum) return 0;  // exact-zero prefix (queue waits hit this)
  std::int32_t index = lo_;
  for (std::int64_t n : counts_) {
    cum += n;
    if (cum >= k) return std::min(std::max(representative(index), min_), max_);
    ++index;
  }
  return max_;  // unreachable when the invariants hold
}

void QuantileSketch::write_binary(std::ostream& os) const {
  put_u32(os, kSketchMagic);
  put_u64(os, seed_);
  put_f64(os, alpha_);
  put_i64(os, count_);
  put_i64(os, zero_count_);
  const auto sum_bits = static_cast<unsigned __int128>(sum_units_);
  put_u64(os, static_cast<std::uint64_t>(sum_bits));
  put_u64(os, static_cast<std::uint64_t>(sum_bits >> 64));
  put_f64(os, min_);
  put_f64(os, max_);
  put_i64(os, compactions_);
  put_u32(os, static_cast<std::uint32_t>(lo_));
  put_u32(os, static_cast<std::uint32_t>(counts_.size()));
  for (std::int64_t c : counts_) put_i64(os, c);
}

bool QuantileSketch::read_binary(std::istream& in, QuantileSketch& out) {
  std::uint32_t magic = 0;
  if (!get_raw(in, magic) || magic != kSketchMagic) return false;
  std::uint64_t seed = 0;
  double alpha = 0;
  if (!get_raw(in, seed) || !get_raw(in, alpha)) return false;
  // Every writer uses the default alpha, and the index bounds below hold
  // only at it (a tiny alpha would widen them past int32).
  if (alpha != kDefaultAlpha) return false;
  QuantileSketch sketch(seed, alpha);
  std::uint32_t lo = 0;
  std::uint32_t n = 0;
  std::uint64_t sum_lo = 0;
  std::uint64_t sum_hi = 0;
  if (!get_raw(in, sketch.count_) || !get_raw(in, sketch.zero_count_) ||
      !get_raw(in, sum_lo) || !get_raw(in, sum_hi) ||
      !get_raw(in, sketch.min_) || !get_raw(in, sketch.max_) ||
      !get_raw(in, sketch.compactions_) || !get_raw(in, lo) ||
      !get_raw(in, n)) {
    return false;
  }
  sketch.sum_units_ = static_cast<__int128>(
      (static_cast<unsigned __int128>(sum_hi) << 64) | sum_lo);
  if (n > static_cast<std::uint32_t>(kMaxBuckets)) return false;
  sketch.lo_ = static_cast<std::int32_t>(lo);
  // A block that parses but breaks an invariant the readers rely on is as
  // corrupt as a torn one. (An empty span's top, lo - 1, is reachable.)
  // Samples lie in [0, kMaxSample], and min is 0 exactly when a zero was
  // added, max is 0 exactly when nothing else was.
  const double inv = sketch.inv_log_gamma_;
  const double min = sketch.min_;
  const double max = sketch.max_;
  if (!index_reachable(sketch.lo_, inv) ||
      !index_reachable(std::int64_t{sketch.lo_} + n - 1, inv) ||
      sketch.zero_count_ < 0 || sketch.count_ < sketch.zero_count_ ||
      (sketch.count_ > 0 &&
       (!(0 <= min && min <= max && max <= kMaxSample) ||
        (min == 0) != (sketch.zero_count_ > 0) ||
        (max == 0) != (sketch.zero_count_ == sketch.count_)))) {
    return false;
  }
  std::int64_t mass = sketch.zero_count_;
  sketch.counts_.resize(n);
  for (std::int64_t& c : sketch.counts_) {
    if (!get_raw(in, c) || c < 0 || c > sketch.count_ - mass) return false;
    mass += c;
  }
  if (mass != sketch.count_) return false;
  out = std::move(sketch);
  return true;
}

std::string QuantileSketch::to_bytes() const {
  std::ostringstream os;
  write_binary(os);
  return os.str();
}

}  // namespace fcad::serving
