// Quantile-sketch suite (serving step 9): the bounded-memory latency
// accounting behind `latency_mode = sketch` must (a) report quantiles
// within its alpha bound of the exact nearest-rank value at replay scale,
// (b) merge associatively and commutatively down to the byte — the property
// the multi-process checkpoint merge rests on — and (c) survive a binary
// round trip while rejecting torn or foreign blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "serving/sketch.hpp"
#include "serving/stats.hpp"

namespace fcad::serving {
namespace {

constexpr std::uint64_t kSeed = 0x5eedf00d;

std::vector<double> lognormal_samples(std::uint64_t seed, std::size_t n) {
  // Latency-shaped values: a heavy right tail spanning a few decades, like
  // queueing delays under load.
  std::mt19937_64 rng(seed);
  std::lognormal_distribution<double> dist(9.0, 1.2);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(dist(rng));
  return out;
}

TEST(SketchTest, EmptyZeroAndExactFieldBehaviour) {
  QuantileSketch sketch(kSeed);
  EXPECT_EQ(sketch.count(), 0);
  EXPECT_EQ(sketch.quantile(50), 0);
  EXPECT_EQ(sketch.max(), 0);

  // Exact zeros get their own counter; count/sum/min/max stay exact.
  sketch.add(0);
  sketch.add(0);
  sketch.add(100);
  sketch.add(400);
  EXPECT_EQ(sketch.count(), 4);
  EXPECT_EQ(sketch.zero_count(), 2);
  EXPECT_EQ(sketch.sum(), 500);
  EXPECT_EQ(sketch.min(), 0);
  EXPECT_EQ(sketch.max(), 400);
  // Ranks 1..2 fall in the zero mass; the top rank is clamped to the exact
  // max, never a bucket representative above it.
  EXPECT_EQ(sketch.quantile(25), 0);
  EXPECT_EQ(sketch.quantile(50), 0);
  EXPECT_EQ(sketch.quantile(100), 400);
  EXPECT_EQ(sketch.compactions(), 0);
}

TEST(SketchTest, QuantilesWithinBoundOfExactAcrossTwentySeeds) {
  // The acceptance property: p50/p95/p99 within 0.5% relative error of the
  // exact nearest-rank percentile at 1M samples, over >= 20 seeds. The
  // sketch's own bound is alpha = 0.1%, so this holds with 5x headroom.
  constexpr std::size_t kSamples = 1'000'000;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<double> values = lognormal_samples(seed * 7919, kSamples);
    QuantileSketch sketch(seed);
    for (double v : values) sketch.add(v);
    ASSERT_EQ(sketch.count(), static_cast<std::int64_t>(kSamples));
    for (double pct : {50.0, 95.0, 99.0}) {
      const double exact = percentile(values, pct);
      const double approx = sketch.quantile(pct);
      EXPECT_LE(std::abs(approx - exact) / exact, 0.005)
          << "seed " << seed << " p" << pct << ": exact " << exact
          << " sketch " << approx;
    }
    EXPECT_EQ(sketch.compactions(), 0)
        << "latency-scale input must never hit the collapse valve";
  }
}

TEST(SketchTest, MergeIsAssociativeCommutativeAndByteStable) {
  const std::vector<double> all = lognormal_samples(kSeed, 30'000);
  // Three disjoint slices — the shapes three shards would contribute.
  auto slice_sketch = [&](std::size_t lo, std::size_t hi) {
    QuantileSketch s(kSeed);
    for (std::size_t i = lo; i < hi; ++i) s.add(all[i]);
    return s;
  };
  const QuantileSketch a = slice_sketch(0, 10'000);
  const QuantileSketch b = slice_sketch(10'000, 20'000);
  const QuantileSketch c = slice_sketch(20'000, 30'000);

  QuantileSketch ab_c = a;
  ASSERT_TRUE(ab_c.merge(b).is_ok());
  ASSERT_TRUE(ab_c.merge(c).is_ok());
  QuantileSketch bc = b;
  ASSERT_TRUE(bc.merge(c).is_ok());
  QuantileSketch a_bc = a;
  ASSERT_TRUE(a_bc.merge(bc).is_ok());
  QuantileSketch c_b_a = c;
  ASSERT_TRUE(c_b_a.merge(b).is_ok());
  ASSERT_TRUE(c_b_a.merge(a).is_ok());

  // Byte-identical whatever the merge tree or order — and identical to the
  // sketch that saw every value directly (the single-process run).
  QuantileSketch direct(kSeed);
  for (double v : all) direct.add(v);
  EXPECT_EQ(ab_c.to_bytes(), a_bc.to_bytes());
  EXPECT_EQ(ab_c.to_bytes(), c_b_a.to_bytes());
  EXPECT_EQ(ab_c.to_bytes(), direct.to_bytes());
}

TEST(SketchTest, MergeRejectsForeignSeedOrAlpha) {
  QuantileSketch mine(kSeed);
  mine.add(10);
  QuantileSketch other_seed(kSeed + 1);
  other_seed.add(10);
  QuantileSketch other_alpha(kSeed, 0.01);
  other_alpha.add(10);
  EXPECT_EQ(mine.merge(other_seed).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mine.merge(other_alpha).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mine.count(), 1) << "a rejected merge must not mutate";
}

TEST(SketchTest, BinaryRoundTripIsExactAndTornBlocksAreRejected) {
  QuantileSketch sketch(kSeed);
  for (double v : lognormal_samples(kSeed, 10'000)) sketch.add(v);
  sketch.add(0);
  const std::string bytes = sketch.to_bytes();

  std::istringstream in(bytes);
  QuantileSketch loaded;
  ASSERT_TRUE(QuantileSketch::read_binary(in, loaded));
  EXPECT_EQ(loaded.to_bytes(), bytes);
  EXPECT_EQ(loaded.count(), sketch.count());
  EXPECT_EQ(loaded.quantile(99), sketch.quantile(99));
  EXPECT_EQ(loaded.seed(), sketch.seed());

  // Every proper prefix is a torn write; none may parse.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::istringstream torn(bytes.substr(0, cut));
    QuantileSketch out;
    EXPECT_FALSE(QuantileSketch::read_binary(torn, out)) << "cut " << cut;
  }
  // A corrupted magic is foreign, not just short.
  std::string bad = bytes;
  bad[0] = static_cast<char>(bad[0] ^ 0x55);
  std::istringstream foreign(bad);
  QuantileSketch out;
  EXPECT_FALSE(QuantileSketch::read_binary(foreign, out));
}

// Field offsets of the encoding (write_binary): magic, seed, alpha, then
// count, zero_count, the 128-bit sum, min, max, compactions, lo, n, buckets.
constexpr std::size_t kAlphaAt = 4 + 8;
constexpr std::size_t kCountAt = kAlphaAt + 8;
constexpr std::size_t kMinAt = kCountAt + 8 + 8 + 16;
constexpr std::size_t kMaxAt = kMinAt + 8;
constexpr std::size_t kLoAt = kMaxAt + 8 + 8;
constexpr std::size_t kBucketsAt = kLoAt + 4 + 4;

template <typename T>
T field(const std::string& bytes, std::size_t at) {
  T v;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

template <typename T>
std::string with_field(std::string bytes, std::size_t at, T v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
  return bytes;
}

bool parses(const std::string& bytes) {
  std::istringstream in(bytes);
  QuantileSketch out;
  return QuantileSketch::read_binary(in, out);
}

TEST(SketchTest, BlocksBreakingAnInvariantAreRejected) {
  QuantileSketch sketch(kSeed);
  for (double v : lognormal_samples(kSeed, 100)) sketch.add(v);
  const std::string bytes = sketch.to_bytes();
  ASSERT_TRUE(parses(bytes));
  const auto n = field<std::uint32_t>(bytes, kLoAt + 4);
  ASSERT_GE(n, 2u);
  const std::size_t last_at = kBucketsAt + 8 * (n - 1);

  // The mass no longer adds up to the count.
  EXPECT_FALSE(parses(with_field<std::int64_t>(bytes, kCountAt, 5)));
  // A span whose top index no sample can reach (and whose walk would step
  // past INT32_MAX).
  EXPECT_FALSE(parses(with_field<std::int32_t>(
      bytes, kLoAt, std::numeric_limits<std::int32_t>::max() - 2)));
  EXPECT_FALSE(parses(with_field<std::int32_t>(
      bytes, kLoAt, std::numeric_limits<std::int32_t>::min())));
  // A tiny alpha would make that span reachable; no writer uses one.
  EXPECT_FALSE(parses(with_field<std::int32_t>(
      with_field<double>(bytes, kAlphaAt, 1e-9), kLoAt,
      std::numeric_limits<std::int32_t>::max() - 2)));
  EXPECT_FALSE(parses(with_field<double>(bytes, kAlphaAt, 0.01)));
  // A negative bucket, with the total kept: -1 at the bottom, +1 at the top.
  const std::int64_t moved = field<std::int64_t>(bytes, kBucketsAt) + 1;
  const std::string negative = with_field<std::int64_t>(
      with_field<std::int64_t>(bytes, kBucketsAt, -1), last_at,
      field<std::int64_t>(bytes, last_at) + moved);
  EXPECT_FALSE(parses(negative));
  // min > max on a non-empty sketch.
  const std::string swapped = with_field<double>(
      with_field<double>(bytes, kMinAt, sketch.max()), kMaxAt, sketch.min());
  EXPECT_FALSE(parses(swapped));
  // min/max no sample can produce: an infinite max, a negative min, a max
  // past kMaxSample, a min of 0 with no zero sample.
  EXPECT_FALSE(parses(with_field<double>(
      bytes, kMaxAt, std::numeric_limits<double>::infinity())));
  EXPECT_FALSE(parses(with_field<double>(bytes, kMinAt, -1.0)));
  EXPECT_FALSE(parses(
      with_field<double>(bytes, kMaxAt, 2 * QuantileSketch::kMaxSample)));
  EXPECT_FALSE(parses(with_field<double>(bytes, kMinAt, 0.0)));
}

TEST(SketchTest, SeededByteFlipsEitherFailOrRoundTrip) {
  // Whatever a corrupt byte does, an accepted block re-encodes to the same
  // bytes and reads a p99 inside [min, max].
  QuantileSketch sketch(kSeed);
  for (double v : lognormal_samples(kSeed, 100)) sketch.add(v);
  sketch.add(0);
  const std::string bytes = sketch.to_bytes();
  std::mt19937_64 rng(kSeed);
  int accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string flipped = bytes;
    const std::size_t at = rng() % flipped.size();
    const auto mask = static_cast<char>(1 + rng() % 255);
    flipped[at] = static_cast<char>(flipped[at] ^ mask);
    std::istringstream in(flipped);
    QuantileSketch loaded;
    if (!QuantileSketch::read_binary(in, loaded)) continue;
    ++accepted;
    EXPECT_EQ(loaded.to_bytes(), flipped) << "byte " << at;
    const double p99 = loaded.quantile(99);
    EXPECT_GE(p99, loaded.min()) << "byte " << at;
    EXPECT_LE(p99, loaded.max()) << "byte " << at;
  }
  // Seed, sum and compaction bytes carry no invariant, so some flips pass.
  EXPECT_GT(accepted, 0);
}

TEST(SketchTest, AddOrderNeverChangesTheBytes) {
  // Ascending input grows the bucket span only at its top, descending only
  // at its bottom; both must land on the shuffled input's exact state.
  std::vector<double> values = lognormal_samples(kSeed, 20'000);
  values.push_back(0);
  std::sort(values.begin(), values.end());
  auto sketch_of = [](const std::vector<double>& in) {
    QuantileSketch s(kSeed);
    for (double v : in) s.add(v);
    return s;
  };
  const QuantileSketch ascending = sketch_of(values);
  std::vector<double> order(values.rbegin(), values.rend());
  const QuantileSketch descending = sketch_of(order);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(kSeed));
  const QuantileSketch shuffled = sketch_of(order);
  EXPECT_EQ(ascending.compactions(), 0);
  EXPECT_EQ(descending.to_bytes(), ascending.to_bytes());
  EXPECT_EQ(shuffled.to_bytes(), ascending.to_bytes());
}

TEST(SketchTest, SpanPastTheCapFoldsTheSameFromEitherEnd) {
  // One sample per bucket over kMaxBuckets + kOver buckets. Growing the
  // span upwards folds its bottom bucket into the floor once per new top
  // bucket; growing it downwards folds each sample below the floor as it
  // arrives. Either way the floor holds kOver + 1 samples after kOver
  // compactions.
  constexpr int kOver = 100;
  const double log_gamma = std::log((1 + QuantileSketch::kDefaultAlpha) /
                                    (1 - QuantileSketch::kDefaultAlpha));
  const int first = static_cast<int>(std::floor(std::log(1e-3) / log_gamma));
  std::vector<double> ladder;
  for (int i = first; i < first + QuantileSketch::kMaxBuckets + kOver; ++i) {
    ladder.push_back(std::exp((i - 0.5) * log_gamma));  // mid-bucket
  }
  QuantileSketch from_below(kSeed);
  for (double v : ladder) from_below.add(v);
  QuantileSketch from_above(kSeed);
  for (auto it = ladder.rbegin(); it != ladder.rend(); ++it) {
    from_above.add(*it);
  }
  EXPECT_EQ(from_below.compactions(), kOver);
  EXPECT_EQ(from_above.compactions(), kOver);
  EXPECT_EQ(from_below.buckets(), QuantileSketch::kMaxBuckets);
  EXPECT_EQ(from_above.to_bytes(), from_below.to_bytes());
  // The folded state round-trips through the binary encoding.
  std::istringstream in(from_below.to_bytes());
  QuantileSketch loaded;
  ASSERT_TRUE(QuantileSketch::read_binary(in, loaded));
  EXPECT_EQ(loaded.to_bytes(), from_below.to_bytes());
}

TEST(SketchTest, SeedDerivationIsStableAndFingerprintBound) {
  const std::uint64_t a = sketch_seed_from_fingerprint("abc123");
  EXPECT_EQ(a, sketch_seed_from_fingerprint("abc123"));
  EXPECT_NE(a, sketch_seed_from_fingerprint("abc124"));
}

}  // namespace
}  // namespace fcad::serving
