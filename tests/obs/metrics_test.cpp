#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/json_of.h"
#include "util/rng.h"

namespace qosctrl::obs {
namespace {

// What the histogram's percentile must equal: take the exact sample at
// rank floor(p * (count - 1)) of the sorted values, then quantize it to
// its bucket's upper bound — the histogram cannot beat its bucket
// resolution, but within it the rank arithmetic must be exact.
long long reference_percentile(std::vector<long long> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1));
  const long long v = std::max(values[rank], 0LL);
  return Histogram::bucket_upper(Histogram::bucket_of(v));
}

void expect_percentiles_match(const Histogram& h,
                              const std::vector<long long>& values,
                              const std::string& what) {
  for (const double p : {0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile(p), reference_percentile(values, p))
        << what << " at p=" << p;
  }
}

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(-5), 0);  // negatives clamp to 0
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of((1LL << 62) + 1), 63);
  EXPECT_EQ(Histogram::bucket_upper(0), 0);
  EXPECT_EQ(Histogram::bucket_upper(1), 1);
  EXPECT_EQ(Histogram::bucket_upper(2), 3);
  EXPECT_EQ(Histogram::bucket_upper(3), 7);
  // Bucket b holds exactly 2^(b-1) .. 2^b - 1.
  for (int b = 1; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper(b)), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper(b - 1) + 1), b);
  }
}

TEST(Histogram, EmptyIsAllZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
}

TEST(Histogram, PercentileMatchesSortedReferenceUniform) {
  Histogram h;
  std::vector<long long> values;
  util::Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const long long v = rng.uniform_i64(0, 3000000);
    values.push_back(v);
    h.record(v);
  }
  EXPECT_EQ(h.count(), 1000);
  expect_percentiles_match(h, values, "uniform");
}

TEST(Histogram, PercentileMatchesSortedReferencePowers) {
  // One value per bucket: the quantization is exact here, so the
  // percentile must equal the reference sample itself.
  Histogram h;
  std::vector<long long> values;
  for (int b = 0; b < 40; ++b) {
    const long long v = Histogram::bucket_upper(b);
    values.push_back(v);
    h.record(v);
  }
  expect_percentiles_match(h, values, "powers");
  EXPECT_EQ(h.percentile(0.5), values[39 / 2]);
}

TEST(Histogram, PercentileMatchesSortedReferenceConstant) {
  Histogram h;
  std::vector<long long> values(77, 12345);
  for (const long long v : values) h.record(v);
  expect_percentiles_match(h, values, "constant");
}

TEST(Histogram, PercentileMatchesSortedReferenceSingle) {
  Histogram h;
  h.record(9);
  expect_percentiles_match(h, {9}, "single");
}

TEST(Histogram, MinMaxSumAreExact) {
  Histogram h;
  h.record(100);
  h.record(7);
  h.record(950);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 1057);
  EXPECT_EQ(h.min(), 7);
  EXPECT_EQ(h.max(), 950);
}

TEST(Histogram, MergeCommutesAndMatchesSingleRecorder) {
  // The worker-count-independence contract: recording a multiset split
  // across registries and merging in any order equals recording it all
  // into one histogram.
  util::Rng rng(23);
  std::vector<long long> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.uniform_i64(0, 1 << 20));

  Histogram whole;
  Histogram parts[4];
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.record(values[i]);
    parts[i % 4].record(values[i]);
  }
  Histogram ab;  // 0,1,2,3 order
  for (const Histogram& p : parts) ab.merge(p);
  Histogram ba;  // reverse order
  for (int i = 3; i >= 0; --i) ba.merge(parts[i]);

  for (const Histogram* m : {&ab, &ba}) {
    EXPECT_EQ(m->count(), whole.count());
    EXPECT_EQ(m->sum(), whole.sum());
    EXPECT_EQ(m->min(), whole.min());
    EXPECT_EQ(m->max(), whole.max());
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      EXPECT_EQ(m->bucket_count(b), whole.bucket_count(b)) << "bucket " << b;
    }
    for (const double p : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(m->percentile(p), whole.percentile(p));
    }
  }
}

TEST(Registry, CountersAndMergeAndJson) {
  Registry a;
  a.counter("frames") += 3;
  a.histogram("lat").record(100);
  Registry b;
  b.counter("frames") += 2;
  b.counter("drops") += 1;
  b.histogram("lat").record(4000);
  a.merge(b);
  EXPECT_EQ(a.counters().at("frames"), 5);
  EXPECT_EQ(a.counters().at("drops"), 1);
  EXPECT_EQ(a.histograms().at("lat").count(), 2);

  const std::string json = json_of(a);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"drops\":1"), std::string::npos);
  EXPECT_NE(json.find("\"frames\":5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);

  // Serialization is a pure function of contents: a registry built in
  // a different insertion order prints the same bytes.
  Registry c;
  c.histogram("lat").record(4000);
  c.histogram("lat").record(100);
  c.counter("drops") += 1;
  c.counter("frames") += 5;
  EXPECT_EQ(json_of(c), json);
  EXPECT_EQ(c.summary(), a.summary());
}

}  // namespace
}  // namespace qosctrl::obs
