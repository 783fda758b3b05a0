#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace qosctrl::obs {

int Histogram::bucket_of(long long v) {
  if (v <= 0) return 0;
  return std::bit_width(static_cast<unsigned long long>(v));
}

long long Histogram::bucket_upper(int b) {
  if (b <= 0) return 0;
  if (b >= kNumBuckets - 1) return (1LL << (kNumBuckets - 2)) - 1 +
                                   (1LL << (kNumBuckets - 2));
  return (1LL << b) - 1;
}

void Histogram::record(long long v) {
  if (v < 0) v = 0;
  ++buckets_[bucket_of(v)];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int b = 0; b < kNumBuckets; ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

long long Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const long long rank = static_cast<long long>(
      p * static_cast<double>(count_ - 1));
  long long seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) return bucket_upper(b);
  }
  return bucket_upper(kNumBuckets - 1);
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].merge(hist);
  }
}

void Registry::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : counters_) w.field(name, value);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    for (const auto& [stat, of] : kHistogramStats) w.field(stat, of(h));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string Registry::summary() const {
  std::ostringstream os;
  for (const auto& [name, h] : histograms_) {
    os << "metric " << name << ':';
    for (const auto& [stat, of] : kHistogramStats) {
      os << ' ' << stat << '=' << of(h);
    }
    os << "\n";
  }
  if (!counters_.empty()) {
    os << "counters:";
    for (const auto& [name, value] : counters_) {
      os << ' ' << name << '=' << value;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace qosctrl::obs
