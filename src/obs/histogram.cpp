#include "obs/histogram.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

namespace tdmd::obs {

std::uint64_t MonotonicNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t LatencyHistogram::BucketIndex(std::uint64_t value) {
  constexpr std::uint64_t kExactLimit = 1ULL << (kSubBucketBits + 1);  // 16
  if (value < kExactLimit) {
    return static_cast<std::uint32_t>(value);
  }
  const auto width = static_cast<std::uint32_t>(std::bit_width(value));
  const std::uint32_t shift = width - (kSubBucketBits + 1);
  const auto sub = static_cast<std::uint32_t>(value >> shift);  // in [8, 15]
  return kExactLimit +
         (width - (kSubBucketBits + 2)) * (1U << kSubBucketBits) +
         (sub - (1U << kSubBucketBits));
}

std::uint64_t LatencyHistogram::BucketLowerBound(std::uint32_t index) {
  constexpr std::uint32_t kExactLimit = 1U << (kSubBucketBits + 1);  // 16
  if (index < kExactLimit) {
    return index;
  }
  const std::uint32_t group = (index - kExactLimit) >> kSubBucketBits;
  const std::uint32_t sub = (index - kExactLimit) & ((1U << kSubBucketBits) - 1);
  return static_cast<std::uint64_t>((1U << kSubBucketBits) + sub)
         << (group + 1);
}

void LatencyHistogram::Record(std::uint64_t value) {
  ++counts_[BucketIndex(value)];
  ++count_;
  sum_ += value;
  if (count_ == 1 || value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (std::uint32_t i = 0; i < kNumBuckets; ++i) {
    counts_[i] += other.counts_[i];
  }
  if (count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

void LatencyHistogram::Reset() {
  counts_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

std::uint64_t LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const double clamped_q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(clamped_q * static_cast<double>(count_)));
  std::uint64_t cumulative = 0;
  for (std::uint32_t i = 0; i < kNumBuckets; ++i) {
    cumulative += counts_[i];
    if (cumulative >= target && cumulative > 0) {
      return std::clamp(BucketLowerBound(i), min_, max_);
    }
  }
  return max_;
}

HistogramSummary LatencyHistogram::Summarize() const {
  HistogramSummary summary;
  summary.count = count_;
  summary.sum = sum_;
  summary.min = min();
  summary.max = max_;
  summary.p50 = Quantile(0.50);
  summary.p95 = Quantile(0.95);
  summary.p99 = Quantile(0.99);
  summary.mean = count_ == 0 ? 0.0
                             : static_cast<double>(sum_) /
                                   static_cast<double>(count_);
  return summary;
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.count = count_;
  snapshot.sum = sum_;
  snapshot.min = min();
  snapshot.max = max_;
  // Sized up front: one allocation however many buckets are occupied.
  snapshot.buckets.reserve(static_cast<std::size_t>(std::count_if(
      counts_.begin(), counts_.end(),
      [](std::uint64_t c) { return c != 0; })));
  for (std::uint32_t i = 0; i < kNumBuckets; ++i) {
    if (counts_[i] != 0) {
      snapshot.buckets.emplace_back(i, counts_[i]);
    }
  }
  return snapshot;
}

bool LatencyHistogram::Restore(const HistogramSnapshot& snapshot) {
  if (snapshot.count == 0) {
    if (snapshot.sum != 0 || snapshot.min != 0 || snapshot.max != 0 ||
        !snapshot.buckets.empty()) {
      return false;
    }
    Reset();
    return true;
  }
  if (snapshot.min > snapshot.max || snapshot.buckets.empty()) {
    return false;
  }
  std::uint64_t total = 0;
  std::uint32_t previous_index = 0;
  bool first = true;
  for (const auto& [index, bucket_count] : snapshot.buckets) {
    if (index >= kNumBuckets || bucket_count == 0 ||
        (!first && index <= previous_index)) {
      return false;
    }
    first = false;
    previous_index = index;
    total += bucket_count;
  }
  if (total != snapshot.count) {
    return false;
  }
  counts_.fill(0);
  for (const auto& [index, bucket_count] : snapshot.buckets) {
    counts_[index] = bucket_count;
  }
  count_ = snapshot.count;
  sum_ = snapshot.sum;
  min_ = snapshot.min;
  max_ = snapshot.max;
  return true;
}

}  // namespace tdmd::obs
