// Copyright (c) 2026 moqo authors. MIT license.
//
// Shared helpers of the moqo benchmark (perfbench/): steady-clock timing,
// percentiles over raw samples, failure accounting, and the flat JSON
// object the benchmark binary prints as its last line for run.py.

#ifndef MOQO_PERFBENCH_BENCH_UTIL_H_
#define MOQO_PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

namespace moqo {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Raw samples of one quantity. Percentiles interpolate linearly between
/// order statistics of the raw values, never histogram bucket edges.
/// Values are kept as floats (7 significant digits): a closed loop keeps
/// one per request, and the benchmark's own memory should not move the
/// peak RSS it reports.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(static_cast<float>(value));
    sorted_ = false;
  }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }

  /// p in [0, 100]; 0 when there are no samples.
  double Percentile(double p) const {
    if (values_.empty()) return 0;
    Sort();
    const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, values_.size() - 1);
    return values_[lo] + (static_cast<double>(values_[hi]) - values_[lo]) *
                             (rank - static_cast<double>(lo));
  }

  double Mean() const {
    if (values_.empty()) return 0;
    double sum = 0;
    for (float v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }

  /// Samples at or below `limit`.
  size_t AtMost(double limit) const {
    return static_cast<size_t>(
        std::count_if(values_.begin(), values_.end(),
                      [limit](double v) { return v <= limit; }));
  }

  /// Samples strictly above the p-th percentile: the support of a tail
  /// estimate (a tail needs at least ten to be worth reading).
  size_t Beyond(double p) const {
    const double cut = Percentile(p);
    return static_cast<size_t>(
        std::count_if(values_.begin(), values_.end(),
                      [cut](double v) { return v > cut; }));
  }

 private:
  void Sort() const {
    if (!sorted_) std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  mutable std::vector<float> values_;
  mutable bool sorted_ = true;
};

/// Attempted operations and failed correctness checks, by reason. Every
/// failure is counted; nothing is filtered. Thread-safe.
class Checks {
 public:
  void Attempt(uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  /// One failed operation (an operation failing two checks counts once
  /// per call; callers report the first failed check only).
  void Fail(const std::string& reason) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    ++reasons_[reason];
  }
  uint64_t attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }
  uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }
  std::map<std::string, uint64_t> reasons() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reasons_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, uint64_t> reasons_;
};

/// Insertion-ordered JSON object writer (numbers and nested objects).
/// Doubles keep all their digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    std::ostringstream out;
    out.precision(17);
    if (std::isfinite(value)) {
      out << value;
    } else {
      out << "null";
    }
    return Raw(key, out.str());
  }
  JsonObject& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.Render());
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  JsonObject& Raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
}  // namespace moqo

#endif  // MOQO_PERFBENCH_BENCH_UTIL_H_
