#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return samples[rank - 1];
}

Percentile Median(const std::vector<double>& samples) {
  return Percentile{Quantile(samples, 0.5), 0.5, samples.size()};
}

Percentile TailPercentile(const std::vector<double>& samples, double target,
                          size_t min_beyond) {
  const double n = static_cast<double>(samples.size());
  const double q =
      std::clamp(1.0 - static_cast<double>(min_beyond) / n, 0.5, target);
  return Percentile{Quantile(samples, q), q, samples.size()};
}

std::string QuantileLabel(double q) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "p%.4g", q * 100.0);
  return buffer;
}

int64_t UnionLengthNs(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_ns < b.start_ns;
            });
  int64_t total = 0;
  int64_t open_start = 0;
  int64_t open_end = 0;
  bool open = false;
  for (const Interval& interval : intervals) {
    if (interval.end_ns <= interval.start_ns) continue;
    if (open && interval.start_ns <= open_end) {
      open_end = std::max(open_end, interval.end_ns);
      continue;
    }
    if (open) total += open_end - open_start;
    open = true;
    open_start = interval.start_ns;
    open_end = interval.end_ns;
  }
  if (open) total += open_end - open_start;
  return total;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<Interval>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(span.time);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const auto found = children.find(span.id);
    const int64_t covered =
        found == children.end() ? 0 : UnionLengthNs(found->second);
    self[i] = (span.time.end_ns - span.time.start_ns) - covered;
  }
  return self;
}

Lateness AccountLateness(const std::vector<double>& late_us,
                         double limit_us) {
  Lateness result;
  if (late_us.empty()) return result;
  result.p99 = TailPercentile(late_us, 0.99);
  result.max_us = *std::max_element(late_us.begin(), late_us.end());
  result.fell_behind = result.p99.value > limit_us;
  return result;
}

std::vector<double> RateLadder(double low, double high, double ratio) {
  std::vector<double> ladder;
  for (double rate = low; ; rate *= ratio) {
    ladder.push_back(std::round(rate));
    if (rate >= high) break;
  }
  return ladder;
}

int SearchLadder(const std::vector<double>& ladder,
                 const std::function<bool(double rate)>& passes,
                 std::vector<int>* probes) {
  int lo = -1;  // highest rung known to pass
  int hi = static_cast<int>(ladder.size());  // lowest rung known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (probes != nullptr) probes->push_back(mid);
    if (passes(ladder[mid])) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace perfbench
