// The benchmark's own arithmetic: percentiles from raw samples, span self
// times, generator lateness and the capacity-ladder search. Kept free of
// any library dependency so perfbench_logic_test can check it in
// isolation.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile read off raw samples, with the sample count behind it.
struct Percentile {
  double value = 0;
  /// The quantile actually reported, in (0, 1].
  double quantile = 0;
  size_t count = 0;
};

/// Nearest-rank quantile `q` of `samples` (copied, sorted here).
/// Requires a non-empty input.
double Quantile(std::vector<double> samples, double q);

/// The median, as a Percentile (count = samples.size()).
Percentile Median(const std::vector<double>& samples);

/// The highest quantile not above `target` that still has at least
/// `min_beyond` samples strictly above its rank, never below the median:
/// with n samples, q = clamp(1 - min_beyond / n, 0.5, target). A latency
/// histogram with 2x buckets cannot resolve a 10% bound, so every tail the
/// benchmark reports comes from here.
Percentile TailPercentile(const std::vector<double>& samples, double target,
                          size_t min_beyond = 10);

/// "p99" for 0.99, "p97.5" for 0.975.
std::string QuantileLabel(double q);

/// A closed time interval in nanoseconds on one steady clock.
struct Interval {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Total length covered by the union of `intervals` (overlaps counted
/// once).
int64_t UnionLengthNs(std::vector<Interval> intervals);

/// One recorded span. Spans of one request share `request`; `parent` is
/// the id of the span whose work this span stands for (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  /// Module name ("server", "index", "common", "cluster", "loadgen", ...).
  std::string layer;
  /// What was timed ("http", "engine", "encode", ...).
  std::string name;
  Interval time;
};

/// Self time of every span, in nanoseconds, indexed like `spans`: its
/// duration minus the union of its children's intervals. Children may be
/// recorded on the same request after the parent ended (the benchmark
/// re-runs a request's engine and encoder calls directly to stand in for
/// the work the server did inside the HTTP span), so a child is matched
/// by parent id, not by interval containment. Negative results are kept:
/// they say the stand-in took longer than the real call.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Open-loop generator lateness: how long after its due time each
/// request was actually handed to the socket.
struct Lateness {
  Percentile p99;
  double max_us = 0;
  /// True when the generator itself fell behind its schedule — the run
  /// then measured the generator, not the server, and is invalid.
  bool fell_behind = false;
};

/// `late_us[i]` is request i's send time minus its due time. The
/// generator fell behind when its own p99 lateness exceeds
/// `limit_us`.
Lateness AccountLateness(const std::vector<double>& late_us, double limit_us);

/// Rates from `low` up to at least `high`, each step `ratio` times the
/// previous (ratio in (1, 1.1] keeps adjacent steps within 10%).
std::vector<double> RateLadder(double low, double high, double ratio);

/// Index of the highest rung for which `passes` holds, by bisection
/// (passing is assumed monotone: a rate that fails fails above too), or
/// -1 when even the lowest rung fails. `probes` (optional) receives the
/// rungs tried, in order.
int SearchLadder(const std::vector<double>& ladder,
                 const std::function<bool(double rate)>& passes,
                 std::vector<int>* probes = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
