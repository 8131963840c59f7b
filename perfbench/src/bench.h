// Shared plumbing of the benchmark's workloads: the command-line
// arguments, and the result sheet every workload fills in.
//
// A workload records two kinds of numbers:
//   - metrics under the names the documentation (perfbench/README.md)
//     uses, printed in the human-readable report and saved to the results
//     file, each with its unit and how it was read (percentile + sample
//     count);
//   - the gated metrics of BENCHMARK.json. Every workload must report
//     every one of those, so they name a role (the workload's light,
//     medium and heavy request class, its set-up, ...) that each workload
//     fills from its own metrics; the README maps each role per workload.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for index files and WALs (inside the checkout).
  std::string work_dir;
  /// Where a traced run writes its spans (JSON lines); empty = work_dir.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// How it was read, e.g. "p99 of 2400" or "median of 3 set-ups".
  std::string detail;
};

class Results {
 public:
  /// A metric under its documented name (report + results file).
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& detail = "");
  /// A percentile under its documented name; the detail records the
  /// quantile actually read and the sample count.
  void AddPercentile(const std::string& name, const Percentile& p,
                     const std::string& unit);
  /// A gated metric (BENCHMARK.json); its unit comes from the tables in
  /// main.cc.
  void Gated(const std::string& name, double value);
  /// A line of the report that is not a metric (gates, attribution).
  void Note(const std::string& line) { notes_.push_back(line); }

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Metric>& gated() const { return gated_; }
  const std::vector<std::string>& notes() const { return notes_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> gated_;
  std::vector<std::string> notes_;
};

/// Writes `spans` as JSON lines to args.spans_path (or
/// work_dir/spans.jsonl): the traced run's raw record, from which its self
/// times were computed.
void WriteSpans(const Args& args, const std::vector<Span>& spans);

/// Peak resident set of this process so far, in MB (2^20 bytes).
double PeakRssMb();

/// Aborts the run with a correctness-gate failure: prints the reason to
/// stderr and exits non-zero before any number is printed.
[[noreturn]] void GateFailure(const std::string& what);

void RunReadZipf(const Args& args, Results* results);
void RunClusterZipf(const Args& args, Results* results);
void RunWriteMixed(const Args& args, Results* results);
void RunAllPairs(const Args& args, Results* results);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
