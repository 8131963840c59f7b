// allpairs: the paper's own claim. OIP-SR (MST-shared partial sums) and
// OIP-DSR (differential model + MST sharing) through ComputeSimRank on the
// WEBG-like web graph of benchlib (n=3000, K=8, C=0.6), single-threaded.
// Set-up is building that graph (generation + the seed's relabelling).
// Addition counts are machine-independent and repeat exactly for a seed.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "loadgen.h"
#include "simrank/benchlib/datasets.h"
#include "simrank/common/rng.h"
#include "simrank/common/string_util.h"
#include "simrank/core/engine.h"
#include "simrank/core/matrix_simrank.h"
#include "simrank/graph/graph_ops.h"

namespace perfbench {
namespace {

constexpr uint32_t kIterations = 8;
constexpr double kDamping = 0.6;
/// Engine threads: fixed, never "hardware concurrency".
constexpr uint32_t kEngineThreads = 1;
/// The oracles only check answers; they are not timed.
constexpr uint32_t kOracleThreads = 4;
/// Agreement with the score-model oracle (the consistency suite's).
constexpr double kOracleTolerance = 1e-10;
constexpr int kSetups = 15;

/// benchlib's WEBG graph with its vertices relabelled by a permutation
/// drawn from the run's seed: the same structure, so the same work, for
/// every seed, in a seed-dependent vertex order.
simrank::DiGraph MakeGraph(uint64_t seed) {
  const simrank::DiGraph web = simrank::bench::MakeWebGraph().graph;
  std::vector<simrank::VertexId> permutation(web.n());
  for (uint32_t i = 0; i < web.n(); ++i) permutation[i] = i;
  simrank::Rng rng(seed);
  for (uint32_t i = web.n() - 1; i > 0; --i) {
    std::swap(permutation[i], permutation[rng.NextUint64(i + 1)]);
  }
  auto graph = simrank::RelabelVertices(web, permutation);
  if (!graph.ok()) GateFailure(graph.status().ToString());
  return std::move(graph).value();
}

simrank::EngineOptions Options(simrank::Algorithm algorithm,
                               uint32_t threads) {
  simrank::EngineOptions options;
  options.algorithm = algorithm;
  options.simrank.damping = kDamping;
  options.simrank.iterations = kIterations;
  options.simrank.threads = threads;
  return options;
}

/// One ComputeSimRank call: its wall-clock interval and kernel stats (the
/// score matrix is dropped once the gate has seen the first one).
struct Timed {
  simrank::KernelStats stats;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// CPU time of the call (the process's; nothing else runs meanwhile).
  int64_t cpu_ns = 0;
  double seconds() const { return (end_ns - start_ns) / 1e9; }
};

simrank::SimRankRun Compute(const simrank::DiGraph& graph,
                            simrank::Algorithm algorithm, Timed* timed) {
  const int64_t cpu_start = ProcessCpuNs();
  timed->start_ns = NowNs();
  auto run =
      simrank::ComputeSimRank(graph, Options(algorithm, kEngineThreads));
  timed->end_ns = NowNs();
  timed->cpu_ns = ProcessCpuNs() - cpu_start;
  if (!run.ok()) {
    GateFailure(simrank::StrFormat("%s failed: %s",
                                   simrank::AlgorithmName(algorithm),
                                   run.status().ToString().c_str()));
  }
  timed->stats = run->stats;
  return std::move(run).value();
}

void CheckAgainstOracle(const simrank::DiGraph& graph,
                        const simrank::DenseMatrix& scores,
                        simrank::Algorithm algorithm) {
  const simrank::SimRankOptions options =
      Options(algorithm, kOracleThreads).simrank;
  auto oracle =
      simrank::FindAlgorithm(algorithm)->model ==
              simrank::ScoreModel::kDifferential
          ? simrank::MatrixDifferentialSimRank(graph, options)
          : simrank::MatrixSimRank(graph, options,
                                   simrank::MatrixForm::kPinnedDiagonal);
  if (!oracle.ok()) GateFailure(oracle.status().ToString());
  const double diff = simrank::DenseMatrix::MaxAbsDiff(scores, *oracle);
  if (!(diff <= kOracleTolerance)) {
    GateFailure(simrank::StrFormat(
        "%s differs from its score-model oracle by %.3g (> %.0e)",
        simrank::AlgorithmName(algorithm), diff, kOracleTolerance));
  }
}

/// Spans of one ComputeSimRank call: the call itself (layer core) with
/// the DMST schedule build (mst) and the iterations (core) as children,
/// placed by the kernel's own phase timers.
void RecordSpans(const Timed& timed, uint64_t request,
                 std::vector<Span>* spans) {
  const uint64_t id = spans->size() + 1;
  const int64_t setup_end =
      timed.start_ns + static_cast<int64_t>(timed.stats.seconds_setup * 1e9);
  const int64_t iterate_end =
      setup_end + static_cast<int64_t>(timed.stats.seconds_iterate * 1e9);
  spans->push_back({id, 0, request, "core", "compute",
                    {timed.start_ns, timed.end_ns}});
  spans->push_back({id + 1, id, request, "mst", "build",
                    {timed.start_ns, setup_end}});
  spans->push_back({id + 2, id, request, "core", "iterate",
                    {setup_end, iterate_end}});
}

}  // namespace

void RunAllPairs(const Args& args, Results* results) {
  // Set-up: generating the input graph (median of several).
  std::vector<double> setup_s;
  simrank::DiGraph graph;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t start = NowNs();
    graph = MakeGraph(args.seed);
    setup_s.push_back((NowNs() - start) / 1e9);
  }

  // Correctness gate first: one OIP-SR and one OIP-DSR run against their
  // score-model oracles. They also warm the process up; they are not timed.
  Timed gate_oip, gate_dsr;
  CheckAgainstOracle(graph,
                     Compute(graph, simrank::Algorithm::kOip, &gate_oip).scores,
                     simrank::Algorithm::kOip);
  CheckAgainstOracle(
      graph, Compute(graph, simrank::Algorithm::kOipDsr, &gate_dsr).scores,
      simrank::Algorithm::kOipDsr);

  // Timed repetitions until the time budget is spent, at least two. A
  // traced run spends the first half untraced and then records spans for
  // at least kTracedReps more, to price them against the untraced ones.
  constexpr size_t kTracedReps = 2;
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  std::vector<Timed> oip, dsr;
  size_t untraced = 0;
  while (untraced < 2 || NowNs() - start < budget ||
         (args.trace && oip.size() - untraced < kTracedReps)) {
    if (!args.trace || NowNs() - start < budget / 2 || untraced < 2) {
      ++untraced;
    }
    oip.emplace_back();
    dsr.emplace_back();
    Compute(graph, simrank::Algorithm::kOip, &oip.back());
    Compute(graph, simrank::Algorithm::kOipDsr, &dsr.back());
  }
  // Addition counts are exact: every run must repeat the gate run's.
  const uint64_t oip_adds = gate_oip.stats.ops.total_adds();
  const uint64_t dsr_adds = gate_dsr.stats.ops.total_adds();
  for (size_t i = 0; i < oip.size(); ++i) {
    if (oip[i].stats.ops.total_adds() != oip_adds ||
        dsr[i].stats.ops.total_adds() != dsr_adds) {
      GateFailure("addition counts differ between two in-process runs");
    }
  }
  results->Note(simrank::StrFormat(
      "gate: OIP-SR and OIP-DSR within %.0e of their oracles "
      "(pinned-diagonal / differential matrix form); addition counts "
      "identical across %zu runs of each",
      kOracleTolerance, oip.size() + 1));
  results->attempted = oip.size() + dsr.size();
  results->failed = 0;

  // Untraced repetitions give the end-to-end numbers.
  // CPU time per OIP-SR + OIP-DSR pair is the mean over the whole run, not
  // the median: memory traffic of other guests slows these runs by up to a
  // third for ~10 s at a time, longer than one pair, so a median picks one
  // such state where the mean weighs them all.
  std::vector<double> both_s;
  double cpu_us = 0;
  for (size_t i = 0; i < untraced; ++i) {
    both_s.push_back(oip[i].seconds() + dsr[i].seconds());
    cpu_us += (oip[i].cpu_ns + dsr[i].cpu_ns) / 1e3;
  }
  const double cpu_per_run = cpu_us / static_cast<double>(untraced);
  std::string each;
  for (const double t : both_s) each += simrank::StrFormat(" %.3f", t);
  results->Note("OIP-SR + OIP-DSR seconds, run by run:" + each);
  const Percentile setup = Median(setup_s);
  const Percentile both = Median(both_s);
  const double peak_rss_mb = PeakRssMb();
  results->Add("setup_s", setup.value, "s",
               simrank::StrFormat("median of %zu graph builds",
                                  setup.count));
  results->Add("peak_rss_mb", peak_rss_mb, "MB", "VmHWM");
  results->Add("allpairs_s", both.value, "s",
               simrank::StrFormat("median of %zu OIP-SR + OIP-DSR runs",
                                  both.count));
  results->Add("allpairs_adds", static_cast<double>(oip_adds + dsr_adds),
               "count", "exact");
  results->Add("cpu_us_per_request", cpu_per_run, "us",
               simrank::StrFormat("mean CPU time of %zu OIP-SR + OIP-DSR "
                                  "runs",
                                  untraced));
  results->Add("failed_frac", 0, "ratio",
               simrank::StrFormat("of %llu runs",
                                  static_cast<unsigned long long>(
                                      results->attempted)));

  if (!args.trace) {
    results->Gated("setup_s", setup.value);
    results->Gated("peak_rss_mb", peak_rss_mb);
    results->Gated("cpu_us_per_request", cpu_per_run);
    return;
  }

  // Traced repetitions: spans written out, self times computed from them.
  std::vector<Span> spans;
  for (size_t i = untraced; i < oip.size(); ++i) {
    RecordSpans(oip[i], 2 * i, &spans);
    RecordSpans(dsr[i], 2 * i + 1, &spans);
  }
  WriteSpans(args, spans);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  // Each repetition recorded 3 OIP-SR spans, then 3 OIP-DSR spans.
  std::vector<double> oip_self_us, dsr_self_us, both_self_us;
  std::vector<double> oip_iter_us, dsr_iter_us, both_iter_us, build_s;
  std::vector<double> both_build_s;
  std::vector<double> traced_both_s;
  for (size_t k = 0; k + 6 <= spans.size(); k += 6) {
    const size_t i = untraced + k / 6;
    oip_self_us.push_back(self[k] / 1e3);
    dsr_self_us.push_back(self[k + 3] / 1e3);
    both_self_us.push_back((self[k] + self[k + 3]) / 1e3);
    oip_iter_us.push_back(oip[i].stats.seconds_iterate * 1e6);
    dsr_iter_us.push_back(dsr[i].stats.seconds_iterate * 1e6);
    both_iter_us.push_back(oip_iter_us.back() + dsr_iter_us.back());
    build_s.push_back(oip[i].stats.seconds_setup);
    both_build_s.push_back(oip[i].stats.seconds_setup +
                           dsr[i].stats.seconds_setup);
    traced_both_s.push_back(oip[i].seconds() + dsr[i].seconds());
  }

  // psum-SR once, for the paper's "additions vs psum" share ratio.
  Timed psum;
  Compute(graph, simrank::Algorithm::kPsum, &psum);
  const double share_ratio =
      static_cast<double>(oip_adds) / psum.stats.ops.total_adds();
  double aux_peak_mb = 0;
  for (const Timed& t : oip) {
    aux_peak_mb = std::max(aux_peak_mb, t.stats.aux_peak_bytes / 1048576.0);
  }
  for (const Timed& t : dsr) {
    aux_peak_mb = std::max(aux_peak_mb, t.stats.aux_peak_bytes / 1048576.0);
  }
  const double overhead =
      Median(traced_both_s).value / both.value - 1.0;

  const Percentile build = Median(build_s);
  results->Add("mst.build_s", build.value, "s",
               simrank::StrFormat("median of %zu OIP-SR runs", build.count));
  results->Add("core.oip_iterate_s", Median(oip_iter_us).value / 1e6, "s",
               simrank::StrFormat("median of %zu", oip_iter_us.size()));
  results->Add("core.dsr_iterate_s", Median(dsr_iter_us).value / 1e6, "s",
               simrank::StrFormat("median of %zu", dsr_iter_us.size()));
  results->Add("core.oip_self_s", Median(oip_self_us).value / 1e6, "s",
               "ComputeSimRank(OIP-SR) minus build and iterate");
  results->Add("core.oip_adds", static_cast<double>(oip_adds), "count",
               "exact");
  results->Add("core.dsr_adds", static_cast<double>(dsr_adds), "count",
               "exact");
  results->Add("core.aux_peak_mb", aux_peak_mb, "MB",
               "KernelStats.aux_peak_bytes, max over runs");
  results->Add("core.share_ratio", share_ratio, "ratio",
               simrank::StrFormat("OIP-SR adds %llu / psum-SR adds %llu",
                                  static_cast<unsigned long long>(oip_adds),
                                  static_cast<unsigned long long>(
                                      psum.stats.ops.total_adds())));
  results->Add("trace.overhead_frac", overhead, "ratio",
               simrank::StrFormat("traced median of %zu vs untraced median "
                                  "of %zu",
                                  traced_both_s.size(), both.count));
  results->Note(simrank::StrFormat(
      "attribution allpairs: OIP-SR+OIP-DSR %.3f s = mst build %.3f s + "
      "core iterate %.3f s + ComputeSimRank self %.3f s; dominant layer "
      "core",
      Median(traced_both_s).value, Median(both_build_s).value,
      Median(both_iter_us).value / 1e6, Median(both_self_us).value / 1e6));

  results->Gated("light.front_self_us", Median(oip_self_us).value);
  results->Gated("light.engine_us", Median(oip_iter_us).value);
  results->Gated("medium.front_self_us", Median(dsr_self_us).value);
  results->Gated("medium.engine_us", Median(dsr_iter_us).value);
  results->Gated("heavy.front_self_us", Median(both_self_us).value);
  results->Gated("heavy.engine_us", Median(both_iter_us).value);
  results->Gated("setup.build_s", build.value);
  results->Gated("core.oip_adds", static_cast<double>(oip_adds));
  results->Gated("core.dsr_adds", static_cast<double>(dsr_adds));
  results->Gated("core.aux_peak_mb", aux_peak_mb);
  results->Gated("core.share_ratio", share_ratio);
  results->Gated("trace.overhead_frac", overhead);
}

}  // namespace perfbench
