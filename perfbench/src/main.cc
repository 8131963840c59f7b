// simrank_perfbench: the repository benchmark. One workload per run:
//
//   simrank_perfbench --workload read_zipf|cluster_zipf|write_mixed|allpairs
//                     --seed N --seconds S --trace 0|1
//                     --work-dir DIR [--results FILE] [--spans FILE]
//
// Every workload checks its answers (the correctness gate) before any
// number is printed; a failed gate exits 1 without a result. The report
// lists each metric under its documented name with its unit and sample
// count; the last line of stdout is one JSON object with the metrics
// BENCHMARK.json gates (end-to-end untraced, per-layer traced). See
// perfbench/README.md.
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "bench.h"
#include "simrank/common/build_info.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/memory_tracker.h"
#include "simrank/common/simd.h"
#include "simrank/common/string_util.h"

namespace perfbench {

void Results::Add(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  metrics_.push_back(Metric{name, value, unit, detail});
}

void Results::AddPercentile(const std::string& name, const Percentile& p,
                            const std::string& unit) {
  Add(name, p.value, unit,
      simrank::StrFormat("%s of %zu", QuantileLabel(p.quantile).c_str(),
                         p.count));
}

void Results::Gated(const std::string& name, double value) {
  gated_.push_back(Metric{name, value, "", ""});
}

double PeakRssMb() {
  simrank::ProcessMemoryStats memory;
  simrank::ReadProcessMemoryStats(&memory);
  return memory.peak_resident_bytes / (1024.0 * 1024.0);
}

void WriteSpans(const Args& args, const std::vector<Span>& spans) {
  const std::string path = args.spans_path.empty()
                               ? args.work_dir + "/spans.jsonl"
                               : args.spans_path;
  std::ofstream out(path);
  for (const Span& span : spans) {
    out << simrank::StrFormat(
        "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"layer\":\"%s\","
        "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.request), span.layer.c_str(),
        span.name.c_str(), static_cast<long long>(span.time.start_ns),
        static_cast<long long>(span.time.end_ns));
  }
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

void GateFailure(const std::string& what) {
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               what.c_str());
  std::exit(1);
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string KernelRelease() {
  struct utsname name;
  return uname(&name) == 0 ? name.release : "unknown";
}

/// The fields results are compared on: a result is only compared with a
/// baseline whose key is identical. The code version is stamped beside it
/// but is not part of the key (comparing two versions is the point).
std::string HardwareKey() {
  const simrank::BuildInfo& build = simrank::GetBuildInfo();
  return simrank::StrFormat(
      "cores=%u;cpu=%s;simd=%s;kernel=%s;compiler=%s;build=%s;std=%s",
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      simrank::SimdLevelName(simrank::ActiveSimdLevel()),
      KernelRelease().c_str(), build.compiler, build.build_type,
      build.cxx_standard);
}

struct GatedSpec {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json's metric lists, in its order. Every workload reports
/// every metric; see perfbench/README.md for what each means per
/// workload.
constexpr GatedSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_us_per_request", "us"},
};
constexpr GatedSpec kPerLayer[] = {
    {"light.front_self_us", "us"},
    {"light.engine_us", "us"},
    {"medium.front_self_us", "us"},
    {"medium.engine_us", "us"},
    {"heavy.front_self_us", "us"},
    {"heavy.engine_us", "us"},
    {"setup.build_s", "s"},
    {"server.rejected", "count"},
    {"common.json_row_bytes", "bytes"},
    {"index.cache_hit_ratio", "ratio"},
    {"index.cache_evictions", "count"},
    {"index.resident_mb", "MB"},
    {"index.walks_resimulated_per_edge", "ratio"},
    {"index.wal_syncs_per_batch", "ratio"},
    {"index.overlay_peak_mb", "MB"},
    {"index.compactions", "count"},
    {"cluster.shard_errors", "count"},
    {"cluster.conflicts_retried", "count"},
    {"core.oip_adds", "count"},
    {"core.dsr_adds", "count"},
    {"core.aux_peak_mb", "MB"},
    {"core.share_ratio", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

bool IsTimeUnit(std::string_view unit) {
  return unit == "s" || unit == "ms" || unit == "us";
}

/// Orders the workload's gated metrics like BENCHMARK.json and attaches
/// units. A layer the workload does not have did no work in it, so an
/// unreported count, ratio or size is 0; an unreported time or end-to-end
/// metric is a bug in the benchmark.
std::vector<Metric> GatedMetrics(const Args& args, const Results& results) {
  std::vector<Metric> ordered;
  const std::span<const GatedSpec> specs =
      args.trace ? std::span<const GatedSpec>(kPerLayer)
                 : std::span<const GatedSpec>(kEndToEnd);
  for (const auto& [name, unit] : specs) {
    const Metric* found = nullptr;
    for (const Metric& m : results.gated()) {
      if (m.name == name) found = &m;
    }
    if (found == nullptr && (!args.trace || IsTimeUnit(unit))) {
      std::fprintf(stderr, "perfbench: %s did not report %s\n",
                   args.workload.c_str(), name);
      std::exit(1);
    }
    ordered.push_back(Metric{name, found ? found->value : 0.0, unit, ""});
  }
  return ordered;
}

std::string Number(double value) {
  return std::isfinite(value) ? simrank::StrFormat("%.17g", value) : "0";
}

void PrintReport(const Args& args, const Results& results,
                 const std::string& key) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# hardware key: %s\n", key.c_str());
  std::printf("# code: %s\n", simrank::GetBuildInfo().git_describe);
  for (const std::string& note : results.notes()) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("%-36s %16s  %-6s %s\n", "metric", "value", "unit",
              "read as");
  for (const Metric& m : results.metrics()) {
    std::printf("%-36s %16.6g  %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.detail.c_str());
  }
  std::printf("# attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(results.attempted),
              static_cast<unsigned long long>(results.failed));
}

void WriteResultsFile(const std::string& path, const Args& args,
                      const Results& results,
                      const std::vector<Metric>& gated,
                      const std::string& key) {
  simrank::JsonWriter json;
  json.BeginObject()
      .Key("key")
      .String(key)
      .Key("code")
      .String(simrank::GetBuildInfo().git_describe)
      .Key("workload")
      .String(args.workload)
      .Key("seed")
      .Uint(args.seed)
      .Key("seconds")
      .Double(args.seconds)
      .Key("trace")
      .Bool(args.trace)
      .Key("attempted")
      .Uint(results.attempted)
      .Key("failed")
      .Uint(results.failed);
  for (const auto* list : {&results.metrics(), &gated}) {
    json.Key(list == &gated ? "gated_metrics" : "metrics")
        .BeginObject();
    for (const Metric& m : *list) {
      json.Key(m.name)
          .BeginObject()
          .Key("value")
          .Double(m.value)
          .Key("unit")
          .String(m.unit)
          .Key("detail")
          .String(m.detail)
          .EndObject();
    }
    json.EndObject();
  }
  json.EndObject();
  std::ofstream out(path);
  out << json.str() << "\n";
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

void PrintResultLine(const Results& results,
                     const std::vector<Metric>& gated) {
  std::string line = simrank::StrFormat(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      static_cast<unsigned long long>(results.attempted),
      static_cast<unsigned long long>(results.failed));
  bool first = true;
  for (const Metric& m : gated) {
    line += simrank::StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                               first ? "" : ", ", m.name.c_str(),
                               Number(m.value).c_str(), m.unit.c_str());
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload read_zipf|cluster_zipf|write_mixed|"
               "allpairs --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--results FILE] [--spans FILE]\n",
               argv0);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Args;
  Args args;
  std::string results_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--results") {
      results_path = value;
    } else {
      perfbench::Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || args.work_dir.empty() || !(args.seconds > 0)) {
    perfbench::Usage(argv[0]);
  }

  perfbench::Results results;
  if (args.workload == "read_zipf") {
    perfbench::RunReadZipf(args, &results);
  } else if (args.workload == "cluster_zipf") {
    perfbench::RunClusterZipf(args, &results);
  } else if (args.workload == "write_mixed") {
    perfbench::RunWriteMixed(args, &results);
  } else if (args.workload == "allpairs") {
    perfbench::RunAllPairs(args, &results);
  } else {
    perfbench::Usage(argv[0]);
  }

  const std::vector<perfbench::Metric> gated =
      perfbench::GatedMetrics(args, results);
  const std::string key = perfbench::HardwareKey();
  perfbench::PrintReport(args, results, key);
  if (!results_path.empty()) {
    perfbench::WriteResultsFile(results_path, args, results, gated, key);
  }
  perfbench::PrintResultLine(results, gated);
  return 0;
}
