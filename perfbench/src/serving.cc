// The serving workloads: read_zipf, cluster_zipf and write_mixed.
//
// Each run generates a web graph and a request stream from its seed,
// builds and saves a v2 walk index, serves it mmap-loaded through the
// in-process HTTP frontends (SimRankServer; SimRankRouter over two shard
// servers for cluster_zipf), and drives it open-loop over loopback
// (loadgen.h). Before any number is printed, every answer sampled is
// compared byte for byte with a direct QueryEngine over the same index
// file, re-encoded with JsonWriter exactly as the server encodes it; the
// JSON layer prints doubles in shortest round-trip form, so byte equality
// is bitwise equality of the scores.
//
// A traced run (--trace 1) re-runs every answered request directly
// against twin objects over the same index file — QueryEngine (engine),
// WalkIndex without the cache (probe), JsonWriter (encode), a twin
// IndexUpdater replaying the same update batches (apply), and for
// cluster_zipf a full-index reference server — and records a span for
// each, parented to the request's HTTP span. A layer's self time is its
// span minus its children (stats.h).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "loadgen.h"
#include "simrank/cluster/router.h"
#include "simrank/cluster/shard_plan.h"
#include "simrank/cluster/shard_split.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/rng.h"
#include "simrank/common/string_util.h"
#include "simrank/gen/generators.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/server/http_client.h"
#include "simrank/server/server.h"

namespace perfbench {
namespace {

using simrank::DiGraph;
using simrank::EdgeUpdate;
using simrank::IndexUpdater;
using simrank::QueryEngine;
using simrank::ScoredVertex;
using simrank::SimRankServer;
using simrank::StrFormat;
using simrank::VertexId;
using simrank::WalkIndex;

// ------------------------------------------------------------ constants

constexpr uint32_t kVertices = 10000;
constexpr uint32_t kFingerprints = 128;
constexpr uint32_t kWalkLength = 8;
constexpr double kDamping = 0.6;
// Every thread count is explicit: 0 would mean "hardware concurrency"
// and make results depend on the box.
constexpr uint32_t kBuildThreads = 2;
constexpr uint32_t kServerThreads = 2;
/// Two shards of one worker each: the same worker count as one server.
constexpr uint32_t kShardServerThreads = 1;
constexpr uint32_t kEngineThreads = 1;
constexpr uint32_t kUpdaterThreads = 1;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr uint32_t kTopK = 10;
/// Source skew of read_zipf/cluster_zipf: the hottest ~1000 vertices (the
/// default row cache holds 8 x 128) draw most of the traffic.
constexpr double kZipfExponent = 1.1;
constexpr uint32_t kSocketTimeoutMs = 5000;
constexpr double kWarmSeconds = 1.0;
/// Correctness-gate sample sizes per endpoint.
constexpr uint32_t kGatePairs = 40;
constexpr uint32_t kGateTopK = 20;
constexpr uint32_t kGateRows = 10;
/// The run is invalid when the generator's own p99 lateness reaches the
/// tightest endpoint limit: it would then fail requests by itself.
constexpr double kGeneratorLateLimitUs = 25000;

enum Class : uint32_t { kPair = 0, kTopKClass = 1, kRow = 2, kUpdate = 3 };
constexpr uint32_t kNumClasses = 4;
constexpr const char* kClassNames[kNumClasses] = {"pair", "topk", "row",
                                                  "update"};
/// Stated latency limit per endpoint: an answer later than this (from its
/// due time) counts as failed, and the capacity ladder requires every
/// endpoint's p99 to meet it.
constexpr double kLimitUs[kNumClasses] = {25000, 25000, 100000, 250000};
/// The read mix: mostly pairs, some top-k, a few full rows.
constexpr double kPairShare = 0.75;
constexpr double kTopKShare = 0.18;

struct Workload {
  const char* name;
  bool zipf;
  bool cluster;
  bool writes;
  /// Reference read rate (requests/s) and update rate (batches/s): well
  /// below capacity (about a third of it), where latency is service time
  /// rather than queueing that a small change of the box's speed would
  /// multiply.
  double read_rate;
  double update_rate;
  uint32_t edges_per_batch;
  /// The connection each endpoint's requests are pipelined on, and how
  /// many there are. An endpoint never queues behind a slower one on its
  /// connection, except top-k behind pairs under writes (the generator has
  /// 4 threads: a sender and 3 receivers).
  uint32_t conn[kNumClasses];
  uint32_t conns;
  /// Share of an untraced run spent at the reference rate; the rest goes
  /// to the capacity ladder.
  double reference_share;
  /// Roles of the gated per-layer metrics: which class is light, medium
  /// and heavy.
  Class roles[3];
};

constexpr Workload kReadZipf = {
    "read_zipf", true, false, false, 1000, 0, 0, {0, 1, 2, 0}, 3, 0.7,
    {kPair, kTopKClass, kRow}};
constexpr Workload kClusterZipf = {
    "cluster_zipf", true, true, false, 1000, 0, 0, {0, 1, 2, 0}, 3, 0.7,
    {kPair, kTopKClass, kRow}};
constexpr Workload kWriteMixed = {
    "write_mixed", false, false, true, 600, 10, 4, {0, 0, 1, 2}, 3, 1.0,
    {kPair, kRow, kUpdate}};

/// A small overlay budget, so background auto-compaction runs several
/// times in a run.
constexpr uint64_t kOverlayBudgetBytes = 3 * 1024 * 1024;

// ------------------------------------------------------------- encoding

// The server's response bodies, re-encoded with JsonWriter
// (server/server.cc ExecutePair/ExecuteTopK/ExecuteSingleSource).
std::string EncodePair(VertexId a, VertexId b, double score) {
  simrank::JsonWriter json;
  json.BeginObject().Key("a").Uint(a).Key("b").Uint(b).Key("score").Double(
      score);
  json.EndObject();
  return json.str();
}

std::string EncodeTopK(VertexId v, uint32_t k,
                       const std::vector<ScoredVertex>& top) {
  simrank::JsonWriter json;
  json.BeginObject().Key("v").Uint(v).Key("k").Uint(k).Key("results");
  json.BeginArray();
  for (const ScoredVertex& scored : top) {
    json.BeginObject()
        .Key("vertex")
        .Uint(scored.vertex)
        .Key("score")
        .Double(scored.score)
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

std::string EncodeRow(VertexId v, const std::vector<double>& row) {
  simrank::JsonWriter json;
  json.BeginObject().Key("v").Uint(v).Key("scores").BeginArray();
  for (const double score : row) json.Double(score);
  json.EndArray().EndObject();
  return json.str();
}

std::string Target(const Request& request) {
  switch (request.cls) {
    case kPair:
      return StrFormat("/v1/pair?a=%u&b=%u", request.a, request.b);
    case kTopKClass:
      return StrFormat("/v1/topk?v=%u&k=%u", request.a, kTopK);
    case kRow:
      return StrFormat("/v1/single_source?v=%u", request.a);
    default:
      return "/v1/update";
  }
}

template <typename T>
T Unwrap(simrank::Result<T> result, const char* what) {
  if (!result.ok()) {
    GateFailure(StrFormat("%s: %s", what, result.status().ToString().c_str()));
  }
  return std::move(result).value();
}

/// The expected body of a read request, from a direct QueryEngine call.
std::string ExpectedBody(QueryEngine& engine, const Request& request) {
  switch (request.cls) {
    case kPair:
      return EncodePair(request.a, request.b,
                        Unwrap(engine.Pair(request.a, request.b), "Pair"));
    case kTopKClass:
      return EncodeTopK(request.a, kTopK,
                        Unwrap(engine.TopK(request.a, kTopK), "TopK"));
    default:
      return EncodeRow(request.a,
                       *Unwrap(engine.SingleSource(request.a), "Row"));
  }
}

// ----------------------------------------------------------- the inputs

/// The served graph and index are the same for every seed, so that runs
/// with different seeds measure the same system; the seed makes the
/// request stream, the hot set and the update batches.
constexpr uint64_t kGraphSeed = 7;
constexpr uint64_t kIndexSeed = 7;
constexpr uint64_t kHotSetSeed = 11;

DiGraph MakeGraph() {
  simrank::gen::WebGraphParams params;
  params.n = kVertices;
  params.out_degree = 3;
  params.copy_prob = 0.5;
  params.in_copy_prob = 0.3;
  params.seed = kGraphSeed;
  return Unwrap(simrank::gen::WebGraph(params), "graph generation");
}

simrank::WalkIndexOptions IndexOptions() {
  simrank::WalkIndexOptions options;
  options.num_fingerprints = kFingerprints;
  options.walk_length = kWalkLength;
  options.damping = kDamping;
  options.seed = kIndexSeed;
  options.num_threads = kBuildThreads;
  return options;
}

/// Vertex sampler: Zipf over ranks mapped through a fixed permutation (the
/// hot set, like the graph, is the same for every seed; the draws are the
/// seed's), or uniform.
class VertexSampler {
 public:
  explicit VertexSampler(bool zipf) : zipf_(zipf) {
    if (!zipf) return;
    permutation_.resize(kVertices);
    for (uint32_t i = 0; i < kVertices; ++i) permutation_[i] = i;
    simrank::Rng rng(kHotSetSeed);
    for (uint32_t i = kVertices - 1; i > 0; --i) {
      std::swap(permutation_[i], permutation_[rng.NextUint64(i + 1)]);
    }
    cdf_.resize(kVertices);
    double total = 0;
    for (uint32_t r = 0; r < kVertices; ++r) {
      total += 1.0 / std::pow(r + 1.0, kZipfExponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  VertexId Source(simrank::Rng& rng) const {
    if (!zipf_) return static_cast<VertexId>(rng.NextUint64(kVertices));
    const double u = rng.NextDouble();
    const size_t rank =
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return permutation_[std::min<size_t>(rank, kVertices - 1)];
  }

  static VertexId Uniform(simrank::Rng& rng) {
    return static_cast<VertexId>(rng.NextUint64(kVertices));
  }

 private:
  bool zipf_;
  std::vector<VertexId> permutation_;
  std::vector<double> cdf_;
};

/// Update batches of distinct edges: fresh insertions and deletions of
/// base-graph edges, no edge touched twice in a run, so every batch is
/// valid whatever was applied before it.
class BatchSource {
 public:
  BatchSource(const DiGraph& graph, uint64_t seed, uint32_t edges)
      : graph_(graph), rng_(seed), edges_(edges) {}

  uint32_t Next() {
    std::vector<EdgeUpdate> batch;
    while (batch.size() < (edges_ + 1) / 2) {
      const VertexId src = VertexSampler::Uniform(rng_);
      const VertexId dst = VertexSampler::Uniform(rng_);
      if (src == dst || graph_.HasEdge(src, dst) ||
          !used_.insert({src, dst}).second) {
        continue;
      }
      batch.push_back(EdgeUpdate{EdgeUpdate::Op::kInsert, src, dst});
    }
    while (batch.size() < edges_) {
      const VertexId src = VertexSampler::Uniform(rng_);
      const auto out = graph_.OutNeighbors(src);
      if (out.empty()) continue;
      const VertexId dst = out[rng_.NextUint64(out.size())];
      if (!used_.insert({src, dst}).second) continue;
      batch.push_back(EdgeUpdate{EdgeUpdate::Op::kDelete, src, dst});
    }
    batches_.push_back(std::move(batch));
    return static_cast<uint32_t>(batches_.size() - 1);
  }

  const std::vector<EdgeUpdate>& batch(uint32_t i) const {
    return batches_[i];
  }

 private:
  const DiGraph& graph_;
  simrank::Rng rng_;
  uint32_t edges_;
  std::set<std::pair<VertexId, VertexId>> used_;
  std::vector<std::vector<EdgeUpdate>> batches_;
};

Request MakeRead(Class cls, VertexId a, VertexId b) {
  Request request;
  request.cls = cls;
  request.a = a;
  request.b = b;
  request.wire = GetWire(Target(request));
  return request;
}

/// An open-loop schedule. Each read endpoint runs at its fixed share of
/// `read_rate`. The requests of one connection are evenly spaced at the
/// connection's total rate, its endpoints interleaved by smooth weighted
/// round robin, so no request is sent while an earlier one on its
/// connection is, by schedule, still being served. Vertices are drawn from
/// `rng`; update batches are evenly spaced at `update_rate`.
std::vector<Request> MakeSchedule(const Workload& w, double read_rate,
                                  double update_rate, double seconds,
                                  const VertexSampler& sampler,
                                  simrank::Rng& rng, BatchSource* batches) {
  std::vector<Request> schedule;
  const double rates[3] = {read_rate * kPairShare, read_rate * kTopKShare,
                           read_rate * (1 - kPairShare - kTopKShare)};
  for (uint32_t conn = 0; conn < w.conns; ++conn) {
    double total = 0;
    for (uint32_t cls = 0; cls < 3; ++cls) {
      if (w.conn[cls] == conn) total += rates[cls];
    }
    if (total == 0) continue;
    double credit[3] = {0, 0, 0};
    const auto slots = static_cast<size_t>(total * seconds);
    for (size_t k = 0; k < slots; ++k) {
      uint32_t pick = 3;
      for (uint32_t cls = 0; cls < 3; ++cls) {
        if (w.conn[cls] != conn) continue;
        credit[cls] += rates[cls];
        if (pick == 3 || credit[cls] > credit[pick]) pick = cls;
      }
      credit[pick] -= total;
      const VertexId a = sampler.Source(rng);
      const VertexId b = pick == kPair ? VertexSampler::Uniform(rng) : 0;
      Request request = MakeRead(static_cast<Class>(pick), a, b);
      request.conn = conn;
      // Connections start a quarter of a slot apart.
      request.due_ns =
          static_cast<int64_t>((k + (conn + 1) / 4.0) * 1e9 / total);
      schedule.push_back(std::move(request));
    }
  }
  const auto updates = static_cast<size_t>(update_rate * seconds);
  for (size_t j = 0; j < updates; ++j) {
    Request request;
    request.cls = kUpdate;
    request.conn = w.conn[kUpdate];
    request.due_ns = static_cast<int64_t>((j + 0.5) * 1e9 / update_rate);
    request.a = batches->Next();
    request.wire = PostWire(
        "/v1/update", simrank::FormatEdgeUpdates(batches->batch(request.a)));
    schedule.push_back(std::move(request));
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Request& x, const Request& y) {
                     return x.due_ns < y.due_ns;
                   });
  return schedule;
}

// ------------------------------------------------------ the serving stack

struct Paths {
  std::string index;
  std::string shard[2];
  std::string wal;
  std::string compact_index;
  std::string compact_graph;
  std::string twin_wal;
  std::string twin_compact_index;
  std::string twin_compact_graph;

  explicit Paths(const std::string& dir)
      : index(dir + "/index.widx"),
        shard{dir + "/shard-0.widx", dir + "/shard-1.widx"},
        wal(dir + "/updates.wal"),
        compact_index(dir + "/compacted.widx"),
        compact_graph(dir + "/compacted.graph"),
        twin_wal(dir + "/twin.wal"),
        twin_compact_index(dir + "/twin-compacted.widx"),
        twin_compact_graph(dir + "/twin-compacted.graph") {}
};

simrank::ServerOptions ServerOptionsFor(uint32_t threads) {
  simrank::ServerOptions options;
  options.port = 0;
  options.threads = threads;
  options.max_inflight = 256;
  options.max_endpoint_inflight = 128;
  return options;
}

simrank::IndexUpdaterOptions UpdaterOptions(const std::string& wal,
                                            const std::string& index,
                                            const std::string& graph) {
  simrank::IndexUpdaterOptions options;
  options.wal_path = wal;
  options.sync_wal = true;      // the production default: fsync ...
  options.group_commit = true;  // ... with group commit
  options.num_threads = kUpdaterThreads;
  options.overlay_budget_bytes = kOverlayBudgetBytes;
  options.auto_compact_path = index;
  options.auto_compact_graph_path = graph;
  return options;
}

/// One server on its own serve thread.
class ServedNode {
 public:
  ServedNode(QueryEngine& engine, const simrank::ServerOptions& options,
             IndexUpdater* updater = nullptr)
      : server_(engine, options, updater) {
    const simrank::Status bound = server_.Bind();
    if (!bound.ok()) GateFailure("server bind: " + bound.ToString());
    thread_ = std::thread([this] {
      const simrank::Status served = server_.Serve();
      if (!served.ok()) GateFailure("server: " + served.ToString());
    });
  }
  ~ServedNode() {
    server_.Shutdown();
    thread_.join();
  }
  ServedNode(const ServedNode&) = delete;
  ServedNode& operator=(const ServedNode&) = delete;

  SimRankServer& server() { return server_; }
  uint16_t port() const { return server_.port(); }

 private:
  SimRankServer server_;
  std::thread thread_;
};

/// An index file served mmap-loaded through its own engine.
struct LoadedIndex {
  LoadedIndex(const std::string& path, double* load_s) {
    const int64_t start = NowNs();
    WalkIndex::LoadOptions load;
    load.use_mmap = true;
    index = std::make_unique<WalkIndex>(
        Unwrap(WalkIndex::Load(path, load), "index load"));
    if (load_s != nullptr) *load_s += (NowNs() - start) / 1e9;
    simrank::QueryEngineOptions options;
    options.num_threads = kEngineThreads;
    engine = std::make_unique<QueryEngine>(*index, options);
  }

  std::unique_ptr<WalkIndex> index;
  std::unique_ptr<QueryEngine> engine;
};

/// Everything one set-up stands up. Members are destroyed in reverse:
/// router, servers, updater, engines, indexes.
struct Stack {
  DiGraph graph;
  double build_s = 0;
  double load_s = 0;
  double setup_s = 0;
  std::vector<std::unique_ptr<LoadedIndex>> indexes;  // 1, or 2 shards
  std::unique_ptr<IndexUpdater> updater;
  std::vector<std::unique_ptr<ServedNode>> nodes;
  std::unique_ptr<simrank::SimRankRouter> router;
  uint16_t port = 0;

  ~Stack() {
    if (router) router->Shutdown();
  }

  uint64_t ResidentBytes() const {
    uint64_t total = 0;
    for (const auto& loaded : indexes) total += loaded->index->SizeBytes();
    return total;
  }

  simrank::LruCacheStats CacheStats() const {
    simrank::LruCacheStats total;
    for (const auto& loaded : indexes) {
      const simrank::LruCacheStats s = loaded->engine->cache_stats();
      total.hits += s.hits;
      total.misses += s.misses;
      total.evictions += s.evictions;
    }
    return total;
  }

  uint64_t Rejected() const {
    uint64_t total = 0;
    for (const auto& node : nodes) {
      const simrank::ServerStats s = node->server().stats();
      total += s.rejected_inflight + s.rejected_endpoint;
    }
    return total;
  }
};

void RemoveIfPresent(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
}

/// Graph, index build and save, (shard split,) mmap load, servers up,
/// until the first 200.
std::unique_ptr<Stack> SetUp(const Workload& w, const Paths& paths) {
  for (const std::string& path :
       {paths.wal, paths.compact_index, paths.compact_graph}) {
    RemoveIfPresent(path);
  }
  auto stack = std::make_unique<Stack>();
  const int64_t start = NowNs();
  stack->graph = MakeGraph();
  int64_t t = NowNs();
  const WalkIndex built =
      Unwrap(WalkIndex::Build(stack->graph, IndexOptions()),
             "index build");
  stack->build_s = (NowNs() - t) / 1e9;
  const simrank::Status saved = built.Save(paths.index);
  if (!saved.ok()) GateFailure("index save: " + saved.ToString());

  if (w.cluster) {
    const simrank::ShardPlan plan = Unwrap(
        simrank::ShardPlan::EvenSplit(built.n(), built.graph_fingerprint(), 2),
        "shard plan");
    simrank::RouterOptions router_options;
    router_options.plan = plan;
    for (const simrank::ShardRange& range : plan.shards) {
      const simrank::Status split = simrank::WriteShardIndex(
          built.store(), range, paths.shard[range.shard_id], false);
      if (!split.ok()) GateFailure("shard split: " + split.ToString());
      stack->indexes.push_back(std::make_unique<LoadedIndex>(
          paths.shard[range.shard_id], &stack->load_s));
      simrank::ServerOptions options = ServerOptionsFor(kShardServerThreads);
      options.sharded = true;
      options.shard_plan = plan;
      options.shard_id = range.shard_id;
      stack->nodes.push_back(std::make_unique<ServedNode>(
          *stack->indexes.back()->engine, options));
      router_options.shards.push_back(
          simrank::RouterShard{range.shard_id, stack->nodes.back()->port(), 0});
    }
    stack->router =
        std::make_unique<simrank::SimRankRouter>(std::move(router_options));
    if (!stack->router->Bind().ok() || !stack->router->Start().ok()) {
      GateFailure("router failed to start");
    }
    stack->port = stack->router->port();
  } else {
    stack->indexes.push_back(
        std::make_unique<LoadedIndex>(paths.index, &stack->load_s));
    if (w.writes) {
      stack->updater = Unwrap(
          IndexUpdater::Open(*stack->indexes[0]->index, stack->graph,
                             UpdaterOptions(paths.wal, paths.compact_index,
                                            paths.compact_graph)),
          "updater open");
    }
    stack->nodes.push_back(std::make_unique<ServedNode>(
        *stack->indexes[0]->engine, ServerOptionsFor(kServerThreads),
        stack->updater.get()));
    stack->port = stack->nodes[0]->port();
  }
  auto first = simrank::HttpGet(stack->port, "/v1/pair?a=0&b=1");
  if (!first.ok() || first->status != 200) {
    GateFailure("first query after set-up did not answer 200");
  }
  stack->setup_s = (NowNs() - start) / 1e9;
  return stack;
}

// ----------------------------------------------------- correctness gates

/// Closed-loop sample of every read endpoint; each body must equal the
/// direct engine's answer byte for byte.
void ReadGate(const Workload& w, uint16_t port, QueryEngine& reference,
              const char* reference_name, const VertexSampler& sampler,
              uint64_t seed, Results* results, const char* when) {
  auto client =
      Unwrap(simrank::LoopbackHttpClient::Connect(port, kSocketTimeoutMs),
             "gate connect");
  simrank::Rng rng(seed ^ 0x6a7e5eedULL);
  uint32_t checked[3] = {0, 0, 0};
  const uint32_t wanted[3] = {kGatePairs, kGateTopK, kGateRows};
  for (uint32_t cls = 0; cls < 3; ++cls) {
    while (checked[cls] < wanted[cls]) {
      const VertexId a = sampler.Source(rng);
      const VertexId b = VertexSampler::Uniform(rng);
      const Request request = MakeRead(static_cast<Class>(cls), a, b);
      auto response = Unwrap(client.Get(Target(request)), "gate request");
      if (response.status != 200) {
        GateFailure(StrFormat("%s: %s answered %d", w.name,
                              Target(request).c_str(), response.status));
      }
      if (response.body != ExpectedBody(reference, request)) {
        GateFailure(StrFormat("%s: %s is not bitwise-equal to %s", w.name,
                              Target(request).c_str(), reference_name));
      }
      ++checked[cls];
    }
  }
  results->Note(StrFormat(
      "gate (%s): %u pair, %u topk, %u single_source answers%s "
      "bitwise-equal to %s",
      when, kGatePairs, kGateTopK, kGateRows,
      w.cluster ? " routed across 2 shards" : "", reference_name));
}

// ------------------------------------------------------------- analysis

struct ClassStats {
  std::vector<double> latency_us;  // answered with 200
  uint64_t attempted = 0;
};

struct PhaseStats {
  ClassStats cls[kNumClasses];
  std::vector<double> late_us;  // the generator's own send lateness
  size_t outstanding_at_end = 0;
  uint64_t attempted = 0;
  uint64_t errors = 0;    // unanswered, or answered neither 200 nor 429/503
  uint64_t rejected = 0;  // 429 or 503
  uint64_t late = 0;      // 200, but after the endpoint's limit
  /// CPU time the process spent serving the phase: all of it but the load
  /// generator's own threads'.
  int64_t service_cpu_ns = 0;

  /// Requests that did not get an answer: the result line's "failed".
  uint64_t failed() const { return errors + rejected; }
  /// The numerator of failed_frac: failed, refused or late.
  uint64_t missed() const { return errors + rejected + late; }
};

PhaseStats Analyze(const std::vector<Request>& schedule,
                   const PhaseResult& result) {
  PhaseStats stats;
  stats.outstanding_at_end = result.outstanding_at_end;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& outcome = result.outcomes[i];
    ClassStats& c = stats.cls[schedule[i].cls];
    ++c.attempted;
    ++stats.attempted;
    stats.late_us.push_back(outcome.late_us());
    if (outcome.status == 200) {
      c.latency_us.push_back(outcome.latency_us());
      if (outcome.latency_us() > kLimitUs[schedule[i].cls]) ++stats.late;
    } else if (outcome.status == 429 || outcome.status == 503) {
      ++stats.rejected;
    } else {
      ++stats.errors;
    }
  }
  return stats;
}

/// Does the server keep up with `schedule`? Every endpoint's p99 within
/// its limit, nothing failed, and no backlog left when the last request
/// was sent.
bool KeepsUp(const PhaseStats& stats, size_t sent) {
  if (stats.missed() != 0) return false;
  for (uint32_t c = 0; c < kNumClasses; ++c) {
    if (stats.cls[c].latency_us.empty()) continue;
    if (TailPercentile(stats.cls[c].latency_us, 0.99).value > kLimitUs[c]) {
      return false;
    }
  }
  return stats.outstanding_at_end <= std::max<size_t>(32, sent / 50);
}

// --------------------------------------------------------------- tracing

/// Spans one traced request records. Ids are request-index based so the
/// per-connection lists merge without coordination.
enum SpanSlot : uint64_t {
  kRootSpan = 0,
  kLoadgenSpan,
  kFrontSpan,      // server HTTP span, or the router's for cluster_zipf
  kReferenceSpan,  // cluster_zipf: the full-index reference server
  kEngineSpan,     // QueryEngine call, or IndexUpdater::ApplyUpdates
  kEncodeSpan,
  kProbeSpan,  // uncached WalkIndex call (its own root)
  kSpanSlots,
};

uint64_t SpanId(size_t request, SpanSlot slot) {
  return request * kSpanSlots + slot + 1;
}

/// The twins a traced phase is replayed against.
struct Twins {
  QueryEngine* engine = nullptr;
  const WalkIndex* index = nullptr;
  IndexUpdater* updater = nullptr;  // write_mixed
  const BatchSource* batches = nullptr;
  /// Whether each served body must equal the twin's (not under writes,
  /// where the twin's state at replay time is not the server's at serve
  /// time).
  bool compare_bodies = false;
};

/// Builds the spans of a traced phase. The client, loadgen and HTTP spans
/// come from the phase's own timestamps; then every answered request is
/// replayed in due order against the twins, timing the engine call (or
/// the update apply), the encoding and the uncached probe. For
/// cluster_zipf, `reference` is the same schedule sent to a full-index
/// server: its span stands for the work behind the router, and its body
/// must equal the router's.
std::vector<Span> TracePhase(const std::vector<Request>& schedule,
                             const PhaseResult& front,
                             const std::vector<std::string>& bodies,
                             const PhaseResult* reference,
                             const std::vector<std::string>* reference_bodies,
                             Twins& twins, std::vector<double>* row_bytes) {
  std::vector<Span> spans;
  auto record = [&](size_t i, SpanSlot slot, SpanSlot parent,
                    const char* layer, const char* name, int64_t start,
                    int64_t end) {
    spans.push_back(Span{SpanId(i, slot),
                         parent == kSpanSlots ? 0 : SpanId(i, parent), i,
                         layer, name, {start, end}});
  };
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Request& request = schedule[i];
    const Outcome& outcome = front.outcomes[i];
    if (outcome.status != 200) continue;
    record(i, kRootSpan, kSpanSlots, "client", kClassNames[request.cls],
           outcome.due_ns, outcome.recv_ns);
    record(i, kLoadgenSpan, kRootSpan, "loadgen", "send", outcome.due_ns,
           outcome.sent_ns);
    record(i, kFrontSpan, kRootSpan, reference ? "cluster" : "server", "http",
           outcome.sent_ns, outcome.recv_ns);
    SpanSlot parent = kFrontSpan;
    if (reference != nullptr) {
      const Outcome& ref = reference->outcomes[i];
      if (ref.status != 200 || (*reference_bodies)[i] != bodies[i]) {
        GateFailure(StrFormat("cluster_zipf: routed %s differs from the "
                              "full-index reference server",
                              Target(request).c_str()));
      }
      record(i, kReferenceSpan, kFrontSpan, "server", "http", ref.sent_ns,
             ref.recv_ns);
      parent = kReferenceSpan;
    }
    int64_t start = NowNs();
    if (request.cls == kUpdate) {
      const simrank::Status applied =
          twins.updater->ApplyUpdates(twins.batches->batch(request.a));
      record(i, kEngineSpan, parent, "index", "apply", start, NowNs());
      if (!applied.ok()) GateFailure("twin updater: " + applied.ToString());
      continue;
    }
    std::string body;
    int64_t mid = 0;
    if (request.cls == kPair) {
      const double score =
          Unwrap(twins.engine->Pair(request.a, request.b), "Pair");
      mid = NowNs();
      body = EncodePair(request.a, request.b, score);
    } else if (request.cls == kTopKClass) {
      const auto top = Unwrap(twins.engine->TopK(request.a, kTopK), "TopK");
      mid = NowNs();
      body = EncodeTopK(request.a, kTopK, top);
    } else {
      const QueryEngine::Row row =
          Unwrap(twins.engine->SingleSource(request.a), "SingleSource");
      mid = NowNs();
      body = EncodeRow(request.a, *row);
      row_bytes->push_back(static_cast<double>(body.size()));
    }
    record(i, kEngineSpan, parent, "index", "engine", start, mid);
    record(i, kEncodeSpan, parent, "common", "encode", mid, NowNs());
    if (twins.compare_bodies && body != bodies[i]) {
      GateFailure(StrFormat("%s is not bitwise-equal to the twin "
                            "QueryEngine",
                            Target(request).c_str()));
    }
    start = NowNs();
    if (request.cls == kPair) {
      volatile double probe = twins.index->EstimatePair(request.a, request.b);
      (void)probe;
      record(i, kProbeSpan, kSpanSlots, "index", "probe", start, NowNs());
    } else if (request.cls == kRow) {
      const std::vector<double> probe =
          twins.index->EstimateSingleSource(request.a);
      record(i, kProbeSpan, kSpanSlots, "index", "probe", start, NowNs());
    }
  }
  return spans;
}

/// One endpoint's per-request layer times from the traced phase's spans.
struct LayerTimes {
  std::vector<double> client_us, loadgen_us, front_self_us, server_self_us,
      engine_us, encode_us, probe_us;
};

// --------------------------------------------------------------- the run

double MedianOr0(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Median(v).value;
}

void RunServing(const Workload& w, const Args& args, Results* results) {
  const Paths paths(args.work_dir);
  const VertexSampler sampler(w.zipf);

  // Set-up, several times; the last stack is the one measured.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s, build_s, load_s;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    stack = SetUp(w, paths);
    setup_s.push_back(stack->setup_s);
    build_s.push_back(stack->build_s);
    load_s.push_back(stack->load_s);
  }

  // Direct reference: a second engine over the full index file.
  LoadedIndex twin(paths.index, nullptr);
  ReadGate(w, stack->port, *twin.engine,
           "a direct QueryEngine over the full index", sampler, args.seed,
           results, "before load");

  BatchSource batches(stack->graph, args.seed ^ 0xba7c4ULL,
                      std::max<uint32_t>(w.edges_per_batch, 1));
  simrank::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<uint32_t> acked;  // update batches acknowledged, in order
  uint64_t max_overlay_bytes = 0;
  uint64_t compactions_seen = 0;
  std::vector<double> compaction_s, compaction_pause_ms;
  auto watch_updates = [&](const Request& request, const Outcome& outcome) {
    if (request.cls != kUpdate || outcome.status != 200) return;
    acked.push_back(request.a);
    const simrank::IndexUpdateStats s = stack->updater->stats();
    max_overlay_bytes = std::max(max_overlay_bytes, s.overlay_bytes);
    if (s.compactions > compactions_seen) {
      compactions_seen = s.compactions;
      compaction_s.push_back(s.last_compaction_micros / 1e6);
      compaction_pause_ms.push_back(s.last_compaction_pause_micros / 1e3);
    }
  };
  auto plain_hook = [&](size_t, const Request& request,
                        const Outcome& outcome,
                        const simrank::HttpClientResponse&) {
    watch_updates(request, outcome);
  };
  auto run_phase = [&](double seconds, const ResponseHook& hook) {
    const std::vector<Request> schedule =
        MakeSchedule(w, w.read_rate, w.update_rate, seconds, sampler, rng,
                     &batches);
    const int64_t cpu_start = ProcessCpuNs();
    const PhaseResult result =
        RunOpenLoop(stack->port, w.conns, schedule, hook, kSocketTimeoutMs);
    PhaseStats stats = Analyze(schedule, result);
    stats.service_cpu_ns =
        ProcessCpuNs() - cpu_start - result.generator_cpu_ns;
    return stats;
  };

  // Warm-up: caches fill and lazy set-up finishes before timing.
  run_phase(kWarmSeconds, plain_hook);

  // Twin updater (traced write_mixed) over its own copy of the index,
  // brought level with every batch the server has applied so far.
  std::unique_ptr<LoadedIndex> twin_write;
  std::unique_ptr<IndexUpdater> twin_updater;
  size_t twin_applied = 0;
  auto level_twin = [&] {
    for (; twin_applied < acked.size(); ++twin_applied) {
      const simrank::Status s =
          twin_updater->ApplyUpdates(batches.batch(acked[twin_applied]));
      if (!s.ok()) GateFailure("twin updater: " + s.ToString());
    }
  };
  if (args.trace && w.writes) {
    for (const std::string& path : {paths.twin_wal, paths.twin_compact_index,
                                    paths.twin_compact_graph}) {
      RemoveIfPresent(path);
    }
    twin_write = std::make_unique<LoadedIndex>(paths.index, nullptr);
    twin_updater = Unwrap(
        IndexUpdater::Open(*twin_write->index, stack->graph,
                           UpdaterOptions(paths.twin_wal,
                                          paths.twin_compact_index,
                                          paths.twin_compact_graph)),
        "twin updater open");
    level_twin();
  }

  const uint64_t rejected_before = stack->Rejected();
  const simrank::IndexUpdateStats updates_before =
      w.writes ? stack->updater->stats() : simrank::IndexUpdateStats{};
  const simrank::RouterStats router_before =
      w.cluster ? stack->router->stats() : simrank::RouterStats{};

  // The reference-rate phase: the end-to-end numbers (untraced).
  const double reference_seconds = std::max(
      1.0, std::floor(args.trace ? args.seconds / 2
                                 : args.seconds * w.reference_share));
  const PhaseStats measured = run_phase(reference_seconds, plain_hook);
  results->attempted = measured.attempted;
  results->failed = measured.failed();
  const Lateness lateness =
      AccountLateness(measured.late_us, kGeneratorLateLimitUs);
  if (lateness.fell_behind) {
    std::fprintf(stderr,
                 "perfbench: invalid run: the load generator itself fell "
                 "behind (%s lateness %.0f us > %.0f us)\n",
                 QuantileLabel(lateness.p99.quantile).c_str(),
                 lateness.p99.value, kGeneratorLateLimitUs);
    std::exit(1);
  }

  // Capacity ladder (untraced read workloads): the highest fixed rate
  // every endpoint keeps up with.
  double capacity = 0;
  std::string capacity_detail;
  if (!args.trace && !w.writes) {
    const std::vector<double> ladder = RateLadder(1000, 40000, 1.1);
    const double step_seconds =
        std::max(0.3, args.seconds * (1 - w.reference_share) / 6);
    std::vector<int> probes;
    const int best = SearchLadder(
        ladder,
        [&](double rate) {
          std::vector<Request> schedule = MakeSchedule(
              w, rate, 0, step_seconds, sampler, rng, &batches);
          const PhaseResult result = RunOpenLoop(
              stack->port, w.conns, schedule, nullptr, kSocketTimeoutMs);
          return KeepsUp(Analyze(schedule, result), schedule.size());
        },
        &probes);
    capacity = best >= 0 ? ladder[best] : 0;
    capacity_detail = StrFormat(
        "ladder %.0f..%.0f x1.1, %zu probes of %.2f s",
        ladder.front(), ladder.back(), probes.size(), step_seconds);
  }

  // Traced phase: the same stream shape again, keeping every body; the
  // twins replay it afterwards, so tracing adds nothing to the requests'
  // own path but the copy of each body.
  std::vector<Span> spans;
  std::vector<double> row_bytes;
  if (args.trace) {
    Twins twins;
    twins.engine = twin.engine.get();
    twins.index = twin.index.get();
    twins.batches = &batches;
    twins.compare_bodies = !w.writes;
    if (w.writes) {
      level_twin();
      twins.engine = twin_write->engine.get();
      twins.index = twin_write->index.get();
      twins.updater = twin_updater.get();
    }
    const simrank::LruCacheStats cache_before = stack->CacheStats();
    std::vector<Request> schedule =
        MakeSchedule(w, w.read_rate, w.update_rate, args.seconds / 2,
                     sampler, rng, &batches);
    std::vector<std::string> bodies(schedule.size());
    auto keep_body = [&](size_t i, const Request& request,
                         const Outcome& outcome,
                         const simrank::HttpClientResponse& response) {
      bodies[i] = response.body;
      watch_updates(request, outcome);
    };
    const PhaseResult front = RunOpenLoop(stack->port, w.conns, schedule,
                                          keep_body, kSocketTimeoutMs);
    const simrank::LruCacheStats cache_after = stack->CacheStats();

    // cluster_zipf: the identical schedule against a full-index server.
    PhaseResult reference;
    std::vector<std::string> reference_bodies(schedule.size());
    if (w.cluster) {
      LoadedIndex reference_index(paths.index, nullptr);
      ServedNode reference_server(*reference_index.engine,
                                  ServerOptionsFor(kServerThreads));
      reference = RunOpenLoop(
          reference_server.port(), w.conns, schedule,
          [&](size_t i, const Request&, const Outcome&,
              const simrank::HttpClientResponse& response) {
            reference_bodies[i] = response.body;
          },
          kSocketTimeoutMs);
    }
    spans = TracePhase(schedule, front, bodies,
                       w.cluster ? &reference : nullptr, &reference_bodies,
                       twins, &row_bytes);
    twin_applied = acked.size();

    const uint64_t hits = cache_after.hits - cache_before.hits;
    const uint64_t lookups = hits + cache_after.misses - cache_before.misses;
    const double hit_ratio =
        lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
    const double evictions =
        static_cast<double>(cache_after.evictions - cache_before.evictions);
    results->Add("index.cache_hit_ratio", hit_ratio, "ratio",
                 StrFormat("%llu hits / %llu lookups (served engines)",
                           static_cast<unsigned long long>(hits),
                           static_cast<unsigned long long>(lookups)));
    results->Add("index.cache_evictions", evictions, "count",
                 "traced phase");
    results->Gated("index.cache_hit_ratio", hit_ratio);
    results->Gated("index.cache_evictions", evictions);
  }

  // write_mixed: every acknowledged update visible, and the final state
  // bitwise a fresh build of the final graph.
  if (w.writes) {
    stack->updater->DrainBackgroundCompaction();
    const simrank::IndexUpdateStats s = stack->updater->stats();
    const DiGraph final_graph = stack->updater->CurrentGraph();
    if (s.batches_applied != acked.size()) {
      GateFailure(StrFormat("write_mixed: %llu batches applied, %zu "
                            "acknowledged",
                            static_cast<unsigned long long>(s.batches_applied),
                            acked.size()));
    }
    for (const uint32_t b : acked) {
      for (const EdgeUpdate& u : batches.batch(b)) {
        if (final_graph.HasEdge(u.src, u.dst) !=
            (u.op == EdgeUpdate::Op::kInsert)) {
          GateFailure(StrFormat("write_mixed: acknowledged %s of %u->%u is "
                                "not visible",
                                u.op == EdgeUpdate::Op::kInsert ? "insert"
                                                                : "delete",
                                u.src, u.dst));
        }
      }
    }
    simrank::WalkIndexOptions options = IndexOptions();
    const WalkIndex rebuilt =
        Unwrap(WalkIndex::Build(final_graph, options), "rebuild");
    simrank::QueryEngineOptions engine_options;
    engine_options.num_threads = kEngineThreads;
    QueryEngine rebuilt_engine(rebuilt, engine_options);
    ReadGate(w, stack->port, rebuilt_engine,
             "a QueryEngine over WalkIndex::Build of the final graph",
             sampler, args.seed + 1, results, "after the write stream");
    results->Note(StrFormat(
        "gate (after the write stream): all %zu acknowledged batches "
        "visible in the final graph",
        acked.size()));
  }

  // --------------------------------------------------------- reporting
  const PhaseStats& m = measured;
  const Percentile setup = Median(setup_s);
  results->Add("setup_s", setup.value, "s",
               StrFormat("median of %zu set-ups", setup.count));
  // Every percentile is reported, none is gated (BENCHMARK.json gates
  // cpu_us_per_request). On a shared virtual machine a request's wall time
  // follows the load other guests put on the host: five runs of the same
  // write_mixed code read pair p50 from 0.31 to 2.25 ms.
  for (uint32_t c = 0; c < kNumClasses; ++c) {
    if (m.cls[c].latency_us.empty()) continue;
    const double scale = c == kUpdate ? 1e-3 : 1.0;
    const char* unit = c == kUpdate ? "ms" : "us";
    const Percentile p50 = Median(m.cls[c].latency_us);
    const Percentile p90 = TailPercentile(m.cls[c].latency_us, 0.90);
    const Percentile p99 = TailPercentile(m.cls[c].latency_us, 0.99);
    for (const auto& [label, p] :
         {std::pair{"p50", p50}, {"p90", p90}, {"p99", p99}}) {
      results->AddPercentile(
          StrFormat("%s_%s_%s", kClassNames[c], label, unit),
          Percentile{p.value * scale, p.quantile, p.count}, unit);
    }
  }
  if (!w.writes && !args.trace) {
    results->Add("capacity_qps", capacity, "1/s", capacity_detail);
  }
  // The CPU time the served system (frontends, engines, updater and their
  // background threads) spent per request at the reference rate. Unlike
  // wall time it leaves out the time the host ran other guests.
  const double cpu_per_request =
      m.service_cpu_ns / 1e3 / static_cast<double>(m.attempted);
  results->Add("cpu_us_per_request", cpu_per_request, "us",
               StrFormat("%.3f CPU-s serving %llu requests",
                         m.service_cpu_ns / 1e9,
                         static_cast<unsigned long long>(m.attempted)));
  results->Add("failed_frac",
               m.attempted == 0 ? 0.0
                                : static_cast<double>(m.missed()) / m.attempted,
               "ratio",
               StrFormat("of %llu: %llu failed, %llu refused, %llu later "
                         "than the limit",
                         static_cast<unsigned long long>(m.attempted),
                         static_cast<unsigned long long>(m.errors),
                         static_cast<unsigned long long>(m.rejected),
                         static_cast<unsigned long long>(m.late)));
  const double peak_rss_mb = PeakRssMb();
  results->Add("peak_rss_mb", peak_rss_mb, "MB", "VmHWM");
  results->Add("loadgen.late_p99_us", lateness.p99.value, "us",
               StrFormat("%s of %zu sends, max %.0f us",
                         QuantileLabel(lateness.p99.quantile).c_str(),
                         lateness.p99.count, lateness.max_us));
  results->Note(StrFormat(
      "load: open loop, %.0f reads/s (%.0f%% pair, %.0f%% topk, %.0f%% "
      "single_source, %s sources) over %u connections%s, %.1f s measured "
      "after %.1f s warm-up",
      w.read_rate, kPairShare * 100, kTopKShare * 100,
      (1 - kPairShare - kTopKShare) * 100, w.zipf ? "Zipf" : "uniform",
      w.conns - (w.writes ? 1 : 0),
      w.writes ? StrFormat(" + %.0f update batches/s of %u edges on 1 "
                           "connection (WAL fsync, group commit on)",
                           w.update_rate, w.edges_per_batch)
                     .c_str()
               : "",
      reference_seconds, kWarmSeconds));

  if (!args.trace) {
    results->Gated("setup_s", setup.value);
    results->Gated("peak_rss_mb", peak_rss_mb);
    results->Gated("cpu_us_per_request", cpu_per_request);
    return;
  }

  // ---------------------------------------------- traced: per layer
  WriteSpans(args, spans);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<uint64_t, size_t> by_id;
  for (size_t k = 0; k < spans.size(); ++k) by_id[spans[k].id] = k;
  // Each request's root span names its endpoint.
  LayerTimes layers[kNumClasses];
  for (size_t k = 0; k < spans.size(); ++k) {
    const Span& span = spans[k];
    const uint64_t slot = (span.id - 1) % kSpanSlots;
    if (slot != kRootSpan) continue;
    uint32_t cls = 0;
    while (cls < kNumClasses && span.name != kClassNames[cls]) ++cls;
    LayerTimes& t = layers[cls];
    auto find = [&](SpanSlot s) -> const Span* {
      const auto it = by_id.find(SpanId(span.request, s));
      return it == by_id.end() ? nullptr : &spans[it->second];
    };
    auto self_of = [&](SpanSlot s) {
      return self[by_id.at(SpanId(span.request, s))] / 1e3;
    };
    auto length_us = [](const Span* s) {
      return (s->time.end_ns - s->time.start_ns) / 1e3;
    };
    t.client_us.push_back(length_us(&span));
    t.loadgen_us.push_back(length_us(find(kLoadgenSpan)));
    t.front_self_us.push_back(self_of(kFrontSpan));
    t.server_self_us.push_back(w.cluster ? self_of(kReferenceSpan)
                                         : self_of(kFrontSpan));
    t.engine_us.push_back(length_us(find(kEngineSpan)));
    if (const Span* e = find(kEncodeSpan)) t.encode_us.push_back(length_us(e));
    if (const Span* p = find(kProbeSpan)) t.probe_us.push_back(length_us(p));
  }

  // Attribution per endpoint: each layer's median self time, the
  // dominant one, and what the medians leave unexplained.
  std::vector<double> traced_all, untraced_all;
  for (uint32_t c = 0; c < kNumClasses; ++c) {
    const LayerTimes& t = layers[c];
    if (t.client_us.empty()) continue;
    if (c != kUpdate) {
      traced_all.insert(traced_all.end(), t.client_us.begin(),
                        t.client_us.end());
      untraced_all.insert(untraced_all.end(), m.cls[c].latency_us.begin(),
                          m.cls[c].latency_us.end());
    }
    std::vector<std::pair<std::string, double>> parts = {
        {"loadgen", MedianOr0(t.loadgen_us)}};
    if (w.cluster) parts.push_back({"cluster", MedianOr0(t.front_self_us)});
    parts.push_back({"server", MedianOr0(t.server_self_us)});
    parts.push_back({"index", MedianOr0(t.engine_us)});
    if (!t.encode_us.empty()) {
      parts.push_back({"common", MedianOr0(t.encode_us)});
    }
    double sum = 0;
    const std::pair<std::string, double>* dominant = &parts[0];
    std::string listing;
    for (const auto& part : parts) {
      sum += part.second;
      if (part.second > dominant->second) dominant = &part;
      listing += StrFormat(" %s %.1f", part.first.c_str(), part.second);
    }
    const double client = MedianOr0(t.client_us);
    results->Note(StrFormat(
        "attribution %s %s: client p50 %.1f us =%s + unattributed %.1f "
        "(us, median self times of %zu traced requests); dominant layer %s",
        w.name, kClassNames[c], client, listing.c_str(), client - sum,
        t.client_us.size(), dominant->first.c_str()));
  }

  const LayerTimes& pair = layers[kPair];
  const LayerTimes& topk = layers[kTopKClass];
  const LayerTimes& row = layers[kRow];
  auto add_median = [&](const std::string& name, const std::vector<double>& v,
                        double scale, const char* unit) {
    if (v.empty()) return;
    Percentile p = Median(v);
    p.value *= scale;
    results->AddPercentile(name, p, unit);
  };
  const char* front = w.cluster ? "cluster" : "server";
  add_median(StrFormat("%s.pair_self_us", front), pair.front_self_us, 1, "us");
  add_median(StrFormat("%s.topk_self_us", front), topk.front_self_us, 1,
             "us");
  add_median(StrFormat("%s.row_self_us", front), row.front_self_us, 1, "us");
  if (w.cluster) {
    add_median("server.pair_self_us", pair.server_self_us, 1, "us");
    add_median("server.topk_self_us", topk.server_self_us, 1, "us");
    add_median("server.row_self_us", row.server_self_us, 1, "us");
  }
  const uint64_t rejected = stack->Rejected() - rejected_before;
  results->Add("server.rejected", static_cast<double>(rejected), "count",
               "429 + 503 responses, measured + traced phases");
  add_median("common.json_row_us", row.encode_us, 1, "us");
  add_median("common.json_row_bytes", row_bytes, 1, "bytes");
  add_median("index.engine_pair_us", pair.engine_us, 1, "us");
  add_median("index.engine_topk_us", topk.engine_us, 1, "us");
  add_median("index.engine_row_us", row.engine_us, 1, "us");
  add_median("index.probe_pair_us", pair.probe_us, 1, "us");
  add_median("index.probe_row_us", row.probe_us, 1, "us");
  const Percentile load = Median(load_s);
  const Percentile build = Median(build_s);
  results->Add("index.load_s", load.value, "s",
               StrFormat("median of %zu set-ups", load.count));
  results->Add("index.build_s", build.value, "s",
               StrFormat("median of %zu set-ups", build.count));
  const double resident_mb = stack->ResidentBytes() / 1048576.0;
  results->Add("index.resident_mb", resident_mb, "MB",
               "WalkIndex::SizeBytes of the served index (all shards)");

  double resimulated_per_edge = 0, syncs_per_batch = 0;
  if (w.writes) {
    const LayerTimes& upd = layers[kUpdate];
    add_median("server.update_self_ms", upd.front_self_us, 1e-3, "ms");
    if (!upd.engine_us.empty()) {
      Percentile a = Median(upd.engine_us), b = TailPercentile(upd.engine_us,
                                                                0.99);
      a.value /= 1e3;
      b.value /= 1e3;
      results->AddPercentile("index.apply_p50_ms", a, "ms");
      results->AddPercentile("index.apply_p99_ms", b, "ms");
    }
    const simrank::IndexUpdateStats s = stack->updater->stats();
    const double edges = static_cast<double>(
        (s.edges_inserted + s.edges_deleted) -
        (updates_before.edges_inserted + updates_before.edges_deleted));
    const double applied =
        static_cast<double>(s.batches_applied - updates_before.batches_applied);
    resimulated_per_edge =
        edges == 0 ? 0
                   : (s.walks_resimulated - updates_before.walks_resimulated) /
                         edges;
    syncs_per_batch =
        applied == 0 ? 0 : (s.wal_syncs - updates_before.wal_syncs) / applied;
    results->Add("index.walks_resimulated_per_edge", resimulated_per_edge,
                 "ratio", StrFormat("over %.0f edges", edges));
    results->Add("index.wal_syncs_per_batch", syncs_per_batch, "ratio",
                 StrFormat("over %.0f batches", applied));
    results->Add("index.overlay_peak_mb", max_overlay_bytes / 1048576.0, "MB",
                 "max IndexUpdateStats.overlay_bytes seen at acks");
    results->Add("index.compactions",
                 static_cast<double>(s.compactions - updates_before.compactions),
                 "count", "measured + traced phases");
    add_median("index.compaction_s", compaction_s, 1, "s");
    add_median("index.compaction_pause_ms", compaction_pause_ms, 1, "ms");
    results->Gated("index.walks_resimulated_per_edge", resimulated_per_edge);
    results->Gated("index.wal_syncs_per_batch", syncs_per_batch);
    results->Gated("index.overlay_peak_mb", max_overlay_bytes / 1048576.0);
    results->Gated("index.compactions",
                    static_cast<double>(s.compactions -
                                        updates_before.compactions));
  }
  if (w.cluster) {
    const simrank::RouterStats s = stack->router->stats();
    results->Add("cluster.shard_errors",
                 static_cast<double>(s.shard_errors -
                                     router_before.shard_errors),
                 "count", "measured + traced phases");
    results->Add("cluster.conflicts_retried",
                 static_cast<double>(s.conflicts_retried -
                                     router_before.conflicts_retried),
                 "count", "measured + traced phases");
    results->Gated("cluster.shard_errors",
                    static_cast<double>(s.shard_errors -
                                        router_before.shard_errors));
    results->Gated("cluster.conflicts_retried",
                    static_cast<double>(s.conflicts_retried -
                                        router_before.conflicts_retried));
  }
  const double overhead =
      MedianOr0(traced_all) / MedianOr0(untraced_all) - 1.0;
  results->Add("trace.overhead_frac", overhead, "ratio",
               StrFormat("traced read p50 (%zu) vs untraced (%zu)",
                         traced_all.size(), untraced_all.size()));

  const char* role[3] = {"light", "medium", "heavy"};
  for (int r = 0; r < 3; ++r) {
    const LayerTimes& t = layers[w.roles[r]];
    results->Gated(StrFormat("%s.front_self_us", role[r]),
                    MedianOr0(t.front_self_us));
    results->Gated(StrFormat("%s.engine_us", role[r]),
                    MedianOr0(t.engine_us));
  }
  results->Gated("setup.build_s", build.value);
  results->Gated("server.rejected", static_cast<double>(rejected));
  results->Gated("common.json_row_bytes", MedianOr0(row_bytes));
  results->Gated("index.resident_mb", resident_mb);
  results->Gated("trace.overhead_frac", overhead);
}

}  // namespace

void RunReadZipf(const Args& args, Results* results) {
  RunServing(kReadZipf, args, results);
}

void RunClusterZipf(const Args& args, Results* results) {
  RunServing(kClusterZipf, args, results);
}

void RunWriteMixed(const Args& args, Results* results) {
  RunServing(kWriteMixed, args, results);
}

}  // namespace perfbench
