// Open-loop HTTP load generator over LoopbackHttpClient connections.
//
// Requests are sent on a fixed schedule whether or not earlier answers
// have arrived, so a slow server builds a queue instead of receiving less
// load. One sender thread walks the schedule; each connection has one
// receiver thread reading responses in order (the server answers the
// requests pipelined on a keep-alive connection in order). Every latency
// is taken from when the request was *due*, so a stall is charged to every
// request queued behind it, and how late the sender itself ran is
// recorded separately.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simrank/server/http_client.h"

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();
/// CPU time consumed so far by the calling thread / by the whole process
/// (user + system), in nanoseconds. Time the host gave to other guests
/// (steal) is not in either.
int64_t ThreadCpuNs();
int64_t ProcessCpuNs();

/// One scheduled request.
struct Request {
  /// Workload-defined request class (endpoint).
  uint32_t cls = 0;
  /// Connection it is pipelined on.
  uint32_t conn = 0;
  /// Due time, nanoseconds after the phase starts.
  int64_t due_ns = 0;
  /// Complete HTTP/1.1 request bytes.
  std::string wire;
  /// Workload payload: the query's vertices, or an update batch index.
  uint32_t a = 0;
  uint32_t b = 0;
};

/// "GET target HTTP/1.1" with the headers LoopbackHttpClient::Get sends.
std::string GetWire(const std::string& target);
/// "POST target" with a text/plain body.
std::string PostWire(const std::string& target, const std::string& body);

/// What happened to one scheduled request. Times are absolute NowNs().
struct Outcome {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
  /// HTTP status; 0 when the request was never answered (transport error,
  /// timeout, or the phase was cut short by one).
  int status = 0;

  double latency_us() const { return (recv_ns - due_ns) / 1e3; }
  double late_us() const { return (sent_ns - due_ns) / 1e3; }
};

/// Called on the receiver thread of `request`'s connection as each
/// response arrives, with the outcome already filled in. Work done here
/// delays the responses queued behind it (that is the tracing overhead
/// the traced run reports).
using ResponseHook = std::function<void(
    size_t index, const Request& request, const Outcome& outcome,
    const simrank::HttpClientResponse& response)>;

struct PhaseResult {
  std::vector<Outcome> outcomes;  // indexed like the schedule
  /// Requests sent but not yet answered when the last one was sent.
  size_t outstanding_at_end = 0;
  size_t transport_errors = 0;
  /// CPU time the generator's own threads (sender and receivers) used.
  int64_t generator_cpu_ns = 0;
};

/// Sends `schedule` (sorted by due time) to 127.0.0.1:port over
/// `connections` keep-alive connections and waits for every answer (or a
/// `timeout_ms` socket timeout). Uses 1 + connections threads.
PhaseResult RunOpenLoop(uint16_t port, uint32_t connections,
                        const std::vector<Request>& schedule,
                        const ResponseHook& hook, uint32_t timeout_ms);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
