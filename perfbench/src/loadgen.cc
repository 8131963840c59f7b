#include "loadgen.h"

#include <sys/prctl.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "simrank/common/macros.h"
#include "simrank/common/string_util.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

std::string GetWire(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string PostWire(const std::string& target, const std::string& body) {
  return simrank::StrFormat(
             "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
             "text/plain\r\nContent-Length: %zu\r\n\r\n",
             target.c_str(), body.size()) +
         body;
}

namespace {

/// One pipelined connection: the sender appends request indices, the
/// receiver pops them as their responses arrive.
struct Connection {
  explicit Connection(simrank::LoopbackHttpClient c) : client(std::move(c)) {}

  simrank::LoopbackHttpClient client;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<size_t> in_flight;  // guarded by mutex
  bool sender_done = false;      // guarded by mutex
  bool broken = false;           // guarded by mutex
};

}  // namespace

PhaseResult RunOpenLoop(uint16_t port, uint32_t connections,
                        const std::vector<Request>& schedule,
                        const ResponseHook& hook, uint32_t timeout_ms) {
  PhaseResult result;
  result.outcomes.resize(schedule.size());
  std::vector<std::unique_ptr<Connection>> conns;
  for (uint32_t c = 0; c < connections; ++c) {
    auto client = simrank::LoopbackHttpClient::Connect(port, timeout_ms);
    OIPSIM_CHECK_MSG(client.ok(), "load generator cannot connect: %s",
                     client.status().ToString().c_str());
    conns.push_back(std::make_unique<Connection>(std::move(client).value()));
  }
  std::atomic<size_t> sent{0};
  std::atomic<size_t> received{0};
  std::atomic<size_t> transport_errors{0};
  std::atomic<int64_t> generator_cpu_ns{0};

  auto receive = [&](Connection& conn) {
    const int64_t cpu_start = ThreadCpuNs();
    struct CpuTally {
      std::atomic<int64_t>& total;
      int64_t start;
      ~CpuTally() { total.fetch_add(ThreadCpuNs() - start); }
    } tally{generator_cpu_ns, cpu_start};
    for (;;) {
      size_t index = 0;
      {
        std::unique_lock<std::mutex> lock(conn.mutex);
        conn.cv.wait(lock, [&] {
          return !conn.in_flight.empty() || conn.sender_done;
        });
        if (conn.in_flight.empty()) return;
        index = conn.in_flight.front();
        conn.in_flight.pop_front();
      }
      auto response = conn.client.ReadResponse();
      Outcome& outcome = result.outcomes[index];
      outcome.recv_ns = NowNs();
      if (!response.ok()) {
        // The connection is unusable from here on: everything still
        // queued on it stays unanswered (status 0).
        transport_errors.fetch_add(1);
        std::lock_guard<std::mutex> lock(conn.mutex);
        conn.broken = true;
        conn.in_flight.clear();
        return;
      }
      outcome.status = response->status;
      received.fetch_add(1, std::memory_order_relaxed);
      if (hook) hook(index, schedule[index], outcome, *response);
    }
  };
  std::vector<std::thread> receivers;
  receivers.reserve(conns.size());
  for (auto& conn : conns) {
    receivers.emplace_back(receive, std::ref(*conn));
  }

  {
    // Sender (this thread). A 1ns timer slack keeps sleep_until within a
    // few microseconds of the due time instead of the default 50us.
    const int64_t cpu_start = ThreadCpuNs();
    const int previous_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    const int64_t start = NowNs() + 2'000'000;
    const auto clock_start = std::chrono::steady_clock::now() +
                             std::chrono::nanoseconds(start - NowNs());
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Request& request = schedule[i];
      Connection& conn = *conns[request.conn];
      std::this_thread::sleep_until(
          clock_start + std::chrono::nanoseconds(request.due_ns));
      Outcome& outcome = result.outcomes[i];
      outcome.due_ns = start + request.due_ns;
      outcome.sent_ns = NowNs();
      {
        std::lock_guard<std::mutex> lock(conn.mutex);
        if (conn.broken) continue;
        conn.in_flight.push_back(i);
      }
      conn.cv.notify_one();
      sent.fetch_add(1, std::memory_order_relaxed);
      if (!conn.client.SendRaw(request.wire).ok()) {
        // The receiver will time out on this request and break the
        // connection; nothing more is sent on it.
        std::lock_guard<std::mutex> lock(conn.mutex);
        conn.broken = true;
      }
    }
    result.outstanding_at_end = sent.load() - received.load();
    prctl(PR_SET_TIMERSLACK, previous_slack, 0, 0, 0);
    generator_cpu_ns.fetch_add(ThreadCpuNs() - cpu_start);
  }
  for (auto& conn : conns) {
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->sender_done = true;
    }
    conn->cv.notify_one();
  }
  for (std::thread& receiver : receivers) receiver.join();
  result.transport_errors = transport_errors.load();
  result.generator_cpu_ns = generator_cpu_ns.load();
  return result;
}

}  // namespace perfbench
