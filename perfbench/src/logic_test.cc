// Tests of the benchmark's own arithmetic (stats.h): percentile
// selection, self-time subtraction, lateness accounting and the capacity
// ladder search. Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileSelection() {
  // Nearest rank: the median of 1..100 is 50, p99 is 99.
  EXPECT(Near(Quantile(OneTo(100), 0.5), 50));
  EXPECT(Near(Quantile(OneTo(100), 0.99), 99));
  EXPECT(Near(Quantile(OneTo(1), 0.99), 1));

  // 2000 samples support p99 (20 beyond it).
  Percentile p = TailPercentile(OneTo(2000), 0.99);
  EXPECT(Near(p.quantile, 0.99));
  EXPECT(Near(p.value, 1980));
  EXPECT(p.count == 2000);

  // 500 samples do not: the highest quantile with 10 beyond is p98.
  p = TailPercentile(OneTo(500), 0.99);
  EXPECT(Near(p.quantile, 0.98));
  EXPECT(Near(p.value, 490));
  EXPECT(500 - p.value >= 10);

  // Too few samples for any tail: report the median, never below it.
  p = TailPercentile(OneTo(4), 0.99);
  EXPECT(Near(p.quantile, 0.5));
  EXPECT(Near(p.value, 2));

  EXPECT(QuantileLabel(0.99) == "p99");
  EXPECT(QuantileLabel(0.975) == "p97.5");
  EXPECT(QuantileLabel(0.5) == "p50");
}

void TestSelfTimeSubtraction() {
  EXPECT(UnionLengthNs({}) == 0);
  EXPECT(UnionLengthNs({{0, 10}, {20, 25}}) == 15);
  EXPECT(UnionLengthNs({{0, 10}, {5, 15}, {14, 16}}) == 16);  // overlaps
  EXPECT(UnionLengthNs({{0, 100}, {10, 20}}) == 100);         // nested
  EXPECT(UnionLengthNs({{30, 20}}) == 0);                     // empty

  // http (100ns) with two disjoint stand-in children of 30 and 20 that
  // ran after it ended; encode has a child of its own that must not count
  // against http.
  std::vector<Span> spans = {
      {1, 0, 7, "server", "http", {0, 100}},
      {2, 1, 7, "index", "engine", {200, 230}},
      {3, 1, 7, "common", "encode", {240, 260}},
      {4, 3, 7, "common", "inner", {245, 250}},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT(self.size() == 4);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 30);
  EXPECT(self[2] == 15);
  EXPECT(self[3] == 5);

  // A stand-in slower than the real call yields a negative self time,
  // kept rather than clamped.
  spans = {{1, 0, 1, "server", "http", {0, 10}},
           {2, 1, 1, "index", "engine", {20, 40}}};
  EXPECT(SelfTimesNs(spans)[0] == -10);
}

void TestLatenessAccounting() {
  std::vector<double> late(1000, 5.0);  // 5 us late, steadily
  Lateness l = AccountLateness(late, 1000);
  EXPECT(!l.fell_behind);
  EXPECT(Near(l.p99.value, 5));
  EXPECT(Near(l.max_us, 5));

  // One stall does not invalidate a run; a generator that is late on more
  // than 1% of its sends does.
  late[0] = 50000;
  l = AccountLateness(late, 1000);
  EXPECT(!l.fell_behind);
  EXPECT(Near(l.max_us, 50000));
  for (int i = 0; i < 30; ++i) late[i] = 5000;
  l = AccountLateness(late, 1000);
  EXPECT(l.fell_behind);

  EXPECT(!AccountLateness({}, 1000).fell_behind);
}

void TestCapacityLadderSearch() {
  const std::vector<double> ladder = RateLadder(1000, 20000, 1.1);
  EXPECT(ladder.front() == 1000);
  EXPECT(ladder.back() >= 20000);
  for (size_t i = 1; i < ladder.size(); ++i) {
    EXPECT(ladder[i] > ladder[i - 1]);
    EXPECT(ladder[i] <= ladder[i - 1] * 1.1 + 1);  // within 10% (+rounding)
  }

  // Capacity 7000: the search lands on the highest rung <= 7000, in
  // log2(rungs) probes.
  std::vector<int> probes;
  const int best = SearchLadder(
      ladder, [](double rate) { return rate <= 7000; }, &probes);
  EXPECT(best >= 0);
  EXPECT(ladder[best] <= 7000);
  EXPECT(best + 1 == static_cast<int>(ladder.size()) ||
         ladder[best + 1] > 7000);
  EXPECT(probes.size() <= 6);

  EXPECT(SearchLadder(ladder, [](double) { return false; }) == -1);
  EXPECT(SearchLadder(ladder, [](double) { return true; }) ==
         static_cast<int>(ladder.size()) - 1);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileSelection();
  perfbench::TestSelfTimeSubtraction();
  perfbench::TestLatenessAccounting();
  perfbench::TestCapacityLadderSearch();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench logic tests passed\n");
  return 0;
}
