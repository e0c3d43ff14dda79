// Deterministic checks of the benchmark's own arithmetic: the percentile
// rule, windowed latency, rung selection with backlog detection, and span
// self time.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest        # exit 0 = all checks passed

#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                               \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++failures;                                                 \
    }                                                             \
  } while (0)

using namespace perfbench;

void PercentileRule() {
  // Nearest rank is exact: p99 of 1000 samples is the 990th, leaving 10.
  CHECK(QuantileRank(1000, kP99) == 990);
  CHECK(SamplesBeyond(1000, kP99) == 10);
  CHECK(SamplesBeyond(999, kP99) == 9);
  CHECK(QuantileRank(1, kP50) == 1);
  CHECK(QuantileRank(4, kP50) == 2);

  // A window's p99 is the highest percentile with >= 10 samples beyond it.
  CHECK(SamplesBeyond(kWindow, kP99) >= kMinSamplesBeyond);
  CHECK(SamplesBeyond(kWindow, 999000) < kMinSamplesBeyond);  // p99.9
  CHECK(QuantileRank(0, kP99) == 0);

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(Quantile(v, kP99) == 990.0);
  CHECK(Median(v) == 500.0);
  CHECK(Quantile({}, kP99) == 0.0);
}

void WindowedTail() {
  // Eight full windows plus a partial one (ignored). Window 1 holds a stall
  // of the program while the generator kept time: it counts, and its slow
  // half raises the pooled tail. Windows 3..7 had their generator starved
  // by the machine and are left out.
  std::vector<double> lat, lag;
  for (int w = 0; w < 8; ++w) {
    for (size_t i = 0; i < kWindow; ++i) {
      lat.push_back(100.0 + (i % 100));
      lag.push_back(w < 3 ? 10.0 + w : 5000.0);
    }
  }
  for (size_t i = 0; i < kWindow / 2; ++i) lat[kWindow + i] = 9000.0;
  for (size_t i = 3 * kWindow; i < lat.size(); ++i) lat[i] += 7000.0;
  for (size_t i = 0; i < 50; ++i) {
    lat.push_back(1e6);
    lag.push_back(1e6);
  }
  WindowedLatency w = SummarizeWindows(lat, lag);
  CHECK(w.windows == 8);
  CHECK(w.counted == 3);
  CHECK(w.disturbed == 5);
  // Pooled windows 0..2: 3 000 samples, 30 of each of 100..199, and 600
  // stalled at 9 000. p99 (rank 3 564) lies in the stall; p50 (rank 1 800)
  // is the 60th distinct value.
  CHECK(w.p99_us == 9000.0);
  CHECK(w.p50_us == 159.0);

  // A stall too short to pass 1% of the pooled samples leaves the p99 be,
  // but one that does raises it, wherever it sits.
  std::vector<double> flat(10 * kWindow, 100.0), quiet(10 * kWindow, 10.0);
  for (size_t i = 0; i < 100; ++i) flat[4 * kWindow + i] = 3000.0;
  CHECK(SummarizeWindows(flat, quiet).p99_us == 100.0);
  for (size_t i = 100; i < 130; ++i) flat[4 * kWindow + i] = 3000.0;
  CHECK(SummarizeWindows(flat, quiet).p99_us == 3000.0);  // 130 > 120 beyond

  // Every undisturbed window counts; disturbed ones do not.
  std::vector<double> many_lat, many_lag;
  for (size_t w = 0; w < 16; ++w) {
    for (size_t i = 0; i < kWindow; ++i) {
      many_lat.push_back(100.0 * (w + 1));
      many_lag.push_back(w < 12 ? 20.0 : 400.0);
    }
  }
  w = SummarizeWindows(many_lat, many_lag);
  CHECK(w.counted == 12);
  CHECK(w.disturbed == 4);
  CHECK(w.p99_us == 1200.0);  // top 1% of windows 0..11 lies in window 11
  CHECK(w.p50_us == 600.0);   // rank 7 200 is the last of window 5

  // Fewer undisturbed windows than a quarter: the quietest quarter counts.
  for (size_t w = 0; w < 16; ++w) {
    for (size_t i = 0; i < kWindow; ++i) {
      many_lag[w * kWindow + i] = w == 3 ? 20.0 : 1000.0 + 10.0 * w;
    }
  }
  w = SummarizeWindows(many_lat, many_lag);
  CHECK(w.counted == 4);  // window 3, then 0, 1, 2 by lag
  CHECK(w.disturbed == 15);
  CHECK(w.p99_us == 400.0);

  // A generator starved everywhere hides nothing: the quietest are as slow.
  w = SummarizeWindows(std::vector<double>(4 * kWindow, 800.0),
                       std::vector<double>(4 * kWindow, 900.0));
  CHECK(w.p99_us == 800.0);
  CHECK(w.disturbed == 4);
  CHECK(w.counted == 3);

  w = SummarizeWindows(std::vector<double>(kWindow - 1, 5.0),
                       std::vector<double>(kWindow - 1, 1.0));
  CHECK(w.windows == 0);
  CHECK(w.p99_us == 0.0);
  CHECK((CountedWindows({10, 500, 20, 30, 40}) ==
         std::vector<size_t>{0, 2, 3, 4}));
  CHECK((CountedWindows({900, 500, 700, 800, 600}) ==
         std::vector<size_t>{1, 2, 4}));  // the three quietest, in order
  CHECK(CountedWindows({}).empty());

  // The quietest quarter (of windows, by lag): by noise alone, ties in
  // order, a quarter rounded up, at least kMinCounted.
  CHECK((QuietestQuarter({5, 1, 9, 1, 7, 3, 8, 2, 6}) ==
         std::vector<size_t>{1, 3, 7}));
  CHECK(QuietestQuarter({4, 2}).size() == 2);
  CHECK(QuietestQuarter(std::vector<double>(13, 0.0)).size() == 4);
}

RungResult Rung(double rate, std::vector<double> latency, size_t failed = 0,
               double lag = 10.0) {
  RungResult r;
  r.rate_wps = rate;
  r.sent = latency.size();
  r.failed = failed;
  r.lag_us.assign(latency.size(), lag);
  r.latency_us = std::move(latency);
  return r;
}

void RungSelection() {
  const size_t n = kMinCounted * kWindow;
  const std::vector<double> flat(n, 100.0);
  std::vector<double> growing(n);
  for (size_t i = 0; i < growing.size(); ++i) growing[i] = 100.0 + i;
  std::vector<double> tail = flat;
  for (size_t i = 0; i < n; i += 90) tail[i] = 5000.0;  // 1.1% slow

  CHECK(!BacklogGrowing(flat));
  CHECK(BacklogGrowing(growing));
  CHECK(!BacklogGrowing({1, 1, 1, 1000}));  // too few samples to judge

  // Growth that stays small in absolute terms is not a backlog.
  std::vector<double> drift(n);
  for (size_t i = 0; i < drift.size(); ++i) drift[i] = 20.0 + 0.02 * i;
  CHECK(!BacklogGrowing(drift));

  CHECK(RungMeetsLimit(Rung(1000, flat), 1000.0));
  CHECK(!RungMeetsLimit(Rung(1000, tail), 1000.0));     // p99 over the limit
  CHECK(!RungMeetsLimit(Rung(1000, flat, 1), 1000.0));  // a failure misses
  CHECK(!RungMeetsLimit(Rung(1000, growing), 5000.0));  // backlog, p99 < limit
  CHECK(!RungMeetsLimit(Rung(500, std::vector<double>(n - 1, 1.0)),
                        1000.0));  // too few full windows

  // The highest rung that meets the limit, by rate, wherever it sits.
  std::vector<RungResult> ladder;
  ladder.push_back(Rung(1000, tail));
  ladder.push_back(Rung(3000, flat));
  ladder.push_back(Rung(2000, flat));
  ladder.push_back(Rung(4000, growing));
  CHECK(SustainedRung(ladder, 1000.0) == 1);
  ladder[3] = Rung(4000, flat);
  CHECK(SustainedRung(ladder, 1000.0) == 3);
  ladder[3] = Rung(4000, flat, 1);  // one failed request misses
  CHECK(SustainedRung(ladder, 1000.0) == 1);
  CHECK(SustainedRung({Rung(1000, tail)}, 1000.0) == -1);
}

void SpanSelfTime() {
  // request [0,100): encode [10,20), score [30,80) with children
  // assign [30,50) and predict [45,60) overlapping, and one child
  // sticking out of its parent.
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 7},  {"encode", 10, 20, 0, 7},
      {"score", 30, 80, 0, 7},     {"assign", 30, 50, 2, 7},
      {"predict", 45, 60, 2, 7},   {"late", 90, 130, 0, 7},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  CHECK(self[0] == 100 - (10 + 50 + 10));  // clipped late child counts 10
  CHECK(self[1] == 10);
  CHECK(self[2] == 50 - 30);  // union of [30,50) and [45,60)
  CHECK(self[3] == 20);
  CHECK(self[4] == 15);
  CHECK(self[5] == 40);

  const auto by_name = SelfTimeByName(spans);
  CHECK(by_name.at("request") == 30);
  CHECK(by_name.at("score") == 20);

  Tracer off(false);
  CHECK(off.Begin("x", -1, 1) == -1);
  off.End(-1);
  CHECK(off.spans().empty());
  Tracer on(true);
  {
    ScopedSpan root(&on, "root", -1, 3);
    ScopedSpan child(&on, "child", root.id(), 3);
  }
  CHECK(on.spans().size() == 2);
  CHECK(on.spans()[1].parent == 0);
  CHECK(on.spans()[0].end_ns >= on.spans()[1].end_ns);
}

}  // namespace

int main() {
  PercentileRule();
  WindowedTail();
  RungSelection();
  SpanSelfTime();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
