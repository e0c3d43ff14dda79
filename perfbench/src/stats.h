#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file stats.h
/// The benchmark's own arithmetic: percentiles under the "at least ten
/// samples beyond" rule, latency pooled over the windows the generator kept
/// time in, ladder-rung selection with backlog detection.
/// Everything here is pure and deterministic (tests/stats_test.cc).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentiles are given in parts per million (990000 = p99) so that rank
/// arithmetic is exact integer arithmetic.
inline constexpr uint32_t kP50 = 500000;
inline constexpr uint32_t kP99 = 990000;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of the `ppm` quantile among `n` samples:
/// ceil(ppm * n / 1e6), at least 1 (0 when n is 0).
constexpr size_t QuantileRank(size_t n, uint32_t ppm) {
  if (n == 0) return 0;
  const size_t rank =
      static_cast<size_t>((static_cast<uint64_t>(ppm) * n + 999999) / 1000000);
  return rank < 1 ? 1 : (rank > n ? n : rank);
}

/// Samples strictly beyond the nearest-rank `ppm` quantile.
constexpr size_t SamplesBeyond(size_t n, uint32_t ppm) {
  return n - QuantileRank(n, ppm);
}

/// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> values, uint32_t ppm);
double Median(std::vector<double> values);

/// Latency is cut into windows of kWindow consecutive requests (in send
/// order) so that disturbed stretches can be left out; the pooled samples
/// of the counted windows, at least one window, leave >= 12 beyond a p99.
inline constexpr size_t kWindow = 1200;
static_assert(SamplesBeyond(kWindow, kP99) >= kMinSamplesBeyond,
              "one window must support a p99");

/// Quietest quarter of a set of windows by their generator lag.
inline constexpr size_t kCountedShare = 4;  ///< count 1 item in 4
inline constexpr size_t kMinCounted = 3;

/// Indices of the quietest ceil(n / kCountedShare) items by `noise`, at
/// least min(n, kMinCounted) of them, quietest first (ties keep order).
std::vector<size_t> QuietestQuarter(const std::vector<double>& noise);

/// A window is disturbed when its generator lag p99 exceeds this. The
/// generator is a separate process that only sleeps and sends, so when it
/// runs late the machine was descheduling it: a disturbed window measures
/// the machine, not the program, and is left out. Lag alone decides; the
/// latency itself never does, so a stall of the program that the generator
/// did not see stays in the pooled samples and raises the tail.
inline constexpr double kDisturbedLagUs = 150.0;

/// Indices, in order, of the windows that count: every window whose lag
/// p99 is at most kDisturbedLagUs. When fewer than a quarter of the windows
/// (at least min(n, kMinCounted)) are undisturbed, the quietest that many
/// count instead, so a run on a busy machine still reports a figure.
std::vector<size_t> CountedWindows(const std::vector<double>& lag_p99);

struct WindowedLatency {
  double p50_us = 0.0;   ///< p50 of the pooled samples of counted windows
  double p99_us = 0.0;   ///< p99 of the same pooled samples
  size_t windows = 0;    ///< full windows
  size_t counted = 0;    ///< windows whose samples are pooled
  size_t disturbed = 0;  ///< windows with generator lag p99 > kDisturbedLagUs
};

/// Summarizes `latency_us` with the generator's lateness `lag_us` (both in
/// send order, same length); a trailing partial window is ignored.
WindowedLatency SummarizeWindows(const std::vector<double>& latency_us,
                                 const std::vector<double>& lag_us);

/// One rung of the offered-rate ladder, as measured.
struct RungResult {
  double rate_wps = 0.0;  ///< offered workloads per second
  double seconds = 0.0;   ///< scheduled length
  size_t sent = 0;        ///< requests attempted
  size_t failed = 0;      ///< failed, refused or mismatched
  /// Latency of every attempted request, from its due time, in send order
  /// (a failed request's entry is its time to failure).
  std::vector<double> latency_us;
  /// How late the generator sent each request, same order.
  std::vector<double> lag_us;
};

/// True when latency keeps climbing through the rung: the median of its
/// last quarter exceeds twice the median of its first quarter by more
/// than kBacklogMinRiseUs. A server that keeps up shows flat quarters.
bool BacklogGrowing(const std::vector<double>& latency_us_in_send_order);
inline constexpr double kBacklogMinRiseUs = 200.0;

/// A rung meets the limit when nothing failed, it holds at least
/// kMinCounted full windows, the p99 of its counted windows <=
/// `p99_limit_us`, and no backlog grew.
bool RungMeetsLimit(const RungResult& rung, double p99_limit_us);

/// Index of the highest-rate rung that meets the limit; -1 when none does.
/// The ladder itself ends at its first confirmed miss, so no rung above a
/// sustained miss is ever measured.
int SustainedRung(const std::vector<RungResult>& rungs, double p99_limit_us);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
