#include "stats.h"

#include <algorithm>

namespace perfbench {

double Quantile(std::vector<double> values, uint32_t ppm) {
  if (values.empty()) return 0.0;
  const size_t idx = QuantileRank(values.size(), ppm) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), kP50);
}

std::vector<size_t> QuietestQuarter(const std::vector<double>& noise) {
  std::vector<size_t> order(noise.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Quietest first; equal noise keeps the original order.
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return noise[a] < noise[b]; });
  const size_t counted = std::min(
      order.size(), std::max(kMinCounted, (order.size() + kCountedShare - 1) /
                                              kCountedShare));
  order.resize(counted);
  return order;
}

std::vector<size_t> CountedWindows(const std::vector<double>& lag_p99) {
  std::vector<size_t> counted;
  for (size_t i = 0; i < lag_p99.size(); ++i) {
    if (lag_p99[i] <= kDisturbedLagUs) counted.push_back(i);
  }
  const std::vector<size_t> quietest = QuietestQuarter(lag_p99);
  if (counted.size() >= quietest.size()) return counted;
  std::vector<size_t> in_order = quietest;
  std::sort(in_order.begin(), in_order.end());
  return in_order;
}

WindowedLatency SummarizeWindows(const std::vector<double>& latency_us,
                                 const std::vector<double>& lag_us) {
  WindowedLatency w;
  std::vector<double> lag_p99;
  const size_t n = std::min(latency_us.size(), lag_us.size());
  for (size_t begin = 0; begin + kWindow <= n; begin += kWindow) {
    lag_p99.push_back(
        Quantile({lag_us.begin() + static_cast<long>(begin),
                  lag_us.begin() + static_cast<long>(begin + kWindow)},
                 kP99));
  }
  w.windows = lag_p99.size();
  for (double lag : lag_p99) w.disturbed += lag > kDisturbedLagUs;
  std::vector<double> pooled;
  for (size_t i : CountedWindows(lag_p99)) {
    const auto first = latency_us.begin() + static_cast<long>(i * kWindow);
    pooled.insert(pooled.end(), first, first + static_cast<long>(kWindow));
    ++w.counted;
  }
  w.p50_us = Quantile(pooled, kP50);
  w.p99_us = Quantile(std::move(pooled), kP99);
  return w;
}

bool BacklogGrowing(const std::vector<double>& latency_us_in_send_order) {
  const size_t n = latency_us_in_send_order.size();
  if (n < 8) return false;
  const size_t quarter = n / 4;
  const auto& v = latency_us_in_send_order;
  const double first = Median({v.begin(), v.begin() + static_cast<long>(quarter)});
  const double last = Median({v.end() - static_cast<long>(quarter), v.end()});
  return last > 2.0 * first && last - first > kBacklogMinRiseUs;
}

bool RungMeetsLimit(const RungResult& rung, double p99_limit_us) {
  if (rung.failed > 0 || rung.latency_us.size() != rung.sent ||
      rung.lag_us.size() != rung.sent) {
    return false;
  }
  const WindowedLatency w = SummarizeWindows(rung.latency_us, rung.lag_us);
  if (w.windows < kMinCounted || w.p99_us > p99_limit_us) return false;
  return !BacklogGrowing(rung.latency_us);
}

int SustainedRung(const std::vector<RungResult>& rungs, double p99_limit_us) {
  int best = -1;
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (RungMeetsLimit(rungs[i], p99_limit_us) &&
        (best < 0 || rungs[i].rate_wps > rungs[best].rate_wps)) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace perfbench
