#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

/// \file loadgen.h
/// Load generation: seeded open-loop arrival schedules and the lanes that
/// send them. One lane is one sender thread plus one collector thread;
/// over the wire each lane owns one pipelined connection.
///
/// Open loop: request i is *due* at its scheduled instant whether or not
/// earlier requests have finished, and its latency runs from that due time
/// to the moment its response is decoded — so a stall also charges the
/// wait it imposes on every request queued behind it. How late the sender
/// actually sent is recorded separately (generator lag).

#include <sys/prctl.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inputs.h"
#include "net/async_client.h"
#include "trace.h"

namespace perfbench {

/// Requests of one phase: due offsets from the phase start and the
/// workload each one sends.
struct Schedule {
  std::vector<int64_t> due_ns;
  std::vector<uint32_t> workload;
  size_t size() const { return due_ns.size(); }
};

/// Poisson arrivals at `rate_wps` for `seconds`; `pick` draws each
/// request's workload.
Schedule PoissonSchedule(double rate_wps, double seconds, Rand* rand,
                         const std::function<uint32_t()>& pick);

struct Outcome {
  uint32_t workload = 0;  ///< index into the workload table
  int64_t due_ns = 0;     ///< absolute, steady clock
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  double prediction = 0.0;
  double latency_us() const { return (done_ns - due_ns) / 1e3; }
  double lag_us() const { return (sent_ns - due_ns) / 1e3; }
};

/// Scoring connections: one pipelined AsyncWireClient per lane.
class WireLanes {
 public:
  WireLanes(const std::string& address, size_t lanes);
  size_t size() const { return clients_.size(); }
  using Future = std::future<wmp::Result<wmp::net::ScoreResponse>>;
  std::optional<Future> Submit(size_t lane, const Workload& workload);
  static std::pair<bool, double> Resolve(
      wmp::Result<wmp::net::ScoreResponse> response);

 private:
  std::vector<std::unique_ptr<wmp::net::AsyncWireClient>> clients_;
  std::vector<wmp::core::WorkloadBatch> whole_;  // members 0..kBatch-1
};

namespace internal {

/// Per-lane FIFO of (request index, future) from sender to collector.
template <typename Future>
struct LaneQueue {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::pair<size_t, std::optional<Future>>> items;
  bool closed = false;

  void Push(size_t i, std::optional<Future> f) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      items.emplace_back(i, std::move(f));
    }
    cv.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      closed = true;
    }
    cv.notify_one();
  }
  /// Next item, or nullopt once closed and drained.
  std::optional<std::pair<size_t, std::optional<Future>>> Pop() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return closed || !items.empty(); });
    if (items.empty()) return std::nullopt;
    auto item = std::move(items.front());
    items.pop_front();
    return item;
  }
};

/// Collects one lane: waits on futures in send order and stamps each
/// completion.
template <typename Future, typename Resolve>
void Collect(LaneQueue<Future>* queue, std::vector<Outcome>* out,
             Resolve resolve) {
  while (auto item = queue->Pop()) {
    Outcome& o = (*out)[item->first];
    if (item->second.has_value()) {
      auto value = item->second->get();
      o.done_ns = NowNs();
      std::tie(o.ok, o.prediction) = resolve(std::move(value));
    } else {
      o.done_ns = NowNs();
      o.ok = false;
    }
  }
}

inline void PreciseTimers() { ::prctl(PR_SET_TIMERSLACK, 1UL); }

}  // namespace internal

/// Sends `schedule` open loop over `lanes` lanes (request i on lane
/// i % lanes). `submit(lane, workload)` returns a future or nullopt for a
/// refused submission; `resolve(value)` turns a future's value into
/// (ok, prediction). Returns one outcome per request, in schedule order.
template <typename Future, typename Submit, typename Resolve>
std::vector<Outcome> RunOpenLoop(const Schedule& schedule, size_t lanes,
                                 Submit submit, Resolve resolve) {
  std::vector<Outcome> out(schedule.size());
  std::vector<internal::LaneQueue<Future>> queues(lanes);
  const int64_t start = NowNs() + 2'000'000;  // 2 ms to get threads going
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      internal::Collect(&queues[lane], &out, resolve);
    });
    threads.emplace_back([&, lane] {
      internal::PreciseTimers();
      for (size_t i = lane; i < schedule.size(); i += lanes) {
        const int64_t due = start + schedule.due_ns[i];
        const int64_t now = NowNs();
        if (due > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        out[i].workload = schedule.workload[i];
        out[i].due_ns = due;
        out[i].sent_ns = NowNs();
        queues[lane].Push(i, submit(lane, schedule.workload[i]));
      }
      queues[lane].Close();
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
