#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "engine/scoring_service.h"
#include "layers.h"
#include "loadgen.h"
#include "net/wire_client.h"
#include "proc.h"
#include "server_counters.h"
#include "stats.h"
#include "trace.h"
#include "workloads/log_io.h"

namespace perfbench {

namespace {

using Model = wmp::core::LearnedWmpModel;
using ModelPtr = std::shared_ptr<const Model>;

// ---------------------------------------------------------------------------
// Frozen settings. The ladder and the limit were calibrated once on a 4-core
// x86 box (README.md) and must not be re-tuned by a change that claims a
// gain.

/// Latency limit behind e2e.sustained_wps: p99 of a rung, in microseconds.
constexpr double kP99LimitUs = 1000.0;
/// Offered rates, workloads/s, ~10% apart. The nominal phase counts as one
/// more rung; a rung passes when its p99 <= the limit, nothing failed, and
/// no backlog grew.
const std::vector<double> kLadderWps = {17500, 19000, 21000, 23000, 25000,
                                        27500, 30000, 33000, 36000, 40000,
                                        44000, 48000, 53000, 58000, 64000};
/// The rate of the nominal phase (server_cpu_us_per_workload and the
/// wall-clock latency): below the knee of every workload on the
/// calibration box.
constexpr double kNominalWps = 16000;

constexpr int kServerThreads = 2;  ///< wmpctl serve --threads
constexpr size_t kLanes = 2;       ///< scoring connections (+1 control)
constexpr int kSetupReps = 5;      ///< set-ups per run; setup_s is the median
constexpr int kRungAttempts = 3;   ///< attempts pooled before a rung misses
constexpr int kOnlineTemplates = 30;  ///< fixed k of the online models

/// The training log and the training seed are the same in every run: the
/// operator's corpus is a fixed input, and elbow-tuned k-means time varies
/// by ~±25% between corpora, which would drown the training time. The seed of a run
/// draws everything the model is tested on: pools, held-out log, order and
/// arrival times.
constexpr uint64_t kTrainSeed = 42;
constexpr size_t kTrainQueries = 20000;
/// Paper-scale TPC-DS. Its ~75k distinct queries in 9 300 workloads
/// exceed both cache levels (65 536 queries, 4 096 workloads).
constexpr size_t kColdPoolQueries = 93000;
constexpr size_t kHeldOutQueries = 93000;       ///< same reason
constexpr size_t kRecurringPoolQueries = 16000; ///< < both cache levels
constexpr size_t kRegroupings = 30000;  ///< novel groupings of pool queries
constexpr double kZipfTheta = 0.99;
constexpr double kRegroupShare = 0.1;   ///< draws that are not exact repeats
constexpr double kPublishEverySeconds = 1.5;
constexpr size_t kWarmupRequests = 64;
/// Untimed load at the nominal rate before the timed phases, so that lazy
/// growth (allocator arenas, connection buffers, caches) is not timed.
constexpr double kLoadWarmupSeconds = 2.0;
constexpr size_t kTraceSample = 400;
constexpr size_t kIngestSample = 4000;  ///< queries in the ingest replay log

void Note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

double Seconds(int64_t from_ns, int64_t to_ns) { return (to_ns - from_ns) / 1e9; }

double Rmse(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += (a[i] - b[i]) * (a[i] - b[i]);
  return a.empty() ? 0.0 : std::sqrt(sum / static_cast<double>(a.size()));
}

std::vector<uint32_t> Permutation(size_t n, Rand* rand) {
  std::vector<uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rand->Below(i)]);
  return p;
}

/// Cyclic walk over a seeded permutation: consecutive uses of one
/// workload are a whole table apart.
class Cycle {
 public:
  Cycle(size_t n, Rand* rand) : order_(Permutation(n, rand)) {}
  uint32_t Next() { return order_[next_++ % order_.size()]; }
  size_t size() const { return order_.size(); }

 private:
  std::vector<uint32_t> order_;
  size_t next_ = 0;
};

/// The last `n` workloads of `cycle`'s first lap. Warm-up requests use
/// them: by the time measured traffic reaches them LRU has evicted them.
std::vector<uint32_t> FarEnd(Cycle cycle, size_t n) {
  std::vector<uint32_t> out;
  const size_t lap = cycle.size();
  for (size_t i = 0; i < lap; ++i) {
    const uint32_t w = cycle.Next();
    if (i + n >= lap) out.push_back(w);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Processes under test.

class Server {
 public:
  Server(const Options& o, const std::string& model_path,
         const std::string& warm_log, int index)
      : address_("unix:" + o.workdir + "/serve" + std::to_string(index) +
                 ".sock"),
        log_(o.workdir + "/serve" + std::to_string(index) + ".log") {
    std::vector<std::string> argv = {
        o.wmpctl, "serve", "--listen=" + address_, "--model=" + model_path,
        "--reactor", "--threads=" + std::to_string(kServerThreads)};
    if (!warm_log.empty()) argv.push_back("--warm-log=" + warm_log);
    child_ = std::make_unique<Child>(argv, log_);
    // Ready when a health probe round-trips.
    const int64_t deadline = NowNs() + 60'000'000'000;
    for (uint64_t nonce = 1;; ++nonce) {
      wmp::net::WireClient probe(address_);
      auto health = probe.Health(nonce);
      if (health.ok() && health->nonce == nonce) break;
      if (NowNs() > deadline || child_->Exited()) {
        throw std::runtime_error("wmpctl serve did not come up: " +
                                 ReadFile(log_));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& address() const { return address_; }

  /// SIGTERM and wait; returns what the server printed.
  std::string Stop() {
    const int code = child_->Terminate(30.0);
    if (code != 0) {
      throw std::runtime_error("wmpctl serve exited with " +
                               std::to_string(code));
    }
    return ReadFile(log_);
  }
  /// Peak resident set so far (VmHWM) of the running server, in MiB.
  double SamplePeakRss() { return child_->SamplePeakRss(); }
  /// CPU time the server has used so far, all threads, in seconds.
  double CpuSeconds() const { return child_->CpuSeconds(); }

 private:
  std::string address_;
  std::string log_;
  std::unique_ptr<Child> child_;
};

/// `wmpctl train`; `templates` 0 elbow-tunes k.
Usage Train(const Options& o, const std::string& log, const std::string& model,
            uint64_t seed, int templates) {
  Usage usage;
  const int code = RunToCompletion(
      {o.wmpctl, "train", "--log=" + log, "--model=" + model,
       "--templates=" + std::to_string(templates),
       "--seed=" + std::to_string(seed),
       "--threads=" + std::to_string(kServerThreads)},
      o.workdir + "/train.log", 120.0, &usage);
  if (code != 0) {
    throw std::runtime_error("wmpctl train failed: " +
                             ReadFile(o.workdir + "/train.log"));
  }
  return usage;
}

// ---------------------------------------------------------------------------
// Control connection: publishes/rollbacks on a timer and health probes.

struct Swap {
  int64_t sent_ns = 0;
  int64_t ack_ns = 0;
  int after = 0;  ///< model serving once acknowledged (0 = A, 1 = B)
  bool ok = false;
};

class Control {
 public:
  /// `second` null: no publishes. `probe`: health probes every 5 ms.
  Control(const std::string& address, const Model* second, bool probe)
      : client_(address), second_(second), probe_(probe) {}
  ~Control() { Stop(); }
  Control(const Control&) = delete;
  Control& operator=(const Control&) = delete;

  /// Starts the timer thread; the client is the thread's until Stop.
  void Start() {
    if (second_ != nullptr || probe_) thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Publishes `model` (or rolls back) now; records the swap.
  Swap PublishOrRollback(const Model* model) {
    Swap s;
    s.sent_ns = NowNs();
    if (model != nullptr) {
      s.ok = client_.Publish("default", *model).ok();
      s.after = 1;
    } else {
      s.ok = client_.Rollback("default").ok();
      s.after = 0;
    }
    s.ack_ns = NowNs();
    return s;
  }

  /// After Stop: rolls back a publish the timer left in force, so that
  /// model A serves again; records the swap.
  void RestoreFirst() {
    if (second_ != nullptr && swaps_.size() % 2 == 1) {
      swaps_.push_back(PublishOrRollback(nullptr));
    }
  }

  wmp::net::WireClient* client() { return &client_; }
  const std::vector<Swap>& swaps() const { return swaps_; }
  const std::vector<double>& health_rtt_us() const { return health_rtt_us_; }

 private:
  void Loop() {
    int64_t next_swap = NowNs() + static_cast<int64_t>(kPublishEverySeconds * 1e9);
    uint64_t nonce = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      if (second_ != nullptr && NowNs() >= next_swap) {
        swaps_.push_back(PublishOrRollback(swaps_.size() % 2 == 0 ? second_
                                                                   : nullptr));
        next_swap += static_cast<int64_t>(kPublishEverySeconds * 1e9);
      }
      if (probe_) {
        const int64_t t0 = NowNs();
        auto health = client_.Health(++nonce);
        if (health.ok()) health_rtt_us_.push_back((NowNs() - t0) / 1e3);
      }
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(5), [&] { return stop_; });
    }
  }

  wmp::net::WireClient client_;
  const Model* second_;
  bool probe_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Swap> swaps_;
  std::vector<double> health_rtt_us_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Measured phases.

struct Phase {
  enum Kind { kWarmup, kNominal, kRung } kind = kRung;
  double rate_wps = 0.0;
  double seconds = 0.0;
  std::vector<Outcome> out;
};

/// How the measured seconds of a run are spent. The ladder runs only in
/// the traced run (it ends at its first confirmed miss, so its length
/// varies).
struct Budget {
  double nominal_s = 0.0;
  double rung_s = 0.0;
  double passes_s = 0.0;  ///< text-log passes
};

Budget SplitBudget(double seconds) {
  Budget b;
  b.nominal_s = seconds * 0.4;
  b.rung_s = seconds * 0.05;
  b.passes_s = seconds * 0.6;
  return b;
}

RungResult ToRung(const Phase& p) {
  RungResult r;
  r.rate_wps = p.rate_wps;
  r.seconds = p.seconds;
  r.sent = p.out.size();
  for (const Outcome& o : p.out) {
    r.failed += o.ok ? 0 : 1;
    r.latency_us.push_back(o.latency_us());
    r.lag_us.push_back(o.lag_us());
  }
  return r;
}

/// What the server process used during the nominal phase.
struct ServerUse {
  double cpu_s = 0.0;   ///< user + system CPU of `wmpctl serve`
  double rss_mb = 0.0;  ///< its peak RSS as of the end of the phase
};

/// An untimed warm-up, the nominal rate and, with `ladder`, the open-loop
/// ladder up to its first confirmed miss, over `lanes`. Predictions are
/// checked against the references afterwards (Gate).
std::vector<Phase> RunPhases(WireLanes* lanes, const Budget& budget,
                             const std::vector<Workload>& table,
                             const std::function<uint32_t()>& pick, Rand* rand,
                             bool ladder, Server* server, ServerUse* use) {
  std::vector<Phase> phases;
  auto submit = [&](size_t lane, uint32_t w) {
    return lanes->Submit(lane, table[w]);
  };
  auto open = [&](Phase::Kind kind, double rate, double seconds) {
    Phase p;
    p.kind = kind;
    p.rate_wps = rate;
    p.seconds = seconds;
    const Schedule s = PoissonSchedule(rate, seconds, rand, pick);
    p.out = RunOpenLoop<WireLanes::Future>(s, lanes->size(), submit,
                                           &WireLanes::Resolve);
    phases.push_back(std::move(p));
  };
  // Runs a rung. One that misses the limit runs again, up to
  // kRungAttempts times in all, and its attempts are judged as one longer
  // rung: a burst of machine noise in one attempt is diluted, a knee is not.
  auto rung = [&](double rate) {
    open(Phase::kRung, rate, budget.rung_s);
    for (int attempt = 1;; ++attempt) {
      if (RungMeetsLimit(ToRung(phases.back()), kP99LimitUs)) return true;
      if (attempt == kRungAttempts) return false;
      open(Phase::kRung, rate, budget.rung_s);
      Phase again = std::move(phases.back());
      phases.pop_back();
      Phase& rung = phases.back();
      rung.seconds += again.seconds;
      rung.out.insert(rung.out.end(), again.out.begin(), again.out.end());
    }
  };
  open(Phase::kWarmup, kNominalWps, kLoadWarmupSeconds);
  // The nominal rate runs before the ladder: a ladder ends past the knee,
  // and latency measured after it would depend on how far past. Memory is
  // read at its end for the same reason: past the knee the open-loop
  // backlog queues in the server.
  const double cpu_before = server->CpuSeconds();
  open(Phase::kNominal, kNominalWps, budget.nominal_s);
  use->cpu_s = server->CpuSeconds() - cpu_before;
  use->rss_mb = server->SamplePeakRss();
  if (ladder) {
    for (double rate : kLadderWps) {
      if (!rung(rate)) break;
    }
  }
  return phases;
}

/// Marks every outcome whose prediction `allowed` rejects as failed;
/// returns the number of failed outcomes.
size_t Gate(std::vector<Phase>* phases,
            const std::function<bool(const Outcome&)>& allowed) {
  size_t failed = 0;
  for (Phase& p : *phases) {
    for (Outcome& o : p.out) {
      if (o.ok && !allowed(o)) o.ok = false;
      if (!o.ok) ++failed;
    }
  }
  return failed;
}

struct LatencyMetrics {
  double p50_us = 0.0;
  double p99_us = 0.0;
  size_t nominal_answered = 0;
  double sustained_wps = 0.0;  ///< 0 without a ladder
  double gen_lag_p99_us = 0.0;
  double disturbed_frac = 0.0;  ///< nominal windows the machine disturbed
  size_t attempted = 0;
};

LatencyMetrics Summarize(const std::vector<Phase>& phases) {
  LatencyMetrics m;
  // The nominal phase is one more rung, below the ladder's.
  RungResult nominal;
  std::vector<RungResult> rungs;
  for (const Phase& p : phases) {
    m.attempted += p.out.size();
    if (p.kind == Phase::kWarmup) continue;
    RungResult r = ToRung(p);
    if (p.kind == Phase::kNominal) {
      nominal = r;
      rungs.insert(rungs.begin(), std::move(r));
    } else {
      rungs.push_back(std::move(r));
    }
  }
  for (const RungResult& r : rungs) {
    const WindowedLatency w = SummarizeWindows(r.latency_us, r.lag_us);
    Note("  rung %6.0f wps: %zu sent, %zu failed, p50 %.0f us, p99 %.0f us "
         "(%zu of %zu windows disturbed)%s%s",
         r.rate_wps, r.sent, r.failed, w.p50_us, w.p99_us, w.disturbed,
         w.windows, BacklogGrowing(r.latency_us) ? ", backlog growing" : "",
         RungMeetsLimit(r, kP99LimitUs) ? "" : " -> misses");
  }
  if (nominal.sent < 3 * kWindow) {
    throw std::runtime_error("nominal rung too short for a windowed p99");
  }
  const WindowedLatency w = SummarizeWindows(nominal.latency_us, nominal.lag_us);
  m.nominal_answered = nominal.sent - nominal.failed;
  m.p50_us = w.p50_us;
  m.p99_us = w.p99_us;
  m.disturbed_frac = static_cast<double>(w.disturbed) / w.windows;
  if (rungs.size() > 1) {
    // Measured, not offered: what the highest sustained rung answered per s.
    const int top = SustainedRung(rungs, kP99LimitUs);
    m.sustained_wps = top < 0 ? 0.0 : rungs[top].sent / rungs[top].seconds;
  }
  m.gen_lag_p99_us = Quantile(nominal.lag_us, kP99);
  Note("  nominal %.0f wps: %zu samples, %zu windows (%zu counted, %zu "
       "disturbed), p50 %.1f us, p99 %.1f us (whole-phase p99 %.1f us); "
       "generator lag p99 %.1f us",
       kNominalWps, nominal.sent, w.windows, w.counted, w.disturbed,
       m.p50_us, m.p99_us, Quantile(nominal.latency_us, kP99),
       m.gen_lag_p99_us);
  if (rungs.size() > 1) Note("  sustained %.0f wps", m.sustained_wps);
  return m;
}

// ---------------------------------------------------------------------------
// What a workload is: its inputs and its traffic. One function (Drive) runs
// every workload from its Spec.

struct Spec {
  std::vector<Workload> table;  ///< every workload a request can carry
  std::function<uint32_t()> pick;  ///< the next request's workload
  /// Sent and checked after each server start: the warm-up, or on
  /// online_recurring the fill of both cache levels.
  std::vector<uint32_t> warm;
  std::string train_log;
  int templates = kOnlineTemplates;  ///< 0 elbow-tunes k
  std::string warm_log;  ///< the server's --warm-log; "" for none
  /// A second model (training seed + 1) is published, then rolled back,
  /// every kPublishEverySeconds under load.
  bool publishes = false;
  /// The workload's queries as a text log, scored in streamed passes
  /// (log_cpu_us_per_query). Its consecutive groups of kBatch queries are
  /// the first workloads of `table`.
  std::string text_log;
  std::string ingest_log;  ///< traced run: the log-ingest replay input
};

/// Writes the fixed training log; returns its path.
std::string WriteTrainLog(const Options& o) {
  const std::string path = o.workdir + "/train.qlog";
  WriteLog(GenerateTpcds(kTrainQueries, kTrainSeed), path);
  return path;
}

/// Moves the first kIngestSample records out of `records` into a text log
/// for the ingest replay; returns its path.
std::string WriteIngestSample(const Options& o,
                              std::vector<QueryRecord>* records) {
  const std::string path = o.workdir + "/ingest.qlog";
  std::vector<QueryRecord> head;
  for (size_t i = 0; i < std::min(kIngestSample, records->size()); ++i) {
    head.push_back(std::move((*records)[i]));
  }
  WriteLog(head, path);
  return path;
}

/// Traffic that walks the whole table in a seeded cyclic order, warmed up
/// with the far end of the first lap.
void CycleThrough(Spec* s, Rand* rand) {
  auto cycle = std::make_shared<Cycle>(s->table.size(), rand);
  s->warm = FarEnd(*cycle, kWarmupRequests);
  s->pick = [cycle] { return cycle->Next(); };
}

Spec OnlineCold(const Options& o, Rand* rand) {
  Spec s;
  s.train_log = WriteTrainLog(o);
  s.text_log = o.workdir + "/pool.qlog";
  std::vector<QueryRecord> pool =
      GenerateTpcds(kColdPoolQueries, o.seed + 1000003);
  WriteLog(pool, s.text_log);
  s.table = GroupConsecutive(pool);
  if (o.trace) s.ingest_log = WriteIngestSample(o, &pool);
  CycleThrough(&s, rand);
  return s;
}

Spec OnlineRecurring(const Options& o, Rand* rand) {
  Spec s;
  s.train_log = WriteTrainLog(o);
  s.warm_log = o.workdir + "/pool.qlog";
  s.text_log = s.warm_log;
  s.publishes = true;
  std::vector<QueryRecord> pool =
      GenerateTpcds(kRecurringPoolQueries, o.seed + 1000003);
  WriteLog(pool, s.warm_log);
  // Catalog: the pool cut into workloads, each a recurring admission
  // batch. Regroupings: novel workloads of known queries.
  s.table = GroupConsecutive(pool);
  const size_t catalog = s.table.size();
  for (size_t i = 0; i < kRegroupings; ++i) {
    std::vector<uint32_t> members(kBatch);
    for (uint32_t& m : members) m = static_cast<uint32_t>(rand->Below(pool.size()));
    s.table.push_back(Gather(pool, members));
  }
  if (o.trace) s.ingest_log = WriteIngestSample(o, &pool);
  // Every catalog workload once fills both cache levels.
  s.warm.resize(catalog);
  std::iota(s.warm.begin(), s.warm.end(), 0u);

  // Zipf over a seeded ranking of the catalog; kRegroupShare of draws take
  // the next unused regrouping instead.
  struct Draw {
    std::vector<uint32_t> ranking;
    Zipf zipf;
    size_t catalog, total, next_regroup;
  };
  auto d = std::make_shared<Draw>(Draw{Permutation(catalog, rand),
                                       Zipf(catalog, kZipfTheta), catalog,
                                       s.table.size(), catalog});
  s.pick = [d, rand]() -> uint32_t {
    if (rand->Uniform() < kRegroupShare) {
      const uint32_t w = static_cast<uint32_t>(d->next_regroup);
      d->next_regroup = w + 1 < d->total ? w + 1 : d->catalog;
      return w;
    }
    return d->ranking[d->zipf.Sample(rand)];
  };
  return s;
}

Spec OfflineRetrain(const Options& o, Rand* rand) {
  Spec s;
  s.train_log = WriteTrainLog(o);
  s.templates = 0;
  s.text_log = o.workdir + "/heldout.qlog";
  std::vector<QueryRecord> held =
      GenerateTpcds(kHeldOutQueries, o.seed + 2000003);
  WriteLog(held, s.text_log);
  s.table = GroupConsecutive(held);
  if (o.trace) s.ingest_log = WriteIngestSample(o, &held);
  CycleThrough(&s, rand);
  return s;
}

// ---------------------------------------------------------------------------
// Set-up, repeated: setup_s is the median.

struct Deployment {
  std::unique_ptr<Server> server;  ///< the last set-up's, kept up
  std::vector<double> setup_s;
  std::vector<double> train_s;      ///< wall time of each set-up's training
  std::vector<double> train_cpu_s;  ///< its CPU time, all threads
  /// Peak RSS of the kept set-up's `wmpctl train` runs, MiB.
  double train_rss_mb = 0.0;
};

/// Runs `once` (train + start + warm; returns the server and fills what
/// training used) kSetupReps times; keeps the last server up.
Deployment DeployRepeatedly(
    const std::function<std::unique_ptr<Server>(int rep, Usage* train)>& once) {
  Deployment d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (d.server) {
      d.server->Stop();
      d.server.reset();
    }
    const int64_t t0 = NowNs();
    Usage train;
    d.server = once(rep, &train);
    d.setup_s.push_back(Seconds(t0, NowNs()));
    d.train_s.push_back(train.wall_s);
    d.train_cpu_s.push_back(train.cpu_s);
    d.train_rss_mb = train.peak_rss_mb;
    Note("  set-up %d: %.3f s, train %.3f s wall, %.3f s CPU", rep,
         d.setup_s.back(), train.wall_s, train.cpu_s);
  }
  Note("  setup %.3f s (median of %d), train %.3f s wall, %.3f s CPU",
       Median(d.setup_s), kSetupReps, Median(d.train_s),
       Median(d.train_cpu_s));
  return d;
}

/// Sends `ids` one pipelined burst and checks each against `reference`;
/// returns the number of failures.
size_t SendAndCheck(const std::string& address, const std::vector<Workload>& table,
                    const std::vector<uint32_t>& ids,
                    const std::vector<double>& reference) {
  WireLanes lanes(address, 1);
  std::vector<WireLanes::Future> futures;
  size_t failed = 0;
  for (uint32_t w : ids) {
    auto f = lanes.Submit(0, table[w]);
    if (!f) {
      ++failed;
      continue;
    }
    futures.push_back(std::move(*f));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto [ok, pred] = WireLanes::Resolve(futures[i].get());
    if (!ok || pred != reference[ids[i]]) ++failed;
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Text-log passes.

struct LogPasses {
  double queries_per_s = 0.0;  ///< median over chunks, wall clock
  /// CPU time of this process (reading, parsing, framing, decoding) plus
  /// the server's, per query scored. Over all passes, not per chunk: the
  /// machine's speed shifts every few seconds, and the passes average over
  /// those shifts.
  double cpu_us_per_query = 0.0;
};

/// CPU time of this process so far, all threads, in seconds.
double ProcessCpuSeconds() {
  timespec t{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + t.tv_nsec / 1e9;
}

/// Streamed passes over `log` for `budget_s`: QueryLogReader chunks -> one
/// pipelined frame per workload (window 32, as `wmpctl score --pipeline`)
/// -> decoded predictions, checked against `reference` in log order.
/// Counts attempts and failures. Nothing else in this process may be busy
/// meanwhile: its CPU time is charged to the passes.
LogPasses ScoreLogPasses(const std::string& address, const std::string& log,
                         const std::vector<double>& reference, double budget_s,
                         Server* server, RunResult* result) {
  wmp::net::AsyncWireClientOptions aopt;
  aopt.max_inflight = 32;
  aopt.request_timeout_ms = 20000;
  auto client = wmp::net::AsyncWireClient::Connect(address, aopt);
  if (!client.ok()) throw std::runtime_error("connect: " + client.status().ToString());
  std::vector<wmp::core::WorkloadBatch> whole(1);
  for (uint32_t q = 0; q < kBatch; ++q) whole[0].query_indices.push_back(q);

  std::vector<double> chunk_qps;
  size_t queries = 0;
  const double client_before = ProcessCpuSeconds();
  const double server_before = server->CpuSeconds();
  const int64_t end = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  while (NowNs() < end) {
    auto reader = wmp::workloads::QueryLogReader::Open(log);
    if (!reader.ok()) throw std::runtime_error("open held-out log");
    size_t next_workload = 0;
    std::vector<QueryRecord> window;
    while (!reader->exhausted() && NowNs() < end) {
      const int64_t t0 = NowNs();
      auto got = reader->ReadChunk(4096, &window);
      if (!got.ok()) throw std::runtime_error("read: " + got.status().ToString());
      const size_t usable = window.size() - window.size() % kBatch;
      std::vector<std::future<wmp::Result<wmp::net::ScoreResponse>>> futures;
      std::vector<size_t> ids;
      for (size_t w = 0; w * kBatch < usable; ++w) {
        Workload sub;
        for (size_t q = 0; q < kBatch; ++q) {
          sub.push_back(std::move(window[w * kBatch + q]));
        }
        auto f = (*client)->SubmitScore("perfbench", sub, whole);
        ++result->attempted;
        if (!f.ok()) {
          ++result->failed;
          continue;
        }
        futures.push_back(std::move(*f));
        ids.push_back(next_workload + w);
      }
      window.erase(window.begin(), window.begin() + static_cast<long>(usable));
      for (size_t i = 0; i < futures.size(); ++i) {
        auto [ok, pred] = WireLanes::Resolve(futures[i].get());
        if (!ok || ids[i] >= reference.size() || pred != reference[ids[i]]) {
          ++result->failed;
        }
      }
      next_workload += usable / kBatch;
      queries += usable;
      if (usable > 0) {
        const int64_t t1 = NowNs();
        chunk_qps.push_back(usable / Seconds(t0, t1));
      }
    }
  }
  LogPasses passes;
  const double n = static_cast<double>(queries);
  const double client_us = (ProcessCpuSeconds() - client_before) * 1e6 / n;
  const double server_us = (server->CpuSeconds() - server_before) * 1e6 / n;
  passes.cpu_us_per_query = client_us + server_us;
  passes.queries_per_s = Median(chunk_qps);
  Note("  text-log scoring: %zu queries in %zu chunks, %.0f queries/s, "
       "CPU us per query %.2f (wmpbench %.2f + server %.2f)",
       queries, chunk_qps.size(), passes.queries_per_s,
       passes.cpu_us_per_query, client_us, server_us);
  return passes;
}

// ---------------------------------------------------------------------------
// The traced run's per-layer measurements.

void AddLayerMetrics(const Options& o, const Spec& spec, const ModelPtr& model,
                     const std::vector<double>& reference, Server* server,
                     WireLanes* lanes, Control* control, const Counters& before,
                     const Counters& after, const LatencyMetrics& lat,
                     std::vector<double> publish_ms, RunResult* result) {
  Tracer tracer(true);
  std::vector<const Workload*> sample;
  std::vector<double> sample_ref;
  for (size_t i = 0; i < kTraceSample; ++i) {
    const uint32_t w = spec.pick();
    sample.push_back(&spec.table[w]);
    sample_ref.push_back(reference[w]);
  }

  // Wire round trip of each sampled request, one in flight at a time.
  double wire_ns = 0.0;
  for (size_t i = 0; i < sample.size(); ++i) {
    ScopedSpan span(&tracer, "wire.request", -1, i);
    const int64_t t0 = NowNs();
    auto f = lanes->Submit(0, *sample[i]);
    auto [ok, pred] = f ? WireLanes::Resolve(f->get())
                        : std::pair<bool, double>{false, 0.0};
    wire_ns += static_cast<double>(NowNs() - t0);
    ++result->attempted;
    if (!ok || pred != sample_ref[i]) ++result->failed;
  }

  // Tracing overhead: the same replay untraced and traced, alternately.
  std::vector<double> off_ns, on_ns;
  size_t bytes = 0;
  for (int round = 0; round < 3; ++round) {
    Tracer off(false), on(true);
    int64_t t0 = NowNs();
    result->failed += ReplayChain(*model, sample, sample_ref, &off, &bytes);
    off_ns.push_back(static_cast<double>(NowNs() - t0));
    t0 = NowNs();
    result->failed += ReplayChain(*model, sample, sample_ref, &on, &bytes);
    on_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  result->attempted += 6 * sample.size();

  // The recorded replay, with the pruning counters around it.
  const Counters assign_before = ReadAssignCounters(*model);
  bytes = 0;
  const size_t first_chain_span = tracer.spans().size();
  result->failed += ReplayChain(*model, sample, sample_ref, &tracer, &bytes);
  result->attempted += sample.size();
  const Counters assign_after = ReadAssignCounters(*model);
  const size_t end_chain_span = tracer.spans().size();

  // Flush-sized batches through the engine.
  const double flushes = after.at("flushes") - before.at("flushes");
  const double scored = (after.at("completed") + after.at("failed")) -
                        (before.at("completed") + before.at("failed"));
  const double flush_avg = flushes > 0 ? scored / flushes : 1.0;
  const size_t flush_size =
      std::clamp<size_t>(static_cast<size_t>(std::lround(flush_avg)), 1, 64);
  const std::vector<double> flushed =
      ReferencePredictions(model, sample, flush_size, &tracer);
  for (size_t i = 0; i < sample.size(); ++i) {
    ++result->attempted;
    if (flushed[i] != sample_ref[i]) ++result->failed;
  }

  // In-process service on the nominal schedule: Submit -> resolve.
  std::vector<double> service_latency, service_lag;
  {
    wmp::engine::ScoringServiceOptions sopt;
    sopt.num_threads = kServerThreads;
    wmp::engine::ScoringService service(std::vector<ModelPtr>{model}, sopt);
    std::vector<uint32_t> all(kBatch);
    std::iota(all.begin(), all.end(), 0u);
    Rand rand(o.seed ^ 0x5e41ce);
    const Schedule s = PoissonSchedule(kNominalWps, 2.0, &rand, spec.pick);
    const auto out = RunOpenLoop<std::future<wmp::Result<double>>>(
        s, kLanes,
        [&](size_t, uint32_t w) {
          return std::optional(service.Submit("perfbench", spec.table[w], all));
        },
        [](wmp::Result<double> r) {
          return r.ok() ? std::pair<bool, double>{true, *r}
                        : std::pair<bool, double>{false, 0.0};
        });
    for (const Outcome& x : out) {
      ++result->attempted;
      if (!x.ok || x.prediction != reference[x.workload]) ++result->failed;
      service_latency.push_back(x.latency_us());
      service_lag.push_back(x.lag_us());
    }
  }

  // Log ingest and training phases.
  const size_t ingested = ReplayIngest(spec.ingest_log, &tracer);
  auto train_records = wmp::workloads::LoadQueryLog(spec.train_log);
  if (!train_records.ok()) throw std::runtime_error("load train log");
  wmp::core::LearnedWmpOptions topt;
  topt.templates.num_templates = model->templates().num_templates();
  topt.batch_size = static_cast<int>(kBatch);
  topt.seed = kTrainSeed;
  auto trained = Model::Train(*train_records,
                              wmp::core::AllIndices(train_records->size()), topt);
  if (!trained.ok()) throw std::runtime_error("in-process train failed");
  const Counters phases_s = ReadTrainPhases(*trained);

  // Control-plane round trips where the workload itself did not publish.
  if (publish_ms.empty()) {
    for (int i = 0; i < 2; ++i) {
      for (const Model* m : {model.get(), static_cast<const Model*>(nullptr)}) {
        const Swap s = control->PublishOrRollback(m);
        ++result->attempted;
        if (!s.ok) ++result->failed;
        publish_ms.push_back(Seconds(s.sent_ns, s.ack_ns) * 1e3);
      }
    }
  }
  const std::vector<double> health = control->health_rtt_us();
  const Counters shutdown = ReadServeShutdownSummary(server->Stop());

  // Self time per layer of the recorded chain replay.
  const std::vector<Span> chain(tracer.spans().begin() + first_chain_span,
                                tracer.spans().begin() + end_chain_span);
  const std::vector<int64_t> self = SelfTimesNs(chain);
  std::map<std::string, std::vector<double>> per_request;
  double layers_ns = 0.0;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i].parent < 0) continue;
    per_request[chain[i].name].push_back(static_cast<double>(self[i]) / 1e3);
    layers_ns += static_cast<double>(self[i]);
  }
  const auto by_name = SelfTimeByName(tracer.spans());
  auto per = [&](const char* name, double n) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second) / 1e3 / n;
  };
  const double n_sample = static_cast<double>(sample.size());
  const double n_ingest = static_cast<double>(ingested);
  auto delta = [&](const char* key) { return after.at(key) - before.at(key); };
  auto rate = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  const double pruned = assign_after.at("skipped") - assign_before.at("skipped");
  const double full =
      assign_after.at("full_distances") - assign_before.at("full_distances");
  auto bp = shutdown.find("backpressure_pauses");

  auto add = [&](const char* name, double value, const char* unit) {
    result->metrics.push_back({name, value, unit});
  };
  add("net.rtt_health_us", Median(health), "us");
  add("net.encode_req_us", Median(per_request["net.encode_req"]), "us");
  add("net.decode_req_us", Median(per_request["net.decode_req"]), "us");
  add("net.encode_resp_us", Median(per_request["net.encode_resp"]), "us");
  add("net.decode_resp_us", Median(per_request["net.decode_resp"]), "us");
  add("net.req_bytes_per_query",
      static_cast<double>(bytes) / (n_sample * kBatch), "bytes");
  add("net.frames", delta("frames"), "count");
  // Totals over the server's life (set-up traffic included): the program
  // reports these two only as a shutdown total and a high-water mark.
  add("net.backpressure_pauses", bp == shutdown.end() ? NAN : bp->second,
      "count");
  const WindowedLatency service = SummarizeWindows(service_latency, service_lag);
  add("engine.service_p50_us", service.p50_us, "us");
  add("engine.service_p99_us", service.p99_us, "us");
  add("engine.flush_batch_avg", flush_avg, "workloads");
  add("engine.flush_adaptive_frac",
      flushes > 0 ? delta("flushes_adaptive") / flushes : 0.0, "frac");
  add("engine.max_queue_depth", after.at("max_queue_depth"), "count");
  add("engine.hist_hit_rate", rate(delta("hist_hits"), delta("hist_misses")),
      "frac");
  add("engine.tmpl_hit_rate", rate(delta("tmpl_hits"), delta("tmpl_misses")),
      "frac");
  add("engine.publish_ms", Median(publish_ms), "ms");
  add("engine.entries_warmed", delta("entries_warmed"), "count");
  add("engine.score_us_per_workload", per("engine.score", n_sample), "us");
  add("core.assign_us_per_query", Median(per_request["core.assign"]) / kBatch,
      "us");
  add("ml.assign_prune_frac", pruned + full > 0 ? pruned / (pruned + full) : 0.0,
      "frac");
  add("core.histogram_us_per_workload", Median(per_request["core.histogram"]),
      "us");
  add("ml.predict_us_per_workload", Median(per_request["ml.predict"]), "us");
  add("workloads.log_read_us_per_query", per("workloads.log_read", n_ingest),
      "us");
  add("sql.parse_us_per_query", per("sql.parse", n_ingest), "us");
  add("plan.explain_parse_us_per_query", per("plan.explain_parse", n_ingest),
      "us");
  add("plan.features_us_per_query", per("plan.features", n_ingest), "us");
  add("core.train_templates_s", phases_s.at("templates_s"), "s");
  add("core.train_histograms_s", phases_s.at("histograms_s"), "s");
  add("ml.train_regressor_s", phases_s.at("regressor_s"), "s");
  add("bench.gen_lag_p99_us", lat.gen_lag_p99_us, "us");
  add("bench.disturbed_window_frac", lat.disturbed_frac, "frac");
  add("bench.trace_coverage_frac", layers_ns / wire_ns, "frac");
  add("bench.trace_overhead_frac",
      (Median(on_ns) - Median(off_ns)) / Median(off_ns), "frac");
  add("bench.trace_residual_us", (wire_ns - layers_ns) / 1e3 / n_sample, "us");

  if (!tracer.WriteJsonLines(o.trace_path)) {
    throw std::runtime_error("cannot write " + o.trace_path);
  }
  Note("  spans written to %s", o.trace_path.c_str());
}

// ---------------------------------------------------------------------------
// Running a workload from its Spec.

RunResult Drive(const Options& o, const Spec& s, Rand* rand) {
  RunResult result;
  const std::string paths[2] = {o.workdir + "/model_a.wmp",
                                o.workdir + "/model_b.wmp"};
  const int models_trained = s.publishes ? 2 : 1;
  ModelPtr models[2];
  std::vector<double> refs[2];
  Deployment d = DeployRepeatedly([&](int rep, Usage* train) {
    for (int m = 0; m < models_trained; ++m) {
      const Usage u =
          Train(o, s.train_log, paths[m], kTrainSeed + m, s.templates);
      train->wall_s += u.wall_s;
      train->cpu_s += u.cpu_s;
      train->peak_rss_mb = std::max(train->peak_rss_mb, u.peak_rss_mb);
    }
    auto server = std::make_unique<Server>(o, paths[0], s.warm_log, rep);
    if (rep == 0) {
      for (int m = 0; m < models_trained; ++m) {
        models[m] = LoadModel(paths[m]);
        refs[m] = ReferencePredictions(models[m], s.table);
      }
    }
    result.attempted += s.warm.size();
    result.failed += SendAndCheck(server->address(), s.table, s.warm, refs[0]);
    return server;
  });
  if (s.templates == 0) {
    Note("  elbow-tuned k = %d", models[0]->templates().num_templates());
  }

  const Budget budget = SplitBudget(o.seconds);
  const std::string& address = d.server->address();
  WireLanes lanes(address, kLanes);
  Control control(address, models[1].get(), o.trace);
  const Counters before = ReadServerCounters(control.client());
  control.Start();
  ServerUse use;
  std::vector<Phase> phases = RunPhases(&lanes, budget, s.table, s.pick, rand,
                                        o.trace, d.server.get(), &use);
  control.Stop();
  // The passes are checked against model A alone.
  control.RestoreFirst();
  const LogPasses passes = ScoreLogPasses(address, s.text_log, refs[0],
                                          budget.passes_s, d.server.get(),
                                          &result);
  const Counters after = ReadServerCounters(control.client());

  // Epoch gate: a request sent after a swap was acknowledged must be the
  // new model's reference bitwise; one that overlaps a swap may be either.
  // Without swaps every response must be model A's reference.
  const std::vector<Swap>& swaps = control.swaps();
  std::vector<double> publish_ms;
  for (const Swap& w : swaps) {
    ++result.attempted;
    if (!w.ok) ++result.failed;
    publish_ms.push_back(Seconds(w.sent_ns, w.ack_ns) * 1e3);
  }
  result.failed += Gate(&phases, [&](const Outcome& x) {
    int in_force = 0;
    bool allowed = false;
    for (const Swap& w : swaps) {
      if (w.ok && w.ack_ns <= x.sent_ns) in_force = w.after;
      if (w.sent_ns < x.done_ns && w.ack_ns > x.sent_ns) {
        allowed |= x.prediction == refs[w.after][x.workload];
        allowed |= x.prediction == refs[1 - w.after][x.workload];
      }
    }
    return allowed || x.prediction == refs[in_force][x.workload];
  });
  if (s.publishes) {
    Note("  %zu publishes/rollbacks, median %.2f ms", swaps.size(),
         Median(publish_ms));
  }
  const LatencyMetrics lat = Summarize(phases);
  result.attempted += lat.attempted;

  auto add = [&](const char* name, double value, const char* unit) {
    result.metrics.push_back({name, value, unit});
  };
  if (o.trace) {
    // End-to-end figures too noisy on the calibration box for a bound
    // (README.md).
    add("e2e.score_p50_us", lat.p50_us, "us");
    add("e2e.score_p99_us", lat.p99_us, "us");
    add("e2e.sustained_wps", lat.sustained_wps, "1/s");
    add("e2e.queries_per_s", passes.queries_per_s, "1/s");
    add("e2e.train_s", Median(d.train_s), "s");
    add("e2e.train_cpu_s", Median(d.train_cpu_s), "s");
    AddLayerMetrics(o, s, models[0], refs[0], d.server.get(), &lanes,
                    &control, before, after, lat, publish_ms, &result);
    return result;
  }
  d.server->Stop();
  // The set-up that ran the load: its training peak plus its server's peak
  // as of the end of the nominal phase. A sum, not the larger: training
  // needs ~14x the memory of a cold server, and would hide it.
  const double peak_rss_mb = d.train_rss_mb + use.rss_mb;
  Note("  peak RSS: train %.1f MiB, server under load %.1f MiB",
       d.train_rss_mb, use.rss_mb);
  const double cpu_us_per_workload =
      use.cpu_s * 1e6 / static_cast<double>(lat.nominal_answered);
  Note("  server CPU %.3f s over %zu nominal workloads", use.cpu_s,
       lat.nominal_answered);
  add("setup_s", Median(d.setup_s), "s");
  add("server_cpu_us_per_workload", cpu_us_per_workload, "us");
  add("log_cpu_us_per_query", passes.cpu_us_per_query, "us");
  add("test_rmse_mb", Rmse(refs[0], Labels(*models[0], s.table)), "MB");
  add("peak_rss_mb", peak_rss_mb, "MB");
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "online_cold", "online_recurring", "offline_retrain"};
  return kNames;
}

RunResult RunWorkload(const Options& options) {
  const int64_t t0 = NowNs();
  Rand rand(options.seed);
  Spec spec;
  if (options.workload == "online_cold") {
    spec = OnlineCold(options, &rand);
  } else if (options.workload == "online_recurring") {
    spec = OnlineRecurring(options, &rand);
  } else if (options.workload == "offline_retrain") {
    spec = OfflineRetrain(options, &rand);
  } else {
    throw std::runtime_error("unknown workload " + options.workload);
  }
  Note("%s: inputs %.2f s (%zu workloads)", options.workload.c_str(),
       Seconds(t0, NowNs()), spec.table.size());
  RunResult result = Drive(options, spec, &rand);
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
