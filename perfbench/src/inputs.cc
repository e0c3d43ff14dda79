#include "inputs.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "core/workload.h"
#include "engine/batch_scorer.h"
#include "workloads/dataset.h"
#include "workloads/log_io.h"

namespace perfbench {

double Rand::Exponential(double mean) {
  return -std::log1p(-Uniform()) * mean;
}

Zipf::Zipf(size_t n, double theta) : cdf_(n) {
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(Rand* rand) const {
  const double u = rand->Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<QueryRecord> GenerateTpcds(size_t n, uint64_t seed) {
  constexpr size_t kSlices = 4;
  std::vector<std::vector<QueryRecord>> slices(kSlices);
  std::vector<std::string> errors(kSlices);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kSlices; ++i) {
    threads.emplace_back([&, i] {
      wmp::workloads::DatasetOptions opt;
      opt.num_queries = n / kSlices + (i < n % kSlices ? 1 : 0);
      opt.seed = seed * 7919 + i + 1;
      auto data = wmp::workloads::BuildDataset(
          wmp::workloads::Benchmark::kTpcds, opt);
      if (!data.ok()) {
        errors[i] = data.status().ToString();
        return;
      }
      slices[i] = std::move(data->records);
    });
  }
  for (auto& t : threads) t.join();
  std::vector<QueryRecord> out;
  out.reserve(n);
  for (size_t i = 0; i < kSlices; ++i) {
    if (!errors[i].empty()) throw std::runtime_error("generate: " + errors[i]);
    for (auto& r : slices[i]) out.push_back(std::move(r));
  }
  return out;
}

QueryRecord WireCopy(const QueryRecord& record) {
  QueryRecord copy;
  copy.sql_text = record.sql_text;
  copy.plan_features = record.plan_features;
  copy.actual_memory_mb = record.actual_memory_mb;
  copy.dbms_estimate_mb = record.dbms_estimate_mb;
  copy.family_id = record.family_id;
  copy.content_fingerprint = record.content_fingerprint;
  return copy;
}

std::vector<Workload> GroupConsecutive(const std::vector<QueryRecord>& records) {
  std::vector<Workload> out(records.size() / kBatch);
  for (size_t w = 0; w < out.size(); ++w) {
    out[w].reserve(kBatch);
    for (size_t q = 0; q < kBatch; ++q) {
      out[w].push_back(WireCopy(records[w * kBatch + q]));
    }
  }
  return out;
}

Workload Gather(const std::vector<QueryRecord>& pool,
                const std::vector<uint32_t>& members) {
  Workload w;
  w.reserve(members.size());
  for (uint32_t m : members) w.push_back(WireCopy(pool[m]));
  return w;
}

void WriteLog(const std::vector<QueryRecord>& records,
              const std::string& path) {
  if (auto st = wmp::workloads::WriteQueryLog(records, path); !st.ok()) {
    throw std::runtime_error("write " + path + ": " + st.ToString());
  }
  // Flush now: writeback of a 100 MB log starting ~30 s later would land
  // in a measured phase (on the calibration VM it starved the generator).
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("fsync " + path);
  }
  ::close(fd);
}

std::shared_ptr<const wmp::core::LearnedWmpModel> LoadModel(
    const std::string& path) {
  auto model = wmp::core::LearnedWmpModel::LoadFromFile(path);
  if (!model.ok()) {
    throw std::runtime_error("load " + path + ": " + model.status().ToString());
  }
  return std::make_shared<const wmp::core::LearnedWmpModel>(
      std::move(*model));
}

std::vector<double> ReferencePredictions(
    const std::shared_ptr<const wmp::core::LearnedWmpModel>& model,
    const std::vector<const Workload*>& workloads, size_t flush_size,
    Tracer* tracer) {
  Tracer off(false);
  if (tracer == nullptr) tracer = &off;
  wmp::engine::BatchScorer scorer(model);
  std::vector<double> out;
  out.reserve(workloads.size());
  for (size_t begin = 0; begin < workloads.size(); begin += flush_size) {
    const size_t end = std::min(workloads.size(), begin + flush_size);
    std::vector<QueryRecord> flat;
    std::vector<wmp::core::WorkloadBatch> batches(end - begin);
    for (size_t w = begin; w < end; ++w) {
      for (const QueryRecord& r : *workloads[w]) {
        batches[w - begin].query_indices.push_back(
            static_cast<uint32_t>(flat.size()));
        flat.push_back(WireCopy(r));
      }
    }
    wmp::engine::BatchScoreResult scored;
    {
      ScopedSpan span(tracer, "engine.score", -1, begin);
      auto r = scorer.ScoreWorkloads(flat, batches);
      if (!r.ok()) {
        throw std::runtime_error("reference: " + r.status().ToString());
      }
      scored = std::move(*r);
    }
    out.insert(out.end(), scored.predictions.begin(),
               scored.predictions.end());
  }
  return out;
}

std::vector<double> ReferencePredictions(
    const std::shared_ptr<const wmp::core::LearnedWmpModel>& model,
    const std::vector<Workload>& table) {
  std::vector<const Workload*> all;
  all.reserve(table.size());
  for (const Workload& w : table) all.push_back(&w);
  return ReferencePredictions(model, all, 512, nullptr);
}

std::vector<double> Labels(const wmp::core::LearnedWmpModel& model,
                           const std::vector<Workload>& table) {
  std::vector<double> out;
  out.reserve(table.size());
  for (const Workload& w : table) {
    std::vector<uint32_t> all(w.size());
    for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    out.push_back(
        wmp::core::ComputeWorkloadLabel(w, all, model.options().label));
  }
  return out;
}

}  // namespace perfbench
