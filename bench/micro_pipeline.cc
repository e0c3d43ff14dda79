// Micro-benchmarks (google-benchmark) of the hot pipeline components:
// SQL parsing, planning, plan featurization (TR2), EXPLAIN round-trip,
// query-log ingest (streaming reader and whole-file load), template
// assignment (IN3), histogram construction (IN4), the end-to-end
// LearnedWMP inference path (IN1-IN5), and the batched serving path
// (engine::BatchScorer) vs the scalar per-query loop.
//
// The serving benchmarks sweep batch sizes {1, 10, 100, 1000} and thread
// counts {1, hardware_concurrency}; `items_per_second` is queries/sec.
// Run with `--benchmark_format=json` (optionally
// `--benchmark_out=FILE --benchmark_out_format=json`) to emit the JSON
// trajectory.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unistd.h>

#include "core/featurizer.h"
#include "core/histogram.h"
#include "core/learned_wmp.h"
#include "engine/batch_scorer.h"
#include "plan/explain.h"
#include "plan/features.h"
#include "plan/plan_parser.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "util/arena.h"
#include "util/parallel.h"
#include "workloads/dataset.h"
#include "workloads/log_io.h"

namespace {

using namespace wmp;

// Shared fixture state, built once.
struct PipelineState {
  workloads::Dataset dataset;
  core::LearnedWmpModel model;
  std::vector<uint32_t> batch;
  std::string sample_sql;
  std::string sample_explain;

  static PipelineState& Get() {
    static PipelineState* state = [] {
      auto* s = new PipelineState();
      workloads::DatasetOptions opt;
      opt.num_queries = 2000;
      opt.seed = 17;
      s->dataset =
          std::move(*workloads::BuildDataset(workloads::Benchmark::kTpcds, opt));
      core::LearnedWmpOptions lopt;
      lopt.templates.num_templates = 50;
      s->model = std::move(*core::LearnedWmpModel::Train(
          s->dataset.records, core::AllIndices(s->dataset.records.size()),
          *s->dataset.generator, lopt));
      for (uint32_t i = 0; i < 10; ++i) s->batch.push_back(i);
      s->sample_sql = s->dataset.records[0].sql_text;
      s->sample_explain = plan::Explain(*s->dataset.records[0].plan);
      return s;
    }();
    return *state;
  }
};

void BM_SqlParse(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Parse(s.sample_sql));
  }
}
BENCHMARK(BM_SqlParse);

void BM_PlanQuery(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  plan::Planner planner(&s.dataset.generator->catalog());
  const sql::Query& q = s.dataset.records[0].query;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.CreatePlan(q));
  }
}
BENCHMARK(BM_PlanQuery);

void BM_ExtractPlanFeatures(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  const plan::PlanNode& plan = *s.dataset.records[0].plan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan::ExtractPlanFeatures(plan));
  }
}
BENCHMARK(BM_ExtractPlanFeatures);

void BM_ExplainRoundTrip(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan::ParseExplain(s.sample_explain));
  }
}
BENCHMARK(BM_ExplainRoundTrip);

void BM_TemplateAssign(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.model.templates().Assign(s.dataset.records[0]));
  }
}
BENCHMARK(BM_TemplateAssign);

void BM_BinWorkload(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.model.BinWorkload(s.dataset.records, s.batch));
  }
}
BENCHMARK(BM_BinWorkload);

void BM_PredictWorkload(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.model.PredictWorkload(s.dataset.records, s.batch));
  }
}
BENCHMARK(BM_PredictWorkload);

// ---------------------------------------------------------------------------
// Query-log ingest: a generated 4k-record TPC-DS log read back through
// QueryLogReader (4096-record chunks, the chunk size perfbench streams
// with) and through LoadQueryLog. Both parse SQL and EXPLAIN text and
// recompute plan features per record; `items_per_second` is records/sec.
// ---------------------------------------------------------------------------
struct IngestLog {
  std::string path;
  int64_t records = 0;

  ~IngestLog() { std::remove(path.c_str()); }

  static const IngestLog& Get() {
    static const IngestLog log = [] {
      IngestLog l;
      workloads::DatasetOptions opt;
      opt.num_queries = 4000;
      opt.seed = 29;
      auto d = workloads::BuildDataset(workloads::Benchmark::kTpcds, opt);
      l.path = (std::filesystem::temp_directory_path() /
                ("wmp_micro_ingest_" + std::to_string(::getpid()) + ".log"))
                   .string();
      if (!d.ok() || !workloads::WriteQueryLog(d->records, l.path).ok()) {
        std::fprintf(stderr, "cannot write ingest log %s\n", l.path.c_str());
        std::abort();
      }
      l.records = static_cast<int64_t>(d->records.size());
      return l;
    }();
    return log;
  }
};

void BM_QueryLogReader(benchmark::State& state) {
  const IngestLog& log = IngestLog::Get();
  std::vector<workloads::QueryRecord> chunk;
  for (auto _ : state) {
    auto reader = workloads::QueryLogReader::Open(log.path);
    for (;;) {
      chunk.clear();
      auto n = reader->ReadChunk(4096, &chunk);
      if (!n.ok()) state.SkipWithError(n.status().ToString().c_str());
      if (!n.ok() || *n == 0) break;
    }
  }
  state.SetItemsProcessed(state.iterations() * log.records);
}
BENCHMARK(BM_QueryLogReader)->Unit(benchmark::kMillisecond);

void BM_LoadQueryLog(benchmark::State& state) {
  const IngestLog& log = IngestLog::Get();
  for (auto _ : state) {
    auto records = workloads::LoadQueryLog(log.path);
    if (!records.ok()) state.SkipWithError(records.status().ToString().c_str());
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(state.iterations() * log.records);
}
BENCHMARK(BM_LoadQueryLog)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Cache-bypass cold path: what a template-cache miss (or a drift/retrain
// row) pays. Each iteration re-parses and re-plans a batch of queries from
// SQL text into one reused bump arena, then featurizes + scales + assigns
// them in a single AssignBatch pass over records whose plan_features are
// absent — the featurizer walks the freshly planned trees instead of
// gathering precomputed rows. Arg 0 is the batch size; arg 1 toggles the
// pruned centroid index (1) vs the NearestCentroids reference scan (0).
// `items_per_second` is cold queries/sec end to end (parse -> assign).
// ---------------------------------------------------------------------------
void BM_ColdPathParsePlanAssign(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  const size_t batch = static_cast<size_t>(state.range(0));
  const bool prev_pruned = s.model.templates().pruned_assign();
  s.model.mutable_templates()->set_pruned_assign(state.range(1) != 0);
  plan::Planner planner(&s.dataset.generator->catalog());
  util::Arena arena(plan::kPlanArenaChunk * batch);
  std::vector<workloads::QueryRecord> cold(batch);
  std::vector<uint32_t> indices(batch);
  for (size_t i = 0; i < batch; ++i) indices[i] = static_cast<uint32_t>(i);
  for (auto _ : state) {
    // Non-owning PlanTree views into `arena` die with the rebuild below,
    // never outliving the reset.
    for (size_t i = 0; i < batch; ++i) cold[i].plan = plan::PlanTree();
    arena.Reset();
    for (size_t i = 0; i < batch; ++i) {
      auto query = sql::Parse(s.dataset.records[i].sql_text);
      if (!query.ok()) {
        state.SkipWithError("parse failed");
        return;
      }
      auto root = planner.CreatePlanInto(*query, &arena);
      if (!root.ok()) {
        state.SkipWithError("plan failed");
        return;
      }
      cold[i].plan = plan::PlanTree(nullptr, *root);
    }
    auto ids = s.model.templates().AssignBatch(cold, indices);
    if (!ids.ok()) {
      state.SkipWithError("assign failed");
      return;
    }
    benchmark::DoNotOptimize(ids);
  }
  for (size_t i = 0; i < batch; ++i) cold[i].plan = plan::PlanTree();
  s.model.mutable_templates()->set_pruned_assign(prev_pruned);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_ColdPathParsePlanAssign)
    ->Args({10, 1})
    ->Args({100, 1})
    ->Args({10, 0})
    ->Args({100, 0});

// ---------------------------------------------------------------------------
// Batched serving throughput. Arg 0 is the workload batch size; arg 1 the
// worker-thread count. Both paths score the whole 2000-query dataset per
// iteration, so `items_per_second` reads directly as queries/sec.
// ---------------------------------------------------------------------------

// The seed's scalar loop: one PredictWorkload (featurize -> assign ->
// histogram -> regress, one query at a time) per workload.
void BM_ScoreDatasetScalarLoop(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  const auto batches = engine::MakeConsecutiveBatches(
      s.dataset.records.size(), static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const auto& b : batches) {
      benchmark::DoNotOptimize(
          s.model.PredictWorkload(s.dataset.records, b.query_indices));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(s.dataset.records.size()));
}

// The batched path: one BatchScorer session scoring every workload in a
// single featurize -> assign -> histogram -> regress matrix pass.
void BM_ScoreDatasetBatchScorer(benchmark::State& state) {
  PipelineState& s = PipelineState::Get();
  const auto batches = engine::MakeConsecutiveBatches(
      s.dataset.records.size(), static_cast<int>(state.range(0)));
  engine::BatchScorerOptions opt;
  opt.num_threads = static_cast<int>(state.range(1));
  engine::BatchScorer scorer(&s.model, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.ScoreWorkloads(s.dataset.records, batches));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(s.dataset.records.size()));
}

void ServingArgs(benchmark::internal::Benchmark* b) {
  const int hw = static_cast<int>(wmp::util::HardwareThreads());
  for (int batch_size : {1, 10, 100, 1000}) {
    b->Args({batch_size, 1});
    if (hw > 1) b->Args({batch_size, hw});
  }
}

BENCHMARK(BM_ScoreDatasetScalarLoop)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_ScoreDatasetBatchScorer)->Apply(ServingArgs);

}  // namespace

BENCHMARK_MAIN();
