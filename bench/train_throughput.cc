// Training-throughput benchmark for the histogram tree engine.
//
// Trains DT / RF / GBT on the two real training designs of the pipeline —
// the SingleWMP per-query plan-feature matrix and the LearnedWMP workload
// histogram matrix — once with the direct builders of the test-only
// reference library (tests/reference/) and once with the histogram engine (feature-major bins, sibling
// subtraction, pooled buffers, GBT leaf-scatter updates), and reports
// rows/sec, end-to-end speedup, and the engine's per-phase breakdown
// (bin / grow / round-update).
//
// Equivalence gate: for every family the two engines' predictions on the
// training design must agree within 1e-9 relative; any breach exits
// nonzero, so CI's train-smoke step (--quick) catches subtraction bugs
// that would silently change models.
//
// Defaults to the paper's full TPC-DS query count (--scale=1.0, 93k
// queries); --quick shrinks the fixture for CI. Output: human tables plus
// JSON records (stdout, or --json=PATH).

#include <cmath>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "util/timer.h"
#include "core/featurizer.h"
#include "ml/compiled_tree.h"
#include "ml/dtree.h"
#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "ml/scaler.h"
#include "ml/tree_grower.h"
#include "reference/reference_trees.h"

using namespace wmp;

namespace {

struct FamilyRow {
  std::string fixture;
  std::string family;
  size_t rows = 0;
  size_t cols = 0;
  double ref_ms = 0.0;
  double new_ms = 0.0;
  double speedup = 0.0;
  double rows_per_sec = 0.0;  // histogram engine, end-to-end fit
  double bin_ms = 0.0;
  double grow_ms = 0.0;
  double update_ms = 0.0;
  size_t pool_allocs = 0;
  double max_rel_diff = 0.0;
  // Compiled bin-space inference over the training design: batch Predict
  // time of the raw-space regressor vs the compiled ensemble, and their
  // divergence (0 required for DT/RF, <= 1e-9 relative for GBT).
  double pred_ms = 0.0;
  double compiled_pred_ms = 0.0;
  double compiled_max_diff = 0.0;
};

std::string ToJson(const FamilyRow& r) {
  return StrFormat(
      "{\"fixture\": \"%s\", \"family\": \"%s\", \"rows\": %zu, "
      "\"cols\": %zu, \"ref_ms\": %.2f, \"new_ms\": %.2f, "
      "\"speedup\": %.2f, \"rows_per_sec\": %.0f, \"bin_ms\": %.2f, "
      "\"grow_ms\": %.2f, \"update_ms\": %.2f, \"pool_allocs\": %zu, "
      "\"max_rel_diff\": %.3g, \"pred_ms\": %.2f, "
      "\"compiled_pred_ms\": %.2f, \"compiled_max_diff\": %.3g}",
      r.fixture.c_str(), r.family.c_str(), r.rows, r.cols, r.ref_ms, r.new_ms,
      r.speedup, r.rows_per_sec, r.bin_ms, r.grow_ms, r.update_ms,
      r.pool_allocs, r.max_rel_diff, r.pred_ms, r.compiled_pred_ms,
      r.compiled_max_diff);
}

ml::TreeGrowerStats GrowerStatsOf(const ml::Regressor& model) {
  if (const auto* dt = dynamic_cast<const ml::DecisionTreeRegressor*>(&model)) {
    return dt->grower_stats();
  }
  if (const auto* rf =
          dynamic_cast<const ml::RandomForestRegressor*>(&model)) {
    return rf->grower_stats();
  }
  if (const auto* gbt = dynamic_cast<const ml::GbtRegressor*>(&model)) {
    return gbt->grower_stats();
  }
  return {};
}

// Trains `make()` with the histogram engine and `fit_reference()` with the
// direct builders, and scores the divergence of their train-set predictions
// (relative, with an absolute floor of 1).
template <typename Factory, typename ReferenceFit>
FamilyRow RunFamily(const std::string& fixture, const std::string& family,
                    const ml::Matrix& x, const std::vector<double>& y,
                    const Factory& make, const ReferenceFit& fit_reference,
                    bool* ok) {
  FamilyRow row;
  row.fixture = fixture;
  row.family = family;
  row.rows = x.rows();
  row.cols = x.cols();

  Stopwatch sw;
  auto reference = fit_reference();
  if (!reference.ok()) {
    std::cerr << fixture << "/" << family
              << " reference fit failed: " << reference.status() << "\n";
    *ok = false;
    return row;
  }
  row.ref_ms = sw.ElapsedMillis();

  auto histogram = make();
  sw.Reset();
  if (Status st = histogram->Fit(x, y); !st.ok()) {
    std::cerr << fixture << "/" << family << " histogram fit failed: " << st
              << "\n";
    *ok = false;
    return row;
  }
  row.new_ms = sw.ElapsedMillis();
  row.speedup = row.ref_ms / std::max(row.new_ms, 1e-3);
  row.rows_per_sec =
      static_cast<double>(x.rows()) / std::max(row.new_ms / 1e3, 1e-9);
  const ml::FitTiming timing = histogram->fit_timing();
  row.bin_ms = timing.bin_ms;
  row.grow_ms = timing.grow_ms;
  row.update_ms = timing.update_ms;
  row.pool_allocs = GrowerStatsOf(*histogram).pool_allocations;

  auto ref_pred = (*reference)->Predict(x);
  sw.Reset();
  auto new_pred = histogram->Predict(x);
  row.pred_ms = sw.ElapsedMillis();
  if (!ref_pred.ok() || !new_pred.ok()) {
    std::cerr << fixture << "/" << family << " predict failed\n";
    *ok = false;
    return row;
  }
  for (size_t i = 0; i < ref_pred->size(); ++i) {
    const double denom = std::max(1.0, std::fabs((*ref_pred)[i]));
    row.max_rel_diff = std::max(
        row.max_rel_diff, std::fabs((*ref_pred)[i] - (*new_pred)[i]) / denom);
  }
  if (row.max_rel_diff > 1e-9) {
    std::cerr << "EQUIVALENCE BREACH: " << fixture << "/" << family
              << " diverges by " << row.max_rel_diff << " (> 1e-9)\n";
    *ok = false;
  }

  // Compiled bin-space inference gate: flatten the freshly trained model
  // and require its batch predictions to match the regressor's own —
  // bitwise for DT/RF (pure bin-space traversal + exact combine), and
  // within 1e-9 relative for GBT. CI's train smoke (--quick) runs this.
  auto compiled = ml::CompiledEnsemble::CompileRegressor(*histogram);
  if (!compiled.ok()) {
    std::cerr << fixture << "/" << family
              << " compile failed: " << compiled.status() << "\n";
    *ok = false;
    return row;
  }
  sw.Reset();
  auto comp_pred = compiled->Predict(x);
  row.compiled_pred_ms = sw.ElapsedMillis();
  if (!comp_pred.ok()) {
    std::cerr << fixture << "/" << family
              << " compiled predict failed: " << comp_pred.status() << "\n";
    *ok = false;
    return row;
  }
  const bool exact = family != "XGB";
  for (size_t i = 0; i < new_pred->size(); ++i) {
    const double denom = std::max(1.0, std::fabs((*new_pred)[i]));
    row.compiled_max_diff =
        std::max(row.compiled_max_diff,
                 std::fabs((*new_pred)[i] - (*comp_pred)[i]) / denom);
  }
  if (row.compiled_max_diff > (exact ? 0.0 : 1e-9)) {
    std::cerr << "COMPILED EQUIVALENCE BREACH: " << fixture << "/" << family
              << " compiled diverges by " << row.compiled_max_diff << " (> "
              << (exact ? "bitwise" : "1e-9") << ")\n";
    *ok = false;
  }
  return row;
}

void RunFixture(const std::string& fixture, const ml::Matrix& x,
                const std::vector<double>& y, uint64_t seed, bool quick,
                std::vector<FamilyRow>* rows, bool* ok) {
  // DT/RF hyperparameters mirror CreateRegressor's experiment defaults for
  // the per-query design and MakeLearnedRegressor's tuned settings for the
  // workload design; GBT likewise (reduced rounds under --quick).
  const bool learned = fixture == "workload";
  ml::DecisionTreeOptions dt;
  dt.tree.max_depth = learned ? 8 : 12;
  dt.tree.min_samples_leaf = learned ? 4 : 2;
  dt.seed = seed;
  rows->push_back(RunFamily(
      fixture, "DT", x, y,
      [&] { return std::make_unique<ml::DecisionTreeRegressor>(dt); },
      [&] { return ml::reference::FitDecisionTree(x, y, dt); }, ok));

  ml::RandomForestOptions rf;
  rf.num_trees = quick ? 10 : 40;
  if (learned) {
    rf.tree.max_depth = 10;
    rf.tree.min_samples_leaf = 3;
  }
  rf.seed = seed;
  rows->push_back(RunFamily(
      fixture, "RF", x, y,
      [&] { return std::make_unique<ml::RandomForestRegressor>(rf); },
      [&] { return ml::reference::FitRandomForest(x, y, rf); }, ok));

  ml::GbtOptions gbt;
  if (learned) {
    gbt.num_rounds = quick ? 30 : 150;
    gbt.learning_rate = 0.06;
    gbt.max_depth = 4;
    gbt.min_child_weight = 3;
    gbt.colsample = 0.8;
    gbt.subsample = 0.9;
  } else {
    gbt.num_rounds = quick ? 20 : 80;
  }
  gbt.seed = seed;
  rows->push_back(RunFamily(
      fixture, "XGB", x, y,
      [&] { return std::make_unique<ml::GbtRegressor>(gbt); },
      [&] { return ml::reference::FitGbt(x, y, gbt); }, ok));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  // Unlike the figure harnesses this bench defaults to the paper's full
  // query count — the acceptance target is end-to-end speedup at paper
  // scale — unless the caller passed --scale or --quick.
  bool scale_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) scale_given = true;
  }
  if (!scale_given) args.tpcds_scale = args.quick ? 0.04 : 1.0;
  bench::PrintRunBanner("train_throughput",
                        "tree-family training engines, reference vs histogram",
                        args);

  core::ExperimentConfig cfg =
      bench::MakeConfig(workloads::Benchmark::kTpcds, args);
  auto data = core::PrepareExperiment(cfg);
  if (!data.ok()) {
    std::cerr << "fixture build failed: " << data.status() << "\n";
    return 1;
  }
  const auto& records = data->dataset.records;

  bool ok = true;
  std::vector<FamilyRow> rows;

  // Fixture 1: the SingleWMP per-query design (plan features -> memory).
  {
    ml::Matrix x = core::PlanFeatureMatrix(records, data->train_indices);
    std::vector<double> y =
        core::ActualMemoryVector(records, data->train_indices);
    ml::StandardScaler scaler;
    if (Status st = scaler.Fit(x); !st.ok()) {
      std::cerr << "scaler fit failed: " << st << "\n";
      return 1;
    }
    auto scaled = scaler.Transform(x);
    if (!scaled.ok()) {
      std::cerr << "scaler transform failed: " << scaled.status() << "\n";
      return 1;
    }
    RunFixture("perquery", *scaled, y, cfg.seed, args.quick, &rows, &ok);
  }

  // Fixture 2: the LearnedWMP workload-histogram design. Phase 1-2 run
  // once (Ridge keeps the throwaway phase-3 fit cheap); the tree families
  // then train on the same histogram matrix the production trainer sees.
  {
    const core::ExperimentConfig& resolved = data->config;
    core::LearnedWmpOptions lopt;
    lopt.templates.num_templates = resolved.num_templates;
    lopt.batch_size = resolved.batch_size;
    lopt.label = resolved.label;
    lopt.regressor = ml::RegressorKind::kRidge;
    lopt.seed = resolved.seed;
    auto model = core::LearnedWmpModel::Train(
        records, data->train_indices, *data->dataset.generator, lopt);
    if (!model.ok()) {
      std::cerr << "workload fixture failed: " << model.status() << "\n";
      return 1;
    }
    core::WorkloadSetOptions wopt;
    wopt.batch_size = lopt.batch_size;
    wopt.label = lopt.label;
    wopt.seed = lopt.seed;
    const std::vector<core::WorkloadBatch> batches =
        core::BuildWorkloads(records, data->train_indices, wopt);
    auto h = model->BinWorkloads(records, batches);
    if (!h.ok()) {
      std::cerr << "workload binning failed: " << h.status() << "\n";
      return 1;
    }
    std::vector<double> y(batches.size());
    for (size_t b = 0; b < batches.size(); ++b) y[b] = batches[b].label_mb;
    RunFixture("workload", *h, y, cfg.seed, args.quick, &rows, &ok);
  }

  for (const char* fixture : {"perquery", "workload"}) {
    TablePrinter table(StrFormat("train_throughput — %s design", fixture));
    table.SetHeader({"family", "rows", "ref ms", "hist ms", "speedup",
                     "rows/s", "bin ms", "grow ms", "update ms", "pool allocs",
                     "max rel diff", "pred ms", "compiled ms",
                     "compiled diff"});
    for (const FamilyRow& r : rows) {
      if (r.fixture != fixture) continue;
      table.AddRow({r.family, StrFormat("%zu", r.rows),
                    StrFormat("%.1f", r.ref_ms), StrFormat("%.1f", r.new_ms),
                    StrFormat("%.2fx", r.speedup),
                    StrFormat("%.0f", r.rows_per_sec),
                    StrFormat("%.1f", r.bin_ms), StrFormat("%.1f", r.grow_ms),
                    StrFormat("%.1f", r.update_ms),
                    StrFormat("%zu", r.pool_allocs),
                    StrFormat("%.2g", r.max_rel_diff),
                    StrFormat("%.1f", r.pred_ms),
                    StrFormat("%.1f", r.compiled_pred_ms),
                    StrFormat("%.2g", r.compiled_max_diff)});
    }
    table.Print(std::cout);
  }

  FILE* out = stdout;
  if (!args.json_path.empty()) {
    out = std::fopen(args.json_path.c_str(), "w");
    if (out == nullptr) {
      std::cerr << "cannot open " << args.json_path << "\n";
      return 1;
    }
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "  %s%s\n", ToJson(rows[i]).c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  if (out != stdout) std::fclose(out);

  if (!ok) {
    std::cerr << "train_throughput: equivalence breach or failure\n";
    return 1;
  }
  return 0;
}
