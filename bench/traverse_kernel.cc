// Traversal-kernel micro-bench: scalar walk vs lockstep-8 on compiled
// DT/RF/GBT ensembles, swept over LUT depth {0, 3, 6}, u8/u16 code widths,
// and batch sizes {1, 10, 100, 1000}.
//
// This isolates CompiledEnsemble::Predict — synthetic training data, no
// workload pipeline — so the numbers measure pure traversal throughput
// (rows/sec) of each kernel. Every lockstep-8 configuration's predictions
// are gated bitwise against the scalar walk on the same chunking; any
// divergence is a nonzero exit (CI runs `--quick`).
//
// Flags: --quick (CI smoke size), --json=PATH (trajectory records),
// --seed=<n>.

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ml/compiled_tree.h"
#include "ml/dtree.h"
#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "util/random.h"
#include "util/timer.h"

using namespace wmp;

namespace {

// Keeps Predict results observable across timing passes.
volatile double g_sink = 0.0;

struct SyntheticData {
  ml::Matrix train;
  ml::Matrix test;
  std::vector<double> y;
};

SyntheticData MakeData(size_t n, size_t n_test, size_t d, uint64_t seed) {
  SyntheticData data;
  Rng rng(seed);
  data.train = ml::Matrix(n, d);
  data.test = ml::Matrix(n_test, d);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) {
      data.train.At(i, c) = rng.UniformDouble(-5, 5);
    }
    data.y[i] = data.train.At(i, 0) * data.train.At(i, 0) -
                2.0 * data.train.At(i, 1 % d) +
                (data.train.At(i, 2 % d) > 0 ? 3.0 : -1.0) +
                rng.Normal(0, 0.25);
  }
  // Test rows range wider than training so traversal leaves the fitted
  // edges too.
  for (size_t i = 0; i < n_test; ++i) {
    for (size_t c = 0; c < d; ++c) {
      data.test.At(i, c) = rng.UniformDouble(-8, 8);
    }
  }
  return data;
}

struct ModelSpec {
  std::string name;
  std::unique_ptr<ml::Regressor> model;
  SyntheticData data;
};

// Paper-scale-ish families: RF ~100 trees, GBT ~200 rounds (shrunk under
// --quick), a deep single DT, and a wide-bin DT that forces u16 codes.
std::vector<ModelSpec> TrainModels(bool quick, uint64_t seed) {
  std::vector<ModelSpec> specs;
  const size_t n = quick ? 1500 : 4000;
  const size_t n_test = quick ? 512 : 2048;
  {
    ModelSpec s;
    s.name = "dt";
    s.data = MakeData(n, n_test, 16, seed + 1);
    ml::DecisionTreeOptions opt;
    opt.tree.max_depth = 12;
    opt.seed = 3;
    auto m = std::make_unique<ml::DecisionTreeRegressor>(opt);
    if (!m->Fit(s.data.train, s.data.y).ok()) std::abort();
    s.model = std::move(m);
    specs.push_back(std::move(s));
  }
  {
    ModelSpec s;
    s.name = "rf";
    s.data = MakeData(n, n_test, 16, seed + 2);
    ml::RandomForestOptions opt;
    opt.num_trees = quick ? 20 : 100;
    opt.tree.max_depth = 10;
    opt.seed = 5;
    auto m = std::make_unique<ml::RandomForestRegressor>(opt);
    if (!m->Fit(s.data.train, s.data.y).ok()) std::abort();
    s.model = std::move(m);
    specs.push_back(std::move(s));
  }
  {
    ModelSpec s;
    s.name = "gbt";
    s.data = MakeData(n, n_test, 16, seed + 3);
    ml::GbtOptions opt;
    opt.num_rounds = quick ? 40 : 200;
    opt.max_depth = 6;
    opt.seed = 7;
    auto m = std::make_unique<ml::GbtRegressor>(opt);
    if (!m->Fit(s.data.train, s.data.y).ok()) std::abort();
    s.model = std::move(m);
    specs.push_back(std::move(s));
  }
  {
    // > 255 distinct thresholds per feature falls back to u16 codes.
    ModelSpec s;
    s.name = "dt_wide";
    s.data = MakeData(quick ? 2000 : 4000, n_test, 2, seed + 4);
    ml::DecisionTreeOptions opt;
    opt.tree.max_depth = 16;
    opt.tree.max_bins = 4096;
    opt.tree.min_samples_leaf = 1;
    opt.seed = 11;
    auto m = std::make_unique<ml::DecisionTreeRegressor>(opt);
    if (!m->Fit(s.data.train, s.data.y).ok()) std::abort();
    s.model = std::move(m);
    specs.push_back(std::move(s));
  }
  return specs;
}

std::vector<ml::Matrix> SplitChunks(const ml::Matrix& x, size_t batch) {
  std::vector<ml::Matrix> chunks;
  for (size_t begin = 0; begin < x.rows(); begin += batch) {
    const size_t rows = std::min(batch, x.rows() - begin);
    ml::Matrix m(rows, x.cols());
    for (size_t i = 0; i < rows; ++i) {
      for (size_t c = 0; c < x.cols(); ++c) {
        m.At(i, c) = x.At(begin + i, c);
      }
    }
    chunks.push_back(std::move(m));
  }
  return chunks;
}

// One pass collects predictions (for the bitwise gate), then timed passes
// repeat until `min_ms` has elapsed. Returns rows/sec, or -1 on error.
double MeasureRowsPerSec(const ml::CompiledEnsemble& compiled,
                         const std::vector<ml::Matrix>& chunks, size_t rows,
                         double min_ms, std::vector<double>* predictions) {
  predictions->clear();
  predictions->reserve(rows);
  for (const ml::Matrix& m : chunks) {
    auto p = compiled.Predict(m);
    if (!p.ok()) return -1.0;
    predictions->insert(predictions->end(), p->begin(), p->end());
  }
  int reps = 0;
  double ms = 0.0;
  Stopwatch sw;
  do {
    double sum = 0.0;
    for (const ml::Matrix& m : chunks) {
      auto p = compiled.Predict(m);
      if (!p.ok()) return -1.0;
      sum += p->front();
    }
    g_sink = g_sink + sum;
    ++reps;
    ms = sw.ElapsedMillis();
  } while (ms < min_ms);
  return 1e3 * static_cast<double>(rows) * reps / ms;
}

struct BenchRow {
  std::string model;
  std::string codes;  // "u8" | "u16"
  int lut = 0;
  std::string kernel;
  size_t batch = 0;
  double rows_per_sec = 0.0;
  double speedup = 0.0;  // vs scalar at the same (model, lut, batch)
};

std::string ToJson(const BenchRow& r) {
  return StrFormat(
      "{\"figure\":\"traverse_kernel\",\"model\":\"%s\",\"codes\":\"%s\","
      "\"lut\":%d,\"kernel\":\"%s\",\"batch\":%zu,\"rows_per_sec\":%.0f,"
      "\"speedup_vs_scalar\":%.3f}",
      r.model.c_str(), r.codes.c_str(), r.lut, r.kernel.c_str(), r.batch,
      r.rows_per_sec, r.speedup);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  std::printf("=======================================================\n");
  std::printf("traverse_kernel — lockstep vs scalar compiled traversal\n");
  std::printf("quick=%s seed=%llu\n", args.quick ? "yes" : "no",
              static_cast<unsigned long long>(args.seed));
  std::printf("=======================================================\n");

  const ml::TraverseKernel kernels[] = {ml::TraverseKernel::kScalar,
                                        ml::TraverseKernel::kLockstep8};
  const std::vector<int> luts = args.quick ? std::vector<int>{0, 3}
                                           : std::vector<int>{0, 3, 6};
  const std::vector<size_t> batches = args.quick
                                          ? std::vector<size_t>{1, 100, 512}
                                          : std::vector<size_t>{1, 10, 100,
                                                                1000};
  const double min_ms = args.quick ? 10.0 : 60.0;

  std::vector<ModelSpec> specs = TrainModels(args.quick, args.seed);
  std::vector<BenchRow> rows;
  size_t mismatches = 0;
  for (const ModelSpec& spec : specs) {
    auto compiled = ml::CompiledEnsemble::CompileRegressor(
        *spec.model, ml::CompileOptions{.lut_levels = 0,
                                        .kernel = ml::TraverseKernel::kScalar});
    if (!compiled.ok()) {
      std::cerr << "compile failed: " << compiled.status() << "\n";
      return 1;
    }
    const char* codes = compiled->narrow() ? "u8" : "u16";
    std::printf("\nmodel %s: %zu trees, %zu nodes, %s codes\n",
                spec.name.c_str(), compiled->num_trees(),
                compiled->num_nodes(), codes);
    for (int lut : luts) {
      auto ce = ml::CompiledEnsemble::CompileRegressor(
          *spec.model,
          ml::CompileOptions{.lut_levels = lut,
                             .kernel = ml::TraverseKernel::kScalar});
      if (!ce.ok()) {
        std::cerr << "compile failed: " << ce.status() << "\n";
        return 1;
      }
      TablePrinter table(StrFormat("%s lut=%d — rows/sec by kernel",
                                   spec.name.c_str(), lut));
      std::vector<std::string> header = {"batch"};
      for (ml::TraverseKernel k : kernels) {
        header.push_back(ml::TraverseKernelName(k));
      }
      header.push_back("gain");
      table.SetHeader(header);
      for (size_t batch : batches) {
        const std::vector<ml::Matrix> chunks =
            SplitChunks(spec.data.test, batch);
        const size_t n = spec.data.test.rows();
        std::vector<std::string> cells = {StrFormat("%zu", batch)};
        double scalar_rps = 0.0;
        double gain = 0.0;
        std::vector<double> want, got;
        for (ml::TraverseKernel k : kernels) {
          ce->ForceKernel(k);
          std::vector<double>* preds =
              k == ml::TraverseKernel::kScalar ? &want : &got;
          const double rps = MeasureRowsPerSec(*ce, chunks, n, min_ms, preds);
          if (rps < 0) {
            std::cerr << "predict failed\n";
            return 1;
          }
          if (k == ml::TraverseKernel::kScalar) {
            scalar_rps = rps;
          } else {
            // Bitwise gate: lockstep-8 must reproduce the scalar walk
            // exactly on this chunking.
            for (size_t i = 0; i < want.size(); ++i) {
              if (got[i] != want[i]) {
                std::cerr << "BITWISE MISMATCH: " << spec.name << " lut="
                          << lut << " batch=" << batch << " kernel="
                          << ml::TraverseKernelName(k) << " row " << i << ": "
                          << got[i] << " vs " << want[i] << "\n";
                ++mismatches;
                break;
              }
            }
            gain = rps / scalar_rps;
          }
          cells.push_back(StrFormat("%.0f", rps));
          BenchRow row;
          row.model = spec.name;
          row.codes = codes;
          row.lut = lut;
          row.kernel = ml::TraverseKernelName(k);
          row.batch = batch;
          row.rows_per_sec = rps;
          row.speedup = scalar_rps > 0 ? rps / scalar_rps : 0.0;
          rows.push_back(row);
        }
        cells.push_back(StrFormat("%.2fx", gain));
        table.AddRow(cells);
      }
      table.Print(std::cout);
    }
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

  if (mismatches > 0) {
    std::cerr << mismatches << " lockstep-8 configuration(s) diverged from "
                               "the scalar walk\n";
    return 1;
  }
  std::printf("\nlockstep-8 bitwise-identical to the scalar walk\n");
  return 0;
}
