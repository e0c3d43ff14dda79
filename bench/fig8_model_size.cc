// Fig. 8 reproduction: serialized model size (kB) of LearnedWMP vs
// SingleWMP per model family.
//
// Expected shape (paper §IV-B): LearnedWMP models are substantially
// smaller for the tree-based families (they fit 10x fewer training
// examples, so the trees stay shallow) — EXCEPT Ridge, which inverts:
// LearnedWMP-Ridge stores one coefficient per template (k of them) while
// SingleWMP-Ridge stores one per plan feature, and k exceeds the plan
// feature count. The paper calls out exactly this exception.
//
// `model_bytes` is the production codec — the bin-space compiled form for
// the tree families (ml/compiled_tree.h): one shared edge table plus
// (child i32, feature u16, code u8/u16) per node.

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace wmp;

namespace {

struct SizeRow {
  std::string benchmark;
  std::string model;   // "SingleWMP" or "LearnedWMP"
  std::string family;  // "XGB", "DT", ...
  size_t bytes = 0;
};

std::string ToJson(const SizeRow& r) {
  return StrFormat(
      "{\"figure\":\"fig8_model_size\",\"benchmark\":\"%s\","
      "\"model\":\"%s\",\"family\":\"%s\",\"bytes\":%zu}",
      r.benchmark.c_str(), r.model.c_str(), r.family.c_str(), r.bytes);
}

struct FamilySizes {
  SizeRow single;
  SizeRow learned;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintRunBanner("Fig. 8", "serialized model size (kB)", args);

  std::vector<SizeRow> rows;
  for (workloads::Benchmark benchmark : workloads::AllBenchmarks()) {
    auto result = core::RunCoreExperiment(bench::MakeConfig(benchmark, args));
    if (!result.ok()) {
      std::cerr << "experiment failed: " << result.status() << "\n";
      return 1;
    }
    std::map<std::string, FamilySizes> by_family;
    for (const core::ModelReport& r : result->reports) {
      if (r.name == "SingleWMP-DBMS") continue;
      const bool learned = r.name.rfind("LearnedWMP-", 0) == 0;
      const std::string family = r.name.substr(r.name.find('-') + 1);
      SizeRow& row =
          learned ? by_family[family].learned : by_family[family].single;
      row.benchmark = result->benchmark;
      row.model = learned ? "LearnedWMP" : "SingleWMP";
      row.family = family;
      row.bytes = r.model_bytes;
    }
    TablePrinter table(
        StrFormat("Fig. 8 — %s model size (kB)", result->benchmark.c_str()));
    table.SetHeader({"family", "SingleWMP", "LearnedWMP", "Learned/Single"});
    for (const auto& [family, sizes] : by_family) {
      const SizeRow& s = sizes.single;
      const SizeRow& l = sizes.learned;
      table.AddRow(
          {family, StrFormat("%.1f", s.bytes / 1024.0),
           StrFormat("%.1f", l.bytes / 1024.0),
           StrFormat("%.0f%%", 100.0 * static_cast<double>(l.bytes) /
                                   static_cast<double>(s.bytes))});
      rows.push_back(s);
      rows.push_back(l);
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  // Machine-readable trajectory: one JSON record per (benchmark, model,
  // family) size.
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
  return 0;
}
