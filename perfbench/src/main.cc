// wmpbench — the repository benchmark's load generator and runner (see
// README.md).
//
//   wmpbench --workload NAME --seed N --seconds S --trace 0|1
//            --wmpctl PATH --workdir DIR --trace-out PATH
//
// Prints a human summary on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. Exits 1 on a failed request, a prediction that is not bitwise the
// in-process reference, or a set-up failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wmpbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --wmpctl PATH --workdir DIR --trace-out PATH\n");
  return 2;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "wmpctl", "workdir",
        "trace-out"}) {
    if (!args.count(required)) return Usage();
  }
  perfbench::Options o;
  o.workload = args["workload"];
  o.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  o.seconds = std::atof(args["seconds"].c_str());
  o.trace = args["trace"] == "1";
  o.wmpctl = args["wmpctl"];
  o.workdir = args["workdir"];
  o.trace_path = args["trace-out"];
  if (o.seconds <= 0) return Usage();

  perfbench::RunResult result;
  try {
    result = perfbench::RunWorkload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wmpbench: %s\n", e.what());
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!result.correct) {
    std::fprintf(stderr, "wmpbench: %llu of %llu requests failed or "
                 "mismatched the reference\n",
                 static_cast<unsigned long long>(result.failed),
                 static_cast<unsigned long long>(result.attempted));
    return 1;
  }
  return 0;
}
