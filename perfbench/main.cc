// perfbench: the embed-and-serve benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--csr 1]
//
// --trace 0 runs the timed run and prints the end-to-end metrics; --trace 1
// runs the traced run and prints the per-layer metrics. Progress and check
// results go to stderr; the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --csr 1 embeds the CSR form of a compressed workload's graph: the walk
// engine's cost reference, not part of the benchmark's workloads.
// Stores, the Chrome trace and the per-layer table are written under
// .bench_out/<workload>/ in the working directory.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench.h"
#include "util/trace.h"

namespace {

int Usage(const char* why) {
  std::string names;
  for (const std::string& n : perfbench::WorkloadNames()) names += " " + n;
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--csr 1]\nworkloads:%s\n",
               why, names.c_str());
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

void PrintResult(const perfbench::RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.start_s = lightne::TraceClock::NowSeconds();
  std::string workload;
  std::string seed_text;
  double seconds = -1, trace = -1, csr = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    double* target = flag == "--seconds"   ? &seconds
                     : flag == "--trace"   ? &trace
                     : flag == "--csr"     ? &csr
                                           : nullptr;
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed_text = argv[i + 1];
    } else if (target == nullptr || !ParseNumber(argv[i + 1], target)) {
      return Usage(("bad argument " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  const perfbench::WorkloadSpec* found = perfbench::FindWorkload(workload);
  if (found == nullptr) return Usage("unknown workload");
  perfbench::WorkloadSpec spec = *found;
  if (csr != 0 && csr != 1) return Usage("--csr must be 0 or 1");
  if (csr == 1) spec.compressed = false;
  args.spec = &spec;
  char* seed_end = nullptr;
  args.seed = std::strtoull(seed_text.c_str(), &seed_end, 10);
  if (seed_text.empty() || seed_text[0] == '-' || *seed_end != '\0') {
    return Usage("bad --seed");
  }
  if (!(seconds > 0)) return Usage("bad --seconds");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  args.seconds = seconds;
  args.out_dir = ".bench_out/" + workload;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) return Usage(("cannot create " + args.out_dir).c_str());

  const perfbench::RunResult result = trace == 1
                                          ? perfbench::TracedRun(args)
                                          : perfbench::TimedRun(args);
  PrintResult(result);
  return result.metrics.empty() ? 1 : 0;
}
