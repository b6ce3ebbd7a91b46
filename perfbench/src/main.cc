// gmreg_bench: runs one benchmark workload and prints every metric by name
// with its unit, then one JSON result line:
//
//   gmreg_bench --workload=train-gm-eager --seed=1 --seconds=10 [--trace]
//
// Without --trace the result carries the end-to-end metrics; with it the
// workload is measured untraced and then rerun with spans, and the result
// carries the per-layer metrics. perfbench/run.py builds this binary and
// runs each workload in its own process; README.md describes the
// workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "util/json_writer.h"
#include "util/metrics.h"

namespace gmreg {
namespace perfbench {
namespace {

bool FlagValue(const char* arg, const char* name, std::string* value) {
  std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=NAME [--seed=N] [--seconds=S] [--trace]\n"
               "          [--trace-file=PATH] [--workdir=DIR]\n"
               "  workloads: train-gm-eager train-gm-lazy serve-mlp-rows1\n"
               "             serve-alex-rows8-swap\n",
               argv0);
}

void PrintMetric(const std::string& name, const Metric& m) {
  std::printf("  %-28s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
}

std::string ResultLine(const Report& report, bool trace) {
  JsonWriter w;
  w.BeginObject()
      .Key("correct").Bool(report.correct)
      .Key("attempted").Int(report.attempted)
      .Key("failed").Int(report.failed)
      .Key("metrics").BeginObject();
  for (const auto& [name, m] : trace ? report.per_layer : report.end_to_end) {
    w.Key(name).BeginObject()
        .Key("value").Double(m.value)
        .Key("unit").String(m.unit)
        .EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (FlagValue(arg, "--workload", &value)) {
      options.workload = value;
    } else if (FlagValue(arg, "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (FlagValue(arg, "--seconds", &value)) {
      options.seconds = std::atof(value.c_str());
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.trace = true;
    } else if (FlagValue(arg, "--trace-file", &value)) {
      options.trace_file = value;
    } else if (FlagValue(arg, "--workdir", &value)) {
      options.workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      Usage(argv[0]);
      return 2;
    }
  }
  if (options.seconds <= 0.0 || options.seconds > 60.0) {
    std::fprintf(stderr, "--seconds must be in (0, 60]\n");
    return 2;
  }
  if (options.workdir.empty()) options.workdir = ".";
  if (options.trace_file.empty()) {
    options.trace_file = "gmreg_bench_trace.jsonl";
  }

  Report report;
  if (options.trace) {
    // A module this workload does not run keeps its 0.
    for (const auto& [name, unit] : PerLayerCatalog()) report.Layer(name, 0.0);
  }
  if (options.workload.rfind("train-", 0) == 0) {
    RunTrainWorkload(options, &report);
  } else if (options.workload.rfind("serve-", 0) == 0) {
    RunServeWorkload(options, &report);
  } else {
    Usage(argv[0]);
    return 2;
  }
  // 0 scalar, 1 AVX2, 2 AVX-512 (tensor/gemm_kernel.h); set on first GEMM.
  report.Detail("kernel_tier",
                MetricsRegistry::Global().gauge("gm.kernel.tier")->value(),
                "tier");

  std::printf("gmreg_bench: workload %s, seed %llu, %g s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf(" end-to-end%s:\n", options.trace ? " (untraced pass)" : "");
  for (const auto& [name, m] : report.end_to_end) PrintMetric(name, m);
  if (!report.per_layer.empty()) {
    std::printf(" per-layer%s:\n", options.trace ? " (traced pass)" : "");
    for (const auto& [name, m] : report.per_layer) PrintMetric(name, m);
  }
  std::printf(" details:\n");
  for (const auto& [name, m] : report.details) PrintMetric(name, m);
  std::printf("  %-28s %14lld %s\n", "ops_attempted",
              static_cast<long long>(report.attempted), "count");
  std::printf("  %-28s %14lld %s\n", "ops_failed",
              static_cast<long long>(report.failed), "count");
  std::printf("%s\n", ResultLine(report, options.trace).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace gmreg

int main(int argc, char** argv) { return gmreg::perfbench::Main(argc, argv); }
