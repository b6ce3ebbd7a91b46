#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/json_writer.h"
#include "util/logging.h"

namespace gmreg {
namespace perfbench {

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "gmreg_bench: CHECK FAILED: %s\n", why.c_str());
  correct = false;
}

void Report::Layer(const std::string& name, double value) {
  auto it = PerLayerCatalog().find(name);
  GMREG_CHECK(it != PerLayerCatalog().end()) << "unknown metric " << name;
  per_layer[name] = {value, it->second};
}

const std::map<std::string, std::string>& PerLayerCatalog() {
  static const std::map<std::string, std::string> catalog = {
      // Every workload. p50_ms and tail_ms are the step or request latency
      // of the untraced pass; they vary too much between runs on a shared
      // machine to bound.
      {"p50_ms", "ms"},
      {"tail_ms", "ms"},
      {"nn.forward_ms", "ms"},
      {"tensor.gemm_gflops", "GFLOP/s"},
      {"util.arena_plan_rebuilds", "count"},
      {"util.arena_steady_allocs", "count"},
      {"trace_overhead_pct", "%"},
      // Training: shares of the timed steps' wall time, and the prior.
      {"data.batch_share", "fraction"},
      {"nn.forward_share", "fraction"},
      {"nn.loss_share", "fraction"},
      {"nn.backward_share", "fraction"},
      {"core.reg_share", "fraction"},
      {"optim.sgd_share", "fraction"},
      {"core.esteps_per_step", "count"},
      {"core.greg_cache_hit_ratio", "fraction"},
      {"core.estep_gweights_per_s", "G/s"},
      {"core.mstep_gweights_per_s", "G/s"},
      // Serving: shares of the mean client round trip, and the server.
      {"serve.transport_share", "fraction"},
      {"serve.handler_share", "fraction"},
      {"serve.queue_wait_share", "fraction"},
      {"serve.model_share", "fraction"},
      {"serve.batch_size_mean", "rows"},
      {"serve.reloads", "count"},
      {"serve.rebinds", "count"},
      {"serve.shed", "count"},
      {"serve.errors", "count"},
      {"serve.gen_late_share", "fraction"},
      {"io.checkpoint_mb_per_s", "MB/s"},
  };
  return catalog;
}

int SpanLog::Open(const char* name, int parent, std::int64_t id) {
  return Add(name, NowNs(), 0, parent, id);
}

int SpanLog::Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent, std::int64_t id) {
  spans_.push_back({name, start_ns, end_ns, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::AppendJsonl(const std::string& path,
                          const std::string& workload) const {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonWriter w;
    w.BeginObject()
        .Key("workload").String(workload)
        .Key("span").Int(static_cast<std::int64_t>(i))
        .Key("name").String(s.name)
        .Key("start_us").Double(static_cast<double>(s.start_ns - origin) / 1e3)
        .Key("end_us").Double(static_cast<double>(s.end_ns - origin) / 1e3)
        .Key("parent").Int(s.parent)
        .Key("id").Int(s.id)
        .EndObject();
    out << w.str() << '\n';
  }
  return static_cast<bool>(out);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + std::strlen("VmHWM:"), nullptr) /
             1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
}  // namespace gmreg
