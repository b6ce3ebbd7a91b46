// Shared pieces of gmreg_bench: run options, the report every workload
// fills, the in-memory span log, and small statistics helpers.

#ifndef GMREG_PERFBENCH_BENCH_H_
#define GMREG_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gmreg {
namespace perfbench {

/// Monotonic nanoseconds; every timestamp the benchmark records uses it.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase; each workload derives its fixed run
  /// length (steps, request schedule) from it.
  double seconds = 10.0;
  /// Untraced measurement first, then a traced rerun for the per-layer
  /// metrics and the trace overhead.
  bool trace = false;
  std::string trace_file;  ///< span JSONL, written at exit when tracing
  std::string workdir;     ///< checkpoint files of the serve workloads
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` comes from the untraced
/// measurement, `per_layer` from the traced one; `details` are printed for
/// people but are not part of the result line.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::pair<std::string, Metric>> details;

  /// Records a failed output check (printed to stderr) and clears
  /// `correct`.
  void Fail(const std::string& why);
  void Detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, {value, unit}});
  }
  /// Sets a per-layer metric; it must be one of PerLayerCatalog().
  void Layer(const std::string& name, double value);
};

/// Every per-layer metric with its unit. Each workload reports all of them;
/// a module the workload does not run reports 0 (only shares, ratios,
/// rates and counts can be 0 this way, never a time).
const std::map<std::string, std::string>& PerLayerCatalog();

/// One span: `parent` is the index of the enclosing span or -1, `id` the
/// step or request it belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t id = 0;
};

/// Spans kept in memory during a traced run and written as JSONL at exit.
class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve) { spans_.reserve(reserve); }

  /// Starts a span now; its end is set by Close().
  int Open(const char* name, int parent, std::int64_t id);
  void Close(int span) {
    spans_[static_cast<std::size_t>(span)].end_ns = NowNs();
  }
  int Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends the spans to `path` as one JSON object per line (times in
  /// microseconds since the first span). False when the file cannot be
  /// written.
  bool AppendJsonl(const std::string& path, const std::string& workload) const;

 private:
  std::vector<Span> spans_;
};

/// Quantile `q` in [0, 1] with linear interpolation between order
/// statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// VmHWM of this process in MB.
double PeakRssMb();

/// Run the named workload and fill `report`. An unknown workload name is
/// reported on stderr and exits with code 2.
void RunTrainWorkload(const RunOptions& options, Report* report);
void RunServeWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench
}  // namespace gmreg

#endif  // GMREG_PERFBENCH_BENCH_H_
