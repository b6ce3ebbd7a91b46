#include "core/gm_regularizer.h"

#include <cmath>
#include <sstream>

#include "tensor/tensor_ops.h"
#include "util/string_util.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace gmreg {
namespace {

// Process-wide lazy-update accounting, shared by every GmRegularizer and
// surfaced through MetricsRegistry snapshots (docs/OBSERVABILITY.md).
struct GmCounters {
  Counter* esteps;
  Counter* msteps;
  Counter* greg_cache_hits;
};

GmCounters& GlobalGmCounters() {
  static GmCounters counters = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    return GmCounters{registry.counter("gm.esteps"),
                      registry.counter("gm.msteps"),
                      registry.counter("gm.greg_cache_hits")};
  }();
  return counters;
}

}  // namespace

double MinPrecisionFromInitStdDev(double init_stddev) {
  GMREG_CHECK_GT(init_stddev, 0.0);
  return 1.0 / (init_stddev * init_stddev) / 10.0;
}

GmRegularizer::GmRegularizer(std::string param_name, std::int64_t num_dims,
                             const GmOptions& options)
    : param_name_(std::move(param_name)),
      num_dims_(num_dims),
      options_(options),
      hyper_(GmHyperParams::FromRules(num_dims, options.num_components,
                                      options.gamma, options.a_factor,
                                      options.alpha_exponent)),
      gm_(GaussianMixture::Initialize(options.num_components,
                                      options.init_method,
                                      options.min_precision)),
      greg_({num_dims}) {
  GMREG_CHECK_GT(num_dims, 0);
  options_.lazy.Validate();
}

void GmRegularizer::SetMixture(GaussianMixture gm) {
  options_.num_components = gm.num_components();
  hyper_ = GmHyperParams::FromRules(num_dims_, gm.num_components(),
                                    options_.gamma, options_.a_factor,
                                    options_.alpha_exponent);
  gm_ = std::move(gm);
}

int GmRegularizer::num_threads_resolved() const {
  return ResolveNumThreads(options_.num_threads);
}

void GmRegularizer::CalcRegGrad(const Tensor& w) {
  RunPass(w, /*refresh_greg=*/true, /*update_gm=*/false);
}

void GmRegularizer::UptGmParam(const Tensor& w) {
  RunPass(w, /*refresh_greg=*/false, /*update_gm=*/true);
}

void GmRegularizer::RunPass(const Tensor& w, bool refresh_greg,
                            bool update_gm) {
  GMREG_CHECK_EQ(w.size(), num_dims_);
  Stopwatch watch;
  float* greg_out = refresh_greg ? greg_.data() : nullptr;
  GmSuffStats* stats = nullptr;
  if (update_gm) {
    stats_.Reset(gm_.num_components());
    stats = &stats_;
  }
  // One read of w under the current mixture serves both outputs: the greg
  // written here is the one the caller adds this step, and the statistics
  // feed the M-step below, which only then moves the mixture.
  if (estep_executor_ != nullptr) {
    estep_executor_->RunEStep(gm_, w.data(), num_dims_, greg_out, stats);
  } else {
    EStep(gm_, w.data(), num_dims_, greg_out, stats, options_.num_threads);
  }
  double estep_s = 0.0;
  if (refresh_greg) {
    estep_s = watch.ElapsedSeconds();
    estep_seconds_ += estep_s;
    ++estep_count_;
    GlobalGmCounters().esteps->Add(1);
  }
  if (update_gm) {
    MStep(stats_, hyper_, options_.bounds, &gm_);
    mstep_seconds_ += watch.ElapsedSeconds() - estep_s;
    ++mstep_count_;
    GlobalGmCounters().msteps->Add(1);
  }
}

void GmRegularizer::AccumulateGradient(const Tensor& w,
                                       std::int64_t iteration,
                                       std::int64_t epoch, double scale,
                                       Tensor* grad) {
  GMREG_CHECK_EQ(w.size(), num_dims_);
  GMREG_CHECK_EQ(grad->size(), num_dims_);
  // Algorithm 2: lines 4-7 refresh greg when inside warmup or on the Im
  // grid, lines 9-11 update the mixture when inside warmup or on the Ig
  // grid. Both read the same w under the same mixture, so one pass serves
  // whichever is due.
  bool refresh_greg = options_.lazy.ShouldUpdateGreg(iteration, epoch);
  bool update_gm = options_.lazy.ShouldUpdateGm(iteration, epoch);
  if (!refresh_greg) {
    ++greg_cache_hits_;
    GlobalGmCounters().greg_cache_hits->Add(1);
  }
  if (refresh_greg || update_gm) RunPass(w, refresh_greg, update_gm);
  // Line 8: use the (possibly cached) greg.
  Axpy(static_cast<float>(scale), greg_, grad);
}

double GmRegularizer::Penalty(const Tensor& w) const {
  GMREG_CHECK_EQ(w.size(), num_dims_);
  const float* wp = w.data();
  return ParallelChunkedSum(
      0, num_dims_,
      [&](std::int64_t b, std::int64_t e) {
        double acc = 0.0;
        for (std::int64_t m = b; m < e; ++m) acc -= gm_.LogDensity(wp[m]);
        return acc;
      },
      options_.num_threads);
}

bool GmRegularizer::SaveState(std::string* out) const {
  std::ostringstream oss;
  oss.precision(17);
  int k = gm_.num_components();
  oss << "gmreg-state v3 " << k;
  for (double p : gm_.pi()) oss << " " << p;
  for (double l : gm_.lambda()) oss << " " << l;
  oss << " hyper " << hyper_.a << " " << hyper_.b;
  for (double a : hyper_.alpha) oss << " " << a;
  oss << " counters " << estep_count_ << " " << mstep_count_ << " "
      << greg_cache_hits_;
  oss << " greg " << num_dims_;
  const float* g = greg_.data();
  for (std::int64_t m = 0; m < num_dims_; ++m) {
    oss << " " << StrFormat("%.9g", static_cast<double>(g[m]));
  }
  *out = oss.str();
  return true;
}

Status GmRegularizer::LoadState(const std::string& text) {
  std::istringstream iss(text);
  std::string magic, version, marker;
  int k = 0;
  if (!(iss >> magic >> version >> k) || magic != "gmreg-state") {
    return Status::InvalidArgument("not a 'gmreg-state' record");
  }
  if (version != "v2" && version != "v3") {
    return Status::InvalidArgument("unsupported gmreg-state version '" +
                                   version + "'");
  }
  if (k < 1 || k > kMaxGmComponents) {
    return Status::OutOfRange(StrFormat("component count %d outside [1, %d]",
                                        k, kMaxGmComponents));
  }
  auto ks = static_cast<std::size_t>(k);
  std::vector<double> pi(ks), lambda(ks), alpha(ks);
  for (double& p : pi) {
    if (!(iss >> p) || !std::isfinite(p) || p < 0.0) {
      return Status::InvalidArgument("bad pi in gmreg-state");
    }
  }
  for (double& l : lambda) {
    if (!(iss >> l) || !std::isfinite(l) || l <= 0.0) {
      return Status::InvalidArgument("bad lambda in gmreg-state");
    }
  }
  double a = 0.0, b = 0.0;
  if (!(iss >> marker >> a >> b) || marker != "hyper" || !std::isfinite(a) ||
      !std::isfinite(b)) {
    return Status::InvalidArgument("bad hyper section in gmreg-state");
  }
  for (double& al : alpha) {
    if (!(iss >> al) || !std::isfinite(al)) {
      return Status::InvalidArgument("bad alpha in gmreg-state");
    }
  }
  std::int64_t esteps = 0, msteps = 0, hits = 0;
  // v2 also carried the E/M wall-clock seconds; they are read and dropped.
  double v2_seconds[2] = {};
  if (!(iss >> marker >> esteps >> msteps >> hits) ||
      (version == "v2" && !(iss >> v2_seconds[0] >> v2_seconds[1])) ||
      marker != "counters" || esteps < 0 || msteps < 0 || hits < 0) {
    return Status::InvalidArgument("bad counters section in gmreg-state");
  }
  std::int64_t m_dims = 0;
  if (!(iss >> marker >> m_dims) || marker != "greg") {
    return Status::InvalidArgument("bad greg section in gmreg-state");
  }
  if (m_dims != num_dims_) {
    return Status::FailedPrecondition(
        StrFormat("gmreg-state has %lld dims, regularizer has %lld",
                  static_cast<long long>(m_dims),
                  static_cast<long long>(num_dims_)));
  }
  Tensor greg({num_dims_});
  float* g = greg.data();
  for (std::int64_t m = 0; m < num_dims_; ++m) {
    if (!(iss >> g[m]) || !std::isfinite(g[m])) {
      return Status::InvalidArgument("bad greg values in gmreg-state");
    }
  }
  std::string extra;
  if (iss >> extra) {
    return Status::InvalidArgument("trailing garbage in gmreg-state: '" +
                                   extra + "'");
  }
  double pi_total = 0.0;
  for (double p : pi) pi_total += p;
  if (std::abs(pi_total - 1.0) > 1e-6) {
    return Status::OutOfRange("gmreg-state pi is not normalized");
  }
  options_.num_components = k;
  gm_ = GaussianMixture::FromSerialized(std::move(pi), std::move(lambda));
  hyper_.a = a;
  hyper_.b = b;
  hyper_.alpha = std::move(alpha);
  estep_count_ = esteps;
  mstep_count_ = msteps;
  greg_cache_hits_ = hits;
  greg_ = std::move(greg);
  return Status::Ok();
}

void GmRegularizer::AppendMetrics(const std::string& prefix,
                                  MetricsRecord* record) const {
  record->AddDoubleList(prefix + ".lambda", gm_.lambda());
  record->AddDoubleList(prefix + ".pi", gm_.pi());
  record->AddInt(prefix + ".esteps", estep_count_);
  record->AddInt(prefix + ".msteps", mstep_count_);
  record->AddInt(prefix + ".greg_cache_hits", greg_cache_hits_);
  record->AddDouble(prefix + ".estep_seconds", estep_seconds_);
  record->AddDouble(prefix + ".mstep_seconds", mstep_seconds_);
  double sq = 0.0;
  const float* g = greg_.data();
  for (std::int64_t m = 0; m < num_dims_; ++m) {
    sq += static_cast<double>(g[m]) * static_cast<double>(g[m]);
  }
  record->AddDouble(prefix + ".greg_l2", std::sqrt(sq));
}

}  // namespace gmreg
