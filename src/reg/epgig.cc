#include "reg/epgig.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace gmreg {
namespace {

double Clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

}  // namespace

const char* EpGigModeName(EpGigMode mode) {
  return mode == EpGigMode::kLaplace ? "laplace" : "student";
}

EpGigReg::EpGigReg(std::int64_t num_dims, const EpGigOptions& options)
    : num_dims_(num_dims), options_(options) {
  GMREG_CHECK_GT(num_dims, 0);
  GMREG_CHECK_GT(options.nu, 0.0);
  GMREG_CHECK_GT(options.hyper_min, 0.0);
  GMREG_CHECK_GT(options.hyper_max, options.hyper_min);
  GMREG_CHECK_GE(options.interval, 1);
  GMREG_CHECK_GE(options.warmup_epochs, 0);
  double init =
      options.mode == EpGigMode::kLaplace ? options.alpha : options.tau;
  GMREG_CHECK_GT(init, 0.0);
  hyper_ = Clamp(init, options.hyper_min, options.hyper_max);
}

void EpGigReg::UpdateHyper(const Tensor& w) {
  GMREG_CHECK_EQ(w.size(), num_dims_);
  const float* wp = w.data();
  double suffstat = 0.0;
  if (options_.mode == EpGigMode::kLaplace) {
    // Sufficient statistic of the exponential mixing: S1 = sum |w_m|.
    suffstat = ParallelChunkedSum(
        0, num_dims_, [&](std::int64_t b, std::int64_t e) {
          double acc = 0.0;
          for (std::int64_t m = b; m < e; ++m) {
            acc += std::fabs(static_cast<double>(wp[m]));
          }
          return acc;
        });
    last_suffstat_mean_ = suffstat / static_cast<double>(num_dims_);
    // alpha* = M / S1 minimizes alpha*S1 - M*log(alpha/2) exactly, so the
    // clamped jump from the current alpha never increases the penalty
    // (convex in alpha, and the clamp cannot overshoot the minimizer).
    double target = suffstat > 0.0
                        ? static_cast<double>(num_dims_) / suffstat
                        : options_.hyper_max;
    hyper_ = Clamp(target, options_.hyper_min, options_.hyper_max);
  } else {
    // E-step: s_m = E[lambda_m | w_m] under the Gamma(nu/2, nu/(2 tau))
    // mixing evaluated at the current tau; M-step: tau <- mean(s).
    double nu = options_.nu;
    double tau = hyper_;
    suffstat = ParallelChunkedSum(
        0, num_dims_, [&](std::int64_t b, std::int64_t e) {
          double acc = 0.0;
          for (std::int64_t m = b; m < e; ++m) {
            double x = static_cast<double>(wp[m]);
            acc += (nu + 1.0) * tau / (nu + tau * x * x);
          }
          return acc;
        });
    last_suffstat_mean_ = suffstat / static_cast<double>(num_dims_);
    hyper_ = Clamp(last_suffstat_mean_, options_.hyper_min,
                   options_.hyper_max);
  }
  ++mstep_count_;
}

void EpGigReg::AccumulateGradient(const Tensor& w, std::int64_t iteration,
                                  std::int64_t epoch, double scale,
                                  Tensor* grad) {
  GMREG_CHECK_EQ(w.size(), num_dims_);
  GMREG_CHECK_EQ(grad->size(), num_dims_);
  const float* wp = w.data();
  float* gp = grad->data();
  // The gradient of the marginal -log p(w) under the *current* hyper: this
  // mirrors the GM prior's E-before-M ordering, so Penalty() right after
  // this call reports the post-update prior.
  if (options_.mode == EpGigMode::kLaplace) {
    auto s = static_cast<float>(scale * hyper_);
    ParallelFor(0, num_dims_, kChunkGrain, [&](std::int64_t b,
                                               std::int64_t e) {
      for (std::int64_t m = b; m < e; ++m) {
        if (wp[m] > 0.0f) {
          gp[m] += s;
        } else if (wp[m] < 0.0f) {
          gp[m] -= s;
        }
      }
    });
  } else {
    double nu = options_.nu;
    double tau = hyper_;
    ParallelFor(0, num_dims_, kChunkGrain, [&](std::int64_t b,
                                               std::int64_t e) {
      for (std::int64_t m = b; m < e; ++m) {
        double x = static_cast<double>(wp[m]);
        // d/dw of ((nu+1)/2) log(1 + tau w^2 / nu): a per-element pure
        // function, so disjoint writes are bitwise budget-independent.
        gp[m] += static_cast<float>(scale * (nu + 1.0) * tau * x /
                                    (nu + tau * x * x));
      }
    });
  }
  if (epoch < options_.warmup_epochs || iteration % options_.interval == 0) {
    UpdateHyper(w);
  }
}

double EpGigReg::Penalty(const Tensor& w) const {
  GMREG_CHECK_EQ(w.size(), num_dims_);
  const float* wp = w.data();
  auto md = static_cast<double>(num_dims_);
  if (options_.mode == EpGigMode::kLaplace) {
    double s1 = ParallelChunkedSum(
        0, num_dims_, [&](std::int64_t b, std::int64_t e) {
          double acc = 0.0;
          for (std::int64_t m = b; m < e; ++m) {
            acc += std::fabs(static_cast<double>(wp[m]));
          }
          return acc;
        });
    return hyper_ * s1 - md * std::log(hyper_ / 2.0);
  }
  double nu = options_.nu;
  double tau = hyper_;
  double acc = ParallelChunkedSum(
      0, num_dims_, [&](std::int64_t b, std::int64_t e) {
        double part = 0.0;
        for (std::int64_t m = b; m < e; ++m) {
          double x = static_cast<double>(wp[m]);
          part += std::log1p(tau * x * x / nu);
        }
        return part;
      });
  return 0.5 * (nu + 1.0) * acc - 0.5 * md * std::log(tau);
}

void EpGigReg::AppendMetrics(const std::string& prefix,
                             MetricsRecord* record) const {
  record->AddString(prefix + ".mode", EpGigModeName(options_.mode));
  record->AddDouble(prefix + ".hyper", hyper_);
  record->AddInt(prefix + ".msteps", mstep_count_);
  record->AddDouble(prefix + ".suffstat_mean", last_suffstat_mean_);
}

bool EpGigReg::SaveState(std::string* out) const {
  std::ostringstream oss;
  oss.precision(17);
  oss << "epgig-state v1 " << EpGigModeName(options_.mode) << " " << hyper_
      << " " << mstep_count_ << " " << last_suffstat_mean_;
  *out = oss.str();
  return true;
}

Status EpGigReg::LoadState(const std::string& text) {
  std::istringstream iss(text);
  std::string magic, version, mode;
  double hyper = 0.0, suffstat = 0.0;
  std::int64_t msteps = 0;
  if (!(iss >> magic >> version) || magic != "epgig-state") {
    return Status::InvalidArgument("not an 'epgig-state' record");
  }
  if (version != "v1") {
    return Status::InvalidArgument("unsupported epgig-state version '" +
                                   version + "'");
  }
  if (!(iss >> mode >> hyper >> msteps >> suffstat)) {
    return Status::InvalidArgument("truncated epgig-state record");
  }
  if (mode != EpGigModeName(options_.mode)) {
    return Status::FailedPrecondition(
        StrFormat("epgig-state mode '%s' does not match configured '%s'",
                  mode.c_str(), EpGigModeName(options_.mode)));
  }
  if (!std::isfinite(hyper) || hyper < options_.hyper_min ||
      hyper > options_.hyper_max) {
    return Status::OutOfRange("epgig-state hyper outside configured clamp");
  }
  if (msteps < 0 || !std::isfinite(suffstat)) {
    return Status::InvalidArgument("bad counters in epgig-state");
  }
  std::string extra;
  if (iss >> extra) {
    return Status::InvalidArgument("trailing garbage in epgig-state: '" +
                                   extra + "'");
  }
  hyper_ = hyper;
  mstep_count_ = msteps;
  last_suffstat_mean_ = suffstat;
  return Status::Ok();
}

}  // namespace gmreg
