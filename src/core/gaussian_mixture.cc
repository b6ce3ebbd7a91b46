#include "core/gaussian_mixture.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace gmreg {
namespace {
constexpr double kHalfLog2Pi = 0.9189385332046727;  // 0.5 * log(2*pi)
}  // namespace

GmInitMethod ParseGmInitMethod(const std::string& name) {
  if (name == "identical") return GmInitMethod::kIdentical;
  if (name == "linear") return GmInitMethod::kLinear;
  if (name == "proportional") return GmInitMethod::kProportional;
  GMREG_CHECK(false) << "unknown GM init method: " << name;
  __builtin_unreachable();
}

const char* GmInitMethodName(GmInitMethod method) {
  switch (method) {
    case GmInitMethod::kIdentical:
      return "identical";
    case GmInitMethod::kLinear:
      return "linear";
    case GmInitMethod::kProportional:
      return "proportional";
  }
  return "?";
}

GaussianMixture::GaussianMixture(std::vector<double> pi,
                                 std::vector<double> lambda)
    : pi_(std::move(pi)), lambda_(std::move(lambda)) {
  Validate();
  RefreshLogCoefficients();
}

GaussianMixture GaussianMixture::Initialize(int num_components,
                                            GmInitMethod method,
                                            double min_precision) {
  GMREG_CHECK_GE(num_components, 1);
  GMREG_CHECK_GT(min_precision, 0.0);
  std::vector<double> pi(static_cast<std::size_t>(num_components),
                         1.0 / num_components);
  std::vector<double> lambda(static_cast<std::size_t>(num_components));
  for (int k = 0; k < num_components; ++k) {
    double value = min_precision;
    switch (method) {
      case GmInitMethod::kIdentical:
        break;
      case GmInitMethod::kLinear:
        // Linearly spaced over [min, K*min].
        if (num_components > 1) {
          value = min_precision +
                  static_cast<double>(k) *
                      (num_components * min_precision - min_precision) /
                      static_cast<double>(num_components - 1);
        }
        break;
      case GmInitMethod::kProportional:
        // Each precision doubles the previous one, starting at min.
        value = min_precision * std::pow(2.0, k);
        break;
    }
    lambda[static_cast<std::size_t>(k)] = value;
  }
  return GaussianMixture(std::move(pi), std::move(lambda));
}

GaussianMixture GaussianMixture::FromSerialized(std::vector<double> pi,
                                                std::vector<double> lambda) {
  GMREG_CHECK_GE(pi.size(), 1u);
  GMREG_CHECK_EQ(pi.size(), lambda.size());
  double total = 0.0;
  for (double p : pi) {
    GMREG_CHECK_GE(p, 0.0);
    total += p;
  }
  GMREG_CHECK_LE(std::abs(total - 1.0), 1e-6)
      << "serialized pi must already be normalized";
  for (double l : lambda) GMREG_CHECK_GT(l, 0.0);
  GaussianMixture gm;
  gm.pi_ = std::move(pi);
  gm.lambda_ = std::move(lambda);
  gm.RefreshLogCoefficients();
  return gm;
}

void GaussianMixture::Set(std::vector<double> pi, std::vector<double> lambda) {
  pi_ = std::move(pi);
  lambda_ = std::move(lambda);
  Validate();
  RefreshLogCoefficients();
}

void GaussianMixture::SetFromArrays(const double* pi, const double* lambda,
                                    int k) {
  GMREG_CHECK_GE(k, 1);
  pi_.assign(pi, pi + k);
  lambda_.assign(lambda, lambda + k);
  Validate();
  RefreshLogCoefficients();
}

void GaussianMixture::Validate() {
  GMREG_CHECK_GE(pi_.size(), 1u);
  GMREG_CHECK_EQ(pi_.size(), lambda_.size());
  double total = 0.0;
  for (double p : pi_) {
    GMREG_CHECK_GE(p, 0.0);
    total += p;
  }
  GMREG_CHECK_GT(total, 0.0);
  // Renormalize so downstream math can rely on sum(pi) == 1 exactly.
  for (double& p : pi_) p /= total;
  for (double l : lambda_) GMREG_CHECK_GT(l, 0.0);
}

void GaussianMixture::RefreshLogCoefficients() {
  log_coef_.resize(pi_.size());
  for (std::size_t k = 0; k < pi_.size(); ++k) {
    // Dead components (pi == 0 after a floor) get -inf coefficient, i.e.
    // zero responsibility.
    log_coef_[k] = (pi_[k] > 0.0 ? std::log(pi_[k]) : -1e300) +
                   0.5 * std::log(lambda_[k]);
  }
}

double GaussianMixture::Density(double x) const {
  return std::exp(LogDensity(x));
}

double GaussianMixture::LogDensity(double x) const {
  double best = -1e300;
  std::size_t kk = pi_.size();
  // log component k = log_coef_k - 0.5*lambda_k*x^2 - 0.5*log(2*pi)
  double acc = 0.0;
  for (std::size_t k = 0; k < kk; ++k) {
    best = std::max(best, log_coef_[k] - 0.5 * lambda_[k] * x * x);
  }
  for (std::size_t k = 0; k < kk; ++k) {
    acc += std::exp(log_coef_[k] - 0.5 * lambda_[k] * x * x - best);
  }
  return best + std::log(acc) - kHalfLog2Pi;
}

void GaussianMixture::Responsibilities(double x, double* r) const {
  std::size_t kk = pi_.size();
  double best = -1e300;
  for (std::size_t k = 0; k < kk; ++k) {
    r[k] = log_coef_[k] - 0.5 * lambda_[k] * x * x;
    best = std::max(best, r[k]);
  }
  double denom = 0.0;
  for (std::size_t k = 0; k < kk; ++k) {
    r[k] = std::exp(r[k] - best);
    denom += r[k];
  }
  for (std::size_t k = 0; k < kk; ++k) r[k] /= denom;
}

double GaussianMixture::RegGradient(double x) const {
  std::size_t kk = pi_.size();
  if (kk == 1) return lambda_[0] * x;
  double r[kMaxGmComponents];
  Responsibilities(x, r);
  double acc = 0.0;
  for (std::size_t k = 0; k < kk; ++k) acc += r[k] * lambda_[k];
  return acc * x;
}

int GaussianMixture::EffectiveComponents(double threshold) const {
  int count = 0;
  for (double p : pi_) {
    if (p > threshold) ++count;
  }
  return count;
}

std::string GaussianMixture::ToString() const {
  return "pi=" + FormatVector(pi_, 3) + ", lambda=" + FormatVector(lambda_, 3);
}

}  // namespace gmreg
