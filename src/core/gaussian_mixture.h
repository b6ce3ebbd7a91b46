#ifndef GMREG_CORE_GAUSSIAN_MIXTURE_H_
#define GMREG_CORE_GAUSSIAN_MIXTURE_H_

#include <string>
#include <vector>

namespace gmreg {

/// How the component precisions are initialized relative to the model
/// parameter's initialization precision (Sec. V-E). `min` below is one
/// tenth of the initialized model-parameter precision, so that the initial
/// regularization is weaker than the weight initialization spread.
enum class GmInitMethod {
  kIdentical,     ///< all precisions = min
  kLinear,        ///< linearly spaced over [min, K*min]  (paper's best)
  kProportional,  ///< geometric: min, 2*min, 4*min, ...
};

/// Parses "identical" / "linear" / "proportional"; aborts otherwise.
GmInitMethod ParseGmInitMethod(const std::string& name);
const char* GmInitMethodName(GmInitMethod method);

/// Most components a mixture may have. The E- and M-steps keep one value
/// per component on the stack (core/em.cc; the E-step kernel,
/// tensor/estep_kernel.h, up to kEStepMaxComponents); the factory and
/// every parser of a mixture, a gmreg-state record, suffstats or an E-step
/// request return OutOfRange above it.
inline constexpr int kMaxGmComponents = 64;

/// Zero-mean one-dimensional Gaussian mixture
///   p(x) = sum_k pi_k * N(x | 0, lambda_k)          (paper Eq. 4)
/// parameterized by mixing coefficients pi (summing to 1) and precisions
/// lambda (inverse variances). All model-parameter dimensions are assumed
/// i.i.d. from this mixture (Sec. III-A).
class GaussianMixture {
 public:
  /// pi and lambda must have equal size >= 1; pi must sum to ~1 and be
  /// non-negative; lambda must be positive.
  GaussianMixture(std::vector<double> pi, std::vector<double> lambda);

  /// Uniform mixing coefficients and precisions chosen by `method` from
  /// `min_precision` (Sec. V-E).
  static GaussianMixture Initialize(int num_components, GmInitMethod method,
                                    double min_precision);

  /// Restores parameters bit-exactly as stored — unlike the constructor it
  /// does NOT renormalize pi (a renormalizing division can perturb already-
  /// normalized values by an ulp, which would make a resumed training run
  /// diverge from the uninterrupted one). pi must already sum to 1 within
  /// 1e-6 and satisfy the usual validity rules; aborts otherwise. Used by
  /// the checkpoint path (io/checkpoint.h, GmRegularizer::LoadState).
  static GaussianMixture FromSerialized(std::vector<double> pi,
                                        std::vector<double> lambda);

  int num_components() const { return static_cast<int>(pi_.size()); }
  const std::vector<double>& pi() const { return pi_; }
  const std::vector<double>& lambda() const { return lambda_; }

  /// Cached log(pi_k) + 0.5*log(lambda_k) — the x-independent part of the
  /// component log-densities. Exposed for the E-step kernel
  /// (KernelOps::estep_f32, called from core/em.cc), which computes the
  /// same log-space softmax as Responsibilities() over vectors of weights.
  const std::vector<double>& log_coef() const { return log_coef_; }

  /// Replaces the parameters (revalidates; renormalizes pi).
  void Set(std::vector<double> pi, std::vector<double> lambda);

  /// In-place variant of Set for the per-step M-step (core/em.cc): copies
  /// from caller-owned arrays into the existing vectors (capacity reuse, so
  /// a same-K update performs zero allocations) and then runs the exact
  /// Validate + RefreshLogCoefficients sequence Set runs — results are
  /// bitwise identical to the Set path.
  void SetFromArrays(const double* pi, const double* lambda, int k);

  /// Mixture probability density at x.
  double Density(double x) const;

  /// log p(x); computed via max-shifted log-sum-exp.
  double LogDensity(double x) const;

  /// Responsibilities r_k(x) (paper Eq. 9) into r[0..K). Numerically
  /// stable (log-space softmax). Uses libm's exp; the E-step kernel uses
  /// its own and is tested against this one to a few ulps.
  void Responsibilities(double x, double* r) const;

  /// d(-log p(x))/dx = sum_k r_k(x) * lambda_k * x — the per-dimension
  /// `greg` (paper Eq. 10, second term).
  double RegGradient(double x) const;

  /// Number of components whose mixing coefficient exceeds `threshold`.
  int EffectiveComponents(double threshold = 0.01) const;

  /// "pi=[...], lambda=[...]" for logging.
  std::string ToString() const;

 private:
  GaussianMixture() = default;  // only via FromSerialized

  void Validate();
  void RefreshLogCoefficients();

  std::vector<double> pi_;
  std::vector<double> lambda_;
  // Cached log(pi_k) + 0.5*log(lambda_k), the x-independent part of the
  // component log-densities (the -x^2*lambda/2 part is added per element).
  std::vector<double> log_coef_;
};

}  // namespace gmreg

#endif  // GMREG_CORE_GAUSSIAN_MIXTURE_H_
