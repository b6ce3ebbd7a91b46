#ifndef GMREG_TESTS_TESTUTIL_GMREG_TESTUTIL_H_
#define GMREG_TESTS_TESTUTIL_GMREG_TESTUTIL_H_

/// Shared test fixtures for the gmreg suites: the finite-difference
/// gradient checker, canonical weight distributions, thread-budget
/// scoping, bitwise tensor comparison, and temp-file paths. Every test
/// binary links against the `gmreg_testutil` target, so tolerances and
/// RNG-seeding conventions live in exactly one place
/// (docs/REGULARIZERS.md describes the contract the property suite
/// enforces with these helpers).

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/layer.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace gmreg {
namespace testing {

// ---------------------------------------------------------------------------
// Finite-difference gradient checking.

/// Default central-difference perturbation and tolerances. Forward math is
/// float32, so the tolerance combines a relative and an absolute term; the
/// defaults are shared by the layer checks and the regularizer property
/// suite so a tolerance change is a one-line, suite-wide decision.
inline constexpr double kFdEps = 1e-2;
inline constexpr double kFdRelTol = 2e-2;
inline constexpr double kFdAbsTol = 2e-3;

/// Projects `out` onto fixed random coefficients, giving a scalar loss
/// L = sum_i c_i * out_i whose gradient w.r.t. out is exactly c.
class ScalarProjection {
 public:
  ScalarProjection(const std::vector<std::int64_t>& out_shape, Rng* rng);

  double Loss(const Tensor& out) const;

  const Tensor& grad() const { return coeffs_; }

 private:
  Tensor coeffs_;
};

/// Checks the analytic input-gradient and parameter-gradients of `layer`
/// against central finite differences on a random projection loss.
/// `eps` is the perturbation; float32 forward math limits precision, so the
/// tolerance combines a relative and an absolute term.
void CheckLayerGradients(Layer* layer, const Tensor& input, Rng* rng,
                         double eps = kFdEps, double rel_tol = kFdRelTol,
                         double abs_tol = kFdAbsTol);

/// Fills a tensor with uniform values in [-1, 1].
Tensor RandomTensor(const std::vector<std::int64_t>& shape, Rng* rng);

// ---------------------------------------------------------------------------
// Canonical weight fixtures.

/// The bench's bimodal weight distribution: mostly near-zero plus a wide
/// tail, which keeps all mixture components active. (Shared with
/// tests/gm_parallel_test.cc and the bench drivers' fixtures.)
std::vector<float> MakeBimodalWeights(std::int64_t n, std::uint64_t seed);

/// MakeBimodalWeights packed into a rank-1 tensor.
Tensor MakeBimodalWeightTensor(std::int64_t n, std::uint64_t seed);

/// Uniform weights with |w| >= min_abs: every element sits at least
/// `min_abs` away from zero (and from ±kink for any kink magnitude
/// below min_abs - eps), so central differences with eps << min_abs
/// never straddle a non-smooth point of L1/elastic/Huber penalties.
Tensor RandomWeightsAwayFromKinks(std::int64_t n, std::uint64_t seed,
                                  double min_abs = 0.05,
                                  const std::vector<double>& kinks = {});

// ---------------------------------------------------------------------------
// Thread-budget scoping.

/// RAII override of the process-wide default thread budget
/// (SetDefaultNumThreads). Restores the previous "no override" state on
/// destruction, so a test that pins the budget to 1/2/4 threads cannot
/// leak the pin into later tests in the same binary.
class ScopedThreadBudget {
 public:
  explicit ScopedThreadBudget(int num_threads);
  ~ScopedThreadBudget();

  ScopedThreadBudget(const ScopedThreadBudget&) = delete;
  ScopedThreadBudget& operator=(const ScopedThreadBudget&) = delete;
};

// ---------------------------------------------------------------------------
// Comparison and filesystem helpers.

/// Expects a == b element-for-element at the bit level (float compared
/// through memcmp-equivalent casts, so -0.0 != +0.0 and NaNs with equal
/// payloads compare equal). `what` labels the failure message.
void ExpectTensorBitwiseEqual(const Tensor& a, const Tensor& b,
                              const std::string& what);

/// A path under gtest's per-run temp directory.
std::string TempPath(const std::string& name);

}  // namespace testing
}  // namespace gmreg

#endif  // GMREG_TESTS_TESTUTIL_GMREG_TESTUTIL_H_
