#ifndef GMREG_TESTS_REGULARIZER_PROPERTY_SUITE_H_
#define GMREG_TESTS_REGULARIZER_PROPERTY_SUITE_H_

/// The shared correctness contract every factory-registered regularizer is
/// held to (docs/REGULARIZERS.md). Each factory example config gets one
/// RegContractSpec declaring which optional guarantees the prior makes; the
/// parameterized suite in regularizer_property_suite.cc then runs the same
/// battery over all of them:
///
///   * penalty finite (and non-negative where declared);
///   * analytic gradient agrees with central finite differences of
///     Penalty, away from declared kinks;
///   * adaptive M-steps never increase the penalty on fixed weights
///     (where declared — MAP-EM priors with hyper-priors on the mixture
///     ascend a different objective and opt out);
///   * run-to-run bitwise determinism at 1, 2 and 4 threads;
///   * bitwise-identical weights, penalty and state across thread budgets
///     (every reduction runs over ParallelChunkedSum's fixed chunks);
///   * checkpoint SaveState -> LoadState -> step is bit-exact, the state
///     record included, and LoadState rejects garbage.
///
/// Registering a new kind in the factory without adding a spec here fails
/// the suite's coverage test — that is the gate that makes the next prior
/// (ROADMAP: GMRF mixture) a small follow-up instead of a bespoke test
/// effort.

#include <string>
#include <vector>

namespace gmreg {
namespace testing {

/// Field order matters to test names: gtest has no printer for this struct,
/// so every discovered ctest name ends in a raw byte dump of the spec. The
/// flags lead so that the dump opens with fixed data. A leading std::string
/// would open it with a heap address, which address-space randomization
/// moves from build to build, and the names would change with it.
struct RegContractSpec {
  /// Penalty(w) >= 0 for all w. True for the norm family and dynprior;
  /// false for density-based priors whose -log p(w) can go negative.
  bool penalty_nonnegative = true;
  /// Repeated adaptive updates on fixed weights never increase Penalty.
  bool monotone_penalty = false;
  /// Carries mutable training state (SaveState returns true).
  bool adaptive = false;
  /// Factory config string (one of RegularizerExampleConfigs()).
  std::string config;
  /// |w| magnitudes where the penalty is non-smooth (0 = kink at zero);
  /// the FD gradient check samples weights away from these.
  std::vector<double> kinks;
};

/// One spec per factory example config, in RegularizerExampleConfigs()
/// order. The suite cross-checks this list against RegularizerKinds() and
/// RegularizerExampleConfigs(), so the three lists cannot drift apart
/// silently.
std::vector<RegContractSpec> AllRegContractSpecs();

}  // namespace testing
}  // namespace gmreg

#endif  // GMREG_TESTS_REGULARIZER_PROPERTY_SUITE_H_
