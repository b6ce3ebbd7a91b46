#ifndef GMREG_CORE_GM_REGULARIZER_H_
#define GMREG_CORE_GM_REGULARIZER_H_

#include <string>

#include "core/em.h"
#include "core/gaussian_mixture.h"
#include "core/hyper.h"
#include "reg/regularizer.h"
#include "util/logging.h"

namespace gmreg {

/// Lazy-update schedule (paper Algorithm 2 / Sec. III-D). During the first
/// `warmup_epochs` (the paper's E) every iteration runs both the E-step and
/// the M-step; afterwards `greg` is recomputed only every `greg_interval`
/// (Im) iterations and the GM parameters only every `gm_interval` (Ig)
/// iterations, with the cached `greg` reused in between.
struct LazySchedule {
  int warmup_epochs = 2;            ///< E
  std::int64_t greg_interval = 1;   ///< Im
  std::int64_t gm_interval = 1;     ///< Ig

  /// Aborts on intervals < 1 (an interval of 0 would divide by zero in the
  /// Should* predicates) or a negative warmup. Called by GmRegularizer at
  /// construction; the factory additionally rejects such configs with a
  /// Status at parse time.
  void Validate() const {
    GMREG_CHECK_GE(warmup_epochs, 0);
    GMREG_CHECK_GE(greg_interval, 1);
    GMREG_CHECK_GE(gm_interval, 1);
  }

  bool ShouldUpdateGreg(std::int64_t iteration, std::int64_t epoch) const {
    return epoch < warmup_epochs || iteration % greg_interval == 0;
  }
  bool ShouldUpdateGm(std::int64_t iteration, std::int64_t epoch) const {
    return epoch < warmup_epochs || iteration % gm_interval == 0;
  }
};

/// All knobs of the adaptive GM regularization, with the paper's defaults.
struct GmOptions {
  int num_components = 4;        ///< initial K (Sec. V-B1: 4 is best)
  double gamma = 0.005;          ///< b = gamma * M
  double a_factor = 0.01;        ///< a = 1 + a_factor * b
  double alpha_exponent = 0.5;   ///< alpha_k = M^alpha_exponent
  GmInitMethod init_method = GmInitMethod::kLinear;
  /// Precision of the smallest initial component. The Sec. V-E rule is one
  /// tenth of the initialized model-parameter precision; callers usually
  /// derive it via MinPrecisionFromInitStdDev.
  double min_precision = 10.0;
  /// Thread budget for the E-step / Penalty passes: <= 0 uses the
  /// GMREG_NUM_THREADS / hardware default (util/parallel.h), 1 runs them on
  /// the calling thread. Results are bitwise identical at every budget.
  int num_threads = 0;
  LazySchedule lazy;
  GmBounds bounds;
};

/// Sec. V-E rule: min = (1/stddev^2) / 10.
double MinPrecisionFromInitStdDev(double init_stddev);

/// Pluggable execution backend for the fused E-step pass. By default a
/// GmRegularizer runs EStep() in process; installing an executor reroutes
/// every pass — greg refresh, suffstats, or both at once — through it — this is how the distributed coordinator (src/dist) offloads the
/// E-step over worker weight slices. Implementations must honor the
/// determinism contract: for a fixed executor configuration the outputs
/// are bitwise reproducible, greg elementwise and the suffstats through a
/// fixed-order merge (docs/DISTRIBUTED.md).
class GmEStepExecutor {
 public:
  virtual ~GmEStepExecutor() = default;

  /// Runs one fused pass of `gm` over the `n` weights at `w`: writes
  /// greg[m] = sum_k r_k lambda_k w_m into `greg_out` (unless null) and
  /// accumulates responsibilities into `stats` (unless null; already
  /// Reset to gm.num_components()).
  virtual void RunEStep(const GaussianMixture& gm, const float* w,
                        std::int64_t n, float* greg_out,
                        GmSuffStats* stats) = 0;
};

/// The paper's adaptive regularization tool for one parameter tensor.
/// Implements Algorithms 1 and 2: each training iteration interleaves
///   E-step   (calResponsibility + calcRegGrad, maybe lazily skipped)
///   greg use (AccumulateGradient adds the cached greg)
///   M-step   (uptGMParam, maybe lazily skipped)
/// with the SGD step performed by the caller (Trainer).
class GmRegularizer : public Regularizer {
 public:
  /// `num_dims` is M, the parameter tensor's element count; it fixes the
  /// hyper-parameters through the automatic rules.
  GmRegularizer(std::string param_name, std::int64_t num_dims,
                const GmOptions& options);

  // Regularizer interface -------------------------------------------------

  /// One interleaved update (Algorithm 2 lines 4-11): possibly refresh
  /// greg / GM parameters per the lazy schedule, then add scale * greg to
  /// `grad`.
  void AccumulateGradient(const Tensor& w, std::int64_t iteration,
                          std::int64_t epoch, double scale,
                          Tensor* grad) override;
  double Penalty(const Tensor& w) const override;
  std::string Name() const override { return "GM Reg"; }

  /// Appends `<prefix>.lambda` / `<prefix>.pi` (the learned mixture, K
  /// entries each), the estep/mstep/cache-hit counters, their cumulative
  /// seconds, and `<prefix>.greg_l2` (L2 norm of the cached regularization
  /// gradient) — the per-regularizer slice of a training trace.
  void AppendMetrics(const std::string& prefix,
                     MetricsRecord* record) const override;

  /// Serializes the full adaptive state as one `gmreg-state v3` line: the
  /// mixture (π, λ), the Dirichlet/Gamma hypers (a, b, α — persisted
  /// verbatim, not re-derived, unlike SetMixture), the lazy-update counters
  /// and the cached `greg` vector. With all of these restored, a resumed
  /// run replays Algorithm 2 bit-exactly even mid-interval (the cached greg
  /// keeps serving until the next Im tick). The record is a pure function
  /// of the training trajectory: the E/M wall-clock seconds are telemetry,
  /// not state, so a resumed process counts them from 0.
  bool SaveState(std::string* out) const override;

  /// Parses a SaveState line, v3 or the older v2 (whose two wall-clock
  /// seconds it reads and drops). The instance must have the same num_dims
  /// as the writer (FailedPrecondition otherwise); K may differ from the
  /// configured one (the hypers come from the checkpoint). Rejects
  /// malformed, non-finite, or trailing-garbage input.
  Status LoadState(const std::string& text) override;

  // The tool's key functions (paper Sec. IV) ------------------------------

  /// calResponsibility + calcRegGrad: one E-step pass over w that refreshes
  /// the cached greg (Eqs. 9-10).
  void CalcRegGrad(const Tensor& w);

  /// uptGMParam: recomputes responsibilities over the current w and applies
  /// the EM M-step (Eqs. 13/17) — one pass over the parameter vector, as
  /// the paper costs it (Sec. V-F2). When AccumulateGradient finds both
  /// due on one iteration, the suffstats ride along in CalcRegGrad's pass
  /// instead of taking a second one: both read the same w under the same
  /// mixture, so the greg and the new mixture are the same bits.
  void UptGmParam(const Tensor& w);

  /// Warm-starts the mixture (e.g. from a previous run via
  /// core/serialize.h). The Dirichlet/Gamma hyper-parameters are re-derived
  /// for the new component count.
  void SetMixture(GaussianMixture gm);

  /// Installs (or with nullptr removes) an E-step execution backend; not
  /// owned, must outlive the regularizer or be removed first.
  void set_estep_executor(GmEStepExecutor* executor) {
    estep_executor_ = executor;
  }
  GmEStepExecutor* estep_executor() const { return estep_executor_; }

  // Introspection ----------------------------------------------------------

  const GaussianMixture& mixture() const { return gm_; }
  const GmOptions& options() const { return options_; }
  const GmHyperParams& hyper() const { return hyper_; }
  const std::string& param_name() const { return param_name_; }
  std::int64_t num_dims() const { return num_dims_; }
  /// Count of E-step passes actually executed (lazy-update accounting).
  std::int64_t estep_count() const { return estep_count_; }
  /// Count of M-steps actually executed.
  std::int64_t mstep_count() const { return mstep_count_; }
  /// AccumulateGradient calls that reused the cached greg instead of
  /// running an E-step — the work Algorithm 2's Im interval saves. Together
  /// with estep_count() this is the lazy-update cache hit/recompute split.
  std::int64_t greg_cache_hits() const { return greg_cache_hits_; }
  /// Cumulative wall-clock of the passes that refreshed greg, including
  /// the suffstats of a fused pass; with estep_count() this gives benches
  /// per-call cost and thread scaling.
  double estep_seconds() const { return estep_seconds_; }
  /// Cumulative wall-clock of the rest of the M-steps: the closed-form
  /// update, plus the pass itself when it refreshed no greg.
  double mstep_seconds() const { return mstep_seconds_; }
  /// The thread budget the passes actually run with (options().num_threads
  /// resolved against the GMREG_NUM_THREADS / hardware default).
  int num_threads_resolved() const;
  /// The cached regularization gradient written by the last CalcRegGrad.
  const Tensor& greg() const { return greg_; }

 private:
  /// One E-step pass over w under the current mixture: writes greg when
  /// `refresh_greg`, and when `update_gm` accumulates the suffstats and
  /// then applies the M-step.
  void RunPass(const Tensor& w, bool refresh_greg, bool update_gm);

  std::string param_name_;
  std::int64_t num_dims_;
  GmOptions options_;
  GmHyperParams hyper_;
  GaussianMixture gm_;
  Tensor greg_;        ///< cached regularization gradient
  GmSuffStats stats_;  ///< scratch for the M-step pass
  GmEStepExecutor* estep_executor_ = nullptr;  ///< not owned
  std::int64_t estep_count_ = 0;
  std::int64_t mstep_count_ = 0;
  std::int64_t greg_cache_hits_ = 0;
  double estep_seconds_ = 0.0;
  double mstep_seconds_ = 0.0;
};

}  // namespace gmreg

#endif  // GMREG_CORE_GM_REGULARIZER_H_
