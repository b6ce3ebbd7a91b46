#ifndef GMREG_DIST_LOCAL_H_
#define GMREG_DIST_LOCAL_H_

#include <memory>
#include <vector>

#include "core/gm_regularizer.h"
#include "dist/job.h"
#include "nn/layer.h"
#include "optim/trainer.h"

namespace gmreg {

// ---------------------------------------------------------------------------
// Single-process reference of the distributed arithmetic.
//
// The determinism contract (docs/DISTRIBUTED.md) is world-count-shaped, the
// same way the parallel kernels' contract is thread-budget-shaped: a
// distributed run with W workers is bitwise identical to a SINGLE process
// that executes the same W rank slices serially and folds them in the same
// rank order. These two classes are that single process — every operation
// (per-rank replica forward/backward, the float-scaled rank-order gradient
// fold, per-slice serial E-steps, the rank-order suffstat merge) mirrors
// the coordinator + worker codepaths operation for operation, minus the
// sockets. dist(1) in turn folds one full-width slice with weight 1.0, so
// it degenerates to the vanilla in-process Trainer::Train arithmetic.
// ---------------------------------------------------------------------------

/// GradientSource computing what W distributed workers would: for each rank
/// r in order, load the trainer's weights into a private replica network,
/// run forward/backward on rank r's slice of the step's global batch, and
/// fold the replica's gradients into the trainer's with float weight
/// (slice_rows / batch_size) — rank 0 assigns, later ranks add.
class LocalShardedSource : public GradientSource {
 public:
  /// `trainer_params` are the coordinator-side tensors to read weights from
  /// and fold gradients into (borrowed). `data` is borrowed too.
  LocalShardedSource(const DistJobSpec& spec, const Dataset* data, int world,
                     const std::vector<ParamRef>& trainer_params);

  double ComputeGradient(std::int64_t iteration, int epoch) override;

 private:
  DistJobSpec spec_;
  const Dataset* data_;
  int world_;
  std::vector<ParamRef> trainer_params_;
  // Per-rank worker stand-in: one replica network reused across ranks (a
  // worker's state is overwritten by every request anyway — statelessness
  // is the point).
  std::unique_ptr<Sequential> replica_;
  std::vector<ParamRef> replica_params_;
  Tensor input_;
  std::vector<int> labels_;
  Tensor logits_;
  Tensor grad_logits_;
};

/// GmEStepExecutor computing what W distributed workers would: the weight
/// vector splits into the W ShardRange slices, each slice runs a SERIAL
/// EStep (greg is elementwise, so slices concatenate exactly; suffstats
/// accumulate per slice), and per-slice suffstats fold in rank order.
class LocalShardedEStep : public GmEStepExecutor {
 public:
  explicit LocalShardedEStep(int world);

  void RunEStep(const GaussianMixture& gm, const float* w, std::int64_t n,
                float* greg_out, GmSuffStats* stats) override;

 private:
  int world_;
  GmSuffStats slice_stats_;  ///< scratch, reused across slices
};

}  // namespace gmreg

#endif  // GMREG_DIST_LOCAL_H_
