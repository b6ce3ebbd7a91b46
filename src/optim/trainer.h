#ifndef GMREG_OPTIM_TRAINER_H_
#define GMREG_OPTIM_TRAINER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/checkpoint.h"
#include "nn/layer.h"
#include "optim/sgd.h"
#include "reg/regularizer.h"
#include "util/arena.h"
#include "util/rng.h"

namespace gmreg {

/// Training hyper-parameters for one run.
struct TrainOptions {
  int epochs = 10;
  std::int64_t batch_size = 32;
  double learning_rate = 0.01;
  double momentum = 0.9;
  /// Pairs (epoch, factor): at the start of `epoch` multiply the lr by
  /// `factor` (step schedule, as in the ResNet recipe).
  std::vector<std::pair<int, double>> lr_schedule;
  /// Number of training samples N — sets the prior scale 1/N (see
  /// Regularizer). Must be set.
  std::int64_t num_train_samples = 0;
  int log_every_epochs = 0;  ///< 0 = silent
  /// Thread budget for the parallel kernels (GEMM, conv im2col, E/M-steps).
  /// 0 keeps the process default (GMREG_NUM_THREADS or hardware); > 0
  /// installs that budget process-wide via SetDefaultNumThreads, 1 forcing
  /// the serial paths. See docs/PARALLELISM.md.
  int num_threads = 0;
  /// When non-empty, Train() writes one "epoch" JSONL record per epoch to
  /// this file (truncated at the start of the run) — the per-run training
  /// trace of docs/OBSERVABILITY.md. Independent of (and in addition to)
  /// any process-wide GMREG_METRICS_FILE sink.
  std::string metrics_path;
  /// Tag stamped into every emitted record as the "run" field, so traces
  /// from several runs sharing one sink stay separable.
  std::string run_label = "train";
  /// When non-empty, Train() snapshots the full training state (weights,
  /// SGD momentum + lr, regularizer state, data RNG, cursors) to this path
  /// every `checkpoint_every` epochs via io/checkpoint.h — write-to-temp +
  /// fsync + atomic rename, previous snapshot rotated to `<path>.prev`. A
  /// failed write logs a warning and training continues (crash safety must
  /// not become a new crash source). See docs/CHECKPOINTING.md.
  std::string checkpoint_path;
  /// Epochs between checkpoints; <= 0 disables checkpointing even when
  /// checkpoint_path is set.
  int checkpoint_every = 1;
};

/// Per-epoch bookkeeping; `elapsed_seconds` is cumulative wall-clock since
/// training started, which is exactly what Figs. 5 and 7 plot.
struct EpochStats {
  int epoch = 0;
  double mean_loss = 0.0;
  /// Total -log prior over all regularized parameters (scaled by 1/N) at
  /// the end of the epoch; 0 when nothing is attached.
  double penalty = 0.0;
  double elapsed_seconds = 0.0;
};

/// Pluggable producer of the data-loss gradient for one SGD step. The
/// default Trainer path (Step/Train) computes it in process via
/// forward/backward on a caller-supplied batch; a GradientSource lets the
/// gradient come from somewhere else — the distributed coordinator
/// (src/dist) farms per-rank sub-batches out to workers and folds their
/// gradients in fixed rank order. Everything around the gradient (the
/// regularizer E/M interleave, the SGD update, tracing, checkpointing)
/// stays in the Trainer, so both paths share one bit-identical loop.
class GradientSource {
 public:
  virtual ~GradientSource() = default;

  /// Called with every parameter's grad already zeroed; fills the grads
  /// with the data-loss gradient for global step `iteration` (0-based, the
  /// trainer's iteration counter) and returns the batch loss. `epoch` is
  /// the 0-based epoch the step belongs to.
  virtual double ComputeGradient(std::int64_t iteration, int epoch) = 0;
};

/// Drives the paper's interleaved update loop (Algorithms 1 and 2): per
/// iteration it computes `gll` via forward/backward, lets each attached
/// Regularizer add its `greg` (adaptive ones also run their E/M steps on
/// their own lazy schedule), and takes an SGD step.
class Trainer {
 public:
  /// `net` is not owned. Parameters are collected once at construction.
  Trainer(Layer* net, const TrainOptions& opts);

  /// Attaches a regularizer (not owned) to the parameter named
  /// `param_name`; aborts if no such parameter exists.
  void AttachRegularizer(const std::string& param_name, Regularizer* reg);

  /// Attaches `factory(param)` to every parameter with is_weight == true.
  /// The trainer takes ownership of the returned regularizers.
  void AttachToAllWeights(
      const std::function<std::unique_ptr<Regularizer>(const ParamRef&)>&
          factory);

  /// Fills `input` (resizing as needed) and `labels` with one mini-batch.
  using BatchFn = std::function<void(Tensor* input, std::vector<int>* labels)>;

  /// Registers the data-stream generator (not owned) to capture in
  /// checkpoints. Without it a resumed run restores weights/optimizer/
  /// regularizer state but replays the batch stream from wherever the
  /// caller's generator happens to be — registering it is what makes
  /// resume reproduce the uninterrupted loss trajectory bit-exactly.
  void SetCheckpointRng(Rng* rng) { checkpoint_rng_ = rng; }

  /// Restores the latest valid checkpoint from opts.checkpoint_path
  /// (falling back to the rotated `.prev` snapshot if the primary is
  /// corrupt — see LoadLatestValidCheckpoint). Must be called after all
  /// regularizers are attached and before Train(); the subsequent Train()
  /// then continues from the checkpoint's epoch cursor. Returns NotFound
  /// when no checkpoint exists (callers treat that as a cold start),
  /// FailedPrecondition when the checkpoint does not match the current
  /// network/regularizer topology.
  Status Resume();

  /// Runs one SGD step on `input`/`labels` — zero grads, forward, loss
  /// backward, regularizer gradients, optimizer update — and returns the
  /// batch loss. This is the unit Train() iterates; it is public so callers
  /// (and the `alloc` test label) can drive single steps.
  ///
  /// Plan-once execution (docs/MEMORY.md): the first batch of a new input
  /// shape sizes every intermediate under an arena planning scope
  /// (gm.arena.plan_rebuilds); subsequent same-shape batches reuse those
  /// buffers and perform zero heap allocations. Outputs are bitwise
  /// identical either way — the arena only changes where buffers live.
  /// Iteration/epoch counters for the regularizer schedules advance
  /// internally (Train() sets the epoch; standalone use stays at epoch 0).
  double Step(const Tensor& input, const std::vector<int>& labels);

  /// Step() with the data-loss gradient supplied by `source` instead of an
  /// in-process forward/backward: zero grads, source->ComputeGradient,
  /// regularizer gradients, optimizer update. Returns the batch loss.
  double StepWithSource(GradientSource* source);

  /// Runs epochs [start, opts.epochs) of `batches_per_epoch` iterations
  /// each, where start is 0 for a cold start or the restored epoch cursor
  /// after Resume(). Returns stats for the epochs actually run.
  std::vector<EpochStats> Train(const BatchFn& next_batch,
                                std::int64_t batches_per_epoch);

  /// Train() with every step's data-loss gradient supplied by `source`.
  /// Shares the exact epoch loop with Train() — lr schedule, tracing,
  /// checkpointing, fault kill points — so a source that reproduces the
  /// in-process gradient bitwise reproduces the whole run bitwise
  /// (docs/DISTRIBUTED.md).
  std::vector<EpochStats> TrainWithSource(GradientSource* source,
                                          std::int64_t batches_per_epoch);

  /// Mean accuracy of the network (eval mode) on `inputs`/`labels`,
  /// processed in chunks of `eval_batch` rows along dim 0.
  double EvaluateAccuracy(const Tensor& inputs, const std::vector<int>& labels,
                          std::int64_t eval_batch);

  const std::vector<ParamRef>& params() const { return params_; }

  /// Total -log prior over all regularized parameters (scaled by 1/N), for
  /// loss reporting.
  double RegularizationPenalty() const;

 private:
  /// Builds the per-epoch telemetry record (loss, penalty, per-regularizer
  /// learned state via Regularizer::AppendMetrics) and emits it to the
  /// global registry sinks plus the optional per-run `trace` sink.
  void EmitEpochRecord(const EpochStats& es, MetricsSink* trace);

  /// Snapshots the current training state (`completed_epochs` epochs and
  /// `iteration` SGD steps done) into a TrainingCheckpoint.
  TrainingCheckpoint BuildCheckpoint(int completed_epochs,
                                     std::int64_t iteration) const;

  /// The epoch loop shared by Train and TrainWithSource: `run_step` runs
  /// one SGD step (fetching its own batch) and returns the batch loss.
  std::vector<EpochStats> TrainLoop(const std::function<double()>& run_step,
                                    std::int64_t batches_per_epoch);

  Layer* net_;
  TrainOptions opts_;
  std::vector<ParamRef> params_;
  Sgd sgd_;
  // Regularizer per parameter index (nullptr = none).
  std::vector<Regularizer*> regs_;
  std::vector<std::unique_ptr<Regularizer>> owned_regs_;
  Rng* checkpoint_rng_ = nullptr;  // not owned
  int start_epoch_ = 0;            // set by Resume()
  std::int64_t start_iteration_ = 0;
  // Step() state: persistent forward/backward buffers (sized once per input
  // shape) and the shape key of the plan that sized them.
  Tensor logits_;
  Tensor grad_logits_;
  ShapePlan step_plan_;
  std::int64_t iteration_ = 0;
  int epoch_ = 0;
};

}  // namespace gmreg

#endif  // GMREG_OPTIM_TRAINER_H_
