#include "optim/trainer.h"

#include <algorithm>
#include <memory>

#include "nn/loss.h"
#include "tensor/tensor_ops.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace gmreg {
namespace {

std::vector<ParamRef> Collect(Layer* net) {
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  return params;
}

}  // namespace

Trainer::Trainer(Layer* net, const TrainOptions& opts)
    : net_(net),
      opts_(opts),
      params_(Collect(net)),
      sgd_(params_, opts.learning_rate, opts.momentum),
      regs_(params_.size(), nullptr) {
  GMREG_CHECK(net != nullptr);
  GMREG_CHECK_GT(opts.num_train_samples, 0)
      << "TrainOptions::num_train_samples must be set (prior scale 1/N)";
  if (opts.num_threads > 0) SetDefaultNumThreads(opts.num_threads);
}

void Trainer::AttachRegularizer(const std::string& param_name,
                                Regularizer* reg) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (params_[i].name == param_name) {
      regs_[i] = reg;
      return;
    }
  }
  GMREG_CHECK(false) << "no parameter named '" << param_name << "'";
}

void Trainer::AttachToAllWeights(
    const std::function<std::unique_ptr<Regularizer>(const ParamRef&)>&
        factory) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i].is_weight) continue;
    auto reg = factory(params_[i]);
    if (reg == nullptr) continue;
    regs_[i] = reg.get();
    owned_regs_.push_back(std::move(reg));
  }
}

TrainingCheckpoint Trainer::BuildCheckpoint(int completed_epochs,
                                            std::int64_t iteration) const {
  TrainingCheckpoint ckpt;
  ckpt.epoch = completed_epochs;
  ckpt.iteration = iteration;
  ckpt.learning_rate = sgd_.learning_rate();
  if (checkpoint_rng_ != nullptr) {
    ckpt.has_rng = true;
    ckpt.rng = checkpoint_rng_->SaveState();
  }
  const std::vector<Tensor>& velocity = sgd_.velocity();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    ckpt.param_names.push_back(params_[i].name);
    ckpt.params.push_back(*params_[i].value);
    ckpt.velocity.push_back(velocity[i]);
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (regs_[i] == nullptr) continue;
    std::string state;
    if (regs_[i]->SaveState(&state)) {
      ckpt.reg_states.emplace_back(params_[i].name, std::move(state));
    }
  }
  return ckpt;
}

Status Trainer::Resume() {
  GMREG_CHECK(!opts_.checkpoint_path.empty())
      << "TrainOptions::checkpoint_path must be set to resume";
  TrainingCheckpoint ckpt;
  GMREG_RETURN_IF_ERROR(
      LoadLatestValidCheckpoint(opts_.checkpoint_path, &ckpt));
  if (ckpt.param_names.size() != params_.size()) {
    return Status::FailedPrecondition(
        "checkpoint has a different parameter count than the network");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (ckpt.param_names[i] != params_[i].name ||
        !ckpt.params[i].SameShape(*params_[i].value)) {
      return Status::FailedPrecondition(
          "checkpoint parameter '" + ckpt.param_names[i] +
          "' does not match network parameter '" + params_[i].name + "'");
    }
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    *params_[i].value = std::move(ckpt.params[i]);
    sgd_.mutable_velocity()[i] = std::move(ckpt.velocity[i]);
  }
  sgd_.set_learning_rate(ckpt.learning_rate);
  for (auto& [name, blob] : ckpt.reg_states) {
    Regularizer* reg = nullptr;
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (params_[i].name == name) {
        reg = regs_[i];
        break;
      }
    }
    if (reg == nullptr) {
      return Status::FailedPrecondition(
          "checkpoint carries regularizer state for '" + name +
          "' but no regularizer is attached there");
    }
    GMREG_RETURN_IF_ERROR(reg->LoadState(blob));
  }
  if (ckpt.has_rng) {
    if (checkpoint_rng_ != nullptr) {
      checkpoint_rng_->RestoreState(ckpt.rng);
    } else {
      GMREG_LOG(Warning) << "checkpoint carries an RNG state but no "
                            "generator is registered (SetCheckpointRng); "
                            "the batch stream will not be replayed";
    }
  } else if (checkpoint_rng_ != nullptr) {
    GMREG_LOG(Warning) << "checkpoint has no RNG state; the registered "
                          "generator keeps its current stream";
  }
  start_epoch_ = ckpt.epoch;
  start_iteration_ = ckpt.iteration;
  GMREG_LOG(Info) << "resumed from checkpoint at epoch " << ckpt.epoch
                  << " (iteration " << ckpt.iteration << ")";
  return Status::Ok();
}

double Trainer::Step(const Tensor& input, const std::vector<int>& labels) {
  // Plan-once: the first batch of a new input shape sizes every intermediate
  // (activations, gradients, im2col panels, E-step scratch) inside an arena
  // planning scope; same-shape batches find all buffers sized and run
  // without touching the heap (docs/MEMORY.md).
  bool replan = step_plan_.Update(input.shape().data(), input.rank());
  if (replan) RecordArenaPlanRebuild();
  ArenaScope plan_scope(replan ? &GlobalArena() : nullptr);
  double scale = 1.0 / static_cast<double>(opts_.num_train_samples);
  sgd_.ZeroGrad();
  net_->Forward(input, &logits_, /*train=*/true);
  double loss =
      SoftmaxCrossEntropy::ForwardBackward(logits_, labels, &grad_logits_);
  net_->Backward(grad_logits_, /*grad_in=*/nullptr);
  for (std::size_t k = 0; k < params_.size(); ++k) {
    if (regs_[k] == nullptr) continue;
    regs_[k]->AccumulateGradient(*params_[k].value, iteration_, epoch_, scale,
                                 params_[k].grad);
  }
  sgd_.Step();
  ++iteration_;
  return loss;
}

double Trainer::StepWithSource(GradientSource* source) {
  GMREG_CHECK(source != nullptr);
  double scale = 1.0 / static_cast<double>(opts_.num_train_samples);
  sgd_.ZeroGrad();
  double loss = source->ComputeGradient(iteration_, epoch_);
  for (std::size_t k = 0; k < params_.size(); ++k) {
    if (regs_[k] == nullptr) continue;
    regs_[k]->AccumulateGradient(*params_[k].value, iteration_, epoch_, scale,
                                 params_[k].grad);
  }
  sgd_.Step();
  ++iteration_;
  return loss;
}

std::vector<EpochStats> Trainer::Train(const BatchFn& next_batch,
                                       std::int64_t batches_per_epoch) {
  Tensor input;
  std::vector<int> labels;
  return TrainLoop(
      [&] {
        next_batch(&input, &labels);
        return Step(input, labels);
      },
      batches_per_epoch);
}

std::vector<EpochStats> Trainer::TrainWithSource(
    GradientSource* source, std::int64_t batches_per_epoch) {
  GMREG_CHECK(source != nullptr);
  return TrainLoop([&] { return StepWithSource(source); }, batches_per_epoch);
}

std::vector<EpochStats> Trainer::TrainLoop(
    const std::function<double()>& run_step, std::int64_t batches_per_epoch) {
  GMREG_CHECK_GT(batches_per_epoch, 0);
  std::vector<EpochStats> stats;
  if (start_epoch_ >= opts_.epochs) {
    GMREG_LOG(Warning) << "checkpoint already covers all " << opts_.epochs
                       << " epochs; nothing to train";
    return stats;
  }
  stats.reserve(static_cast<std::size_t>(opts_.epochs - start_epoch_));
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* iterations_counter = registry.counter("trainer.iterations");
  Counter* epochs_counter = registry.counter("trainer.epochs");
  std::unique_ptr<JsonlFileSink> trace;
  if (!opts_.metrics_path.empty()) {
    // A resumed run appends: the crashed run's flushed epoch lines plus
    // ours must form one contiguous trace (what checkpoint_test compares
    // against an uninterrupted run's trace).
    trace = std::make_unique<JsonlFileSink>(opts_.metrics_path,
                                            /*append=*/start_epoch_ > 0);
  }
  const bool checkpointing =
      !opts_.checkpoint_path.empty() && opts_.checkpoint_every > 0;
  FaultInjector& fault = FaultInjector::Global();
  iteration_ = start_iteration_;
  Stopwatch watch;
  for (int epoch = start_epoch_; epoch < opts_.epochs; ++epoch) {
    ScopedSpan epoch_span("trainer.epoch_seconds");
    epoch_ = epoch;
    for (const auto& [at_epoch, factor] : opts_.lr_schedule) {
      if (at_epoch == epoch) {
        sgd_.set_learning_rate(sgd_.learning_rate() * factor);
      }
    }
    double loss_sum = 0.0;
    for (std::int64_t b = 0; b < batches_per_epoch; ++b) {
      loss_sum += run_step();
    }
    iterations_counter->Add(batches_per_epoch);
    epochs_counter->Add(1);
    EpochStats es;
    es.epoch = epoch;
    es.mean_loss = loss_sum / static_cast<double>(batches_per_epoch);
    es.penalty = RegularizationPenalty();
    es.elapsed_seconds = watch.ElapsedSeconds();
    stats.push_back(es);
    EmitEpochRecord(es, trace.get());
    if (opts_.log_every_epochs > 0 &&
        (epoch + 1) % opts_.log_every_epochs == 0) {
      GMREG_LOG(Info) << "epoch " << epoch + 1 << "/" << opts_.epochs
                      << " loss=" << es.mean_loss
                      << " penalty=" << es.penalty
                      << " t=" << es.elapsed_seconds << "s";
    }
    if (checkpointing && (epoch + 1) % opts_.checkpoint_every == 0) {
      Status st = SaveCheckpoint(BuildCheckpoint(epoch + 1, iteration_),
                                 opts_.checkpoint_path);
      if (!st.ok()) {
        // Degrade gracefully: a run that cannot checkpoint is still a run.
        GMREG_LOG(Warning) << "checkpoint at epoch " << epoch + 1
                           << " failed after retries: " << st.ToString();
      }
    }
    // Fault-injection kill point (GMREG_FAULT=crash_after_epoch:N) — after
    // the checkpoint write, exactly where a real crash hurts the most.
    fault.MaybeCrashAfterEpoch(epoch);
  }
  return stats;
}

void Trainer::EmitEpochRecord(const EpochStats& es, MetricsSink* trace) {
  MetricsRecord record("epoch");
  record.AddString("run", opts_.run_label);
  record.AddInt("epoch", es.epoch);
  record.AddInt("epochs_total", opts_.epochs);
  record.AddDouble("mean_loss", es.mean_loss);
  record.AddDouble("penalty", es.penalty);
  record.AddDouble("elapsed_seconds", es.elapsed_seconds);
  record.AddDouble("learning_rate", sgd_.learning_rate());
  for (std::size_t k = 0; k < params_.size(); ++k) {
    if (regs_[k] == nullptr) continue;
    regs_[k]->AppendMetrics("reg." + params_[k].name, &record);
  }
  MetricsRegistry::Global().Emit(record);
  if (trace != nullptr) trace->Write(record);
}

double Trainer::EvaluateAccuracy(const Tensor& inputs,
                                 const std::vector<int>& labels,
                                 std::int64_t eval_batch) {
  GMREG_CHECK_GT(eval_batch, 0);
  std::int64_t n = inputs.dim(0);
  GMREG_CHECK_EQ(static_cast<std::int64_t>(labels.size()), n);
  std::int64_t row_size = inputs.size() / n;
  Tensor chunk;
  Tensor logits;
  std::int64_t correct = 0;
  for (std::int64_t start = 0; start < n; start += eval_batch) {
    std::int64_t count = std::min(eval_batch, n - start);
    std::vector<std::int64_t> shape = inputs.shape();
    shape[0] = count;
    if (chunk.shape() != shape) chunk = Tensor(shape);
    std::copy(inputs.data() + start * row_size,
              inputs.data() + (start + count) * row_size, chunk.data());
    net_->Forward(chunk, &logits, /*train=*/false);
    for (std::int64_t i = 0; i < count; ++i) {
      if (ArgMaxRow(logits, i) ==
          labels[static_cast<std::size_t>(start + i)]) {
        ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

double Trainer::RegularizationPenalty() const {
  double scale = 1.0 / static_cast<double>(opts_.num_train_samples);
  double total = 0.0;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    if (regs_[k] == nullptr) continue;
    total += scale * regs_[k]->Penalty(*params_[k].value);
  }
  return total;
}

}  // namespace gmreg
