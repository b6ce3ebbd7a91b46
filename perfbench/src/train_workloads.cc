// The training workloads: Alex-CIFAR-10 at 16x16 with the GM prior on all
// four weight tensors, driven through Trainer::Train, at the two ends of
// the paper's Fig. 5 — E- and M-steps on every step (Im = Ig = 1) and the
// lazy update (Im = Ig = 50), where the cached greg serves 49 of 50 steps.
//
// The untraced pass times each step as the interval between the trainer's
// calls into its BatchFn. The traced pass drives Trainer::TrainWithSource
// with a GradientSource that makes Trainer::Step's own calls (batch gather,
// forward, loss, backward) inside spans, and wraps each prior in a
// forwarding Regularizer that spans its calls; SGD is the step's self time.
// Both passes compute the same arithmetic, so their final weights must be
// bitwise equal.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/gm_regularizer.h"
#include "data/batch.h"
#include "data/cifar_like.h"
#include "models/alex_cifar10.h"
#include "nn/loss.h"
#include "optim/trainer.h"
#include "util/arena.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace gmreg {
namespace perfbench {
namespace {

struct TrainWorkload {
  const char* name;
  std::int64_t interval;  ///< Im = Ig
  /// Sets the fixed number of steps from --seconds: about the workload's
  /// step rate on the baseline machine when other tenants leave it quiet,
  /// so a run measures close to --seconds there (up to 1.5x that on a busy
  /// host) and the same steps on every commit.
  double steps_per_second;
};

constexpr TrainWorkload kWorkloads[] = {
    {"train-gm-eager", 1, 50.0},
    {"train-gm-lazy", 50, 65.0},
};

constexpr int kTrainImages = 2000;
constexpr int kTestImages = 500;
constexpr int kImageHw = 16;
constexpr std::int64_t kBatch = 16;
constexpr std::int64_t kBatchesPerEpoch = kTrainImages / kBatch;
/// The first step plans every buffer in the arena and runs the E- and
/// M-steps; a few more reach the steady state the timed phase measures.
constexpr int kWarmupSteps = 5;
constexpr int kSetupReps = 5;
/// Tail of the step-time distribution: a lazy run has an E-step on 2% of
/// its steps, so p95 stays clear of that mode and keeps >= 25 samples
/// beyond it.
constexpr double kTailQuantile = 0.95;
/// Twice chance on 10 classes; every seed clears it by a wide margin.
constexpr double kMinTestAccuracy = 0.2;

const TrainWorkload* FindWorkload(const std::string& name) {
  for (const TrainWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// CIFAR-like data at the noise settings of the repository's deep benches.
CifarLikePair MakeData(std::uint64_t seed) {
  CifarLikeSpec spec;
  spec.num_train = kTrainImages;
  spec.num_test = kTestImages;
  spec.height = kImageHw;
  spec.width = kImageHw;
  spec.pixel_noise = 1.5;
  spec.signal_gain = 0.8;
  spec.label_noise = 0.12;
  return MakeCifarLike(spec, seed);
}

double CounterValue(const char* name) {
  return static_cast<double>(
      MetricsRegistry::Global().counter(name)->value());
}

class Rig;

/// Trainer::Step's data-loss gradient through the same public calls, each
/// inside a span. Every call also closes the previous optim.step span and
/// opens the next, so one step span covers one whole trainer iteration.
class TimedSource final : public GradientSource {
 public:
  TimedSource(Rig* rig, SpanLog* log) : rig_(rig), log_(log) {}

  double ComputeGradient(std::int64_t iteration, int epoch) override;

  /// Closes the open step span (call after the trainer returns).
  void Finish() {
    if (step_span_ >= 0) log_->Close(step_span_);
    step_span_ = -1;
  }

  int step_span() const { return step_span_; }

 private:
  Rig* rig_;
  SpanLog* log_;
  int step_span_ = -1;
  ShapePlan plan_;
  Tensor input_;
  std::vector<int> labels_;
  Tensor logits_;
  Tensor grad_logits_;
  Tensor grad_input_;
};

/// Forwards to a GmRegularizer and records a span per call, parented to the
/// step that made it.
class TimedRegularizer final : public Regularizer {
 public:
  TimedRegularizer(GmRegularizer* inner, const TimedSource* source,
                   SpanLog* log)
      : inner_(inner), source_(source), log_(log) {}

  void AccumulateGradient(const Tensor& w, std::int64_t iteration,
                          std::int64_t epoch, double scale,
                          Tensor* grad) override {
    std::int64_t start = NowNs();
    inner_->AccumulateGradient(w, iteration, epoch, scale, grad);
    log_->Add("core.reg", start, NowNs(), source_->step_span(), iteration);
  }

  double Penalty(const Tensor& w) const override {
    std::int64_t start = NowNs();
    double penalty = inner_->Penalty(w);
    log_->Add("core.penalty", start, NowNs(), source_->step_span(), -1);
    return penalty;
  }

  std::string Name() const override { return inner_->Name(); }

  void AppendMetrics(const std::string& prefix,
                     MetricsRecord* record) const override {
    inner_->AppendMetrics(prefix, record);
  }

 private:
  GmRegularizer* inner_;
  const TimedSource* source_;
  SpanLog* log_;
};

/// One complete training set-up: data, network, priors and trainer, all
/// from one seed. `log` non-null makes it the traced variant.
class Rig {
 public:
  Rig(const TrainWorkload& workload, std::uint64_t seed, int epochs,
      SpanLog* log)
      : data_(MakeData(seed)), rng_(seed), log_(log) {
    AlexCifar10Config config;
    config.input_hw = kImageHw;
    net_ = BuildAlexCifar10(config, &rng_);
    batches_ = std::make_unique<BatchIterator>(kTrainImages, kBatch, &rng_);

    TrainOptions options;
    options.epochs = epochs;
    options.batch_size = kBatch;
    options.learning_rate = 0.003;
    options.momentum = 0.9;
    options.num_train_samples = kTrainImages;
    // Budget 1: higher budgets crash in util/parallel's pool (see README).
    options.num_threads = 1;
    trainer_ = std::make_unique<Trainer>(net_.get(), options);
    if (log_ != nullptr) source_ = std::make_unique<TimedSource>(this, log_);

    for (const ParamRef& p : trainer_->params()) {
      if (!p.is_weight) continue;
      GmOptions gm;
      gm.gamma = 0.02;
      gm.num_threads = 1;
      gm.min_precision = MinPrecisionFromInitStdDev(p.init_stddev);
      gm.lazy.warmup_epochs = 0;
      gm.lazy.greg_interval = workload.interval;
      gm.lazy.gm_interval = workload.interval;
      priors_.push_back(
          std::make_unique<GmRegularizer>(p.name, p.value->size(), gm));
      Regularizer* attached = priors_.back().get();
      if (log_ != nullptr) {
        timed_.push_back(std::make_unique<TimedRegularizer>(
            priors_.back().get(), source_.get(), log_));
        attached = timed_.back().get();
      }
      trainer_->AttachRegularizer(p.name, attached);
    }
  }

  /// Fills `input` and `labels` with the next mini-batch.
  void NextBatch(Tensor* input, std::vector<int>* labels) {
    const std::vector<int>& idx = batches_->Next();
    const std::int64_t want[4] = {static_cast<std::int64_t>(idx.size()),
                                  data_.train.channels(),
                                  data_.train.height(), data_.train.width()};
    const std::vector<std::int64_t>& cur = input->shape();
    if (cur.size() != 4 || !std::equal(want, want + 4, cur.begin())) {
      *input = Tensor({want[0], want[1], want[2], want[3]});
    }
    GatherImageBatch(data_.train, idx, /*augment=*/false, /*pad=*/2, &rng_,
                     input, labels);
  }

  /// The warm-up steps of the set-up; false when a loss is not finite.
  bool Warmup() {
    bool finite = true;
    for (int i = 0; i < kWarmupSteps; ++i) {
      double loss;
      if (source_ != nullptr) {
        loss = trainer_->StepWithSource(source_.get());
      } else {
        NextBatch(&input_, &labels_);
        loss = trainer_->Step(input_, labels_);
      }
      finite = finite && std::isfinite(loss);
    }
    if (source_ != nullptr) source_->Finish();
    return finite;
  }

  /// The timed phase. Untraced, `step_starts` receives each step's start
  /// plus the end of the last step.
  std::vector<EpochStats> Train(std::vector<std::int64_t>* step_starts) {
    std::vector<EpochStats> stats;
    if (source_ != nullptr) {
      stats = trainer_->TrainWithSource(source_.get(), kBatchesPerEpoch);
      source_->Finish();
      return stats;
    }
    stats = trainer_->Train(
        [&](Tensor* input, std::vector<int>* labels) {
          step_starts->push_back(NowNs());
          NextBatch(input, labels);
        },
        kBatchesPerEpoch);
    step_starts->push_back(NowNs());
    return stats;
  }

  std::vector<Tensor> Weights() const {
    std::vector<Tensor> out;
    for (const ParamRef& p : trainer_->params()) out.push_back(*p.value);
    return out;
  }

  double TestAccuracy() {
    return trainer_->EvaluateAccuracy(data_.test.images, data_.test.labels,
                                      /*eval_batch=*/100);
  }

  Sequential* net() { return net_.get(); }
  const std::vector<std::unique_ptr<GmRegularizer>>& priors() const {
    return priors_;
  }

 private:
  CifarLikePair data_;
  Rng rng_;
  SpanLog* log_;
  std::unique_ptr<Sequential> net_;
  std::unique_ptr<BatchIterator> batches_;
  std::unique_ptr<Trainer> trainer_;
  std::unique_ptr<TimedSource> source_;
  std::vector<std::unique_ptr<GmRegularizer>> priors_;
  std::vector<std::unique_ptr<TimedRegularizer>> timed_;
  Tensor input_;
  std::vector<int> labels_;
};

double TimedSource::ComputeGradient(std::int64_t iteration, int /*epoch*/) {
  if (step_span_ >= 0) log_->Close(step_span_);
  step_span_ = log_->Open("optim.step", -1, iteration);
  int span = log_->Open("data.batch", step_span_, iteration);
  rig_->NextBatch(&input_, &labels_);
  log_->Close(span);
  // Trainer::Step plans its buffers in the arena on a new input shape.
  bool replan = plan_.Update(input_.shape().data(), input_.rank());
  ArenaScope plan_scope(replan ? &GlobalArena() : nullptr);
  span = log_->Open("nn.forward", step_span_, iteration);
  rig_->net()->Forward(input_, &logits_, /*train=*/true);
  log_->Close(span);
  span = log_->Open("nn.loss", step_span_, iteration);
  double loss =
      SoftmaxCrossEntropy::ForwardBackward(logits_, labels_, &grad_logits_);
  log_->Close(span);
  span = log_->Open("nn.backward", step_span_, iteration);
  rig_->net()->Backward(grad_logits_, &grad_input_);
  log_->Close(span);
  return loss;
}

/// Prior counters summed over all regularized tensors.
struct PriorTotals {
  double esteps = 0, hits = 0;
  double estep_s = 0, mstep_s = 0;
  double estep_weights = 0, mstep_weights = 0;  ///< weights x passes

  static PriorTotals Read(const Rig& rig) {
    PriorTotals t;
    for (const auto& p : rig.priors()) {
      auto dims = static_cast<double>(p->num_dims());
      t.esteps += static_cast<double>(p->estep_count());
      t.hits += static_cast<double>(p->greg_cache_hits());
      t.estep_s += p->estep_seconds();
      t.mstep_s += p->mstep_seconds();
      t.estep_weights += dims * static_cast<double>(p->estep_count());
      t.mstep_weights += dims * static_cast<double>(p->mstep_count());
    }
    return t;
  }
};

bool SameBits(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].SameShape(b[i]) ||
        std::memcmp(a[i].data(), b[i].data(),
                    static_cast<std::size_t>(a[i].size()) * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

void CheckLosses(const std::vector<EpochStats>& stats, int epochs,
                 Report* report) {
  if (static_cast<int>(stats.size()) != epochs) {
    report->Fail("trainer ran " + std::to_string(stats.size()) + " of " +
                 std::to_string(epochs) + " epochs");
    report->failed = report->attempted;
    return;
  }
  for (const EpochStats& es : stats) {
    if (!std::isfinite(es.mean_loss)) {
      report->Fail("epoch " + std::to_string(es.epoch) + " loss not finite");
      report->failed += kBatchesPerEpoch;
    }
  }
}

/// Per-layer metrics of the traced pass, from spans [first, end).
void ReportTraced(const SpanLog& log, std::size_t first, double flops,
                  double untraced_p50_ms, Report* report) {
  // Per-step sums of each module's spans.
  enum Module { kStep, kData, kForward, kLoss, kBackward, kCore, kModules };
  std::vector<std::array<double, kModules>> steps;
  std::vector<int> slot_of(log.spans().size(), -1);
  for (std::size_t i = first; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    double ms = NsToMs(s.end_ns - s.start_ns);
    if (std::strcmp(s.name, "optim.step") == 0) {
      slot_of[i] = static_cast<int>(steps.size());
      steps.push_back({});
      steps.back()[kStep] = ms;
      continue;
    }
    if (s.parent < 0 || slot_of[static_cast<std::size_t>(s.parent)] < 0) {
      continue;
    }
    auto& row = steps[static_cast<std::size_t>(
        slot_of[static_cast<std::size_t>(s.parent)])];
    if (std::strcmp(s.name, "data.batch") == 0) row[kData] += ms;
    if (std::strcmp(s.name, "nn.forward") == 0) row[kForward] += ms;
    if (std::strcmp(s.name, "nn.loss") == 0) row[kLoss] += ms;
    if (std::strcmp(s.name, "nn.backward") == 0) row[kBackward] += ms;
    if (std::strncmp(s.name, "core.", 5) == 0) row[kCore] += ms;
  }
  std::array<double, kModules> total{};
  std::array<std::vector<double>, kModules + 1> per_step;  // + SGD self
  for (const auto& row : steps) {
    double children = 0.0;
    for (int m = 0; m < kModules; ++m) {
      total[m] += row[m];
      per_step[m].push_back(row[m]);
      if (m != kStep) children += row[m];
    }
    per_step[kModules].push_back(row[kStep] - children);
  }
  double step_total = total[kStep];
  double sgd_total = step_total - total[kData] - total[kForward] -
                     total[kLoss] - total[kBackward] - total[kCore];
  report->Layer("data.batch_share", total[kData] / step_total);
  report->Layer("nn.forward_share", total[kForward] / step_total);
  report->Layer("nn.loss_share", total[kLoss] / step_total);
  report->Layer("nn.backward_share", total[kBackward] / step_total);
  report->Layer("core.reg_share", total[kCore] / step_total);
  report->Layer("optim.sgd_share", sgd_total / step_total);
  auto n = static_cast<double>(steps.size());
  report->Layer("nn.forward_ms", total[kForward] / n);
  report->Layer("tensor.gemm_gflops",
                flops / ((total[kForward] + total[kBackward]) / 1e3) / 1e9);
  double traced_p50 = Median(per_step[kStep]);
  report->Layer("trace_overhead_pct",
                100.0 * (traced_p50 - untraced_p50_ms) / untraced_p50_ms);

  // The module medians should account for the median step.
  double medians = 0.0;
  for (int m = kData; m <= kModules; ++m) medians += Median(per_step[m]);
  report->Detail("trace.step_p50_ms", traced_p50, "ms");
  report->Detail("trace.module_p50_sum_ms", medians, "ms");
  report->Detail("core.reg_ms", total[kCore] / n, "ms");
  report->Detail("optim.sgd_ms", sgd_total / n, "ms");
  report->Detail("data.batch_ms", total[kData] / n, "ms");
  report->Detail("nn.loss_ms", total[kLoss] / n, "ms");
  report->Detail("nn.backward_ms", total[kBackward] / n, "ms");
}

}  // namespace

void RunTrainWorkload(const RunOptions& options, Report* report) {
  const TrainWorkload* workload = FindWorkload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    std::exit(2);
  }
  SetDefaultNumThreads(1);
  const int epochs = std::max(
      1, static_cast<int>(std::lround(options.seconds *
                                      workload->steps_per_second /
                                      static_cast<double>(kBatchesPerEpoch))));
  const std::int64_t steps = epochs * kBatchesPerEpoch;

  // Set-up: data, network, priors, trainer, warm-up steps. It is timed
  // kSetupReps times; the repetitions after the first run once the timed
  // phase and peak memory are measured, because buffers planned in the
  // arena outlive their network.
  std::vector<double> setup_s;
  auto set_up = [&] {
    std::int64_t start = NowNs();
    auto rig = std::make_unique<Rig>(*workload, options.seed, epochs, nullptr);
    if (!rig->Warmup()) report->Fail("warm-up loss not finite");
    setup_s.push_back(NsToS(NowNs() - start));
    return rig;
  };
  std::unique_ptr<Rig> rig = set_up();

  // Untraced timed phase.
  std::vector<std::int64_t> starts;
  starts.reserve(static_cast<std::size_t>(steps) + 1);
  report->attempted = steps;
  std::vector<EpochStats> stats = rig->Train(&starts);
  CheckLosses(stats, epochs, report);
  std::vector<Tensor> weights = rig->Weights();
  double accuracy = rig->TestAccuracy();
  if (!(accuracy >= kMinTestAccuracy)) {
    report->Fail("test accuracy " + std::to_string(accuracy) + " below " +
                 std::to_string(kMinTestAccuracy));
  }
  double rss = PeakRssMb();
  rig.reset();
  while (static_cast<int>(setup_s.size()) < kSetupReps) set_up();
  if (static_cast<std::int64_t>(starts.size()) != steps + 1) {
    report->Fail("trainer made " + std::to_string(starts.size() - 1) +
                 " batch calls for " + std::to_string(steps) + " steps");
    return;
  }

  std::vector<double> step_ms;
  for (std::size_t i = 0; i + 1 < starts.size(); ++i) {
    step_ms.push_back(NsToMs(starts[i + 1] - starts[i]));
  }
  // Throughput takes each step of the lazy-update period (Im steps: 1
  // eager, 50 lazy) at its fastest over the run. Steps one period apart do
  // the same work, while other tenants of the machine slow stretches of a
  // run by up to 40%, so the fastest instance is the step's time with the
  // least interference. The E- and M-steps count once per period, as in
  // training; the trainer's per-epoch penalty, a few steps in a thousand,
  // does not.
  std::vector<double> fastest_ms(static_cast<std::size_t>(workload->interval),
                                 std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < step_ms.size(); ++i) {
    double& fastest = fastest_ms[i % fastest_ms.size()];
    fastest = std::min(fastest, step_ms[i]);
  }
  double period_ms = 0.0;
  for (double ms : fastest_ms) period_ms += ms;
  double p50_ms = Median(step_ms);
  report->end_to_end["setup_s"] = {Median(setup_s), "s"};
  report->end_to_end["peak_rss_mb"] = {rss, "MB"};
  report->end_to_end["examples_per_s"] = {
      static_cast<double>(workload->interval * kBatch) / (period_ms / 1e3),
      "1/s"};
  report->Detail("wall_examples_per_s",
                 static_cast<double>(steps * kBatch) /
                     NsToS(starts.back() - starts.front()),
                 "1/s");
  report->Layer("p50_ms", p50_ms);
  report->Layer("tail_ms", Quantile(step_ms, kTailQuantile));
  report->Detail("train_loss", stats.empty() ? 0.0 : stats.back().mean_loss,
                 "nats");
  report->Detail("test_accuracy", accuracy, "fraction");
  report->Detail("timed_steps", static_cast<double>(steps), "count");
  if (!options.trace) return;

  // Traced rerun of the same seed.
  SpanLog log(static_cast<std::size_t>((steps + kWarmupSteps) * 12));
  rig = std::make_unique<Rig>(*workload, options.seed, epochs, &log);
  if (!rig->Warmup()) report->Fail("traced warm-up loss not finite");
  std::size_t first = log.spans().size();
  PriorTotals before = PriorTotals::Read(*rig);
  double flops0 = CounterValue("gm.kernel.gemm_flops");
  double plans0 = CounterValue("gm.arena.plan_rebuilds");
  double allocs0 = CounterValue("gm.arena.steady_state_allocs");
  std::vector<EpochStats> traced_stats = rig->Train(nullptr);
  double flops = CounterValue("gm.kernel.gemm_flops") - flops0;
  report->Layer("util.arena_plan_rebuilds",
                CounterValue("gm.arena.plan_rebuilds") - plans0);
  report->Layer("util.arena_steady_allocs",
                CounterValue("gm.arena.steady_state_allocs") - allocs0);
  PriorTotals after = PriorTotals::Read(*rig);
  CheckLosses(traced_stats, epochs, report);

  if (!SameBits(weights, rig->Weights())) {
    report->Fail("traced run's final weights differ from the untraced run's");
  }
  for (std::size_t e = 0; e < stats.size() && e < traced_stats.size(); ++e) {
    if (stats[e].mean_loss != traced_stats[e].mean_loss) {
      report->Fail("traced epoch " + std::to_string(e) +
                   " loss differs from the untraced run's");
    }
  }

  ReportTraced(log, first, flops, p50_ms, report);
  double esteps = after.esteps - before.esteps;
  double hits = after.hits - before.hits;
  auto regs = static_cast<double>(rig->priors().size());
  report->Layer("core.esteps_per_step",
                esteps / (static_cast<double>(steps) * regs));
  report->Layer("core.greg_cache_hit_ratio", hits / (hits + esteps));
  report->Layer("core.estep_gweights_per_s",
                (after.estep_weights - before.estep_weights) /
                    (after.estep_s - before.estep_s) / 1e9);
  report->Layer("core.mstep_gweights_per_s",
                (after.mstep_weights - before.mstep_weights) /
                    (after.mstep_s - before.mstep_s) / 1e9);
  if (!log.AppendJsonl(options.trace_file, options.workload)) {
    report->Fail("cannot write " + options.trace_file);
  }
}

}  // namespace perfbench
}  // namespace gmreg
