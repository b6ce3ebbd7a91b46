// Steady-state allocation gate (docs/MEMORY.md): after the first batch of a
// given shape plans the buffers, training steps, serving predicts, and every
// registered regularizer kind must run with ZERO heap allocations — asserted
// by differencing the operator-new interposer counter (testutil/alloc_count.h)
// around a measured window, at thread budgets 1, 2, and 4. The arena only
// changes where buffers live, never what the kernels compute, so the tests
// also pin bitwise-identical outputs: plan pass vs steady pass, budget 1 vs
// budget 4, and same-seed run vs same-seed run.
//
// Under sanitizers ZeroAllocAssertsEnabled() is false and the battery runs
// as a smoke test (the runtime's own bookkeeping allocations are not ours).

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "core/factory.h"
#include "core/gm_regularizer.h"
#include "models/alex_cifar10.h"
#include "nn/activations.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/pool.h"
#include "nn/sequential.h"
#include "optim/trainer.h"
#include "serve/inference_session.h"
#include "serve/model_registry.h"
#include "tensor/tensor.h"
#include "util/arena.h"
#include "testutil/alloc_count.h"
#include "testutil/gmreg_testutil.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gmreg {
namespace {

using testing::ExpectTensorBitwiseEqual;
using testing::HeapAllocCount;
using testing::ScopedThreadBudget;
using testing::TempPath;
using testing::ZeroAllocAssertsEnabled;

// Small conv net whose Dense GEMM (8x4x512 = 32k flops) crosses the packed
// kernel threshold, so the measured window covers im2col scratch, packed
// GEMM panels, activations, loss scratch, and the E/M suffstat buffers.
constexpr std::int64_t kBatch = 8;
constexpr std::int64_t kChannels = 3;
constexpr std::int64_t kHw = 8;
constexpr std::int64_t kClasses = 4;

std::unique_ptr<Sequential> BuildConvNet(std::uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<Sequential>("alloc_net");
  net->Emplace<Conv2d>("conv1", kChannels, /*out_channels=*/8, /*kernel=*/3,
                       /*stride=*/1, /*padding=*/1, InitSpec::He(), &rng);
  net->Emplace<Relu>("relu1");
  net->Emplace<Flatten>("flat");
  net->Emplace<Dense>("fc", 8 * kHw * kHw, kClasses, InitSpec::He(), &rng);
  return net;
}

void FillBatch(Rng* rng, Tensor* input, std::vector<int>* labels) {
  labels->resize(static_cast<std::size_t>(kBatch));
  for (std::int64_t i = 0; i < kBatch; ++i) {
    (*labels)[static_cast<std::size_t>(i)] =
        static_cast<int>(rng->NextBounded(kClasses));
  }
  float* p = input->data();
  for (std::int64_t i = 0; i < input->size(); ++i) {
    p[i] = static_cast<float>(rng->NextGaussian());
  }
}

// Trainer over the conv net with a GM regularizer updating every iteration,
// so the E-step/M-step run inside every measured window, not just at plan
// time.
struct TrainRig {
  explicit TrainRig(std::uint64_t seed) : net(BuildConvNet(seed)) {
    TrainOptions opts;
    opts.batch_size = kBatch;
    opts.learning_rate = 0.01;
    opts.num_train_samples = 256;
    trainer = std::make_unique<Trainer>(net.get(), opts);
    trainer->AttachToAllWeights(
        [](const ParamRef& p) -> std::unique_ptr<Regularizer> {
          GmOptions gm;
          gm.min_precision = MinPrecisionFromInitStdDev(p.init_stddev);
          gm.lazy.greg_interval = 1;
          gm.lazy.gm_interval = 1;
          return std::make_unique<GmRegularizer>(p.name, p.value->size(), gm);
        });
  }

  std::unique_ptr<Sequential> net;
  std::unique_ptr<Trainer> trainer;
};

TEST(AllocSteadyStateTest, InterposerIsLinked) {
  // The whole point of this binary is the counting operator new; if the
  // EXTRA_SOURCES wiring ever drops testutil/alloc_interposer.cc, fail
  // loudly instead of green-lighting a no-op battery.
  ASSERT_TRUE(testing::HeapAllocCountingActive());
  std::int64_t before = HeapAllocCount();
  std::vector<int>* v = new std::vector<int>(100);
  EXPECT_GT(HeapAllocCount(), before);
  delete v;
}

TEST(AllocSteadyStateTest, TrainStepReachesZeroAllocsAtEveryBudget) {
  TrainRig rig(/*seed=*/7);
  Tensor input({kBatch, kChannels, kHw, kHw});
  std::vector<int> labels;
  Rng data_rng(3);
  FillBatch(&data_rng, &input, &labels);
  for (int budget : {1, 2, 4}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    ScopedThreadBudget tb(budget);
    // Warmup: the first step at a new budget may grow per-shard scratch and
    // spin up pool workers with cold thread-local buffers.
    for (int i = 0; i < 4; ++i) rig.trainer->Step(input, labels);
    std::int64_t before = HeapAllocCount();
    for (int i = 0; i < 4; ++i) rig.trainer->Step(input, labels);
    std::int64_t delta = HeapAllocCount() - before;
    if (ZeroAllocAssertsEnabled()) {
      EXPECT_EQ(delta, 0)
          << "steady-state training step performed heap allocations";
    }
  }
}

TEST(AllocSteadyStateTest, TrainStepBitwiseIdenticalAcrossBudgetsAndRuns) {
  // Same seeds, same batch stream, different thread budgets: every weight
  // must match at the bit level (the determinism contract of
  // docs/KERNELS.md carries through the arena-planned path).
  auto run = [](int budget) {
    TrainRig rig(/*seed=*/7);
    ScopedThreadBudget tb(budget);
    Tensor input({kBatch, kChannels, kHw, kHw});
    std::vector<int> labels;
    Rng data_rng(3);
    for (int i = 0; i < 6; ++i) {
      FillBatch(&data_rng, &input, &labels);
      rig.trainer->Step(input, labels);
    }
    return rig;
  };
  TrainRig serial = run(1);
  TrainRig parallel = run(4);
  TrainRig repeat = run(4);
  const std::vector<ParamRef>& a = serial.trainer->params();
  const std::vector<ParamRef>& b = parallel.trainer->params();
  const std::vector<ParamRef>& c = repeat.trainer->params();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ExpectTensorBitwiseEqual(*a[k].value, *b[k].value,
                             a[k].name + " budget 1 vs 4");
    ExpectTensorBitwiseEqual(*b[k].value, *c[k].value,
                             a[k].name + " run vs same-seed rerun");
  }
}

TEST(AllocSteadyStateTest, AlexTrainEvaluateTrainReachesZeroAllocs) {
  // The training benchmark's pattern: Alex-CIFAR-10 steps at batch 16, an
  // evaluation pass at batch 100, then more steps. The steps after the
  // evaluation pass allocate nothing: neither the heap nor the arena.
  constexpr std::int64_t kTrainBatch = 16;
  constexpr std::int64_t kEvalImages = 200;
  Rng rng(5);
  AlexCifar10Config config;
  std::unique_ptr<Sequential> net = BuildAlexCifar10(config, &rng);
  TrainOptions opts;
  opts.batch_size = kTrainBatch;
  opts.learning_rate = 0.003;
  opts.num_train_samples = 2000;
  Trainer trainer(net.get(), opts);
  trainer.AttachToAllWeights(
      [](const ParamRef& p) -> std::unique_ptr<Regularizer> {
        GmOptions gm;
        gm.min_precision = MinPrecisionFromInitStdDev(p.init_stddev);
        return std::make_unique<GmRegularizer>(p.name, p.value->size(), gm);
      });
  auto fill = [&](Tensor* t) {
    for (std::int64_t i = 0; i < t->size(); ++i) {
      (*t)[i] = static_cast<float>(rng.NextGaussian());
    }
  };
  auto classes = [&](std::int64_t n) {
    std::vector<int> labels(static_cast<std::size_t>(n));
    for (int& l : labels) l = static_cast<int>(rng.NextBounded(10));
    return labels;
  };
  Tensor input({kTrainBatch, 3, config.input_hw, config.input_hw});
  fill(&input);
  std::vector<int> labels = classes(kTrainBatch);
  Tensor eval_images({kEvalImages, 3, config.input_hw, config.input_hw});
  fill(&eval_images);
  std::vector<int> eval_labels = classes(kEvalImages);

  ScopedThreadBudget tb(1);
  for (int i = 0; i < 3; ++i) trainer.Step(input, labels);
  trainer.EvaluateAccuracy(eval_images, eval_labels, /*eval_batch=*/100);
  for (int i = 0; i < 2; ++i) trainer.Step(input, labels);

  Counter* steady =
      MetricsRegistry::Global().counter("gm.arena.steady_state_allocs");
  std::int64_t steady_before = steady->value();
  std::size_t arena_before = GlobalArena().used();
  std::int64_t before = HeapAllocCount();
  for (int i = 0; i < 4; ++i) trainer.Step(input, labels);
  std::int64_t delta = HeapAllocCount() - before;
  EXPECT_EQ(GlobalArena().used(), arena_before);
  EXPECT_EQ(steady->value(), steady_before);
  if (ZeroAllocAssertsEnabled()) {
    EXPECT_EQ(delta, 0) << "training steps after an evaluation pass "
                           "performed heap allocations";
  }
}

TEST(AllocSteadyStateTest, ConvScratchDoesNotGrowWithTheBatch) {
  // Conv2d's panel, rows, padded plane and packed weight are per-thread
  // scratch sized by the layer shape. After a training pass at batch 16,
  // an evaluation forward at batch 100 into a pre-sized output, which packs
  // the weight again, takes no memory at all; a panel sized by the batch
  // would need 100 x 75 x 256 floats (7.3 MB) for conv1. The passes run on
  // a new thread, whose scratch no earlier test has grown.
  Rng rng(9);
  InitSpec init = InitSpec::Gaussian(0.1);
  Conv2d conv1("conv1", 3, 32, 5, 1, 2, init, &rng);
  Conv2d conv2("conv2", 32, 32, 5, 1, 2, init, &rng);
  struct Case {
    Conv2d* conv;
    std::int64_t in_c, hw;
  };
  ScopedThreadBudget tb(1);
  std::thread fresh([&] {
    for (const Case& c : {Case{&conv1, 3, 16}, Case{&conv2, 32, 8}}) {
      SCOPED_TRACE(c.conv->name());
      Tensor train_in({16, c.in_c, c.hw, c.hw});
      Tensor eval_in({100, c.in_c, c.hw, c.hw});
      Tensor out, gin;
      c.conv->Forward(train_in, &out, /*train=*/true);
      Tensor gout(out.shape());
      c.conv->Backward(gout, &gin);
      Tensor eval_out({100, 32, c.hw, c.hw});
      std::size_t arena_before = GlobalArena().used();
      std::int64_t before = HeapAllocCount();
      c.conv->Forward(eval_in, &eval_out, /*train=*/false);
      std::int64_t delta = HeapAllocCount() - before;
      EXPECT_EQ(GlobalArena().used(), arena_before);
      if (ZeroAllocAssertsEnabled()) {
        EXPECT_EQ(delta, 0);
      }
    }
  });
  fresh.join();
}

// Train-and-checkpoint setup for the serving tests, mirroring the
// serve_e2e_test recipe on the mlp:8:16:2 spec.
void TrainAndCheckpoint(const ModelSpec& spec, const std::string& ckpt_path) {
  std::unique_ptr<Layer> net = spec.factory();
  TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 16;
  opts.learning_rate = 0.05;
  opts.num_train_samples = 256;
  opts.checkpoint_path = ckpt_path;
  opts.checkpoint_every = 1;
  Trainer trainer(net.get(), opts);
  Rng data_rng(11);
  auto next_batch = [&](Tensor* input, std::vector<int>* labels) {
    if (input->shape() != std::vector<std::int64_t>{opts.batch_size, 8}) {
      *input = Tensor({opts.batch_size, 8});
    }
    labels->resize(static_cast<std::size_t>(opts.batch_size));
    for (std::int64_t i = 0; i < opts.batch_size; ++i) {
      int label = static_cast<int>(data_rng.NextBounded(2));
      (*labels)[static_cast<std::size_t>(i)] = label;
      for (std::int64_t j = 0; j < 8; ++j) {
        double mean = (j % 2 == label) ? 1.5 : -0.5;
        input->At(i, j) = static_cast<float>(data_rng.NextGaussian(mean, 1.0));
      }
    }
  };
  ASSERT_EQ(trainer.Train(next_batch, 256 / opts.batch_size).size(), 1u);
}

TEST(AllocSteadyStateTest, ServePredictZeroAllocsAndPlanPassIdentical) {
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec("mlp:8:16:2", &spec).ok());
  std::string ckpt = TempPath("alloc_serve.ckpt");
  TrainAndCheckpoint(spec, ckpt);
  ModelRegistry registry(ckpt);
  ASSERT_TRUE(registry.Reload().ok());
  InferenceSession session(&registry, spec.factory);

  Tensor in({4, 8});
  Rng rng(99);
  for (std::int64_t i = 0; i < in.size(); ++i) {
    in.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  // First predict is the planning pass, second is steady state; the plan
  // only moves buffers, so the scores must match bit for bit.
  Tensor first, steady;
  ASSERT_TRUE(session.Predict(in, &first).ok());
  ASSERT_TRUE(session.Predict(in, &steady).ok());
  ExpectTensorBitwiseEqual(first, steady, "plan pass vs steady pass");

  for (int budget : {1, 2, 4}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    ScopedThreadBudget tb(budget);
    Tensor out;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(session.Predict(in, &out).ok());
    }
    std::int64_t before = HeapAllocCount();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(session.Predict(in, &out).ok());
    }
    std::int64_t delta = HeapAllocCount() - before;
    if (ZeroAllocAssertsEnabled()) {
      EXPECT_EQ(delta, 0)
          << "steady-state predict performed heap allocations";
    }
    ExpectTensorBitwiseEqual(first, out, "steady pass under budget");
  }
}

TEST(AllocSteadyStateTest, ServeAlternatingBatchSizesStayAllocationFree) {
  // The ShapePlan LRU (util/arena.h) remembers the last 8 input shapes per
  // plan site: alternating batch sizes (A/B/A/B traffic, the common serving
  // pattern of a full batch followed by a remainder batch) must neither
  // allocate nor bump gm.arena.plan_rebuilds once both shapes are warm.
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec("mlp:8:16:2", &spec).ok());
  std::string ckpt = TempPath("alloc_serve_ab.ckpt");
  TrainAndCheckpoint(spec, ckpt);
  ModelRegistry registry(ckpt);
  ASSERT_TRUE(registry.Reload().ok());
  InferenceSession session(&registry, spec.factory);

  Rng rng(17);
  Tensor in_a({4, 8});
  Tensor in_b({2, 8});
  for (Tensor* t : {&in_a, &in_b}) {
    for (std::int64_t i = 0; i < t->size(); ++i) {
      t->data()[i] = static_cast<float>(rng.NextGaussian());
    }
  }
  Tensor out;
  // Warm both shapes (each first visit is a planning pass).
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(session.Predict(in_a, &out).ok());
    ASSERT_TRUE(session.Predict(in_b, &out).ok());
  }
  Counter* rebuilds = MetricsRegistry::Global().counter("gm.arena.plan_rebuilds");
  std::int64_t rebuilds_before = rebuilds->value();
  std::int64_t allocs_before = HeapAllocCount();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(session.Predict(in_a, &out).ok());
    ASSERT_TRUE(session.Predict(in_b, &out).ok());
  }
  EXPECT_EQ(rebuilds->value(), rebuilds_before)
      << "alternating warm shapes re-planned";
  std::int64_t delta = HeapAllocCount() - allocs_before;
  if (ZeroAllocAssertsEnabled()) {
    EXPECT_EQ(delta, 0) << "A/B/A/B shape flips performed heap allocations";
  }
}

TEST(AllocSteadyStateTest, QuantizedServePredictReachesZeroAllocs) {
  // The int8 path must inherit the steady-state contract: quantization
  // happens once at snapshot publish, and GemmQuantB runs with no scratch.
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec("mlp:8:16:2", &spec).ok());
  std::string ckpt = TempPath("alloc_serve_quant.ckpt");
  TrainAndCheckpoint(spec, ckpt);
  ModelRegistry registry(ckpt, /*quantize=*/true);
  ASSERT_TRUE(registry.Reload().ok());
  InferenceSession session(&registry, spec.factory, /*quantize=*/true);

  Tensor in({4, 8});
  Rng rng(23);
  for (std::int64_t i = 0; i < in.size(); ++i) {
    in.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  Tensor out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session.Predict(in, &out).ok());
  }
  std::int64_t before = HeapAllocCount();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(session.Predict(in, &out).ok());
  }
  std::int64_t delta = HeapAllocCount() - before;
  if (ZeroAllocAssertsEnabled()) {
    EXPECT_EQ(delta, 0) << "quantized steady-state predict allocated";
  }
}

// The reduction every prior runs on: once the calling thread's partials
// buffer has grown to the widest fold, repeated folds at width 1 and 2K
// take no heap memory at any budget.
TEST(AllocSteadyStateTest, ChunkedSumReachesZeroAllocsAtEveryBudget) {
  constexpr std::int64_t kN = 5 * kChunkGrain + 17;
  std::vector<float> w(static_cast<std::size_t>(kN));
  for (std::int64_t i = 0; i < kN; ++i) {
    w[static_cast<std::size_t>(i)] = static_cast<float>(i % 97) * 0.01f;
  }
  double sums[8];
  auto folds = [&](int budget) {
    for (int width : {1, 8}) {
      ParallelChunkedSum(
          0, kN, width,
          [&](std::int64_t b, std::int64_t e, double* partial) {
            for (std::int64_t i = b; i < e; ++i) {
              for (int j = 0; j < width; ++j) {
                partial[j] += w[static_cast<std::size_t>(i)];
              }
            }
          },
          sums, budget);
    }
  };
  for (int budget : {1, 2, 4, 8}) {
    folds(budget);  // grows the buffer
    std::int64_t before = HeapAllocCount();
    for (int rep = 0; rep < 4; ++rep) folds(budget);
    std::int64_t delta = HeapAllocCount() - before;
    if (ZeroAllocAssertsEnabled()) {
      EXPECT_EQ(delta, 0) << "budget " << budget;
    }
  }
}

TEST(AllocSteadyStateTest, EveryRegisteredRegularizerKindReachesZeroAllocs) {
  // Iterates the factory's canonical example configs, so a newly registered
  // prior joins this gate automatically (same convention as the property
  // suite's coverage check).
  const std::int64_t kDims = 3 * 1024 + 17;
  const double kScale = 1.0 / 256.0;
  for (const std::string& config : RegularizerExampleConfigs()) {
    SCOPED_TRACE(config);
    std::unique_ptr<Regularizer> reg;
    ASSERT_TRUE(MakeRegularizerFromConfig(config, kDims, &reg).ok());
    Tensor w = testing::MakeBimodalWeightTensor(kDims, /*seed=*/42);
    Tensor grad({kDims});
    grad.SetZero();
    // Warm through the adaptive kinds' warmup epochs and several full lazy
    // intervals; the measured window then still contains E/M refreshes
    // (example-config intervals are small), which must also be alloc-free.
    std::int64_t it = 0;
    for (; it < 64; ++it) {
      reg->AccumulateGradient(w, it, /*epoch=*/it / 8, kScale, &grad);
    }
    std::int64_t before = HeapAllocCount();
    for (; it < 96; ++it) {
      reg->AccumulateGradient(w, it, it / 8, kScale, &grad);
    }
    std::int64_t delta = HeapAllocCount() - before;
    if (ZeroAllocAssertsEnabled()) {
      EXPECT_EQ(delta, 0) << "steady-state AccumulateGradient allocated";
    }
  }
}

}  // namespace
}  // namespace gmreg
