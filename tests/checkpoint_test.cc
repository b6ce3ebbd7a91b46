// Crash-safe checkpoint/resume tests.
//
// The headline property (ISSUE 3 acceptance): a training run killed by the
// fault injector after epoch N and resumed from its checkpoint emits a
// per-epoch JSONL trace bit-identical (up to wall-clock fields) to an
// uninterrupted run with the same seeds — at 1 thread and at 4 threads.
// Around that sit unit tests for the checkpoint file format (checksummed,
// versioned, strict), the save/rotate/retry path, torn-write detection with
// .prev fallback, the GMREG_FAULT spec parser, RNG stream capture, and the
// GmRegularizer state round-trip.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/factory.h"
#include "core/gm_regularizer.h"
#include "io/checkpoint.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "optim/trainer.h"
#include "reg/regularizer.h"
#include "tensor/tensor.h"
#include "testutil/gmreg_testutil.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gmreg {
namespace {

using ::gmreg::testing::TempPath;

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::int64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().counter(name)->value();
}

// --------------------------------------------------------------------------
// Checkpoint file format
// --------------------------------------------------------------------------

Tensor MakeTensor(const std::vector<std::int64_t>& shape, float start,
                  float step) {
  Tensor t(shape);
  float* data = t.data();
  for (std::int64_t i = 0; i < t.size(); ++i) {
    data[i] = start + step * static_cast<float>(i);
  }
  return t;
}

TrainingCheckpoint MakeCheckpoint() {
  TrainingCheckpoint ckpt;
  ckpt.epoch = 5;
  ckpt.iteration = 320;
  ckpt.learning_rate = 0.0125;
  ckpt.has_rng = true;
  ckpt.rng.state = 0x853c49e6748fea9bULL;
  ckpt.rng.inc = 0xda3e39cb94b95bdbULL;
  ckpt.rng.has_cached_gaussian = true;
  ckpt.rng.cached_gaussian = -0.6251938247680664;
  ckpt.param_names = {"fc1/weight", "fc1/bias"};
  ckpt.params.push_back(MakeTensor({3, 4}, -0.25f, 0.0625f));
  ckpt.params.push_back(MakeTensor({4}, 0.1f, -0.003f));
  ckpt.velocity.push_back(MakeTensor({3, 4}, 0.001f, 0.0001f));
  ckpt.velocity.push_back(MakeTensor({4}, -0.002f, 0.0005f));
  ckpt.reg_states.emplace_back("fc1/weight", "gmreg-state v2 opaque blob");
  return ckpt;
}

void ExpectTensorsEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

TEST(CheckpointFormatTest, SerializeDeserializeRoundTrip) {
  TrainingCheckpoint ckpt = MakeCheckpoint();
  std::string text = SerializeCheckpoint(ckpt);
  EXPECT_EQ(text.rfind("gmckpt v2\n", 0), 0u);
  TrainingCheckpoint back;
  Status st = DeserializeCheckpoint(text, &back);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(back.epoch, ckpt.epoch);
  EXPECT_EQ(back.iteration, ckpt.iteration);
  EXPECT_EQ(back.learning_rate, ckpt.learning_rate);
  ASSERT_TRUE(back.has_rng);
  EXPECT_EQ(back.rng.state, ckpt.rng.state);
  EXPECT_EQ(back.rng.inc, ckpt.rng.inc);
  EXPECT_EQ(back.rng.has_cached_gaussian, ckpt.rng.has_cached_gaussian);
  EXPECT_EQ(back.rng.cached_gaussian, ckpt.rng.cached_gaussian);
  ASSERT_EQ(back.param_names, ckpt.param_names);
  ASSERT_EQ(back.params.size(), ckpt.params.size());
  for (std::size_t i = 0; i < ckpt.params.size(); ++i) {
    ExpectTensorsEqual(back.params[i], ckpt.params[i]);
    ExpectTensorsEqual(back.velocity[i], ckpt.velocity[i]);
  }
  ASSERT_EQ(back.reg_states.size(), 1u);
  EXPECT_EQ(back.reg_states[0].first, "fc1/weight");
  EXPECT_EQ(back.reg_states[0].second, "gmreg-state v2 opaque blob");
}

TEST(CheckpointFormatTest, RoundTripWithoutRng) {
  TrainingCheckpoint ckpt = MakeCheckpoint();
  ckpt.has_rng = false;
  TrainingCheckpoint back;
  ASSERT_TRUE(DeserializeCheckpoint(SerializeCheckpoint(ckpt), &back).ok());
  EXPECT_FALSE(back.has_rng);
  EXPECT_EQ(back.param_names, ckpt.param_names);
}

TEST(CheckpointFormatTest, DetectsCorruptionAndTruncation) {
  std::string text = SerializeCheckpoint(MakeCheckpoint());
  TrainingCheckpoint out;

  // A single flipped byte in the payload breaks the checksum.
  std::string flipped = text;
  flipped[text.size() / 2] ^= 0x20;
  Status st = DeserializeCheckpoint(flipped, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos)
      << st.ToString();

  // A torn prefix (what a crash mid-write leaves behind) has no trailer.
  std::string torn = text.substr(0, text.size() / 2);
  EXPECT_EQ(DeserializeCheckpoint(torn, &out).code(),
            StatusCode::kInvalidArgument);

  // Bytes appended after the trailer are rejected, not ignored.
  EXPECT_EQ(DeserializeCheckpoint(text + "extra\n", &out).code(),
            StatusCode::kInvalidArgument);

  // Unknown future version.
  std::string v9 = text;
  v9.replace(v9.find("v2"), 2, "v9");
  EXPECT_EQ(DeserializeCheckpoint(v9, &out).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(DeserializeCheckpoint("", &out).code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Save / rotate / retry / fallback
// --------------------------------------------------------------------------

TEST(CheckpointIoTest, SaveRotatesPreviousSnapshot) {
  std::string path = TempPath("rotate.ckpt");
  std::remove(path.c_str());
  std::remove(PreviousCheckpointPath(path).c_str());

  TrainingCheckpoint first = MakeCheckpoint();
  first.epoch = 1;
  TrainingCheckpoint second = MakeCheckpoint();
  second.epoch = 2;
  ASSERT_TRUE(SaveCheckpoint(first, path).ok());
  EXPECT_FALSE(FileExists(PreviousCheckpointPath(path)));
  ASSERT_TRUE(SaveCheckpoint(second, path).ok());
  ASSERT_TRUE(FileExists(PreviousCheckpointPath(path)));

  TrainingCheckpoint out;
  ASSERT_TRUE(LoadCheckpoint(path, &out).ok());
  EXPECT_EQ(out.epoch, 2);
  ASSERT_TRUE(LoadCheckpoint(PreviousCheckpointPath(path), &out).ok());
  EXPECT_EQ(out.epoch, 1);
}

TEST(CheckpointIoTest, LoadReportsNotFoundWhenMissing) {
  std::string path = TempPath("missing.ckpt");
  std::remove(path.c_str());
  std::remove(PreviousCheckpointPath(path).c_str());
  TrainingCheckpoint out;
  EXPECT_EQ(LoadCheckpoint(path, &out).code(), StatusCode::kNotFound);
  EXPECT_EQ(LoadLatestValidCheckpoint(path, &out).code(),
            StatusCode::kNotFound);
}

TEST(CheckpointIoTest, WriteFailRetriesThenKeepsPreviousSnapshot) {
  std::string path = TempPath("retry.ckpt");
  std::remove(path.c_str());
  std::remove(PreviousCheckpointPath(path).c_str());
  TrainingCheckpoint first = MakeCheckpoint();
  first.epoch = 7;
  ASSERT_TRUE(SaveCheckpoint(first, path).ok());

  std::int64_t retries_before = CounterValue("gm.checkpoint_write_retries");
  std::int64_t failures_before = CounterValue("gm.checkpoint_save_failures");
  ASSERT_TRUE(FaultInjector::Global().Configure("write_fail:1").ok());
  CheckpointIoOptions io;
  io.max_attempts = 3;
  io.initial_backoff_ms = 0;
  Status st = SaveCheckpoint(MakeCheckpoint(), path, io);
  FaultInjector::Global().Reset();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(CounterValue("gm.checkpoint_write_retries"), retries_before + 2);
  EXPECT_EQ(CounterValue("gm.checkpoint_save_failures"), failures_before + 1);

  // The rotation ran before the failed write, so recovery falls back one
  // epoch instead of to zero.
  TrainingCheckpoint out;
  ASSERT_TRUE(LoadLatestValidCheckpoint(path, &out).ok());
  EXPECT_EQ(out.epoch, 7);
}

TEST(CheckpointIoTest, TornWriteDetectedAndFallsBackToPrev) {
  std::string path = TempPath("torn.ckpt");
  std::remove(path.c_str());
  std::remove(PreviousCheckpointPath(path).c_str());
  TrainingCheckpoint first = MakeCheckpoint();
  first.epoch = 3;
  ASSERT_TRUE(SaveCheckpoint(first, path).ok());

  // The torn write "succeeds" (rename happens) but persists only half the
  // payload — the reader must catch it via the checksum.
  ASSERT_TRUE(FaultInjector::Global().Configure("torn_write").ok());
  TrainingCheckpoint second = MakeCheckpoint();
  second.epoch = 4;
  ASSERT_TRUE(SaveCheckpoint(second, path).ok());
  FaultInjector::Global().Reset();

  TrainingCheckpoint out;
  EXPECT_EQ(LoadCheckpoint(path, &out).code(), StatusCode::kInvalidArgument);

  std::int64_t corrupt_before = CounterValue("gm.checkpoint_corrupt_skipped");
  std::int64_t fallback_before = CounterValue("gm.checkpoint_fallback_loads");
  ASSERT_TRUE(LoadLatestValidCheckpoint(path, &out).ok());
  EXPECT_EQ(out.epoch, 3);
  EXPECT_EQ(CounterValue("gm.checkpoint_corrupt_skipped"),
            corrupt_before + 1);
  EXPECT_EQ(CounterValue("gm.checkpoint_fallback_loads"),
            fallback_before + 1);
}

TEST(CheckpointIoTest, CorruptPrimaryWithoutFallbackReportsPrimaryError) {
  std::string path = TempPath("corrupt_only.ckpt");
  std::remove(PreviousCheckpointPath(path).c_str());
  std::ofstream(path) << "gmckpt v2\nnot a real checkpoint\n";
  TrainingCheckpoint out;
  Status st = LoadLatestValidCheckpoint(path, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Fault injector spec parsing
// --------------------------------------------------------------------------

TEST(FaultInjectorTest, ParsesCombinedSpec) {
  FaultInjector& fault = FaultInjector::Global();
  Status st = fault.Configure("write_fail:0.25,torn_write,crash_after_epoch:3");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(fault.enabled());
  EXPECT_EQ(fault.write_fail_probability(), 0.25);
  EXPECT_TRUE(fault.torn_write_armed());
  EXPECT_EQ(fault.crash_after_epoch(), 3);
  // torn_write is one-shot.
  EXPECT_TRUE(fault.ConsumeTornWrite());
  EXPECT_FALSE(fault.ConsumeTornWrite());
  fault.Reset();
  EXPECT_FALSE(fault.enabled());
  EXPECT_EQ(fault.crash_after_epoch(), -1);
}

TEST(FaultInjectorTest, RejectsMalformedSpecs) {
  FaultInjector& fault = FaultInjector::Global();
  EXPECT_EQ(fault.Configure("write_fail:1.5").code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(fault.Configure("write_fail:-0.1").code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(fault.Configure("write_fail:abc").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fault.Configure("crash_after_epoch:-2").code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(fault.Configure("bogus_fault").code(),
            StatusCode::kInvalidArgument);
  // A rejected spec leaves every fault disarmed.
  EXPECT_FALSE(fault.enabled());
  // Empty spec is valid and disarms.
  EXPECT_TRUE(fault.Configure("").ok());
  EXPECT_FALSE(fault.enabled());
}

TEST(FaultInjectorTest, WriteFailProbabilityOneAlwaysFires) {
  FaultInjector& fault = FaultInjector::Global();
  ASSERT_TRUE(fault.Configure("write_fail:1").ok());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(fault.ShouldFailWrite());
  fault.Reset();
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(fault.ShouldFailWrite());
}

// --------------------------------------------------------------------------
// RNG stream capture
// --------------------------------------------------------------------------

TEST(RngStateTest, SaveRestoreContinuesStreamExactly) {
  Rng rng(991);
  for (int i = 0; i < 17; ++i) rng.NextUint32();
  // Leave a Box-Muller value cached so the state capture must include it.
  rng.NextGaussian();
  Rng::State state = rng.SaveState();

  std::vector<double> expected;
  for (int i = 0; i < 9; ++i) expected.push_back(rng.NextGaussian());
  std::vector<std::uint32_t> expected_ints;
  for (int i = 0; i < 9; ++i) expected_ints.push_back(rng.NextUint32());

  Rng other(12345);  // different seed: RestoreState must fully overwrite
  other.RestoreState(state);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(other.NextGaussian(), expected[i]);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(other.NextUint32(), expected_ints[i]);
  }
}

// --------------------------------------------------------------------------
// Regularizer state round-trips
// --------------------------------------------------------------------------

class StatelessReg : public Regularizer {
 public:
  void AccumulateGradient(const Tensor&, std::int64_t, std::int64_t, double,
                          Tensor*) override {}
  double Penalty(const Tensor&) const override { return 0.0; }
  std::string Name() const override { return "Stateless"; }
};

TEST(RegularizerStateTest, StatelessDefaultRejectsPayloads) {
  StatelessReg reg;
  std::string state = "sentinel";
  EXPECT_FALSE(reg.SaveState(&state));
  EXPECT_TRUE(state.empty());
  EXPECT_TRUE(reg.LoadState("").ok());
  EXPECT_EQ(reg.LoadState("gmreg-state v2 ...").code(),
            StatusCode::kInvalidArgument);
}

GmOptions SmallGmOptions() {
  GmOptions gm;
  gm.num_components = 3;
  gm.num_threads = 1;
  gm.lazy.warmup_epochs = 1;
  gm.lazy.greg_interval = 2;
  gm.lazy.gm_interval = 3;
  return gm;
}

TEST(RegularizerStateTest, GmRegularizerRoundTripContinuesExactly) {
  const std::int64_t kDims = 24;
  Rng rng(41);
  Tensor w({4, 6});
  for (std::int64_t i = 0; i < w.size(); ++i) {
    w.data()[i] = static_cast<float>(rng.NextGaussian(0.0, 0.3));
  }

  GmRegularizer reg("w", kDims, SmallGmOptions());
  Tensor grad({4, 6});
  for (std::int64_t it = 0; it < 10; ++it) {
    grad.Fill(0.0f);
    reg.AccumulateGradient(w, it, it / 5, 0.01, &grad);
  }
  std::string state;
  ASSERT_TRUE(reg.SaveState(&state));
  ASSERT_FALSE(state.empty());
  EXPECT_EQ(state.find('\n'), std::string::npos)
      << "state must be a single line for checkpoint embedding";

  GmRegularizer fresh("w", kDims, SmallGmOptions());
  Status st = fresh.LoadState(state);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Learned mixture, counters, penalty and the cached greg all match.
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(fresh.mixture().pi()[static_cast<std::size_t>(k)],
              reg.mixture().pi()[static_cast<std::size_t>(k)]);
    EXPECT_EQ(fresh.mixture().lambda()[static_cast<std::size_t>(k)],
              reg.mixture().lambda()[static_cast<std::size_t>(k)]);
  }
  EXPECT_EQ(fresh.estep_count(), reg.estep_count());
  EXPECT_EQ(fresh.mstep_count(), reg.mstep_count());
  EXPECT_EQ(fresh.greg_cache_hits(), reg.greg_cache_hits());
  EXPECT_EQ(fresh.Penalty(w), reg.Penalty(w));

  // And the next interleaved updates produce bit-identical gradients.
  Tensor g1({4, 6});
  Tensor g2({4, 6});
  for (std::int64_t it = 10; it < 16; ++it) {
    g1.Fill(0.0f);
    g2.Fill(0.0f);
    reg.AccumulateGradient(w, it, 2, 0.01, &g1);
    fresh.AccumulateGradient(w, it, 2, 0.01, &g2);
    for (std::int64_t i = 0; i < g1.size(); ++i) {
      ASSERT_EQ(g1.data()[i], g2.data()[i]) << "iteration " << it;
    }
  }
}

// gmreg-state v2 also carried the E/M wall-clock seconds after the three
// counters. v3 drops them; the loader still reads v2 and skips the two.
TEST(RegularizerStateTest, GmV2StateLoadsLikeItsV3Form) {
  const std::int64_t kDims = 24;
  Rng rng(43);
  Tensor w({4, 6});
  for (std::int64_t i = 0; i < w.size(); ++i) {
    w.data()[i] = static_cast<float>(rng.NextGaussian(0.0, 0.3));
  }
  GmRegularizer reg("w", kDims, SmallGmOptions());
  Tensor grad({4, 6});
  for (std::int64_t it = 0; it < 7; ++it) {
    grad.Fill(0.0f);
    reg.AccumulateGradient(w, it, it / 5, 0.01, &grad);
  }
  std::string v3;
  ASSERT_TRUE(reg.SaveState(&v3));
  ASSERT_EQ(v3.rfind("gmreg-state v3 ", 0), 0u) << v3;
  std::size_t greg_at = v3.find(" greg ");
  ASSERT_NE(greg_at, std::string::npos);
  std::string v2 = v3;
  v2.insert(greg_at, " 0.125 0.25");
  v2.replace(0, 15, "gmreg-state v2 ");

  GmRegularizer from_v2("w", kDims, SmallGmOptions());
  GmRegularizer from_v3("w", kDims, SmallGmOptions());
  ASSERT_TRUE(from_v2.LoadState(v2).ok()) << v2;
  ASSERT_TRUE(from_v3.LoadState(v3).ok());
  std::string resaved_v2, resaved_v3;
  ASSERT_TRUE(from_v2.SaveState(&resaved_v2));
  ASSERT_TRUE(from_v3.SaveState(&resaved_v3));
  EXPECT_EQ(resaved_v2, v3);
  EXPECT_EQ(resaved_v3, v3);
  EXPECT_EQ(from_v2.estep_seconds(), 0.0);
  EXPECT_EQ(from_v2.mstep_seconds(), 0.0);

  // A v2 label on a record without the seconds is malformed.
  std::string mislabeled = v3;
  mislabeled.replace(0, 15, "gmreg-state v2 ");
  EXPECT_EQ(from_v2.LoadState(mislabeled).code(),
            StatusCode::kInvalidArgument);
}

TEST(RegularizerStateTest, GmLoadStateRejectsBadPayloads) {
  GmRegularizer reg("w", 24, SmallGmOptions());
  EXPECT_EQ(reg.LoadState("not a state line").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.LoadState("").code(), StatusCode::kInvalidArgument);

  // A state saved for a different tensor size must not load.
  GmRegularizer other("w", 12, SmallGmOptions());
  std::string state;
  ASSERT_TRUE(other.SaveState(&state));
  EXPECT_EQ(reg.LoadState(state).code(), StatusCode::kFailedPrecondition);

  // Trailing garbage after a valid state is rejected.
  ASSERT_TRUE(reg.SaveState(&state));
  EXPECT_EQ(reg.LoadState(state + " 1.0").code(),
            StatusCode::kInvalidArgument);
}

// A well-formed gmreg-state v3 record with `k` equally weighted components
// and a zero greg over `dims` weights.
std::string GmStateRecord(int k, std::int64_t dims) {
  std::ostringstream oss;
  oss.precision(17);
  oss << "gmreg-state v3 " << k;
  for (int j = 0; j < k; ++j) oss << " " << 1.0 / k;
  for (int j = 0; j < k; ++j) oss << " " << 10.0 * (j + 1);
  oss << " hyper 2 0.5";
  for (int j = 0; j < k; ++j) oss << " 2";
  oss << " counters 0 0 0 greg " << dims;
  for (std::int64_t m = 0; m < dims; ++m) oss << " 0";
  return oss.str();
}

TEST(RegularizerStateTest, GmLoadStateBoundsComponentCount) {
  // The E- and M-steps keep one value per component on the stack, so a
  // record above kMaxGmComponents must fail to load instead of aborting
  // the next step.
  const std::int64_t kDims = 24;
  GmRegularizer reg("w", kDims, SmallGmOptions());
  EXPECT_EQ(reg.LoadState(GmStateRecord(kMaxGmComponents + 1, kDims)).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(reg.mixture().num_components(), 3);

  Status st = reg.LoadState(GmStateRecord(kMaxGmComponents, kDims));
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(reg.mixture().num_components(), kMaxGmComponents);
  Rng rng(43);
  Tensor w({kDims});
  for (std::int64_t m = 0; m < kDims; ++m) {
    w[m] = static_cast<float>(rng.NextGaussian(0.0, 0.3));
  }
  Tensor grad({kDims});
  reg.AccumulateGradient(w, /*iteration=*/0, /*epoch=*/0, 0.01, &grad);
  EXPECT_EQ(reg.estep_count(), 1);
  EXPECT_EQ(reg.mixture().num_components(), kMaxGmComponents);
  for (std::int64_t m = 0; m < kDims; ++m) {
    ASSERT_TRUE(std::isfinite(grad[m])) << "element " << m;
  }
}

// --------------------------------------------------------------------------
// Trainer resume: topology checks and crash/resume determinism
// --------------------------------------------------------------------------

struct RunConfig {
  std::string checkpoint_path;
  std::string trace_path;
  int threads = 1;
  int epochs = 6;
  bool resume = false;
  /// fc1's output width. The GM prior regularizes fc1's 8 x hidden weights:
  /// 48 (one reduction chunk) by default.
  int hidden = 6;
};

// fc1 then holds 8320 weights: two full kChunkGrain chunks and a short
// tail, so budgets above 1 really split the GM reductions.
constexpr int kWideHidden = 1040;

// One complete training setup, reconstructed identically for every run:
// same init seed, same data-stream seed, same GM config. `resume` overlays
// the checkpoint state before training.
std::vector<EpochStats> RunTraining(const RunConfig& cfg) {
  Rng init_rng(1234);
  Sequential net("net");
  net.Emplace<Dense>("fc1", 8, cfg.hidden, InitSpec::Gaussian(0.2),
                     &init_rng);
  net.Emplace<Dense>("fc2", cfg.hidden, 3, InitSpec::Gaussian(0.2),
                     &init_rng);

  TrainOptions opts;
  opts.epochs = cfg.epochs;
  opts.batch_size = 8;
  opts.learning_rate = 0.05;
  opts.lr_schedule = {{4, 0.1}};
  opts.num_train_samples = 64;
  opts.num_threads = cfg.threads;
  opts.metrics_path = cfg.trace_path;
  opts.run_label = "ckpt-test";
  opts.checkpoint_path = cfg.checkpoint_path;
  opts.checkpoint_every = 1;
  Trainer trainer(&net, opts);

  GmOptions gm = SmallGmOptions();
  gm.num_threads = cfg.threads;
  GmRegularizer reg("fc1/weight", 8 * cfg.hidden, gm);
  trainer.AttachRegularizer("fc1/weight", &reg);

  Rng data_rng(777);
  trainer.SetCheckpointRng(&data_rng);
  if (cfg.resume) {
    Status st = trainer.Resume();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  auto batch_fn = [&](Tensor* input, std::vector<int>* labels) {
    if (input->shape() != std::vector<std::int64_t>{8, 8}) {
      *input = Tensor({8, 8});
    }
    labels->clear();
    for (int i = 0; i < 8; ++i) {
      int y = i % 3;
      labels->push_back(y);
      for (int j = 0; j < 8; ++j) {
        input->At(i, j) = static_cast<float>(data_rng.NextGaussian() +
                                             static_cast<double>(y - 1));
      }
    }
  };
  return trainer.Train(batch_fn, /*batches_per_epoch=*/4);
}

TEST(TrainerResumeTest, NoCheckpointIsNotFound) {
  std::string ckpt = TempPath("cold_start.ckpt");
  std::remove(ckpt.c_str());
  std::remove(PreviousCheckpointPath(ckpt).c_str());
  Rng init_rng(1);
  Sequential net("net");
  net.Emplace<Dense>("fc", 4, 2, InitSpec::Gaussian(0.1), &init_rng);
  TrainOptions opts;
  opts.num_train_samples = 16;
  opts.checkpoint_path = ckpt;
  Trainer trainer(&net, opts);
  EXPECT_EQ(trainer.Resume().code(), StatusCode::kNotFound);
}

TEST(TrainerResumeTest, TopologyMismatchIsFailedPrecondition) {
  std::string ckpt = TempPath("topology.ckpt");
  std::remove(ckpt.c_str());
  std::remove(PreviousCheckpointPath(ckpt).c_str());
  // Produce a real checkpoint from the standard setup.
  RunConfig cfg;
  cfg.checkpoint_path = ckpt;
  cfg.epochs = 1;
  RunTraining(cfg);
  ASSERT_TRUE(FileExists(ckpt));

  // A different architecture must be rejected, not silently loaded.
  Rng init_rng(1);
  Sequential net("net");
  net.Emplace<Dense>("fc", 4, 2, InitSpec::Gaussian(0.1), &init_rng);
  TrainOptions opts;
  opts.num_train_samples = 16;
  opts.checkpoint_path = ckpt;
  Trainer trainer(&net, opts);
  EXPECT_EQ(trainer.Resume().code(), StatusCode::kFailedPrecondition);

  // Same shapes but no regularizer attached where the checkpoint has
  // state: also rejected.
  Rng init_rng2(1234);
  Sequential net2("net");
  net2.Emplace<Dense>("fc1", 8, 6, InitSpec::Gaussian(0.2), &init_rng2);
  net2.Emplace<Dense>("fc2", 6, 3, InitSpec::Gaussian(0.2), &init_rng2);
  Trainer trainer2(&net2, [&] {
    TrainOptions o;
    o.num_train_samples = 64;
    o.checkpoint_path = ckpt;
    return o;
  }());
  EXPECT_EQ(trainer2.Resume().code(), StatusCode::kFailedPrecondition);
}

// Compares two epoch records field by field, skipping wall-clock-derived
// fields (elapsed_seconds and the per-regularizer *_seconds accumulators),
// which legitimately differ between runs.
void ExpectSameDeterministicFields(const std::string& interrupted_line,
                                   const std::string& reference_line,
                                   int epoch) {
  JsonValue a;
  JsonValue b;
  ASSERT_TRUE(JsonValue::Parse(interrupted_line, &a).ok())
      << interrupted_line;
  ASSERT_TRUE(JsonValue::Parse(reference_line, &b).ok()) << reference_line;
  ASSERT_TRUE(a.is_object());
  ASSERT_TRUE(b.is_object());
  ASSERT_EQ(a.members.size(), b.members.size()) << "epoch " << epoch;
  for (const auto& [key, value] : a.members) {
    if (key.find("seconds") != std::string::npos) continue;
    const JsonValue* other = b.Find(key);
    ASSERT_NE(other, nullptr) << "epoch " << epoch << " missing " << key;
    ASSERT_EQ(static_cast<int>(value.kind), static_cast<int>(other->kind))
        << "epoch " << epoch << " field " << key;
    switch (value.kind) {
      case JsonValue::Kind::kNumber:
        EXPECT_EQ(value.number, other->number)
            << "epoch " << epoch << " field " << key
            << " diverged: " << value.number << " vs " << other->number;
        break;
      case JsonValue::Kind::kString:
        EXPECT_EQ(value.string_value, other->string_value)
            << "epoch " << epoch << " field " << key;
        break;
      case JsonValue::Kind::kArray:
        ASSERT_EQ(value.items.size(), other->items.size())
            << "epoch " << epoch << " field " << key;
        for (std::size_t i = 0; i < value.items.size(); ++i) {
          EXPECT_EQ(value.items[i].number, other->items[i].number)
              << "epoch " << epoch << " field " << key << "[" << i << "]";
        }
        break;
      default:
        break;
    }
  }
}

// The tentpole property: kill -9 (via the fault injector's std::_Exit)
// after epoch 2 of 6 at `crash_threads`, resume from the checkpoint at
// `resume_threads`, and the concatenated trace is bit-identical to an
// uninterrupted run at `reference_threads` — loss, penalty, lr, learned
// lambda/pi, lazy-update counters, everything but wall-clock.
void CrashThenResumeCase(int crash_threads, int resume_threads,
                         int reference_threads, int hidden,
                         const std::string& tag) {
  std::string ckpt = TempPath("crash_" + tag + ".ckpt");
  std::string ckpt_ref = TempPath("crash_ref_" + tag + ".ckpt");
  std::string trace = TempPath("crash_" + tag + ".jsonl");
  std::string trace_ref = TempPath("crash_ref_" + tag + ".jsonl");
  for (const std::string& p :
       {ckpt, PreviousCheckpointPath(ckpt), ckpt_ref,
        PreviousCheckpointPath(ckpt_ref), trace, trace_ref}) {
    std::remove(p.c_str());
  }

  // "threadsafe" re-executes the binary for the child, so the crashed run
  // happens in a process whose thread pool was never forked mid-flight.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RunConfig crashed;
  crashed.checkpoint_path = ckpt;
  crashed.trace_path = trace;
  crashed.threads = crash_threads;
  crashed.hidden = hidden;
  EXPECT_EXIT(
      {
        if (!FaultInjector::Global().Configure("crash_after_epoch:2").ok()) {
          std::_Exit(7);
        }
        RunTraining(crashed);
      },
      ::testing::ExitedWithCode(kFaultCrashExitCode), "");

  // The killed process left a checkpoint at epoch 3 and flushed trace
  // lines for epochs 0..2.
  ASSERT_TRUE(FileExists(ckpt));
  ASSERT_EQ(ReadLines(trace).size(), 3u);

  RunConfig resumed = crashed;
  resumed.threads = resume_threads;
  resumed.resume = true;
  std::vector<EpochStats> tail = RunTraining(resumed);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().epoch, 3);

  RunConfig reference;
  reference.checkpoint_path = ckpt_ref;
  reference.trace_path = trace_ref;
  reference.threads = reference_threads;
  reference.hidden = hidden;
  std::vector<EpochStats> full = RunTraining(reference);
  ASSERT_EQ(full.size(), 6u);

  std::vector<std::string> lines = ReadLines(trace);
  std::vector<std::string> ref_lines = ReadLines(trace_ref);
  ASSERT_EQ(lines.size(), 6u) << "resumed trace must append, not truncate";
  ASSERT_EQ(ref_lines.size(), 6u);
  for (int e = 0; e < 6; ++e) {
    ExpectSameDeterministicFields(lines[static_cast<std::size_t>(e)],
                                  ref_lines[static_cast<std::size_t>(e)], e);
  }

  // The in-memory stats agree too (stronger than the trace on its own).
  for (int e = 0; e < 3; ++e) {
    EXPECT_EQ(tail[static_cast<std::size_t>(e)].mean_loss,
              full[static_cast<std::size_t>(e + 3)].mean_loss)
        << "epoch " << e + 3;
    EXPECT_EQ(tail[static_cast<std::size_t>(e)].penalty,
              full[static_cast<std::size_t>(e + 3)].penalty)
        << "epoch " << e + 3;
  }
}

// --------------------------------------------------------------------------
// Model-only snapshots (the serving layer's view, src/serve)
// --------------------------------------------------------------------------

TEST(ModelSnapshotTest, ParsesTheModelHalfOfACheckpoint) {
  TrainingCheckpoint ckpt = MakeCheckpoint();
  std::string text = SerializeCheckpoint(ckpt);
  ModelSnapshot snap;
  Status st = ParseModelSnapshot(text, &snap);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(snap.epoch, ckpt.epoch);
  EXPECT_EQ(snap.iteration, ckpt.iteration);
  ASSERT_EQ(snap.param_names, ckpt.param_names);
  ASSERT_EQ(snap.params.size(), ckpt.params.size());
  for (std::size_t i = 0; i < ckpt.params.size(); ++i) {
    ExpectTensorsEqual(snap.params[i], ckpt.params[i]);
  }
  EXPECT_NE(snap.fingerprint, 0u);
  // The fingerprint is the change detector: identical text, identical
  // fingerprint; any edit, a different one.
  ModelSnapshot again;
  ASSERT_TRUE(ParseModelSnapshot(text, &again).ok());
  EXPECT_EQ(again.fingerprint, snap.fingerprint);
  ckpt.epoch += 1;
  ASSERT_TRUE(ParseModelSnapshot(SerializeCheckpoint(ckpt), &again).ok());
  EXPECT_NE(again.fingerprint, snap.fingerprint);
}

TEST(ModelSnapshotTest, OptimizerCorruptionDoesNotBlockModelOnlyLoads) {
  // The ISSUE 4 negative test: damage ONLY the optimizer state (a `vel`
  // momentum line). The strict training load must reject the file; the
  // model-only load must salvage the intact weights.
  std::string path = TempPath("model_salvage.ckpt");
  std::remove(PreviousCheckpointPath(path).c_str());
  TrainingCheckpoint ckpt = MakeCheckpoint();
  std::string text = SerializeCheckpoint(ckpt);
  std::size_t vel_pos = text.find("\nvel ");
  ASSERT_NE(vel_pos, std::string::npos);
  // Corrupt the first velocity value (keep the "vel <name> <rank>" prefix
  // intact so only the numbers are damaged, as bit rot would).
  std::size_t line_end = text.find('\n', vel_pos + 1);
  std::string vel_line = text.substr(vel_pos + 1, line_end - vel_pos - 1);
  std::string damaged_line = vel_line;
  damaged_line.replace(damaged_line.size() - 8, 8, "#garbage");
  std::string damaged = text;
  damaged.replace(vel_pos + 1, vel_line.size(), damaged_line);
  std::ofstream(path, std::ios::binary) << damaged;

  TrainingCheckpoint strict;
  EXPECT_EQ(LoadCheckpoint(path, &strict).code(),
            StatusCode::kInvalidArgument);

  std::int64_t salvages_before = CounterValue("gm.checkpoint_model_salvages");
  ModelSnapshot snap;
  Status st = LoadModelSnapshot(path, &snap);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(snap.param_names, ckpt.param_names);
  for (std::size_t i = 0; i < ckpt.params.size(); ++i) {
    ExpectTensorsEqual(snap.params[i], ckpt.params[i]);
  }
  EXPECT_EQ(CounterValue("gm.checkpoint_model_salvages"),
            salvages_before + 1);
}

TEST(ModelSnapshotTest, DamagedParamLineStillFailsTheModelLoad) {
  // Salvage is blind to optimizer state, NOT to the weights themselves.
  std::string path = TempPath("model_param_damage.ckpt");
  std::remove(PreviousCheckpointPath(path).c_str());
  std::string text = SerializeCheckpoint(MakeCheckpoint());
  std::size_t param_pos = text.find("param fc1/weight");
  ASSERT_NE(param_pos, std::string::npos);
  std::string damaged = text;
  damaged.replace(param_pos + 20, 3, "NaN");
  std::ofstream(path, std::ios::binary) << damaged;
  ModelSnapshot snap;
  EXPECT_FALSE(LoadModelSnapshot(path, &snap).ok());
}

TEST(ModelSnapshotTest, FallsBackToPrevWhenPrimaryIsUnusable) {
  std::string path = TempPath("model_fallback.ckpt");
  TrainingCheckpoint old_ckpt = MakeCheckpoint();
  old_ckpt.epoch = 3;
  ASSERT_TRUE(SaveCheckpoint(old_ckpt, path).ok());
  TrainingCheckpoint new_ckpt = MakeCheckpoint();
  new_ckpt.epoch = 4;
  ASSERT_TRUE(SaveCheckpoint(new_ckpt, path).ok());  // rotates 3 to .prev
  std::ofstream(path, std::ios::trunc) << "gmckpt v2\nshredded\n";
  std::int64_t fallback_before =
      CounterValue("gm.checkpoint_model_fallback_loads");
  ModelSnapshot snap;
  Status st = LoadModelSnapshot(path, &snap);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(snap.epoch, 3);
  EXPECT_EQ(CounterValue("gm.checkpoint_model_fallback_loads"),
            fallback_before + 1);
}

TEST(ModelSnapshotTest, MissingEverythingIsNotFound) {
  std::string path = TempPath("model_nothing_here.ckpt");
  std::remove(path.c_str());
  std::remove(PreviousCheckpointPath(path).c_str());
  ModelSnapshot snap;
  EXPECT_EQ(LoadModelSnapshot(path, &snap).code(), StatusCode::kNotFound);
}

// --------------------------------------------------------------------------
// All-regularizer checkpoint round-trip: for every factory-registered
// prior, a SaveState line embedded in a TrainingCheckpoint survives
// rotation and a one-byte corruption of the latest file (recovery falls
// back to .prev), and replaying the lost steps from the fallback state
// reproduces the original trajectory bit-for-bit.
// --------------------------------------------------------------------------

// Mirrors the property suite's mini-SGD trajectory (serial weight update,
// epoch = iteration/8, scale = 1/256) so the two batteries exercise the
// priors identically.
void StepRegularizer(Regularizer* reg, Tensor* w, int steps, int start_it) {
  Tensor grad(w->shape());
  for (int s = 0; s < steps; ++s) {
    std::int64_t it = start_it + s;
    grad.SetZero();
    reg->AccumulateGradient(*w, it, it / 8, 1.0 / 256.0, &grad);
    float* wp = w->data();
    const float* gp = grad.data();
    for (std::int64_t i = 0; i < w->size(); ++i) wp[i] -= 0.05f * gp[i];
  }
}

TEST(RegFamilyCheckpointTest, CorruptLatestFallsBackAndReplaysBitExact) {
  constexpr std::int64_t kDims = 513;
  for (const std::string& config : RegularizerExampleConfigs()) {
    SCOPED_TRACE(config);
    std::string path = TempPath("reg_family.ckpt");
    std::remove(path.c_str());
    std::remove(PreviousCheckpointPath(path).c_str());

    std::unique_ptr<Regularizer> reg;
    ASSERT_TRUE(MakeRegularizerFromConfig(config, kDims, &reg).ok());
    Tensor w = gmreg::testing::MakeBimodalWeightTensor(kDims, 101);

    // 5 steps, checkpoint; 2 more steps, checkpoint again (rotates the
    // first snapshot to .prev).
    StepRegularizer(reg.get(), &w, 5, 0);
    TrainingCheckpoint ckpt5;
    ckpt5.epoch = 1;
    ckpt5.iteration = 5;
    ckpt5.param_names = {"w"};
    ckpt5.params = {w};
    ckpt5.velocity = {Tensor(w.shape())};
    std::string state5;
    bool has_state = reg->SaveState(&state5);
    if (has_state) ckpt5.reg_states.emplace_back("w", state5);
    ASSERT_TRUE(SaveCheckpoint(ckpt5, path).ok());

    StepRegularizer(reg.get(), &w, 2, 5);
    TrainingCheckpoint ckpt7 = ckpt5;
    ckpt7.epoch = 2;
    ckpt7.iteration = 7;
    ckpt7.params = {w};
    std::string state7;
    reg->SaveState(&state7);
    ckpt7.reg_states.clear();
    if (has_state) ckpt7.reg_states.emplace_back("w", state7);
    ASSERT_TRUE(SaveCheckpoint(ckpt7, path).ok());

    // Flip one byte in the middle of the latest file: the checksum trailer
    // must catch it and recovery must fall back to the .prev snapshot.
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x20;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }

    TrainingCheckpoint recovered;
    Status st = LoadLatestValidCheckpoint(path, &recovered);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(recovered.epoch, 1);
    EXPECT_EQ(recovered.iteration, 5);
    ASSERT_EQ(recovered.reg_states.size(), has_state ? 1u : 0u);

    // Resume: fresh regularizer + fallback state + the recovered weights,
    // replay the 2 lost steps. Weights must match the original run
    // bit-for-bit; so must the state line for priors whose SaveState is a
    // pure function of the trajectory (the GM record embeds wall-clock
    // E/M-step seconds and is compared behaviorally by the property suite).
    std::unique_ptr<Regularizer> resumed;
    ASSERT_TRUE(MakeRegularizerFromConfig(config, kDims, &resumed).ok());
    if (has_state) {
      EXPECT_EQ(recovered.reg_states[0].first, "w");
      Status load = resumed->LoadState(recovered.reg_states[0].second);
      ASSERT_TRUE(load.ok()) << load.ToString();
    }
    Tensor w_resumed = recovered.params[0];
    StepRegularizer(resumed.get(), &w_resumed, 2, 5);
    gmreg::testing::ExpectTensorBitwiseEqual(w, w_resumed,
                                             config + " replayed weights");
    if (config.compare(0, 3, "gm:") != 0 && config != "gm") {
      std::string replayed;
      EXPECT_EQ(resumed->SaveState(&replayed), has_state);
      EXPECT_EQ(replayed, state7) << config;
    }
  }
}

// A state line from one prior must not load into another: the magic (and
// for EP-GIG the mode tag) pins each record to its kind.
TEST(RegFamilyCheckpointTest, StateLinesRejectCrossKindLoads) {
  constexpr std::int64_t kDims = 64;
  std::vector<std::string> stateful_configs;
  std::vector<std::string> states;
  for (const std::string& config : RegularizerExampleConfigs()) {
    std::unique_ptr<Regularizer> reg;
    ASSERT_TRUE(MakeRegularizerFromConfig(config, kDims, &reg).ok());
    std::string state;
    if (reg->SaveState(&state)) {
      stateful_configs.push_back(config);
      states.push_back(state);
    }
  }
  ASSERT_GE(stateful_configs.size(), 4u)
      << "expected gm, epgig (x2) and dynprior to be stateful";
  for (std::size_t i = 0; i < stateful_configs.size(); ++i) {
    for (std::size_t j = 0; j < states.size(); ++j) {
      if (i == j) continue;
      std::unique_ptr<Regularizer> reg;
      ASSERT_TRUE(
          MakeRegularizerFromConfig(stateful_configs[i], kDims, &reg).ok());
      EXPECT_FALSE(reg->LoadState(states[j]).ok())
          << stateful_configs[i] << " accepted state from "
          << stateful_configs[j];
    }
  }
}

TEST(TrainerCrashResumeTest, BitExactTraceSingleThread) {
  CrashThenResumeCase(1, 1, 1, 6, "t1");
}

TEST(TrainerCrashResumeTest, BitExactTraceFourThreads) {
  CrashThenResumeCase(4, 4, 4, 6, "t4");
  // Restore the serial default so later tests in this binary are unaffected
  // by the process-wide thread budget the 4-thread trainers installed.
  SetDefaultNumThreads(1);
}

// A checkpoint carries no thread budget: resuming under another one must
// continue the uninterrupted budget-1 run bit for bit, over a GM tensor
// whose reductions span several chunks.
TEST(TrainerCrashResumeTest, CrashAtBudgetOneResumeAtBudgetFour) {
  CrashThenResumeCase(1, 4, 1, kWideHidden, "b1to4");
  SetDefaultNumThreads(1);
}

TEST(TrainerCrashResumeTest, CrashAtBudgetFourResumeAtBudgetOne) {
  CrashThenResumeCase(4, 1, 1, kWideHidden, "b4to1");
  SetDefaultNumThreads(1);
}

}  // namespace
}  // namespace gmreg
