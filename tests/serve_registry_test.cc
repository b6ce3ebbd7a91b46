// Hot-reloadable model registry tests (src/serve/model_registry.h): load /
// publish / version semantics, no-op reload deduplication, corrupt-reload
// keeping the old snapshot serving, topology-mismatch rejection, the
// polling watcher, and InferenceSession rebinding between batches.

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "io/checkpoint.h"
#include "serve/inference_session.h"
#include "serve/model_registry.h"
#include "tensor/tensor.h"
#include "util/fault.h"
#include "util/metrics.h"

namespace gmreg {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::int64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().counter(name)->value();
}

void WriteFileRaw(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  ASSERT_TRUE(out.is_open()) << path;
  out << text;
}

/// A checkpoint whose parameters match the "mlp:2:3:2" serving spec, with
/// every weight set to `fill` (so test predictions are hand-computable and
/// versions are distinguishable).
TrainingCheckpoint MlpCheckpoint(float fill, int epoch) {
  ModelSpec spec;
  GMREG_CHECK(ParseModelSpec("mlp:2:3:2", &spec).ok());
  std::unique_ptr<Layer> net = spec.factory();
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  TrainingCheckpoint ckpt;
  ckpt.epoch = epoch;
  ckpt.iteration = epoch * 10;
  ckpt.learning_rate = 0.01;
  for (const ParamRef& p : params) {
    Tensor value(p.value->shape());
    value.Fill(fill);
    ckpt.param_names.push_back(p.name);
    ckpt.params.push_back(std::move(value));
    ckpt.velocity.push_back(Tensor(p.value->shape()));
  }
  return ckpt;
}

TEST(ModelRegistryTest, LoadsAndPublishesVersionOne) {
  std::string path = TempPath("registry_load.gmckpt");
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(0.5f, 3), path).ok());
  ModelRegistry registry(path);
  EXPECT_EQ(registry.version(), 0);
  EXPECT_EQ(registry.Current(), nullptr);
  Status st = registry.Reload();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(registry.version(), 1);
  std::shared_ptr<const LoadedModel> model = registry.Current();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->version, 1);
  EXPECT_EQ(model->snapshot.epoch, 3);
  ASSERT_EQ(model->snapshot.param_names.size(), 4u);
  EXPECT_EQ(model->snapshot.param_names[0], "fc1/weight");
  EXPECT_EQ(model->snapshot.params[0][0], 0.5f);
}

TEST(ModelRegistryTest, UnchangedFileReloadIsANoop) {
  std::string path = TempPath("registry_noop.gmckpt");
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(0.5f, 1), path).ok());
  ModelRegistry registry(path);
  ASSERT_TRUE(registry.Reload().ok());
  std::shared_ptr<const LoadedModel> first = registry.Current();
  std::int64_t noops_before = CounterValue("gm.serve.reload_noops");
  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_EQ(registry.version(), 1);
  EXPECT_EQ(registry.Current(), first);  // same published object
  EXPECT_EQ(CounterValue("gm.serve.reload_noops"), noops_before + 1);
}

TEST(ModelRegistryTest, NewCheckpointBumpsVersion) {
  std::string path = TempPath("registry_bump.gmckpt");
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(0.5f, 1), path).ok());
  ModelRegistry registry(path);
  ASSERT_TRUE(registry.Reload().ok());
  std::shared_ptr<const LoadedModel> old_model = registry.Current();
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(-2.0f, 2), path).ok());
  std::int64_t reloads_before = CounterValue("gm.serve.reloads");
  ASSERT_TRUE(registry.Reload().ok());
  EXPECT_EQ(registry.version(), 2);
  EXPECT_EQ(CounterValue("gm.serve.reloads"), reloads_before + 1);
  std::shared_ptr<const LoadedModel> fresh = registry.Current();
  EXPECT_EQ(fresh->snapshot.epoch, 2);
  EXPECT_EQ(fresh->snapshot.params[0][0], -2.0f);
  // The old snapshot object is untouched — in-flight readers keep a
  // consistent model for as long as they hold the shared_ptr.
  EXPECT_EQ(old_model->snapshot.params[0][0], 0.5f);
}

TEST(ModelRegistryTest, CorruptReloadKeepsOldModelServing) {
  std::string path = TempPath("registry_corrupt.gmckpt");
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(0.5f, 1), path).ok());
  ModelRegistry registry(path);
  ASSERT_TRUE(registry.Reload().ok());
  std::shared_ptr<const LoadedModel> old_model = registry.Current();
  // Damage the primary AND make sure no .prev fallback exists — the reload
  // has nothing valid to read.
  WriteFileRaw(path, "gmckpt v2\nmeta 9 90 0.01\nparams 1\ngarbage\n");
  std::remove(PreviousCheckpointPath(path).c_str());
  std::int64_t failures_before = CounterValue("gm.serve.reload_failures");
  Status st = registry.Reload();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(CounterValue("gm.serve.reload_failures"), failures_before + 1);
  // Old model still published under the old version.
  EXPECT_EQ(registry.version(), 1);
  EXPECT_EQ(registry.Current(), old_model);
}

TEST(ModelRegistryTest, FaultInjectedTornWriteFallsBackToPrev) {
  // A torn checkpoint write (GMREG_FAULT=torn_write) leaves a truncated
  // primary; the registry's model-only load must fall back to the rotated
  // .prev snapshot and keep serving.
  std::string path = TempPath("registry_torn.gmckpt");
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(0.5f, 1), path).ok());
  // The torn write "succeeds" (rename happens) but persists only half the
  // payload; the epoch-1 snapshot survives the rotation as `.prev`.
  ASSERT_TRUE(FaultInjector::Global().Configure("torn_write").ok());
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(9.0f, 2), path).ok());
  FaultInjector::Global().Reset();
  ModelRegistry registry(path);
  std::int64_t fallbacks_before =
      CounterValue("gm.checkpoint_model_fallback_loads");
  Status st = registry.Reload();
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::shared_ptr<const LoadedModel> model = registry.Current();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->snapshot.epoch, 1);  // the .prev snapshot, not the torn one
  EXPECT_EQ(model->snapshot.params[0][0], 0.5f);
  EXPECT_EQ(CounterValue("gm.checkpoint_model_fallback_loads"),
            fallbacks_before + 1);
}

TEST(ModelRegistryTest, TopologyMismatchIsRejected) {
  std::string path = TempPath("registry_topo.gmckpt");
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(0.5f, 1), path).ok());
  ModelRegistry registry(path);
  ASSERT_TRUE(registry.Reload().ok());
  // A checkpoint from some other model: same format, different parameters.
  TrainingCheckpoint other;
  other.epoch = 2;
  other.learning_rate = 0.01;
  other.param_names = {"conv1/kernel"};
  other.params.push_back(Tensor({4, 4}));
  other.velocity.push_back(Tensor({4, 4}));
  ASSERT_TRUE(SaveCheckpoint(other, path).ok());
  std::remove(PreviousCheckpointPath(path).c_str());
  Status st = registry.Reload();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.version(), 1);
  ASSERT_NE(registry.Current(), nullptr);
  EXPECT_EQ(registry.Current()->snapshot.param_names[0], "fc1/weight");
}

TEST(ModelRegistryTest, MissingFileIsNotFound) {
  ModelRegistry registry(TempPath("registry_missing_does_not_exist.gmckpt"));
  Status st = registry.Reload();
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.version(), 0);
  EXPECT_EQ(registry.Current(), nullptr);
}

TEST(ModelRegistryTest, WatcherPicksUpANewCheckpoint) {
  std::string path = TempPath("registry_watch.gmckpt");
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(0.5f, 1), path).ok());
  ModelRegistry registry(path);
  ASSERT_TRUE(registry.Reload().ok());
  registry.StartWatcher(/*poll_interval_ms=*/10);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(1.5f, 2), path).ok());
  bool swapped = false;
  for (int spin = 0; spin < 500 && !swapped; ++spin) {
    swapped = registry.version() >= 2;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  registry.StopWatcher();
  ASSERT_TRUE(swapped) << "watcher never reloaded the new checkpoint";
  EXPECT_EQ(registry.Current()->snapshot.epoch, 2);
  registry.StopWatcher();  // idempotent
}

// --------------------------------------------------------------------------
// InferenceSession
// --------------------------------------------------------------------------

TEST(InferenceSessionTest, PredictBeforeFirstLoadFailsCleanly) {
  ModelRegistry registry(TempPath("session_noload.gmckpt"));
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec("mlp:2:3:2", &spec).ok());
  InferenceSession session(&registry, spec.factory);
  Tensor in({1, 2});
  Tensor out;
  EXPECT_EQ(session.Predict(in, &out).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.bound_version(), 0);
  EXPECT_EQ(session.bound_epoch(), -1);
}

TEST(InferenceSessionTest, RebindsWhenTheRegistryMoves) {
  std::string path = TempPath("session_rebind.gmckpt");
  // All-zero weights: every logit is exactly 0 regardless of input.
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(0.0f, 1), path).ok());
  ModelRegistry registry(path);
  ASSERT_TRUE(registry.Reload().ok());
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec("mlp:2:3:2", &spec).ok());
  InferenceSession session(&registry, spec.factory);
  Tensor in({1, 2});
  in.At(0, 0) = 1.0f;
  in.At(0, 1) = 1.0f;
  Tensor out;
  ASSERT_TRUE(session.Predict(in, &out).ok());
  EXPECT_EQ(session.bound_version(), 1);
  EXPECT_EQ(session.bound_epoch(), 1);
  ASSERT_EQ(out.dim(0), 1);
  EXPECT_EQ(out.At(0, 0), 0.0f);
  // Publish new weights: with every weight/bias = 0.25 and input (1, 1),
  // hidden pre-act = 0.25*2 + 0.25 = 0.75, logits = 3*(0.75*0.25) + 0.25 =
  // 0.8125 on both classes.
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(0.25f, 2), path).ok());
  ASSERT_TRUE(registry.Reload().ok());
  ASSERT_TRUE(session.Predict(in, &out).ok());
  EXPECT_EQ(session.bound_version(), 2);
  EXPECT_EQ(session.bound_epoch(), 2);
  EXPECT_NEAR(out.At(0, 0), 0.8125f, 1e-6);
  EXPECT_NEAR(out.At(0, 1), 0.8125f, 1e-6);
}

TEST(InferenceSessionTest, WithoutRebindStaysOnTheBoundSnapshot) {
  // The later slices of one oversized request pass rebind = false: a
  // version published mid-request must not answer them.
  std::string path = TempPath("session_pinned.gmckpt");
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(0.0f, 1), path).ok());
  ModelRegistry registry(path);
  ASSERT_TRUE(registry.Reload().ok());
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec("mlp:2:3:2", &spec).ok());
  InferenceSession session(&registry, spec.factory);
  Tensor in({1, 2});
  in.At(0, 0) = 1.0f;
  in.At(0, 1) = 1.0f;
  Tensor out;
  ASSERT_TRUE(session.Predict(in, &out).ok());
  ASSERT_TRUE(SaveCheckpoint(MlpCheckpoint(0.25f, 2), path).ok());
  ASSERT_TRUE(registry.Reload().ok());
  ASSERT_TRUE(session.Predict(in, &out, /*rebind=*/false).ok());
  EXPECT_EQ(session.bound_version(), 1);
  EXPECT_EQ(out.At(0, 0), 0.0f);
  ASSERT_TRUE(session.Predict(in, &out, /*rebind=*/true).ok());
  EXPECT_EQ(session.bound_version(), 2);
  EXPECT_NEAR(out.At(0, 0), 0.8125f, 1e-6);
}

TEST(InferenceSessionTest, ApplySnapshotValidatesBeforeCopying) {
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec("mlp:2:3:2", &spec).ok());
  std::unique_ptr<Layer> net = spec.factory();
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  ModelSnapshot snap;
  snap.param_names = {"fc1/weight"};
  snap.params.push_back(Tensor({3, 2}));
  EXPECT_EQ(ApplyModelSnapshot(snap, params).code(),
            StatusCode::kFailedPrecondition);
  // Right count, wrong shape on the last tensor: nothing may be copied.
  params[0].value->Fill(42.0f);
  ModelSnapshot wrong_shape;
  for (const ParamRef& p : params) {
    wrong_shape.param_names.push_back(p.name);
    wrong_shape.params.push_back(Tensor(p.value->shape()));
  }
  wrong_shape.params.back() = Tensor({17});
  EXPECT_EQ(ApplyModelSnapshot(wrong_shape, params).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*params[0].value)[0], 42.0f) << "partial apply tore the model";
}

// --------------------------------------------------------------------------
// ModelSpec grammar
// --------------------------------------------------------------------------

TEST(ModelSpecTest, ParsesTheThreeArchitectures) {
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec("mlp:33:64:2", &spec).ok());
  EXPECT_EQ(spec.input_shape, (std::vector<std::int64_t>{33}));
  ASSERT_TRUE(ParseModelSpec("alex:8:10", &spec).ok());
  EXPECT_EQ(spec.input_shape, (std::vector<std::int64_t>{3, 8, 8}));
  ASSERT_TRUE(ParseModelSpec("resnet:8:1", &spec).ok());
  EXPECT_EQ(spec.input_shape, (std::vector<std::int64_t>{3, 8, 8}));
  ASSERT_NE(spec.factory, nullptr);
}

TEST(ModelSpecTest, FactoryParamsMatchTrainerCheckpoints) {
  // The contract that makes serving work at all: the spec factory builds a
  // network whose parameter names equal what the Trainer checkpoints.
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec("mlp:2:3:2", &spec).ok());
  std::unique_ptr<Layer> net = spec.factory();
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "fc1/weight");
  EXPECT_EQ(params[1].name, "fc1/bias");
  EXPECT_EQ(params[2].name, "fc2/weight");
  EXPECT_EQ(params[3].name, "fc2/bias");
}

TEST(ModelSpecTest, RejectsMalformedSpecs) {
  ModelSpec spec;
  EXPECT_EQ(ParseModelSpec("vgg:16", &spec).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseModelSpec("mlp:8:16", &spec).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseModelSpec("mlp:8:sixteen:2", &spec).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseModelSpec("mlp:0:16:2", &spec).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseModelSpec("alex:8:10:extra", &spec).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gmreg
