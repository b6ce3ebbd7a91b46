#ifndef GMREG_SERVE_INFERENCE_SESSION_H_
#define GMREG_SERVE_INFERENCE_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "serve/model_registry.h"
#include "util/arena.h"
#include "util/metrics.h"
#include "util/status.h"

namespace gmreg {

/// Builds a fresh, untrained network whose parameter names and shapes match
/// the checkpoints being served. Each inference session owns one instance
/// (layers cache activations, so a network is single-threaded by design)
/// and overwrites its weights from registry snapshots.
using ModelFactory = std::function<std::unique_ptr<Layer>()>;

/// Copies `snap`'s tensors into the network parameters `params` (matched
/// positionally; names and shapes must agree — FailedPrecondition when the
/// checkpoint belongs to a different topology).
Status ApplyModelSnapshot(const ModelSnapshot& snap,
                          const std::vector<ParamRef>& params);

/// A model spec string resolved into something the serving layer can run:
/// a factory plus the per-example input shape (batch dim excluded) that
/// POST /v1/predict rows are validated against.
///
/// Spec grammar (all integers):
///   mlp:<in>:<hidden>:<classes>   two Dense layers ("fc1", "fc2") with a
///                                 ReLU between — input shape {in}
///   alex[:hw[:classes]]           BuildAlexCifar10 — input {3, hw, hw}
///   resnet[:hw[:blocks]]          BuildResNet — input {3, hw, hw}
struct ModelSpec {
  std::string name;  ///< the spec string it was parsed from
  ModelFactory factory;
  std::vector<std::int64_t> input_shape;
};

/// Parses the spec grammar above; InvalidArgument on unknown architectures
/// or malformed/non-positive dimensions.
Status ParseModelSpec(const std::string& spec, ModelSpec* out);

/// One worker's view of the registry: a private network instance that is
/// lazily (re)bound to the registry's current snapshot. The rebind happens
/// between batches — never mid-forward — so a request is always answered by
/// exactly one complete model version (the "no torn model" guarantee).
///
/// NOT thread-safe: create one session per batcher worker.
class InferenceSession {
 public:
  /// `registry` is not owned and must outlive the session. With `quantize`
  /// true the session binds the registry's publish-time int8 weight
  /// snapshots (LoadedModel::quantized) into the network on every rebind,
  /// so eval-mode forwards take the quantized GEMM path; the registry must
  /// then be publishing quantized models (ModelRegistry::EnableQuantization
  /// — Server::Start wires both from ServerOptions::quantize).
  InferenceSession(ModelRegistry* registry, ModelFactory factory,
                   bool quantize = false);

  /// Syncs to the registry's current version if it moved, then runs one
  /// eval-mode forward (Layer::Predict): `in` is [B, ...], `out` receives
  /// [B, C] scores. With `rebind` false the session stays on the snapshot
  /// it is bound to even if the registry moved — how the slices of one
  /// oversized request share a version (BatchHandler). FailedPrecondition
  /// before the registry's first successful load or when the snapshot
  /// does not fit the factory's topology.
  Status Predict(const Tensor& in, Tensor* out, bool rebind = true);

  /// Version/epoch of the snapshot that answered the last Predict (0/-1
  /// before the first bind) — stamped into responses so clients can see
  /// which model served them.
  std::int64_t bound_version() const { return bound_ ? bound_->version : 0; }
  int bound_epoch() const { return bound_ ? bound_->snapshot.epoch : -1; }

 private:
  Status Rebind(std::shared_ptr<const LoadedModel> model);

  ModelRegistry* registry_;
  ModelFactory factory_;
  const bool quantize_;
  Counter* quantized_requests_;  ///< gm.serve.quantized_requests
  std::unique_ptr<Layer> net_;
  std::vector<ParamRef> params_;
  std::shared_ptr<const LoadedModel> bound_;
  // Plan-once shape key: the first batch of a new shape sizes the network's
  // intermediates under an arena planning scope; same-shape predicts then
  // run with zero heap allocations (docs/MEMORY.md). Rebinding to a new
  // model version does not replan — weights are copied into buffers in
  // place.
  ShapePlan plan_;
};

}  // namespace gmreg

#endif  // GMREG_SERVE_INFERENCE_SESSION_H_
