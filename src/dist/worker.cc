#include "dist/worker.h"

#include <algorithm>

#include "core/em.h"
#include "core/merge.h"
#include "dist/wire.h"
#include "nn/loss.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/net.h"
#include "util/parallel.h"

namespace gmreg {
namespace {

/// One worker's long-lived state: the job replica (dataset + network) plus
/// reusable buffers. Everything request-dependent is overwritten per
/// request.
struct WorkerState {
  Dataset data;
  std::unique_ptr<Sequential> net;
  std::vector<ParamRef> params;
  Tensor input;
  std::vector<int> labels;
  Tensor logits;
  Tensor grad_logits;
  GmSuffStats stats;
  std::vector<float> greg;
};

Status ServeGradRequest(const DistJobSpec& spec,
                        const DistWorkerOptions& options, WorkerState* state,
                        int fd, const std::string& payload) {
  GradRequestMsg request;
  GMREG_RETURN_IF_ERROR(GradRequestMsg::Decode(payload, &request));
  if (request.params.size() != state->params.size()) {
    return Status::FailedPrecondition(
        "grad-request parameter count does not match the job's network");
  }
  for (std::size_t k = 0; k < state->params.size(); ++k) {
    const std::vector<float>& src = request.params[k];
    if (static_cast<std::int64_t>(src.size()) !=
        state->params[k].value->size()) {
      return Status::FailedPrecondition(
          "grad-request parameter shape does not match the job's network");
    }
    std::copy(src.begin(), src.end(), state->params[k].value->data());
    float* g = state->params[k].grad->data();
    std::fill(g, g + state->params[k].grad->size(), 0.0f);
  }
  FillWorkerBatch(state->data, spec, request.step, options.rank,
                  options.world, &state->input, &state->labels);
  GradReplyMsg reply;
  reply.step = request.step;
  if (state->labels.empty()) {
    // Degenerate slice (batch smaller than the world); contributes weight 0
    // at the coordinator, so zero grads are exact.
    reply.loss = 0.0;
  } else {
    state->net->Forward(state->input, &state->logits, /*train=*/true);
    reply.loss = SoftmaxCrossEntropy::ForwardBackward(
        state->logits, state->labels, &state->grad_logits);
    state->net->Backward(state->grad_logits, /*grad_in=*/nullptr);
  }
  reply.grads.reserve(state->params.size());
  for (const ParamRef& p : state->params) {
    reply.grads.emplace_back(p.grad->data(), p.grad->data() + p.grad->size());
  }
  GMREG_RETURN_IF_ERROR(
      WriteFrame(fd, static_cast<std::uint8_t>(DistFrame::kGradReply),
                 reply.Encode()));
  // The mid-epoch kill point: after the reply is on the wire, exactly the
  // worst moment — the coordinator holds a gradient whose producer is gone.
  FaultInjector::Global().MaybeCrashAfterStep(request.step);
  return Status::Ok();
}

Status ServeEStepRequest(WorkerState* state, int fd,
                         const std::string& payload) {
  EStepRequestMsg request;
  GMREG_RETURN_IF_ERROR(EStepRequestMsg::Decode(payload, &request));
  GaussianMixture gm = GaussianMixture::FromSerialized(std::move(request.pi),
                                                       std::move(request.lambda));
  auto n = static_cast<std::int64_t>(request.w.size());
  EStepReplyMsg reply;
  reply.seq = request.seq;
  if (n > 0) {
    float* greg_out = nullptr;
    if (request.want_greg) {
      state->greg.resize(request.w.size());
      greg_out = state->greg.data();
    }
    GmSuffStats* stats = nullptr;
    if (request.want_stats) {
      state->stats.Reset(gm.num_components());
      stats = &state->stats;
    }
    // Serial E-step over the slice (num_threads = 1): the per-slice
    // arithmetic every world size agrees on.
    EStep(gm, request.w.data(), n, greg_out, stats, /*num_threads=*/1);
    if (request.want_greg) reply.greg = state->greg;
    if (request.want_stats) {
      reply.stats_encoded = EncodeGmSuffStats(state->stats);
    }
  }
  return WriteFrame(fd, static_cast<std::uint8_t>(DistFrame::kEStepReply),
                    reply.Encode());
}

}  // namespace

int RunDistWorker(const DistJobSpec& spec, const DistWorkerOptions& options) {
  GMREG_CHECK_GE(options.rank, 0);
  GMREG_CHECK_LT(options.rank, options.world);
  // Serial kernels only: workers are the determinism baseline, and a
  // thread budget of 1 never instantiates the global pool, keeping the
  // enclosing process tree fork-safe (docs/PARALLELISM.md).
  SetDefaultNumThreads(1);
  WorkerState state;
  state.data = BuildJobDataset(spec);
  state.net = BuildJobModel(spec, state.data);
  state.net->CollectParams(&state.params);

  int fd = -1;
  Status st = ConnectLoopback(options.port, &fd);
  if (!st.ok()) {
    GMREG_LOG(Error) << "worker " << options.rank
                     << ": connect failed: " << st.ToString();
    return 1;
  }
  HelloMsg hello;
  hello.rank = static_cast<std::uint32_t>(options.rank);
  hello.world = static_cast<std::uint32_t>(options.world);
  st = WriteFrame(fd, static_cast<std::uint8_t>(DistFrame::kHello),
                  hello.Encode());
  std::uint8_t type = 0;
  std::string payload;
  if (st.ok()) st = ReadFrame(fd, &type, &payload);
  if (st.ok() && type != static_cast<std::uint8_t>(DistFrame::kWelcome)) {
    st = Status::InvalidArgument("expected a welcome frame");
  }
  if (!st.ok()) {
    GMREG_LOG(Error) << "worker " << options.rank
                     << ": admission failed: " << st.ToString();
    CloseFd(fd);
    return 1;
  }

  int exit_code = 1;
  while (true) {
    st = ReadFrame(fd, &type, &payload);
    if (!st.ok()) {
      // Coordinator gone (EOF mid-run is how a coordinator crash looks from
      // here). Nothing to save — workers are stateless.
      GMREG_LOG(Warning) << "worker " << options.rank
                         << ": coordinator connection lost: " << st.ToString();
      break;
    }
    if (type == static_cast<std::uint8_t>(DistFrame::kShutdown)) {
      exit_code = 0;
      break;
    } else if (type == static_cast<std::uint8_t>(DistFrame::kGradRequest)) {
      st = ServeGradRequest(spec, options, &state, fd, payload);
    } else if (type == static_cast<std::uint8_t>(DistFrame::kEStepRequest)) {
      st = ServeEStepRequest(&state, fd, payload);
    } else {
      st = Status::InvalidArgument("unexpected frame type from coordinator");
    }
    if (!st.ok()) {
      GMREG_LOG(Error) << "worker " << options.rank << ": " << st.ToString();
      break;
    }
  }
  CloseFd(fd);
  return exit_code;
}

}  // namespace gmreg
