#include "dist/local.h"

#include <algorithm>

#include "core/em.h"
#include "nn/loss.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace gmreg {

LocalShardedSource::LocalShardedSource(
    const DistJobSpec& spec, const Dataset* data, int world,
    const std::vector<ParamRef>& trainer_params)
    : spec_(spec),
      data_(data),
      world_(world),
      trainer_params_(trainer_params),
      replica_(BuildJobModel(spec, *data)) {
  GMREG_CHECK_GE(world, 1);
  replica_->CollectParams(&replica_params_);
  GMREG_CHECK_EQ(replica_params_.size(), trainer_params_.size());
}

double LocalShardedSource::ComputeGradient(std::int64_t iteration,
                                           int epoch) {
  (void)epoch;
  double loss = 0.0;
  for (int rank = 0; rank < world_; ++rank) {
    auto [begin, end] = ShardRange(rank, world_, 0, spec_.batch_size);
    if (begin == end) continue;
    // What the worker does on a GradRequest: load the coordinator's
    // weights, zero local grads, forward/backward its slice.
    for (std::size_t k = 0; k < replica_params_.size(); ++k) {
      std::copy(trainer_params_[k].value->data(),
                trainer_params_[k].value->data() +
                    trainer_params_[k].value->size(),
                replica_params_[k].value->data());
      float* g = replica_params_[k].grad->data();
      std::fill(g, g + replica_params_[k].grad->size(), 0.0f);
    }
    FillWorkerBatch(*data_, spec_, iteration, rank, world_, &input_,
                    &labels_);
    replica_->Forward(input_, &logits_, /*train=*/true);
    double slice_loss =
        SoftmaxCrossEntropy::ForwardBackward(logits_, labels_, &grad_logits_);
    replica_->Backward(grad_logits_, /*grad_in=*/nullptr);
    // What the coordinator does with the reply: rank-order fold with float
    // weight slice_rows / batch_size (rank 0 assigns — so world 1 forwards
    // the replica's gradient bits unchanged, 1.0f * g being exact).
    double weight = static_cast<double>(end - begin) /
                    static_cast<double>(spec_.batch_size);
    auto wf = static_cast<float>(weight);
    for (std::size_t k = 0; k < replica_params_.size(); ++k) {
      const float* src = replica_params_[k].grad->data();
      float* dst = trainer_params_[k].grad->data();
      std::int64_t count = replica_params_[k].grad->size();
      if (rank == 0) {
        for (std::int64_t m = 0; m < count; ++m) dst[m] = wf * src[m];
      } else {
        for (std::int64_t m = 0; m < count; ++m) dst[m] += wf * src[m];
      }
    }
    loss = rank == 0 ? weight * slice_loss : loss + weight * slice_loss;
  }
  return loss;
}

LocalShardedEStep::LocalShardedEStep(int world) : world_(world) {
  GMREG_CHECK_GE(world, 1);
}

void LocalShardedEStep::RunEStep(const GaussianMixture& gm, const float* w,
                                 std::int64_t n, float* greg_out,
                                 GmSuffStats* stats) {
  for (int rank = 0; rank < world_; ++rank) {
    auto [begin, end] = ShardRange(rank, world_, 0, n);
    if (begin == end) continue;
    // What the worker does on an EStepRequest: one serial EStep over its
    // slice (num_threads = 1), greg written in place at the slice offset.
    if (greg_out != nullptr && stats == nullptr) {
      EStep(gm, w + begin, end - begin, greg_out + begin,
            /*stats=*/nullptr, /*num_threads=*/1);
    } else if (stats != nullptr) {
      slice_stats_.Reset(gm.num_components());
      EStep(gm, w + begin, end - begin,
            greg_out == nullptr ? nullptr : greg_out + begin, &slice_stats_,
            /*num_threads=*/1);
      // What the coordinator does with the replies: fold in rank order.
      stats->Merge(slice_stats_);
    }
  }
}

}  // namespace gmreg
