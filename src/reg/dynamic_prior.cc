#include "reg/dynamic_prior.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"
#include "util/parallel.h"

namespace gmreg {
const char* DynPriorScheduleName(DynPriorSchedule schedule) {
  switch (schedule) {
    case DynPriorSchedule::kExp:
      return "exp";
    case DynPriorSchedule::kInv:
      return "inv";
    case DynPriorSchedule::kCosine:
      break;
  }
  return "cos";
}

DynamicPriorReg::DynamicPriorReg(const DynPriorOptions& options)
    : options_(options) {
  GMREG_CHECK_GE(options.beta, 0.0);
  GMREG_CHECK_GT(options.decay, 0.0);
  GMREG_CHECK_LE(options.decay, 1.0);
  GMREG_CHECK_GE(options.rate, 0.0);
  GMREG_CHECK_GE(options.floor, 0.0);
  GMREG_CHECK_LE(options.floor, options.beta);
  GMREG_CHECK_GE(options.period, 1);
  strength_ = StrengthAt(0);
}

double DynamicPriorReg::StrengthAt(std::int64_t epoch) const {
  double e = static_cast<double>(std::max<std::int64_t>(epoch, 0));
  double s = options_.beta;
  switch (options_.schedule) {
    case DynPriorSchedule::kExp:
      s = options_.beta * std::pow(options_.decay, e);
      break;
    case DynPriorSchedule::kInv:
      s = options_.beta / (1.0 + options_.rate * e);
      break;
    case DynPriorSchedule::kCosine: {
      double frac =
          std::min(e / static_cast<double>(options_.period), 1.0);
      s = options_.floor + (options_.beta - options_.floor) * 0.5 *
                               (1.0 + std::cos(frac * 3.14159265358979323846));
      break;
    }
  }
  return std::max(s, options_.floor);
}

void DynamicPriorReg::AccumulateGradient(const Tensor& w,
                                         std::int64_t iteration,
                                         std::int64_t epoch, double scale,
                                         Tensor* grad) {
  (void)iteration;
  GMREG_CHECK_EQ(w.size(), grad->size());
  if (epoch != last_epoch_) {
    last_epoch_ = epoch;
    strength_ = StrengthAt(epoch);
    ++schedule_steps_;
  }
  auto s = static_cast<float>(scale * strength_);
  if (s == 0.0f) return;
  const float* wp = w.data();
  float* gp = grad->data();
  ParallelFor(0, w.size(), kChunkGrain, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t m = b; m < e; ++m) gp[m] += s * wp[m];
  });
}

double DynamicPriorReg::Penalty(const Tensor& w) const {
  const float* wp = w.data();
  double sq = ParallelChunkedSum(
      0, w.size(), [&](std::int64_t b, std::int64_t e) {
        double acc = 0.0;
        for (std::int64_t m = b; m < e; ++m) {
          double x = static_cast<double>(wp[m]);
          acc += x * x;
        }
        return acc;
      });
  return 0.5 * strength_ * sq;
}

void DynamicPriorReg::AppendMetrics(const std::string& prefix,
                                    MetricsRecord* record) const {
  record->AddString(prefix + ".schedule",
                    DynPriorScheduleName(options_.schedule));
  record->AddDouble(prefix + ".strength", strength_);
  record->AddInt(prefix + ".epoch", last_epoch_);
  record->AddInt(prefix + ".schedule_steps", schedule_steps_);
}

bool DynamicPriorReg::SaveState(std::string* out) const {
  std::ostringstream oss;
  oss.precision(17);
  oss << "dynprior-state v1 " << DynPriorScheduleName(options_.schedule)
      << " " << strength_ << " " << last_epoch_ << " " << schedule_steps_;
  *out = oss.str();
  return true;
}

Status DynamicPriorReg::LoadState(const std::string& text) {
  std::istringstream iss(text);
  std::string magic, version, schedule;
  double strength = 0.0;
  std::int64_t epoch = 0, steps = 0;
  if (!(iss >> magic >> version) || magic != "dynprior-state") {
    return Status::InvalidArgument("not a 'dynprior-state' record");
  }
  if (version != "v1") {
    return Status::InvalidArgument("unsupported dynprior-state version '" +
                                   version + "'");
  }
  if (!(iss >> schedule >> strength >> epoch >> steps)) {
    return Status::InvalidArgument("truncated dynprior-state record");
  }
  if (schedule != DynPriorScheduleName(options_.schedule)) {
    return Status::FailedPrecondition(
        "dynprior-state schedule '" + schedule +
        "' does not match configured '" +
        DynPriorScheduleName(options_.schedule) + "'");
  }
  if (!std::isfinite(strength) || strength < 0.0) {
    return Status::OutOfRange("dynprior-state strength must be finite >= 0");
  }
  if (epoch < 0 || steps < 0) {
    return Status::InvalidArgument("bad counters in dynprior-state");
  }
  std::string extra;
  if (iss >> extra) {
    return Status::InvalidArgument("trailing garbage in dynprior-state: '" +
                                   extra + "'");
  }
  strength_ = strength;
  last_epoch_ = epoch;
  schedule_steps_ = steps;
  return Status::Ok();
}

}  // namespace gmreg
