// Regenerates Fig. 6: convergence time for GM-parameter update intervals
// Ig in {50, 100, 200, 500} with Im fixed at 50, for both deep models.
//
// Paper's shape: time decreases monotonically as Ig grows, because the
// paper's M-step re-reads the whole high-dimensional parameter vector
// (computing responsibilities plus new lambda/pi) every Ig iterations. The
// effect is small even at paper scale (~4% of total time). Here every Ig
// in the sweep is a multiple of Im = 50, so each M-step shares its pass
// over w with a greg refresh (docs/ALGORITHM.md) and raising Ig saves only
// the O(K) closed-form update. Alongside wall time we therefore report the
// number of M-steps executed — the quantity Ig schedules — which decreases
// exactly as scheduled.

#include <iostream>

#include "bench_util.h"
#include "deep_bench_util.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace gmreg;
  bench::PrintHeader(
      "Fig. 6: convergence time for Ig & Im combinations (Im = 50)",
      "Ig in {50, 100, 200, 500}, both models.");

  CifarLikePair data = bench::DeepSweepData();
  const std::int64_t igs[] = {50, 100, 200, 500};
  CsvWriter csv(bench::CsvPath("fig6_gm_interval"),
                {"model", "ig", "im", "total_seconds", "msteps", "esteps",
                 "accuracy"});
  bench::JsonSummary summary("fig6_gm_interval", "cifar-like-sweep");
  for (int m = 0; m < 2; ++m) {
    DeepModel model = m == 0 ? DeepModel::kAlexCifar10 : DeepModel::kResNet;
    DeepExperimentOptions opts = bench::DeepOptions(model, data);
    opts.batch_size = 2;  // see bench_fig5's substrate note
    opts.epochs = ScalePick(2, 8, 20);
    opts.gm.lazy.warmup_epochs = 1;
    opts.gm.lazy.greg_interval = 50;
    TablePrinter table({"Ig & Im", "total time (s)", "M-steps",
                        "test accuracy"});
    std::vector<double> msteps_per_ig;
    std::vector<double> seconds_per_ig;
    for (std::int64_t ig : igs) {
      opts.gm.lazy.gm_interval = ig;
      DeepExperimentResult r = RunDeepExperiment(data, opts, DeepRegKind::kGm);
      table.AddRow({StrFormat("%lld&50", static_cast<long long>(ig)),
                    StrFormat("%.2f", r.total_seconds),
                    StrFormat("%lld", static_cast<long long>(r.total_msteps)),
                    StrFormat("%.3f", r.test_accuracy)});
      csv.WriteRow({DeepModelName(model),
                    StrFormat("%lld", static_cast<long long>(ig)), "50",
                    StrFormat("%.3f", r.total_seconds),
                    StrFormat("%lld", static_cast<long long>(r.total_msteps)),
                    StrFormat("%lld", static_cast<long long>(r.total_esteps)),
                    StrFormat("%.4f", r.test_accuracy)});
      msteps_per_ig.push_back(static_cast<double>(r.total_msteps));
      seconds_per_ig.push_back(r.total_seconds);
    }
    std::printf("-- %s --\n", DeepModelName(model));
    table.Print(std::cout);
    std::printf("\n");
    std::string prefix = DeepModelName(model);
    summary.AddList(prefix + ".msteps_per_ig", msteps_per_ig);
    summary.AddList(prefix + ".total_seconds_per_ig", seconds_per_ig);
  }
  summary.Write();
  std::printf(
      "Paper reference (Fig. 6): convergence time shrinks as Ig grows\n"
      "(Alex ~990 -> ~950 s, ResNet ~5850 -> ~5600 s at their scale, ~4%%).\n"
      "Expected here: monotonically fewer M-steps (the quantity Ig\n"
      "controls); each shares its pass over w with a greg refresh, so the\n"
      "wall-time saving sits inside measurement noise; accuracy flat across\n"
      "settings.\n");
  return 0;
}
