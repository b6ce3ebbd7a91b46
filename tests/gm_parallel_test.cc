// Determinism and coverage tests of the parallel execution layer
// (util/parallel.h) and the sharded E-step/M-step built on it. The
// contract under test (docs/PARALLELISM.md):
//  * greg written by a parallel E-step is bitwise identical to serial;
//  * shard statistics merge in fixed shard order, so a given thread budget
//    is bitwise reproducible run-to-run and matches serial within 1e-12;
//  * ranges smaller than the grain (and empty ranges) stay serial and
//    behave identically.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/em.h"
#include "core/gm_regularizer.h"
#include "gtest/gtest.h"
#include "tensor/tensor.h"
#include "testutil/gmreg_testutil.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gmreg {
namespace {

// The canonical bimodal weight fixture now lives in gmreg_testutil — the
// property suite and bench drivers draw from the same distribution.
using ::gmreg::testing::MakeBimodalWeights;

std::vector<float> MakeWeights(std::int64_t n, std::uint64_t seed) {
  return MakeBimodalWeights(n, seed);
}

Tensor MakeWeightTensor(std::int64_t n, std::uint64_t seed) {
  return ::gmreg::testing::MakeBimodalWeightTensor(n, seed);
}

// ---------------------------------------------------------------------------
// ParallelFor / ParallelReduce / ComputeNumShards

TEST(ComputeNumShardsTest, RespectsGrainAndThreadBudget) {
  EXPECT_EQ(ComputeNumShards(0, 64, 4), 0);
  EXPECT_EQ(ComputeNumShards(-5, 64, 4), 0);
  EXPECT_EQ(ComputeNumShards(1, 64, 4), 1);
  EXPECT_EQ(ComputeNumShards(64, 64, 4), 1);   // exactly one grain
  EXPECT_EQ(ComputeNumShards(65, 64, 4), 2);   // just over one grain
  EXPECT_EQ(ComputeNumShards(std::int64_t{1} << 20, 64, 4), 4);
  EXPECT_EQ(ComputeNumShards(1000, 1, 1), 1);  // serial budget wins
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr std::int64_t kN = 100003;  // prime: uneven shard boundaries
  std::vector<int> hits(kN, 0);
  ParallelFor(
      0, kN, /*grain=*/64,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
      },
      /*num_threads=*/4);
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyAndSingleElementRanges) {
  int calls = 0;
  ParallelFor(0, 0, 16, [&](std::int64_t, std::int64_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
  ParallelFor(
      7, 8, 16,
      [&](std::int64_t b, std::int64_t e) {
        EXPECT_EQ(b, 7);
        EXPECT_EQ(e, 8);
        ++calls;
      },
      4);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, SerialBudgetRunsOnCallingThread) {
  std::thread::id caller = std::this_thread::get_id();
  ParallelFor(
      0, std::int64_t{1} << 16, /*grain=*/16,
      [&](std::int64_t, std::int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
      },
      /*num_threads=*/1);
}

TEST(ParallelForTest, ShardBoundariesAreDeterministic) {
  auto collect = [](int threads) {
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges(16);
    std::atomic<int> used{0};
    ParallelForShards(
        0, 1000, /*grain=*/10,
        [&](int s, std::int64_t b, std::int64_t e) {
          ranges[static_cast<std::size_t>(s)] = {b, e};
          used.fetch_add(1);
        },
        threads);
    ranges.resize(static_cast<std::size_t>(used.load()));
    return ranges;
  };
  auto a = collect(4);
  auto b = collect(4);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a, b);
  // Contiguous cover of [0, 1000) in shard order.
  std::int64_t expect_begin = 0;
  for (const auto& [rb, re] : a) {
    EXPECT_EQ(rb, expect_begin);
    expect_begin = re;
  }
  EXPECT_EQ(expect_begin, 1000);
}

TEST(ParallelReduceTest, MatchesSerialSumExactlyOnIntegers) {
  constexpr std::int64_t kN = 100000;
  auto map = [](std::int64_t b, std::int64_t e) {
    std::int64_t acc = 0;
    for (std::int64_t i = b; i < e; ++i) acc += i;
    return acc;
  };
  auto reduce = [](std::int64_t a, std::int64_t b) { return a + b; };
  std::int64_t serial = ParallelReduce(std::int64_t{0}, kN, std::int64_t{1000},
                                       std::int64_t{0}, map, reduce, 1);
  std::int64_t parallel = ParallelReduce(std::int64_t{0}, kN, std::int64_t{1000},
                                         std::int64_t{0}, map, reduce, 4);
  EXPECT_EQ(serial, kN * (kN - 1) / 2);
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelReduceTest, ShardOrderReductionIsBitwiseReproducible) {
  std::vector<float> w = MakeWeights(1 << 16, 5);
  auto run = [&] {
    return ParallelReduce(
        std::int64_t{0}, static_cast<std::int64_t>(w.size()),
        std::int64_t{1024}, 0.0,
        [&](std::int64_t b, std::int64_t e) {
          double acc = 0.0;
          for (std::int64_t i = b; i < e; ++i) {
            acc += std::exp(-static_cast<double>(w[static_cast<std::size_t>(i)]) *
                            w[static_cast<std::size_t>(i)]);
          }
          return acc;
        },
        [](double a, double b) { return a + b; }, 4);
  };
  double first = run();
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(run(), first) << "repetition " << rep;
  }
}

TEST(ParallelNestingTest, NestedParallelCallsFallBackToSerial) {
  std::vector<int> hits(4096, 0);
  ParallelFor(
      0, 4096, /*grain=*/64,
      [&](std::int64_t b, std::int64_t e) {
        // Inner region must serialize instead of deadlocking the pool.
        EXPECT_TRUE(InParallelRegion());
        ParallelFor(
            b, e, 1,
            [&](std::int64_t ib, std::int64_t ie) {
              for (std::int64_t i = ib; i < ie; ++i) {
                ++hits[static_cast<std::size_t>(i)];
              }
            },
            4);
      },
      4);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

// A pool worker can wake after the job it was woken for has finished and
// Run() has returned. Back-to-back small jobs make that window common: a
// worker that then joined the cleared job would call a null function or
// claim the next job's tickets. Every task of every job must run exactly
// once.
TEST(ThreadPoolStressTest, BackToBackSmallJobsRunEveryTaskOnce) {
  constexpr int kJobs = 100000;
  for (int budget : {2, 4, 8}) {
    std::vector<int> hits(static_cast<std::size_t>(budget), 0);
    std::int64_t bad_jobs = 0;
    for (int job = 0; job < kJobs; ++job) {
      ParallelFor(
          0, budget, /*grain=*/1,
          [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
              ++hits[static_cast<std::size_t>(i)];
            }
          },
          budget);
      for (int& h : hits) {
        if (h != 1) ++bad_jobs;
        h = 0;
      }
    }
    EXPECT_EQ(bad_jobs, 0) << "budget " << budget;
  }
}

// ---------------------------------------------------------------------------
// Sharded E-step determinism, across sizes below and above the grain.

class EStepDeterminismTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(EStepDeterminismTest, GregBitwiseMatchesSerial) {
  std::int64_t n = GetParam();
  std::vector<float> w = MakeWeights(n, 3);
  GaussianMixture gm =
      GaussianMixture::Initialize(4, GmInitMethod::kLinear, 10.0);
  std::vector<float> greg_serial(static_cast<std::size_t>(n), -1.0f);
  std::vector<float> greg_parallel(static_cast<std::size_t>(n), -2.0f);
  EStep(gm, w.data(), n, greg_serial.data(), nullptr, /*num_threads=*/1);
  EStep(gm, w.data(), n, greg_parallel.data(), nullptr, /*num_threads=*/4);
  for (std::int64_t i = 0; i < n; ++i) {
    // Exact float equality: disjoint slices + identical per-element math.
    ASSERT_EQ(greg_serial[static_cast<std::size_t>(i)],
              greg_parallel[static_cast<std::size_t>(i)])
        << "element " << i << " of " << n;
  }
}

TEST_P(EStepDeterminismTest, SuffStatsMatchSerialWithinTolerance) {
  std::int64_t n = GetParam();
  std::vector<float> w = MakeWeights(n, 9);
  GaussianMixture gm =
      GaussianMixture::Initialize(4, GmInitMethod::kLinear, 10.0);
  GmSuffStats serial, parallel, parallel_again;
  serial.Reset(4);
  parallel.Reset(4);
  parallel_again.Reset(4);
  EStep(gm, w.data(), n, nullptr, &serial, /*num_threads=*/1);
  EStep(gm, w.data(), n, nullptr, &parallel, /*num_threads=*/4);
  EStep(gm, w.data(), n, nullptr, &parallel_again, /*num_threads=*/4);
  EXPECT_EQ(serial.count, n);
  EXPECT_EQ(parallel.count, n);
  for (int k = 0; k < 4; ++k) {
    auto ks = static_cast<std::size_t>(k);
    // Serial vs parallel differ only in double summation order: 1e-12 rel.
    EXPECT_NEAR(serial.resp_sum[ks], parallel.resp_sum[ks],
                1e-12 * std::max(1.0, std::fabs(serial.resp_sum[ks])));
    EXPECT_NEAR(serial.resp_w2_sum[ks], parallel.resp_w2_sum[ks],
                1e-12 * std::max(1.0, std::fabs(serial.resp_w2_sum[ks])));
    // Fixed-shard-order reduction: repeated parallel runs are bitwise equal.
    EXPECT_EQ(parallel.resp_sum[ks], parallel_again.resp_sum[ks]);
    EXPECT_EQ(parallel.resp_w2_sum[ks], parallel_again.resp_w2_sum[ks]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EStepDeterminismTest,
                         ::testing::Values(std::int64_t{0}, std::int64_t{1},
                                           std::int64_t{7}, std::int64_t{1000},
                                           kEStepGrain - 1, kEStepGrain + 1,
                                           std::int64_t{1} << 17));

// ---------------------------------------------------------------------------
// GmRegularizer: CalcRegGrad / UptGmParam / Penalty under a thread budget.

GmOptions ThreadedOptions(int num_threads) {
  GmOptions opts;
  opts.num_threads = num_threads;
  return opts;
}

TEST(GmRegularizerParallelTest, CalcRegGradBitwiseMatchesSerial) {
  constexpr std::int64_t kN = (std::int64_t{1} << 17) + 13;
  Tensor w = MakeWeightTensor(kN, 21);
  GmRegularizer serial("w", kN, ThreadedOptions(1));
  GmRegularizer parallel("w", kN, ThreadedOptions(4));
  serial.CalcRegGrad(w);
  parallel.CalcRegGrad(w);
  EXPECT_EQ(serial.estep_count(), 1);
  EXPECT_EQ(parallel.num_threads_resolved(), 4);
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(serial.greg()[i], parallel.greg()[i]) << "element " << i;
  }
}

TEST(GmRegularizerParallelTest, UptGmParamMatchesSerialWithinTolerance) {
  constexpr std::int64_t kN = (std::int64_t{1} << 17) + 13;
  Tensor w = MakeWeightTensor(kN, 22);
  GmRegularizer serial("w", kN, ThreadedOptions(1));
  GmRegularizer parallel("w", kN, ThreadedOptions(4));
  for (int step = 0; step < 3; ++step) {
    serial.UptGmParam(w);
    parallel.UptGmParam(w);
    for (int k = 0; k < serial.mixture().num_components(); ++k) {
      auto ks = static_cast<std::size_t>(k);
      EXPECT_NEAR(serial.mixture().pi()[ks], parallel.mixture().pi()[ks],
                  1e-12)
          << "step " << step << " component " << k;
      EXPECT_NEAR(serial.mixture().lambda()[ks],
                  parallel.mixture().lambda()[ks],
                  1e-12 * std::max(1.0, serial.mixture().lambda()[ks]))
          << "step " << step << " component " << k;
    }
  }
}

TEST(GmRegularizerParallelTest, ParallelRunsAreBitwiseReproducible) {
  constexpr std::int64_t kN = (std::int64_t{1} << 17) + 13;
  Tensor w = MakeWeightTensor(kN, 23);
  GmRegularizer a("w", kN, ThreadedOptions(4));
  GmRegularizer b("w", kN, ThreadedOptions(4));
  for (int step = 0; step < 3; ++step) {
    a.UptGmParam(w);
    b.UptGmParam(w);
    a.CalcRegGrad(w);
    b.CalcRegGrad(w);
  }
  for (int k = 0; k < a.mixture().num_components(); ++k) {
    auto ks = static_cast<std::size_t>(k);
    EXPECT_EQ(a.mixture().pi()[ks], b.mixture().pi()[ks]);
    EXPECT_EQ(a.mixture().lambda()[ks], b.mixture().lambda()[ks]);
  }
  for (std::int64_t i = 0; i < kN; i += 997) {
    ASSERT_EQ(a.greg()[i], b.greg()[i]) << "element " << i;
  }
  EXPECT_EQ(a.Penalty(w), b.Penalty(w));
}

TEST(GmRegularizerParallelTest, PenaltyMatchesSerialWithinTolerance) {
  constexpr std::int64_t kN = (std::int64_t{1} << 17) + 13;
  Tensor w = MakeWeightTensor(kN, 24);
  GmRegularizer serial("w", kN, ThreadedOptions(1));
  GmRegularizer parallel("w", kN, ThreadedOptions(4));
  double ps = serial.Penalty(w);
  double pp = parallel.Penalty(w);
  EXPECT_NEAR(ps, pp, 1e-12 * std::max(1.0, std::fabs(ps)));
}

TEST(GmRegularizerParallelTest, AccumulateGradientStaysCloseAcrossBudgets) {
  // End-to-end lazy loop: tiny reduction-order differences in the M-step
  // may drift the mixtures apart at the ulp level, so this is a tolerance
  // check, not a bitwise one.
  constexpr std::int64_t kN = (std::int64_t{1} << 15) + 5;
  Tensor w = MakeWeightTensor(kN, 25);
  GmOptions serial_opts = ThreadedOptions(1);
  GmOptions parallel_opts = ThreadedOptions(4);
  serial_opts.lazy.warmup_epochs = parallel_opts.lazy.warmup_epochs = 0;
  serial_opts.lazy.greg_interval = parallel_opts.lazy.greg_interval = 2;
  serial_opts.lazy.gm_interval = parallel_opts.lazy.gm_interval = 3;
  GmRegularizer serial("w", kN, serial_opts);
  GmRegularizer parallel("w", kN, parallel_opts);
  Tensor grad_serial({kN}), grad_parallel({kN});
  for (std::int64_t it = 0; it < 6; ++it) {
    serial.AccumulateGradient(w, it, /*epoch=*/1, 0.5, &grad_serial);
    parallel.AccumulateGradient(w, it, /*epoch=*/1, 0.5, &grad_parallel);
  }
  EXPECT_EQ(serial.estep_count(), parallel.estep_count());
  EXPECT_EQ(serial.mstep_count(), parallel.mstep_count());
  for (std::int64_t i = 0; i < kN; i += 101) {
    ASSERT_NEAR(grad_serial[i], grad_parallel[i],
                1e-5 * std::max(1.0f, std::fabs(grad_serial[i])))
        << "element " << i;
  }
}

TEST(GmRegularizerParallelTest, TimingCountersAdvance) {
  constexpr std::int64_t kN = std::int64_t{1} << 17;
  Tensor w = MakeWeightTensor(kN, 26);
  GmRegularizer reg("w", kN, ThreadedOptions(4));
  EXPECT_EQ(reg.estep_seconds(), 0.0);
  EXPECT_EQ(reg.mstep_seconds(), 0.0);
  reg.CalcRegGrad(w);
  reg.UptGmParam(w);
  EXPECT_GT(reg.estep_seconds(), 0.0);
  EXPECT_GT(reg.mstep_seconds(), 0.0);
  EXPECT_GE(reg.num_threads_resolved(), 1);
}

// ---------------------------------------------------------------------------
// Gradient check (satellite of tests/gradient_check.h): the cached greg of
// CalcRegGrad must equal the central finite difference of Penalty — probed
// on and around shard boundaries to catch any sharding off-by-one.

TEST(GregGradientCheckTest, MatchesFiniteDifferenceOfPenalty) {
  const std::int64_t n = 3 * kEStepGrain + 17;  // 4 uneven shards at 4 threads
  Rng rng(11);
  Tensor w = testing::RandomTensor({n}, &rng);
  GmRegularizer reg("w", n, ThreadedOptions(4));
  reg.UptGmParam(w);  // move the mixture off its init point first
  reg.CalcRegGrad(w);
  const Tensor& greg = reg.greg();

  std::set<std::int64_t> probes = {0,
                                   1,
                                   kEStepGrain - 1,
                                   kEStepGrain,
                                   kEStepGrain + 1,
                                   2 * kEStepGrain - 1,
                                   2 * kEStepGrain,
                                   3 * kEStepGrain,
                                   n - 2,
                                   n - 1};
  for (std::int64_t i = 0; i < n; i += n / 24) probes.insert(i);

  const double eps = 1e-3;
  for (std::int64_t i : probes) {
    float saved = w[i];
    w[i] = static_cast<float>(saved + eps);
    double lp = reg.Penalty(w);
    double wp = static_cast<double>(w[i]);
    w[i] = static_cast<float>(saved - eps);
    double lm = reg.Penalty(w);
    double wm = static_cast<double>(w[i]);
    w[i] = saved;
    double numeric = (lp - lm) / (wp - wm);
    double analytic = static_cast<double>(greg[i]);
    double tol =
        1e-3 * std::max(std::fabs(numeric), std::fabs(analytic)) + 1e-4;
    EXPECT_NEAR(numeric, analytic, tol) << "element " << i;
  }
}

}  // namespace
}  // namespace gmreg
