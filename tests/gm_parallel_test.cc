// Determinism and coverage tests of the parallel execution layer
// (util/parallel.h) and the E-step/M-step built on it. The contract under
// test (docs/PARALLELISM.md):
//  * ParallelFor shards follow the budget, so its callers write disjoint
//    outputs: greg written by a parallel E-step is bitwise identical to
//    serial;
//  * every reduction is a ParallelChunkedSum over fixed kChunkGrain chunks
//    added in chunk order, so suffstats, mixtures and penalties are bitwise
//    identical at every thread budget;
//  * ranges smaller than a chunk (and empty ranges) behave identically.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/em.h"
#include "core/gm_regularizer.h"
#include "gtest/gtest.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
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
// ParallelFor / ParallelChunkedSum / ComputeNumShards

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
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
    std::mutex mu;
    ParallelFor(
        0, 1000, /*grain=*/10,
        [&](std::int64_t b, std::int64_t e) {
          std::lock_guard<std::mutex> lock(mu);
          ranges.emplace_back(b, e);
        },
        threads);
    std::sort(ranges.begin(), ranges.end());
    return ranges;
  };
  auto a = collect(4);
  auto b = collect(4);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a, b);
  // Contiguous cover of [0, 1000), split as ShardRange splits it.
  std::int64_t expect_begin = 0;
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s], ShardRange(static_cast<int>(s), 4, 0, 1000));
    EXPECT_EQ(a[s].first, expect_begin);
    expect_begin = a[s].second;
  }
  EXPECT_EQ(expect_begin, 1000);
}

// The chunked fold on an integer sum and a transcendental one (the suite
// keeps the name of the shard-order reduction the fold replaced).
TEST(ParallelReduceTest, MatchesSerialSumExactlyOnIntegers) {
  constexpr std::int64_t kN = 100000;
  auto sum_at = [](int budget) {
    return ParallelChunkedSum(
        0, kN,
        [](std::int64_t b, std::int64_t e) {
          double acc = 0.0;
          for (std::int64_t i = b; i < e; ++i) acc += static_cast<double>(i);
          return acc;
        },
        budget);
  };
  // Every partial and total is an integer below 2^53, so exact.
  EXPECT_EQ(sum_at(1), static_cast<double>(kN * (kN - 1) / 2));
  EXPECT_EQ(sum_at(4), sum_at(1));
}

TEST(ParallelReduceTest, ShardOrderReductionIsBitwiseReproducible) {
  std::vector<float> w = MakeWeights(1 << 16, 5);
  auto run = [&](int budget) {
    return ParallelChunkedSum(
        0, static_cast<std::int64_t>(w.size()),
        [&](std::int64_t b, std::int64_t e) {
          double acc = 0.0;
          for (std::int64_t i = b; i < e; ++i) {
            acc += std::exp(-static_cast<double>(w[static_cast<std::size_t>(i)]) *
                            w[static_cast<std::size_t>(i)]);
          }
          return acc;
        },
        budget);
  };
  double first = run(1);
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(run(4), first) << "repetition " << rep;
  }
}

// The fold against a serial reference that adds per-chunk partials in
// chunk order: width 1 and width 2K (the E-step's), at every budget, over
// an empty range, one short chunk, exactly one chunk, and a short tail.
class ParallelChunkedSumTest : public ::testing::TestWithParam<int> {};

// Sum j of a chunk: x for even j, x^2 * (j + 1) for odd j.
void AddChunk(const std::vector<float>& w, int width, std::int64_t b,
              std::int64_t e, double* partial) {
  for (std::int64_t i = b; i < e; ++i) {
    double x = static_cast<double>(w[static_cast<std::size_t>(i)]);
    for (int j = 0; j < width; ++j) {
      partial[j] += j % 2 == 0 ? x : x * x * (j + 1);
    }
  }
}

std::vector<double> ReferenceFold(const std::vector<float>& w, int width,
                                  std::int64_t begin, std::int64_t end) {
  std::vector<double> sums(static_cast<std::size_t>(width), 0.0);
  for (std::int64_t b = begin; b < end; b += kChunkGrain) {
    std::vector<double> partial(static_cast<std::size_t>(width), 0.0);
    AddChunk(w, width, b, std::min(b + kChunkGrain, end), partial.data());
    for (int j = 0; j < width; ++j) {
      sums[static_cast<std::size_t>(j)] += partial[static_cast<std::size_t>(j)];
    }
  }
  return sums;
}

TEST_P(ParallelChunkedSumTest, MatchesChunkOrderFoldAtEveryBudget) {
  const int width = GetParam();
  std::vector<float> w = MakeWeights(3 * kChunkGrain, 41);
  const std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
      {5, 5},                            // empty
      {0, 1000},                         // one short chunk
      {100, 100 + kChunkGrain},          // exactly one chunk
      {3, 3 + 2 * kChunkGrain + 17}};    // two chunks and a short tail
  for (const auto& [begin, end] : ranges) {
    std::vector<double> want = ReferenceFold(w, width, begin, end);
    for (int budget : {1, 2, 4, 8}) {
      std::vector<double> got(static_cast<std::size_t>(width), -1.0);
      ParallelChunkedSum(
          begin, end, width,
          [&](std::int64_t b, std::int64_t e, double* partial) {
            AddChunk(w, width, b, e, partial);
          },
          got.data(), budget);
      // Exact: the same additions in the same order.
      EXPECT_EQ(got, want) << "[" << begin << ", " << end << ") width "
                           << width << " budget " << budget;
    }
  }
}

TEST_P(ParallelChunkedSumTest, CallsInsideParallelTasksMatchTopLevel) {
  const int width = GetParam();
  constexpr int kTasks = 8;
  const std::int64_t n = 2 * kChunkGrain + 17;
  std::vector<float> w = MakeWeights(kTasks * n, 43);
  auto fold = [&](std::int64_t begin, int budget, double* sums) {
    ParallelChunkedSum(
        begin, begin + n, width,
        [&](std::int64_t b, std::int64_t e, double* partial) {
          AddChunk(w, width, b, e, partial);
        },
        sums, budget);
  };
  std::vector<std::vector<double>> want(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    want[static_cast<std::size_t>(t)] =
        ReferenceFold(w, width, t * n, (t + 1) * n);
  }
  for (int budget : {1, 2, 4, 8}) {
    // Inside ParallelFor tasks: each task folds its own range.
    std::vector<std::vector<double>> got(
        kTasks, std::vector<double>(static_cast<std::size_t>(width)));
    ParallelFor(
        0, kTasks, /*grain=*/1,
        [&](std::int64_t tb, std::int64_t te) {
          for (std::int64_t t = tb; t < te; ++t) {
            fold(t * n, budget, got[static_cast<std::size_t>(t)].data());
          }
        },
        budget);
    EXPECT_EQ(got, want) << "inside ParallelFor, budget " << budget;
    // Inside another fold's chunks: the outer fold's partials stay intact
    // while its chunk functions fold on the same threads.
    std::vector<std::vector<double>> inner(
        kTasks, std::vector<double>(static_cast<std::size_t>(width)));
    double outer = ParallelChunkedSum(
        0, kTasks * kChunkGrain,
        [&](std::int64_t b, std::int64_t e) {
          std::int64_t t = b / kChunkGrain;
          fold(t * n, budget, inner[static_cast<std::size_t>(t)].data());
          return static_cast<double>(e - b);
        },
        budget);
    EXPECT_EQ(outer, static_cast<double>(kTasks * kChunkGrain));
    EXPECT_EQ(inner, want) << "inside ParallelChunkedSum, budget " << budget;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ParallelChunkedSumTest,
                         ::testing::Values(1, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "width" + std::to_string(info.param);
                         });

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
  GmSuffStats serial;
  serial.Reset(4);
  EStep(gm, w.data(), n, nullptr, &serial, /*num_threads=*/1);
  EXPECT_EQ(serial.count, n);
  for (int budget : {2, 4, 8}) {
    GmSuffStats parallel;
    parallel.Reset(4);
    EStep(gm, w.data(), n, nullptr, &parallel, budget);
    EXPECT_EQ(parallel.count, n);
    // Fixed chunks added in chunk order: exact at every budget.
    EXPECT_EQ(parallel.resp_sum, serial.resp_sum) << "budget " << budget;
    EXPECT_EQ(parallel.resp_w2_sum, serial.resp_w2_sum) << "budget " << budget;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EStepDeterminismTest,
                         ::testing::Values(std::int64_t{0}, std::int64_t{1},
                                           std::int64_t{7}, std::int64_t{1000},
                                           kChunkGrain - 1, kChunkGrain + 1,
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
  std::vector<std::unique_ptr<GmRegularizer>> parallel;
  for (int budget : {2, 4, 8}) {
    parallel.push_back(
        std::make_unique<GmRegularizer>("w", kN, ThreadedOptions(budget)));
  }
  for (int step = 0; step < 3; ++step) {
    serial.UptGmParam(w);
    for (const auto& reg : parallel) {
      reg->UptGmParam(w);
      EXPECT_EQ(reg->mixture().pi(), serial.mixture().pi())
          << "step " << step << " budget " << reg->num_threads_resolved();
      EXPECT_EQ(reg->mixture().lambda(), serial.mixture().lambda())
          << "step " << step << " budget " << reg->num_threads_resolved();
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
  double ps = serial.Penalty(w);
  for (int budget : {2, 4, 8}) {
    GmRegularizer parallel("w", kN, ThreadedOptions(budget));
    EXPECT_EQ(parallel.Penalty(w), ps) << "budget " << budget;
  }
}

TEST(GmRegularizerParallelTest, AccumulateGradientStaysCloseAcrossBudgets) {
  // End-to-end lazy loop over greg-only, M-step-only and fused iterations:
  // every budget must reproduce the serial gradients exactly.
  constexpr std::int64_t kN = (std::int64_t{1} << 15) + 5;
  Tensor w = MakeWeightTensor(kN, 25);
  auto run = [&](int budget, Tensor* grad) {
    GmOptions opts = ThreadedOptions(budget);
    opts.lazy.warmup_epochs = 0;
    opts.lazy.greg_interval = 2;
    opts.lazy.gm_interval = 3;
    GmRegularizer reg("w", kN, opts);
    for (std::int64_t it = 0; it < 6; ++it) {
      reg.AccumulateGradient(w, it, /*epoch=*/1, 0.5, grad);
    }
    EXPECT_EQ(reg.estep_count(), 3);
    EXPECT_EQ(reg.mstep_count(), 2);
    return reg.mixture();
  };
  Tensor grad_serial({kN});
  GaussianMixture gm_serial = run(1, &grad_serial);
  for (int budget : {2, 4, 8}) {
    Tensor grad_parallel({kN});
    GaussianMixture gm_parallel = run(budget, &grad_parallel);
    ::gmreg::testing::ExpectTensorBitwiseEqual(
        grad_serial, grad_parallel, "budget " + std::to_string(budget));
    EXPECT_EQ(gm_parallel.pi(), gm_serial.pi()) << "budget " << budget;
    EXPECT_EQ(gm_parallel.lambda(), gm_serial.lambda()) << "budget " << budget;
  }
}

// Eager AccumulateGradient runs one pass for the greg and the suffstats;
// it must equal CalcRegGrad, then the greg's use, then UptGmParam.
TEST(GmRegularizerParallelTest, FusedPassMatchesSeparatePasses) {
  constexpr std::int64_t kN = 3 * kChunkGrain + 17;
  Tensor w = MakeWeightTensor(kN, 27);
  GmRegularizer fused("w", kN, ThreadedOptions(4));
  GmRegularizer separate("w", kN, ThreadedOptions(4));
  Tensor grad_fused({kN}), grad_separate({kN});
  for (std::int64_t it = 0; it < 3; ++it) {
    fused.AccumulateGradient(w, it, /*epoch=*/0, 0.5, &grad_fused);
    separate.CalcRegGrad(w);
    Axpy(0.5f, separate.greg(), &grad_separate);
    separate.UptGmParam(w);
  }
  EXPECT_EQ(fused.estep_count(), 3);
  EXPECT_EQ(fused.mstep_count(), 3);
  ::gmreg::testing::ExpectTensorBitwiseEqual(grad_fused, grad_separate,
                                             "fused vs separate grad");
  ::gmreg::testing::ExpectTensorBitwiseEqual(fused.greg(), separate.greg(),
                                             "fused vs separate greg");
  EXPECT_EQ(fused.mixture().pi(), separate.mixture().pi());
  EXPECT_EQ(fused.mixture().lambda(), separate.mixture().lambda());
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
// Gradient check: the cached greg of CalcRegGrad must equal the central
// finite difference of Penalty — probed on and around chunk boundaries to
// catch any chunking off-by-one.

TEST(GregGradientCheckTest, MatchesFiniteDifferenceOfPenalty) {
  const std::int64_t n = 3 * kChunkGrain + 17;  // 3 chunks and a short tail
  Rng rng(11);
  Tensor w = testing::RandomTensor({n}, &rng);
  GmRegularizer reg("w", n, ThreadedOptions(4));
  reg.UptGmParam(w);  // move the mixture off its init point first
  reg.CalcRegGrad(w);
  const Tensor& greg = reg.greg();

  std::set<std::int64_t> probes = {0,
                                   1,
                                   kChunkGrain - 1,
                                   kChunkGrain,
                                   kChunkGrain + 1,
                                   2 * kChunkGrain - 1,
                                   2 * kChunkGrain,
                                   3 * kChunkGrain,
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
