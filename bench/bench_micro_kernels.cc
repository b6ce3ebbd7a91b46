// Micro-benchmarks (google-benchmark) of the kernels behind the paper's
// cost model: the E-step (responsibility + greg) and M-step passes that
// the lazy update amortizes, the baseline regularizer gradients they are
// compared against, and the GEMM that dominates the network substrate.
//
// Custom main: before the google-benchmark suite runs, a fixed GEMM sweep
// times the packed kernel against a naive scalar baseline at 1 thread, the
// active tier's micro-kernel runs one register tile from L1, a conv sweep
// times Alex-CIFAR-10's conv layers beside a GEMM of each layer's shape
// and each GEMM those layers run per sample group, and an E-step sweep
// times one pass over alex-16's weights per K; all write BENCH_kernels.json
// (GFLOP/s + speedup per shape, M weights/s per K) — the record CI
// archives on every run. Passing --benchmark_filter that matches
// nothing runs just the sweeps.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>

#include "bench_util.h"
#include "core/em.h"
#include "core/gm_regularizer.h"
#include "nn/conv.h"
#include "reg/norms.h"
#include "tensor/gemm_kernel.h"
#include "tensor/random.h"
#include "tensor/tensor_ops.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace gmreg {
namespace {

Tensor MakeWeights(std::int64_t n) {
  Rng rng(7);
  Tensor w({n});
  for (std::int64_t i = 0; i < n; ++i) {
    w[i] = static_cast<float>(rng.NextBernoulli(0.8)
                                  ? rng.NextGaussian(0.0, 0.05)
                                  : rng.NextGaussian(0.0, 0.8));
  }
  return w;
}

void BM_EStepGreg(benchmark::State& state) {
  std::int64_t n = state.range(0);
  int k = static_cast<int>(state.range(1));
  Tensor w = MakeWeights(n);
  Tensor greg({n});
  GaussianMixture gm =
      GaussianMixture::Initialize(k, GmInitMethod::kLinear, 10.0);
  for (auto _ : state) {
    EStep(gm, w.data(), n, greg.data(), nullptr);
    benchmark::DoNotOptimize(greg.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EStepGreg)
    ->Args({89440, 4})    // Alex-CIFAR-10's M (paper Sec. V-A)
    ->Args({270896, 4})   // ResNet-20's M
    ->Args({89440, 2})
    ->Args({89440, 8});

// Thread scaling of the E-step (the pass the lazy update amortizes): same
// kernel over the same kChunkGrain chunks, explicit thread budgets. The
// 1-thread row runs every chunk on the calling thread, so speedup =
// row(1) / row(T) at equal M.
void BM_EStepGregThreads(benchmark::State& state) {
  std::int64_t n = state.range(0);
  int threads = static_cast<int>(state.range(1));
  Tensor w = MakeWeights(n);
  Tensor greg({n});
  GaussianMixture gm =
      GaussianMixture::Initialize(4, GmInitMethod::kLinear, 10.0);
  for (auto _ : state) {
    EStep(gm, w.data(), n, greg.data(), nullptr, threads);
    benchmark::DoNotOptimize(greg.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(StrFormat("threads=%d chunks=%lld", threads,
                           static_cast<long long>((n + kChunkGrain - 1) /
                                                  kChunkGrain)));
}
BENCHMARK(BM_EStepGregThreads)
    ->Args({1 << 17, 1})
    ->Args({1 << 17, 2})
    ->Args({1 << 17, 4})
    ->Args({1 << 17, 8})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4});

// Thread scaling of the full M-step pass (E-step with sufficient statistics
// + closed-form update): the pass an Ig tick runs when no greg refresh is
// due on the same iteration.
void BM_MStepPassThreads(benchmark::State& state) {
  std::int64_t n = state.range(0);
  int threads = static_cast<int>(state.range(1));
  Tensor w = MakeWeights(n);
  GaussianMixture gm =
      GaussianMixture::Initialize(4, GmInitMethod::kLinear, 10.0);
  GmHyperParams hyper = GmHyperParams::FromRules(n, 4, 0.001, 0.01, 0.5);
  GmSuffStats stats;
  for (auto _ : state) {
    stats.Reset(4);
    EStep(gm, w.data(), n, nullptr, &stats, threads);
    MStep(stats, hyper, GmBounds{}, &gm);
    benchmark::DoNotOptimize(gm.lambda().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(StrFormat("threads=%d", threads));
}
BENCHMARK(BM_MStepPassThreads)
    ->Args({1 << 17, 1})
    ->Args({1 << 17, 4})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4});

// Thread scaling of the row-sharded GEMM (uses the process-wide default
// budget, which is what the NN substrate sees).
void BM_GemmThreads(benchmark::State& state) {
  std::int64_t n = state.range(0);
  int threads = static_cast<int>(state.range(1));
  Rng rng(3);
  Tensor a({n, n}), b({n, n}), c({n, n});
  FillUniform(&rng, -1.0, 1.0, &a);
  FillUniform(&rng, -1.0, 1.0, &b);
  SetDefaultNumThreads(threads);
  for (auto _ : state) {
    Gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  SetDefaultNumThreads(0);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(StrFormat("threads=%d", threads));
}
BENCHMARK(BM_GemmThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4});

void BM_MStepPass(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Tensor w = MakeWeights(n);
  GaussianMixture gm =
      GaussianMixture::Initialize(4, GmInitMethod::kLinear, 10.0);
  GmHyperParams hyper = GmHyperParams::FromRules(n, 4, 0.001, 0.01, 0.5);
  GmSuffStats stats;
  for (auto _ : state) {
    stats.Reset(4);
    EStep(gm, w.data(), n, nullptr, &stats);
    MStep(stats, hyper, GmBounds{}, &gm);
    benchmark::DoNotOptimize(gm.lambda().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MStepPass)->Arg(89440)->Arg(270896);

void BM_GmRegularizerStep(benchmark::State& state) {
  // Full AccumulateGradient at Im = Ig = 1 (eager) vs cached-only.
  std::int64_t n = 89440;
  bool eager = state.range(0) != 0;
  Tensor w = MakeWeights(n);
  Tensor grad({n});
  GmOptions opts;
  opts.lazy.warmup_epochs = eager ? 1000000 : 0;
  opts.lazy.greg_interval = 1000000;  // off-grid -> cached when not eager
  opts.lazy.gm_interval = 1000000;
  GmRegularizer reg("w", n, opts);
  Tensor warm_grad({n});
  reg.AccumulateGradient(w, 0, 0, 1.0, &warm_grad);  // prime the cache
  std::int64_t it = 1;
  for (auto _ : state) {
    grad.SetZero();
    reg.AccumulateGradient(w, it++, 0, 1.0, &grad);
    benchmark::DoNotOptimize(grad.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(eager ? "eager (E-step + M-step each call)"
                       : "lazy cached (Axpy only)");
}
BENCHMARK(BM_GmRegularizerStep)->Arg(1)->Arg(0);

void BM_BaselineRegularizers(benchmark::State& state) {
  std::int64_t n = 89440;
  Tensor w = MakeWeights(n);
  Tensor grad({n});
  L2Reg l2(1.0);
  L1Reg l1(1.0);
  ElasticNetReg elastic(1.0, 0.5);
  HuberReg huber(1.0, 0.1);
  Regularizer* regs[] = {&l1, &l2, &elastic, &huber};
  Regularizer* reg = regs[state.range(0)];
  for (auto _ : state) {
    grad.SetZero();
    reg->AccumulateGradient(w, 0, 0, 1.0, &grad);
    benchmark::DoNotOptimize(grad.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(reg->Name());
}
BENCHMARK(BM_BaselineRegularizers)->DenseRange(0, 3);

void BM_Gemm(benchmark::State& state) {
  std::int64_t n = state.range(0);
  Rng rng(3);
  Tensor a({n, n}), b({n, n}), c({n, n});
  FillUniform(&rng, -1.0, 1.0, &a);
  FillUniform(&rng, -1.0, 1.0, &b);
  for (auto _ : state) {
    Gemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
         c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_ResponsibilitySingle(benchmark::State& state) {
  GaussianMixture gm =
      GaussianMixture::Initialize(4, GmInitMethod::kLinear, 10.0);
  double r[4];
  double x = 0.123;
  for (auto _ : state) {
    gm.Responsibilities(x, r);
    benchmark::DoNotOptimize(r);
    x = -x;
  }
}
BENCHMARK(BM_ResponsibilitySingle);

// ---------------------------------------------------------------------------
// BENCH_kernels.json sweep: packed GEMM vs the naive scalar baseline.
// ---------------------------------------------------------------------------

// The pre-kernel scalar GEMM (the seed implementation, minus its
// NaN-swallowing zero-skip): the baseline the speedup column is against.
void BaselineGemm(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) c_row[j] = 0.0f;
    for (std::int64_t p = 0; p < k; ++p) {
      float a_ip = a[i * k + p];
      const float* b_row = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) c_row[j] += a_ip * b_row[j];
    }
  }
}

// Wall-time per call: one warmup, then repeat until `min_seconds` elapses.
double TimePerCall(const std::function<void()>& fn, double min_seconds) {
  fn();
  Stopwatch watch;
  std::int64_t iters = 0;
  do {
    fn();
    ++iters;
  } while (watch.ElapsedSeconds() < min_seconds);
  return watch.ElapsedSeconds() / static_cast<double>(iters);
}

// Best wall time of one call: one warmup, then calls until `min_seconds`
// elapses and at least five have run.
double BestTimePerCall(const std::function<void()>& fn, double min_seconds) {
  fn();
  Stopwatch total;
  double best = 0.0;
  int calls = 0;
  do {
    Stopwatch watch;
    fn();
    double secs = watch.ElapsedSeconds();
    best = calls == 0 ? secs : std::min(best, secs);
    ++calls;
  } while (calls < 5 || total.ElapsedSeconds() < min_seconds);
  return best;
}

// The active tier's full MR x NR register tile over one KC slab of packed
// panels that stay L1-resident, at the caller's budget: the micro-kernel's
// own peak, where a costly broadcast or spilled accumulators would show.
// Each timed call runs the tile 16 times.
void RunMicroKernel(double min_seconds, bench::JsonSummary* summary) {
  const KernelOps& ops = GetKernelOps();
  Rng rng(13);
  Tensor ap({kGemmKC * ops.mr}), bp({kGemmKC * ops.nr}), c({ops.mr * ops.nr});
  FillUniform(&rng, -1.0, 1.0, &ap);
  FillUniform(&rng, -1.0, 1.0, &bp);
  constexpr int kTiles = 16;
  double secs = BestTimePerCall(
      [&] {
        for (int t = 0; t < kTiles; ++t) {
          ops.gemm_micro(kGemmKC, 1.0f, ap.data(), bp.data(), c.data(),
                         ops.nr, ops.mr, ops.nr, /*overwrite=*/true);
        }
      },
      min_seconds);
  double gflops = 2.0 * kTiles * static_cast<double>(ops.mr * ops.nr) *
                  static_cast<double>(kGemmKC) / secs / 1e9;
  std::printf("Micro-kernel, %lld x %lld tile over KC = %lld (kernel=%s): "
              "%.2f GF/s\n\n",
              static_cast<long long>(ops.mr), static_cast<long long>(ops.nr),
              static_cast<long long>(kGemmKC), ops.name, gflops);
  summary->Add("gemm.micro.gflops", gflops);
}

// Alex-CIFAR-10's conv layers at its 16x16 input (models/alex_cifar10.cc:
// 5x5 kernels, stride 1, pad 2), batch 16, at the caller's budget. Each
// row divides the layer's forward plus backward flops (forward, dW and
// column-gradient GEMMs) by its best time, beside one GEMM of the layer's
// forward shape [Cout, batch*Hout*Wout, Cin*5*5]: the gap is what im2col,
// col2im, the NCHW copies and the sample groups cost.
void RunConvSweep(double min_seconds, bench::JsonSummary* summary) {
  struct ConvLayer {
    const char* key;
    std::int64_t in_c, out_c, hw;
  };
  const ConvLayer layers[] = {
      {"alex_conv1", 3, 32, 16},
      {"alex_conv2", 32, 32, 8},
      {"alex_conv3", 32, 64, 4},
  };
  constexpr std::int64_t kBatch = 16;
  constexpr int kKernel = 5;
  std::printf("Conv layers, forward + backward (batch %lld, kernel=%s)\n",
              static_cast<long long>(kBatch), GetKernelOps().name);
  std::printf("%-20s %12s %12s %9s\n", "layer", "layer GF/s", "GEMM GF/s",
              "ratio");
  for (const ConvLayer& l : layers) {
    Rng rng(5);
    Conv2d conv(l.key, l.in_c, l.out_c, kKernel, /*stride=*/1, /*padding=*/2,
                InitSpec::Gaussian(0.1), &rng);
    Tensor in({kBatch, l.in_c, l.hw, l.hw});
    FillGaussian(&rng, 0.0, 1.0, &in);
    Tensor out;
    conv.Forward(in, &out, /*train=*/true);
    Tensor gout(out.shape());
    FillGaussian(&rng, 0.0, 1.0, &gout);
    Tensor gin;
    double layer_s = BestTimePerCall(
        [&] {
          conv.Forward(in, &out, /*train=*/true);
          conv.Backward(gout, &gin);
        },
        min_seconds);
    std::int64_t m = l.out_c, n = kBatch * l.hw * l.hw;
    std::int64_t k = l.in_c * kKernel * kKernel;
    Tensor a({m, k}), b({k, n}), c({m, n});
    FillUniform(&rng, -1.0, 1.0, &a);
    FillUniform(&rng, -1.0, 1.0, &b);
    double gemm_s = BestTimePerCall(
        [&] {
          Gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
               c.data(), n);
        },
        min_seconds);
    double gemm_flops = 2.0 * static_cast<double>(m) *
                        static_cast<double>(n) * static_cast<double>(k);
    double layer_gflops = 3.0 * gemm_flops / layer_s / 1e9;
    double gemm_gflops = gemm_flops / gemm_s / 1e9;
    std::printf("%-20s %12.2f %12.2f %8.2fx\n", l.key, layer_gflops,
                gemm_gflops, layer_gflops / gemm_gflops);
    std::string key = StrFormat("conv.%s", l.key);
    summary->Add(key + ".gflops", layer_gflops);
    summary->Add(key + ".gemm.gflops", gemm_gflops);
  }
  std::printf("\n");
}

// The GEMMs Alex-CIFAR-10's conv layers run per sample group at batch 16
// (nn/conv.cc), at the caller's budget: the forward rows = W * panel
// (beta 0), dW += rows * panel^T (beta 1) and dcol = W^T * rows (beta 0).
// conv1's groups hold 3 samples, conv2's 1 and conv3's 4; conv1 has no
// dcol, since nothing reads alex's input gradient. As in the layer, the
// forward and dcol products take W packed once (PackGemmA), outside the
// timed call. Each row is the best time of one call.
void RunConvGemmSweep(double min_seconds, bench::JsonSummary* summary) {
  struct ConvGemm {
    const char* key;
    bool trans_a, trans_b;
    std::int64_t m, n, k;
    float beta;
    bool packed_a;
  };
  const ConvGemm gemms[] = {
      {"alex_conv1.fwd", false, false, 32, 768, 75, 0.0f, true},
      {"alex_conv1.dw", false, true, 32, 75, 768, 1.0f, false},
      {"alex_conv2.fwd", false, false, 32, 64, 800, 0.0f, true},
      {"alex_conv2.dw", false, true, 32, 800, 64, 1.0f, false},
      {"alex_conv2.dcol", true, false, 800, 64, 32, 0.0f, true},
      {"alex_conv3.fwd", false, false, 64, 64, 800, 0.0f, true},
      {"alex_conv3.dw", false, true, 64, 800, 64, 1.0f, false},
      {"alex_conv3.dcol", true, false, 800, 64, 64, 0.0f, true},
  };
  std::printf("Conv group GEMMs (kernel=%s)\n", GetKernelOps().name);
  std::printf("%-24s %18s %12s\n", "gemm", "m x n x k", "GF/s");
  for (const ConvGemm& g : gemms) {
    Rng rng(11);
    Tensor a({g.m, g.k}), b({g.k, g.n}), c({g.m, g.n});
    FillUniform(&rng, -1.0, 1.0, &a);
    FillUniform(&rng, -1.0, 1.0, &b);
    std::int64_t lda = g.trans_a ? g.m : g.k;
    std::int64_t ldb = g.trans_b ? g.k : g.n;
    Tensor ap({PackedGemmAFloats(g.m, g.k)});
    PackGemmA(g.trans_a, g.m, g.k, a.data(), lda, ap.data());
    double secs = BestTimePerCall(
        [&] {
          if (g.packed_a) {
            GemmPackedA(g.trans_a, g.trans_b, g.m, g.n, g.k, 1.0f, a.data(),
                        lda, ap.data(), b.data(), ldb, g.beta, c.data(), g.n);
          } else {
            Gemm(g.trans_a, g.trans_b, g.m, g.n, g.k, 1.0f, a.data(), lda,
                 b.data(), ldb, g.beta, c.data(), g.n);
          }
        },
        min_seconds);
    double gflops = 2.0 * static_cast<double>(g.m) * static_cast<double>(g.n) *
                    static_cast<double>(g.k) / secs / 1e9;
    std::string shape = StrFormat("%lld x %lld x %lld",
                                  static_cast<long long>(g.m),
                                  static_cast<long long>(g.n),
                                  static_cast<long long>(g.k));
    std::printf("%-24s %18s %12.2f\n", g.key, shape.c_str(), gflops);
    summary->Add(StrFormat("gemm.%s.gflops", g.key), gflops);
  }
  std::printf("\n");
}

// The E-step kernel: the best time of one greg-plus-suffstats pass over
// alex-16's 81,760 weights at the caller's budget, in M weights/s, for
// K = 1/2/4/8 on the active tier and K = 4 on the forced scalar tier.
void RunEStepSweep(double min_seconds, bench::JsonSummary* summary) {
  const std::int64_t n = 81760;
  Tensor w = MakeWeights(n);
  Tensor greg({n});
  GmSuffStats stats;
  auto rate = [&](int k) {
    GaussianMixture gm =
        GaussianMixture::Initialize(k, GmInitMethod::kLinear, 10.0);
    double secs = BestTimePerCall(
        [&] {
          stats.Reset(k);
          EStep(gm, w.data(), n, greg.data(), &stats);
        },
        min_seconds);
    return static_cast<double>(n) / secs / 1e6;
  };
  std::printf("E-step pass, greg + suffstats over %lld weights\n",
              static_cast<long long>(n));
  std::printf("%-32s %12s\n", "key", "M weights/s");
  for (int k : {1, 2, 4, 8}) {
    std::string key = StrFormat("estep.k%d.mweights_per_s", k);
    double mw = rate(k);
    std::printf("%-32s %12.1f  (kernel=%s)\n", key.c_str(), mw,
                GetKernelOps().name);
    summary->Add(key, mw);
  }
  if (internal::ForceKernelTierForTesting(KernelTier::kScalar)) {
    double mw = rate(4);
    std::printf("%-32s %12.1f  (kernel=%s)\n",
                "estep.k4.scalar.mweights_per_s", mw, GetKernelOps().name);
    summary->Add("estep.k4.scalar.mweights_per_s", mw);
    internal::ClearKernelTierForTesting();
  }
  std::printf("\n");
}

// Times the packed Gemm and the baseline on the standard shapes, the
// micro-kernel, the conv layers and their group GEMMs, and the E-step at a
// 1-thread budget, then
// the GEMM at budgets 1/2/4/8, and writes BENCH_kernels.json.
void RunKernelSweep() {
  SetDefaultNumThreads(1);
  bench::JsonSummary summary("kernels", "synthetic-gemm-sweep");
  summary.AddText("kernel", GetKernelOps().name);
  double min_seconds = GetBenchScale() == BenchScale::kSmoke ? 0.05 : 0.25;
  struct Shape {
    const char* key;  // JSON key prefix
    std::int64_t m, n, k;
  };
  // The BM_Gemm squares plus a conv-layer shape (Cout=32, 32x32 output,
  // 3x3x32 patch — the per-sample forward GEMM of the Alex-CIFAR-10 model).
  const Shape shapes[] = {
      {"gemm_64", 64, 64, 64},
      {"gemm_128", 128, 128, 128},
      {"gemm_256", 256, 256, 256},
      {"gemm_512", 512, 512, 512},
      {"conv_32x1024x288", 32, 1024, 288},
  };
  std::printf("GEMM kernel sweep (1 thread, kernel=%s)\n",
              GetKernelOps().name);
  std::printf("%-20s %12s %12s %9s\n", "shape", "base GF/s", "packed GF/s",
              "speedup");
  for (const Shape& s : shapes) {
    Rng rng(3);
    Tensor a({s.m, s.k}), b({s.k, s.n}), c({s.m, s.n});
    FillUniform(&rng, -1.0, 1.0, &a);
    FillUniform(&rng, -1.0, 1.0, &b);
    double flops = 2.0 * static_cast<double>(s.m) *
                   static_cast<double>(s.n) * static_cast<double>(s.k);
    double base_s = TimePerCall(
        [&] { BaselineGemm(s.m, s.n, s.k, a.data(), b.data(), c.data()); },
        min_seconds);
    double packed_s = TimePerCall(
        [&] {
          Gemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(),
               s.n, 0.0f, c.data(), s.n);
        },
        min_seconds);
    double base_gflops = flops / base_s / 1e9;
    double packed_gflops = flops / packed_s / 1e9;
    std::printf("%-20s %12.2f %12.2f %8.2fx\n", s.key, base_gflops,
                packed_gflops, packed_gflops / base_gflops);
    std::string key(s.key);
    summary.Add(key + ".baseline_gflops", base_gflops);
    summary.Add(key + ".gflops", packed_gflops);
    summary.Add(key + ".speedup", packed_gflops / base_gflops);
  }
  std::printf("\n");
  RunMicroKernel(min_seconds, &summary);
  RunConvSweep(min_seconds, &summary);
  RunConvGemmSweep(min_seconds, &summary);
  RunEStepSweep(min_seconds, &summary);

  // Thread-scaling sweep of the 2D work-queue GEMM: budgets 1/2/4/8 per
  // shape, speedup vs the same packed kernel at budget 1. The mtN.speedup
  // rows are scheduling-dependent (a 1-core CI runner legitimately reports
  // ~1.0x, as BENCH_distributed.json documents for the allreduce rows), so
  // tools/bench_compare.py treats them as informational; the mtN.gflops
  // rows gate like every other throughput metric.
  summary.AddInt("hardware_concurrency",
                 static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  const int kBudgets[] = {1, 2, 4, 8};
  std::printf("GEMM thread scaling (2D work queue, kernel=%s)\n",
              GetKernelOps().name);
  std::printf("%-20s %9s %12s %9s\n", "shape", "threads", "GF/s", "speedup");
  for (const Shape& s : shapes) {
    Rng rng(3);
    Tensor a({s.m, s.k}), b({s.k, s.n}), c({s.m, s.n});
    FillUniform(&rng, -1.0, 1.0, &a);
    FillUniform(&rng, -1.0, 1.0, &b);
    double flops = 2.0 * static_cast<double>(s.m) *
                   static_cast<double>(s.n) * static_cast<double>(s.k);
    double mt1_gflops = 0.0;
    for (int budget : kBudgets) {
      SetDefaultNumThreads(budget);
      double secs = TimePerCall(
          [&] {
            Gemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(),
                 s.n, 0.0f, c.data(), s.n);
          },
          min_seconds);
      double gflops = flops / secs / 1e9;
      if (budget == 1) mt1_gflops = gflops;
      double speedup = mt1_gflops > 0.0 ? gflops / mt1_gflops : 0.0;
      std::printf("%-20s %9d %12.2f %8.2fx\n", s.key, budget, gflops,
                  speedup);
      std::string key = StrFormat("%s.mt%d", s.key, budget);
      summary.Add(key + ".gflops", gflops);
      summary.Add(key + ".speedup", speedup);
    }
  }
  std::printf("\n");
  summary.Write();
  SetDefaultNumThreads(0);
}

}  // namespace
}  // namespace gmreg

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  gmreg::RunKernelSweep();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
