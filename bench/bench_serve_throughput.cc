// Serving throughput vs. micro-batch size — the number that justifies the
// batcher's existence. Concurrent client threads hammer one Batcher with
// single-example requests while the handler runs a real MLP forward; the
// sweep shows how coalescing requests into larger model calls trades a
// bounded queueing delay (BatcherOptions::max_delay_ms) for throughput.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "io/checkpoint.h"
#include "serve/batcher.h"
#include "serve/inference_session.h"
#include "serve/model_registry.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace gmreg;
  bench::PrintHeader(
      "Serving throughput vs. micro-batch size",
      "8 client threads, single-example requests, MLP 64->128->8 forward.");

  // A trained-shaped checkpoint: the spec's factory gives us the network,
  // and its randomly initialized weights are as expensive to run as real
  // ones.
  ModelSpec spec;
  GMREG_CHECK(ParseModelSpec("mlp:64:128:8", &spec).ok());
  std::unique_ptr<Layer> net = spec.factory();
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  TrainingCheckpoint ckpt;
  ckpt.epoch = 1;
  ckpt.learning_rate = 0.01;
  for (const ParamRef& p : params) {
    ckpt.param_names.push_back(p.name);
    ckpt.params.push_back(*p.value);
    ckpt.velocity.push_back(Tensor(p.value->shape()));
  }
  const std::string path = "bench_serve_throughput.gmckpt";
  GMREG_CHECK(SaveCheckpoint(ckpt, path).ok());
  ModelRegistry registry(path);
  GMREG_CHECK(registry.Reload().ok());

  const int kClients = 8;
  const int requests_per_client = ScalePick(200, 2000, 10000);
  const int batch_sizes[] = {1, 4, 16, 64};

  TablePrinter table({"max_batch", "workers", "requests/s", "mean batch",
                      "p50 ms", "p95 ms", "p99 ms"});
  bench::JsonSummary summary("serve_throughput", "mlp-64-128-8");
  summary.AddInt("clients", kClients);
  summary.AddInt("requests_per_client", requests_per_client);
  for (int workers : {1, 2}) {
    for (int max_batch : batch_sizes) {
      std::vector<std::unique_ptr<InferenceSession>> sessions;
      for (int w = 0; w < workers; ++w) {
        sessions.push_back(
            std::make_unique<InferenceSession>(&registry, spec.factory));
      }
      BatcherOptions options;
      options.max_batch_size = max_batch;
      options.max_delay_ms = 1;
      options.num_workers = workers;
      Batcher batcher(options, [&sessions](int worker, bool rebind,
                                           const Tensor& in, Tensor* out,
                                           BatchInfo* info) {
        InferenceSession& session =
            *sessions[static_cast<std::size_t>(worker)];
        Status st = session.Predict(in, out, rebind);
        info->model_version = session.bound_version();
        return st;
      });
      batcher.Start();

      std::int64_t batches_before = static_cast<std::int64_t>(
          MetricsRegistry::Global().counter("gm.serve.batches")->value());
      // Per-request latency as the client sees it (enqueue to reply),
      // including the batcher's queueing delay. One sample vector per
      // client, merged after the join.
      std::vector<std::vector<double>> client_latency_ms(
          static_cast<std::size_t>(kClients));
      Stopwatch watch;
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          Rng rng(static_cast<std::uint64_t>(100 + c));
          Tensor example({1, 64});
          for (std::int64_t i = 0; i < example.size(); ++i) {
            example[i] = static_cast<float>(rng.NextGaussian());
          }
          std::vector<double>& latency =
              client_latency_ms[static_cast<std::size_t>(c)];
          latency.reserve(static_cast<std::size_t>(requests_per_client));
          Batcher::Reply reply;
          Stopwatch request_watch;
          for (int r = 0; r < requests_per_client; ++r) {
            request_watch.Reset();
            GMREG_CHECK(batcher.Predict(example, &reply).ok());
            latency.push_back(request_watch.ElapsedMillis());
          }
        });
      }
      for (std::thread& t : clients) t.join();
      double elapsed = watch.ElapsedSeconds();
      batcher.Shutdown();

      // Exact percentiles over the merged samples (nth_element, not a
      // histogram — the sample count is small enough to keep them all).
      std::vector<double> latency_ms;
      for (const std::vector<double>& l : client_latency_ms) {
        latency_ms.insert(latency_ms.end(), l.begin(), l.end());
      }
      auto percentile = [&latency_ms](double q) {
        auto idx = static_cast<std::size_t>(
            q * static_cast<double>(latency_ms.size() - 1));
        std::nth_element(latency_ms.begin(),
                         latency_ms.begin() + static_cast<std::ptrdiff_t>(idx),
                         latency_ms.end());
        return latency_ms[idx];
      };
      double p50_ms = percentile(0.50);
      double p95_ms = percentile(0.95);
      double p99_ms = percentile(0.99);

      double total = static_cast<double>(kClients) * requests_per_client;
      double rps = total / elapsed;
      std::int64_t batches = static_cast<std::int64_t>(
          MetricsRegistry::Global().counter("gm.serve.batches")->value()) -
          batches_before;
      double mean_batch = batches > 0 ? total / static_cast<double>(batches)
                                      : 0.0;
      table.AddRow({std::to_string(max_batch), std::to_string(workers),
                    StrFormat("%.0f", rps), StrFormat("%.1f", mean_batch),
                    StrFormat("%.3f", p50_ms), StrFormat("%.3f", p95_ms),
                    StrFormat("%.3f", p99_ms)});
      summary.Add(StrFormat("rps.w%d.b%d", workers, max_batch), rps);
      summary.Add(StrFormat("p50_ms.w%d.b%d", workers, max_batch), p50_ms);
      summary.Add(StrFormat("p95_ms.w%d.b%d", workers, max_batch), p95_ms);
      summary.Add(StrFormat("p99_ms.w%d.b%d", workers, max_batch), p99_ms);
    }
  }
  table.Print(std::cout);

  MetricsRecord snapshot = MetricsRegistry::Global().Snapshot("bench_serve");
  std::printf("\ncumulative latency/batch histograms:\n%s\n",
              RecordToJson(snapshot).c_str());
  summary.Write();
  std::remove(path.c_str());
  std::remove(PreviousCheckpointPath(path).c_str());
  return 0;
}
