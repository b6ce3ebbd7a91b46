// gmreg_serve: JSON prediction server over a trained gmreg checkpoint.
//
//   gmreg_serve --checkpoint=run/model.gmckpt --model=mlp:8:16:2
//               --port=8080 --batch=8 --delay-ms=2 --workers=2 --poll-ms=500
//
// The server loads the checkpoint into a hot-reloadable ModelRegistry,
// micro-batches concurrent POST /v1/predict requests, and (with
// --poll-ms > 0) hot-swaps the model whenever the checkpoint file changes —
// e.g. while a training run keeps writing it. SIGTERM/SIGINT drain
// gracefully. See docs/SERVING.md.
//
// --train-demo bootstraps everything for a smoke run: it trains the --model
// MLP on a synthetic two-blob dataset, writes the checkpoint, then serves
// it. CI uses this to curl /healthz and /v1/predict against a real model.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "optim/trainer.h"
#include "serve/server.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace gmreg {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int /*sig*/) { g_stop = 1; }

bool FlagValue(const char* arg, const char* name, std::string* value) {
  std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --checkpoint=PATH --model=SPEC [options]\n"
      "  --checkpoint=PATH  gmckpt file to serve (required)\n"
      "  --model=SPEC       mlp:<in>:<hidden>:<classes> | alex[:hw[:c]] |\n"
      "                     resnet[:hw[:blocks]] (required)\n"
      "  --port=N           TCP port, 0 = ephemeral (default 8080)\n"
      "  --batch=N          max rows per model call (default 8)\n"
      "  --delay-ms=N       max batching delay in ms (default 2)\n"
      "  --workers=N        inference worker threads (default 2)\n"
      "  --poll-ms=N        checkpoint watch interval, 0 = off (default 500)\n"
      "  --idle-timeout-ms=N  close idle keep-alive connections after N ms\n"
      "                     (default 10000)\n"
      "  --max-conns=N      reject connections past this cap with 503\n"
      "                     (default 1024)\n"
      "  --handlers=N       request handler threads (default 8)\n"
      "  --slo-ms=X         per-request latency objective for the\n"
      "                     gm.serve.endpoint.* SLO counters (default 250)\n"
      "  --quantize         serve int8 per-row-scale quantized weights\n"
      "                     (quantized once per published version)\n"
      "  --train-demo       train a demo MLP first and write --checkpoint\n",
      argv0);
}

/// Trains the spec's MLP on a deterministic synthetic two-blob dataset and
/// writes the checkpoint that the serve path then loads.
int RunTrainDemo(const ModelSpec& spec, const std::string& checkpoint_path) {
  if (spec.input_shape.size() != 1) {
    std::fprintf(stderr, "--train-demo only supports mlp:... specs\n");
    return 1;
  }
  std::int64_t num_features = spec.input_shape[0];
  std::unique_ptr<Layer> net = spec.factory();
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  // The last collected parameter is fc2's bias, shape [classes] — the class
  // count without re-parsing the spec.
  std::int64_t num_classes = params.back().value->dim(0);

  TrainOptions opts;
  opts.epochs = 5;
  opts.batch_size = 32;
  opts.learning_rate = 0.05;
  opts.num_train_samples = 1024;
  opts.checkpoint_path = checkpoint_path;
  opts.checkpoint_every = 1;
  opts.run_label = "serve_demo";
  Trainer trainer(net.get(), opts);

  // Synthetic blobs: class c lives around +1.5 on feature dims congruent to
  // c, around -0.5 elsewhere — linearly separable enough for 5 epochs.
  Rng data_rng(7);
  trainer.SetCheckpointRng(&data_rng);
  auto next_batch = [&](Tensor* input, std::vector<int>* labels) {
    if (input->shape() != std::vector<std::int64_t>{opts.batch_size,
                                                    num_features}) {
      *input = Tensor({opts.batch_size, num_features});
    }
    labels->resize(static_cast<std::size_t>(opts.batch_size));
    for (std::int64_t i = 0; i < opts.batch_size; ++i) {
      int label = static_cast<int>(
          data_rng.NextBounded(static_cast<std::uint32_t>(num_classes)));
      (*labels)[static_cast<std::size_t>(i)] = label;
      for (std::int64_t j = 0; j < num_features; ++j) {
        double mean = (j % num_classes == label) ? 1.5 : -0.5;
        input->At(i, j) = static_cast<float>(data_rng.NextGaussian(mean, 1.0));
      }
    }
  };
  std::vector<EpochStats> stats =
      trainer.Train(next_batch, opts.num_train_samples / opts.batch_size);
  std::printf("gmreg_serve: demo training done (%d epochs, final loss %.4f)\n",
              static_cast<int>(stats.size()),
              stats.empty() ? 0.0 : stats.back().mean_loss);
  return 0;
}

int Main(int argc, char** argv) {
  std::string checkpoint, model_spec, value;
  int port = 8080;
  bool train_demo = false;
  BatcherOptions batcher;
  batcher.num_workers = 2;
  int poll_ms = 500;
  ServerOptions server_defaults;
  int idle_timeout_ms = server_defaults.idle_timeout_ms;
  int max_conns = server_defaults.max_connections;
  int handlers = server_defaults.num_handler_threads;
  double slo_ms = server_defaults.slo_ms;
  bool quantize = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (FlagValue(arg, "--checkpoint", &value)) {
      checkpoint = value;
    } else if (FlagValue(arg, "--model", &value)) {
      model_spec = value;
    } else if (FlagValue(arg, "--port", &value)) {
      port = std::atoi(value.c_str());
    } else if (FlagValue(arg, "--batch", &value)) {
      batcher.max_batch_size = std::atoi(value.c_str());
    } else if (FlagValue(arg, "--delay-ms", &value)) {
      batcher.max_delay_ms = std::atoi(value.c_str());
    } else if (FlagValue(arg, "--workers", &value)) {
      batcher.num_workers = std::atoi(value.c_str());
    } else if (FlagValue(arg, "--poll-ms", &value)) {
      poll_ms = std::atoi(value.c_str());
    } else if (FlagValue(arg, "--idle-timeout-ms", &value)) {
      idle_timeout_ms = std::atoi(value.c_str());
    } else if (FlagValue(arg, "--max-conns", &value)) {
      max_conns = std::atoi(value.c_str());
    } else if (FlagValue(arg, "--handlers", &value)) {
      handlers = std::atoi(value.c_str());
    } else if (FlagValue(arg, "--slo-ms", &value)) {
      slo_ms = std::atof(value.c_str());
    } else if (std::strcmp(arg, "--quantize") == 0) {
      quantize = true;
    } else if (std::strcmp(arg, "--train-demo") == 0) {
      train_demo = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      Usage(argv[0]);
      return 2;
    }
  }
  if (checkpoint.empty() || model_spec.empty()) {
    Usage(argv[0]);
    return 2;
  }

  ModelSpec spec;
  Status st = ParseModelSpec(model_spec, &spec);
  if (!st.ok()) {
    std::fprintf(stderr, "bad --model: %s\n", st.ToString().c_str());
    return 2;
  }
  if (train_demo) {
    int rc = RunTrainDemo(spec, checkpoint);
    if (rc != 0) return rc;
  }

  ModelRegistry registry(checkpoint, quantize);
  st = registry.Reload();
  if (!st.ok()) {
    std::fprintf(stderr, "initial checkpoint load failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  ServerOptions options;
  options.port = port;
  options.batcher = batcher;
  options.reload_poll_ms = poll_ms;
  options.idle_timeout_ms = idle_timeout_ms;
  options.max_connections = max_conns;
  options.num_handler_threads = handlers;
  options.slo_ms = slo_ms;
  options.quantize = quantize;
  Server server(&registry, spec, options);
  st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // The port line is machine-readable on purpose: scripts (and the CI smoke
  // job) parse it when --port=0 asked for an ephemeral port.
  std::printf("gmreg_serve: listening on port %d (model %s, version %lld)\n",
              server.port(), spec.name.c_str(),
              static_cast<long long>(registry.version()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("gmreg_serve: signal received, draining\n");
  server.Stop();
  MetricsRegistry::Global().EmitSnapshot("serve_shutdown");
  return 0;
}

}  // namespace
}  // namespace gmreg

int main(int argc, char** argv) { return gmreg::Main(argc, argv); }
