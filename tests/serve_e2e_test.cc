// End-to-end serving acceptance test (ISSUE 4): train a small model,
// checkpoint it, serve it in-process over real HTTP, issue concurrent
// batched requests, hot-swap a newer checkpoint mid-traffic, and assert
//   (a) no request is dropped and no response mixes model versions
//       (every output matches exactly one snapshot's reference output),
//   (b) post-swap responses come from the new snapshot,
//   (c) the latency histograms and gm.serve.* counters are populated.

#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "io/checkpoint.h"
#include "optim/trainer.h"
#include "serve/server.h"
#include "tensor/tensor.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace gmreg {
namespace {

constexpr std::int64_t kFeatures = 8;
constexpr std::int64_t kClasses = 2;
constexpr const char* kSpec = "mlp:8:16:2";

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::int64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().counter(name)->value();
}

/// Trains the serving MLP for `epochs` on a deterministic two-blob stream
/// and leaves the Trainer's checkpoint at `ckpt_path`.
void TrainAndCheckpoint(const ModelSpec& spec, const std::string& ckpt_path,
                        int epochs) {
  std::unique_ptr<Layer> net = spec.factory();
  TrainOptions opts;
  opts.epochs = epochs;
  opts.batch_size = 16;
  opts.learning_rate = 0.05;
  opts.num_train_samples = 256;
  opts.checkpoint_path = ckpt_path;
  opts.checkpoint_every = 1;
  Trainer trainer(net.get(), opts);
  Rng data_rng(11);
  trainer.SetCheckpointRng(&data_rng);
  auto next_batch = [&](Tensor* input, std::vector<int>* labels) {
    if (input->shape() !=
        std::vector<std::int64_t>{opts.batch_size, kFeatures}) {
      *input = Tensor({opts.batch_size, kFeatures});
    }
    labels->resize(static_cast<std::size_t>(opts.batch_size));
    for (std::int64_t i = 0; i < opts.batch_size; ++i) {
      int label = static_cast<int>(data_rng.NextBounded(kClasses));
      (*labels)[static_cast<std::size_t>(i)] = label;
      for (std::int64_t j = 0; j < kFeatures; ++j) {
        double mean = (j % kClasses == label) ? 1.5 : -0.5;
        input->At(i, j) =
            static_cast<float>(data_rng.NextGaussian(mean, 1.0));
      }
    }
  };
  std::vector<EpochStats> stats =
      trainer.Train(next_batch, opts.num_train_samples / opts.batch_size);
  ASSERT_EQ(static_cast<int>(stats.size()), epochs);
}

/// Deterministic probe inputs the whole test reasons about.
std::vector<std::vector<float>> MakeProbes(int count = 4) {
  std::vector<std::vector<float>> probes;
  Rng rng(99);
  for (int p = 0; p < count; ++p) {
    std::vector<float> row(static_cast<std::size_t>(kFeatures));
    for (float& v : row) v = static_cast<float>(rng.NextGaussian());
    probes.push_back(std::move(row));
  }
  return probes;
}

/// Reference outputs: what a weights snapshot answers for each probe,
/// computed outside the serving stack. Per-row Dense forwards are
/// deterministic and batch-composition independent, so these are exact.
std::vector<std::vector<float>> ReferenceOutputs(
    const ModelSpec& spec, const ModelSnapshot& snap,
    const std::vector<std::vector<float>>& probes) {
  std::unique_ptr<Layer> net = spec.factory();
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  Status st = ApplyModelSnapshot(snap, params);
  GMREG_CHECK(st.ok()) << st.ToString();
  std::vector<std::vector<float>> expected;
  for (const std::vector<float>& probe : probes) {
    Tensor in({1, kFeatures});
    for (std::int64_t j = 0; j < kFeatures; ++j) {
      in.At(0, j) = probe[static_cast<std::size_t>(j)];
    }
    Tensor out;
    net->Predict(in, &out);
    std::vector<float> row(static_cast<std::size_t>(kClasses));
    for (std::int64_t c = 0; c < kClasses; ++c) row[c] = out.At(0, c);
    expected.push_back(std::move(row));
  }
  return expected;
}

std::string PredictBody(const std::vector<float>& probe) {
  JsonWriter w;
  w.BeginObject().Key("input").BeginArray();
  for (float v : probe) w.Double(static_cast<double>(v));
  w.EndArray().EndObject();
  return w.str();
}

struct ParsedReply {
  std::int64_t model_version = 0;
  int model_epoch = -1;
  std::vector<std::vector<float>> outputs;  ///< one score row per input row
};

bool ParseReply(const std::string& body, ParsedReply* out) {
  JsonValue doc;
  if (!JsonValue::Parse(body, &doc).ok() || !doc.is_object()) return false;
  const JsonValue* version = doc.Find("model_version");
  const JsonValue* epoch = doc.Find("model_epoch");
  const JsonValue* outputs = doc.Find("outputs");
  if (version == nullptr || !version->is_number() || epoch == nullptr ||
      !epoch->is_number() || outputs == nullptr || !outputs->is_array()) {
    return false;
  }
  out->model_version = static_cast<std::int64_t>(version->number);
  out->model_epoch = static_cast<int>(epoch->number);
  for (const JsonValue& item : outputs->items) {
    if (!item.is_array()) return false;
    std::vector<float> row;
    for (const JsonValue& v : item.items) {
      if (!v.is_number()) return false;
      row.push_back(static_cast<float>(v.number));
    }
    out->outputs.push_back(std::move(row));
  }
  return true;
}

double MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return 1e30;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) -
                                      static_cast<double>(b[i])));
  }
  return worst;
}

TEST(ServeEndToEndTest, HotSwapUnderConcurrentTraffic) {
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec(kSpec, &spec).ok());
  std::string ckpt_path = TempPath("serve_e2e.gmckpt");

  // --- Phase 1: train and checkpoint snapshot A, precompute references.
  TrainAndCheckpoint(spec, ckpt_path, /*epochs=*/2);
  std::vector<std::vector<float>> probes = MakeProbes();
  ModelSnapshot snap_a;
  ASSERT_TRUE(LoadModelSnapshot(ckpt_path, &snap_a).ok());
  std::vector<std::vector<float>> expected_a =
      ReferenceOutputs(spec, snap_a, probes);

  // Snapshot B: the same topology with visibly different weights (scaled),
  // staged in memory and written mid-traffic below. Its reference outputs
  // are computable up front, so every in-flight response — whichever
  // version it claims — has an exact oracle.
  TrainingCheckpoint full_a;
  ASSERT_TRUE(LoadCheckpoint(ckpt_path, &full_a).ok());
  TrainingCheckpoint full_b = full_a;
  full_b.epoch = full_a.epoch + 7;
  for (Tensor& t : full_b.params) {
    for (std::int64_t i = 0; i < t.size(); ++i) t[i] *= 1.5f;
  }
  ModelSnapshot snap_b;
  snap_b.epoch = full_b.epoch;
  snap_b.param_names = full_b.param_names;
  snap_b.params = full_b.params;
  std::vector<std::vector<float>> expected_b =
      ReferenceOutputs(spec, snap_b, probes);
  // The two snapshots must be distinguishable for the torn check to mean
  // anything.
  ASSERT_GT(MaxAbsDiff(expected_a[0], expected_b[0]), 1e-2);

  // --- Phase 2: serve snapshot A over HTTP on an ephemeral port.
  ModelRegistry registry(ckpt_path);
  ASSERT_TRUE(registry.Reload().ok());
  ServerOptions options;
  options.port = 0;
  options.batcher.max_batch_size = 4;
  options.batcher.max_delay_ms = 2;
  options.batcher.num_workers = 2;
  options.reload_poll_ms = 20;
  Server server(&registry, spec, options);
  std::int64_t requests_before = CounterValue("gm.serve.requests");
  std::int64_t batches_before = CounterValue("gm.serve.batches");
  std::int64_t reloads_before = CounterValue("gm.serve.reloads");
  Histogram::Snapshot latency_before =
      MetricsRegistry::Global()
          .histogram("gm.serve.request_latency_seconds")
          ->snapshot();
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(
      HttpRequest(server.port(), "GET", "/healthz", "", &status, &body).ok());
  ASSERT_EQ(status, 200) << body;

  // --- Phase 3: concurrent clients, with the hot swap landing mid-traffic.
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 40;
  std::atomic<int> http_failures{0};
  std::atomic<int> parse_failures{0};
  std::atomic<int> torn_responses{0};
  std::atomic<int> version_a_hits{0};
  std::atomic<int> version_b_hits{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        std::size_t probe_index =
            static_cast<std::size_t>(c + r) % probes.size();
        int code = 0;
        std::string reply_body;
        Status st = HttpRequest(server.port(), "POST", "/v1/predict",
                                PredictBody(probes[probe_index]), &code,
                                &reply_body);
        if (!st.ok() || code != 200) {
          http_failures.fetch_add(1);
          continue;
        }
        ParsedReply reply;
        if (!ParseReply(reply_body, &reply) || reply.outputs.size() != 1) {
          parse_failures.fetch_add(1);
          continue;
        }
        // The no-torn-model check: the response must match exactly the
        // snapshot its model_version claims — a mid-forward swap would
        // produce outputs matching neither oracle.
        if (reply.model_version == 1 &&
            MaxAbsDiff(reply.outputs[0], expected_a[probe_index]) < 1e-4) {
          version_a_hits.fetch_add(1);
        } else if (reply.model_version >= 2 &&
                   MaxAbsDiff(reply.outputs[0], expected_b[probe_index]) <
                       1e-4) {
          version_b_hits.fetch_add(1);
        } else {
          torn_responses.fetch_add(1);
        }
      }
    });
  }

  // Land the swap while traffic is in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(SaveCheckpoint(full_b, ckpt_path).ok());
  for (std::thread& t : clients) t.join();

  // --- Phase 4: wait for the watcher to publish B, then verify post-swap
  // responses come from the new snapshot.
  bool swapped = false;
  for (int spin = 0; spin < 500 && !swapped; ++spin) {
    swapped = registry.version() >= 2;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(swapped) << "watcher never picked up the new checkpoint";

  for (std::size_t p = 0; p < probes.size(); ++p) {
    int code = 0;
    std::string reply_body;
    ASSERT_TRUE(HttpRequest(server.port(), "POST", "/v1/predict",
                            PredictBody(probes[p]), &code, &reply_body)
                    .ok());
    ASSERT_EQ(code, 200) << reply_body;
    ParsedReply reply;
    ASSERT_TRUE(ParseReply(reply_body, &reply) && reply.outputs.size() == 1)
        << reply_body;
    EXPECT_GE(reply.model_version, 2);
    EXPECT_LT(MaxAbsDiff(reply.outputs[0], expected_b[p]), 1e-4)
        << "post-swap response does not match the new snapshot (probe " << p
        << ")";
    version_b_hits.fetch_add(1);
  }

  // (a) nothing dropped, nothing torn.
  EXPECT_EQ(http_failures.load(), 0);
  EXPECT_EQ(parse_failures.load(), 0);
  EXPECT_EQ(torn_responses.load(), 0);
  EXPECT_EQ(version_a_hits.load() + version_b_hits.load() -
                static_cast<int>(probes.size()),
            kClients * kRequestsPerClient);
  // (b) the new snapshot actually served traffic.
  EXPECT_GT(version_b_hits.load(), 0);

  // (c) serving telemetry is populated.
  std::int64_t total_rows =
      kClients * kRequestsPerClient + static_cast<int>(probes.size());
  EXPECT_GE(CounterValue("gm.serve.requests"), requests_before + total_rows);
  EXPECT_GT(CounterValue("gm.serve.batches"), batches_before);
  // The watcher's hot swap is at least one reload past the initial load.
  EXPECT_GE(CounterValue("gm.serve.reloads"), reloads_before + 1);
  Histogram::Snapshot latency_after =
      MetricsRegistry::Global()
          .histogram("gm.serve.request_latency_seconds")
          ->snapshot();
  EXPECT_GE(latency_after.count, latency_before.count + total_rows);
  EXPECT_GT(latency_after.p50(), 0.0);
  EXPECT_GE(latency_after.p99(), latency_after.p50());

  // /metrics exposes the same counters over HTTP.
  ASSERT_TRUE(
      HttpRequest(server.port(), "GET", "/metrics", "", &status, &body).ok());
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("gm.serve.requests"), std::string::npos);
  EXPECT_NE(body.find("gm.serve.request_latency_seconds.p95"),
            std::string::npos);

  server.Stop();
  // Stopped server refuses connections; Stop is idempotent.
  Status down =
      HttpRequest(server.port(), "GET", "/healthz", "", &status, &body);
  EXPECT_FALSE(down.ok());
  server.Stop();
}

/// A body of several rows: probes[first], probes[first + 1], ... (mod the
/// probe count).
std::string MultiRowBody(const std::vector<std::vector<float>>& probes,
                         std::size_t first, std::size_t rows) {
  JsonWriter w;
  w.BeginObject().Key("inputs").BeginArray();
  for (std::size_t r = 0; r < rows; ++r) {
    w.BeginArray();
    for (float v : probes[(first + r) % probes.size()]) {
      w.Double(static_cast<double>(v));
    }
    w.EndArray();
  }
  w.EndArray().EndObject();
  return w.str();
}

// Multi-row requests under a hot swap: every row of every response must
// match the reference outputs of the one version the response reports.
// The parameter is max_batch_size: 8 runs each 8-row body as one batch, 3
// runs it in slices of 3, 3 and 2 rows that must share one snapshot.
class MultiRowHotSwapTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiRowHotSwapTest, EveryRowComesFromTheReportedVersion) {
  constexpr std::size_t kRowsPerBody = 8;
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec(kSpec, &spec).ok());
  std::string ckpt_path =
      TempPath("serve_e2e_rows_" + std::to_string(GetParam()) + ".gmckpt");
  TrainAndCheckpoint(spec, ckpt_path, /*epochs=*/1);
  std::vector<std::vector<float>> probes = MakeProbes(11);
  ModelSnapshot snap_a;
  ASSERT_TRUE(LoadModelSnapshot(ckpt_path, &snap_a).ok());
  std::vector<std::vector<float>> expected_a =
      ReferenceOutputs(spec, snap_a, probes);
  // Snapshots B, C, ...: scaled weights with distinct reference outputs,
  // published while the traffic runs.
  TrainingCheckpoint full_a;
  ASSERT_TRUE(LoadCheckpoint(ckpt_path, &full_a).ok());
  constexpr int kSwaps = 30;
  std::vector<TrainingCheckpoint> swaps;
  std::map<int, std::vector<std::vector<float>>> expected_by_epoch;
  expected_by_epoch[snap_a.epoch] = expected_a;
  for (int k = 1; k <= kSwaps; ++k) {
    TrainingCheckpoint next = full_a;
    next.epoch = full_a.epoch + k;
    for (Tensor& t : next.params) {
      for (std::int64_t i = 0; i < t.size(); ++i) {
        t[i] *= 1.0f + 0.25f * static_cast<float>(k);
      }
    }
    ModelSnapshot snap;
    snap.epoch = next.epoch;
    snap.param_names = next.param_names;
    snap.params = next.params;
    expected_by_epoch[next.epoch] = ReferenceOutputs(spec, snap, probes);
    swaps.push_back(std::move(next));
  }

  ModelRegistry registry(ckpt_path);
  ASSERT_TRUE(registry.Reload().ok());
  ServerOptions options;
  options.port = 0;
  options.batcher.max_batch_size = GetParam();
  options.batcher.max_delay_ms = 1;
  options.batcher.num_workers = 2;
  options.reload_poll_ms = 2;
  Server server(&registry, spec, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 150;
  std::atomic<int> failures{0};
  std::atomic<int> wrong_rows{0};
  std::atomic<int> answered{0};
  std::atomic<bool> all_published{false};
  std::mutex versions_mu;
  std::set<std::int64_t> versions_seen;
  auto send_and_check = [&](HttpClient* client, std::size_t first) {
    int code = 0;
    std::string reply_body;
    ParsedReply reply;
    if (!client
             ->Request("POST", "/v1/predict",
                       MultiRowBody(probes, first, kRowsPerBody), &code,
                       &reply_body)
             .ok() ||
        code != 200 || !ParseReply(reply_body, &reply) ||
        reply.outputs.size() != kRowsPerBody) {
      failures.fetch_add(1);
      return;
    }
    // Each snapshot has its own epoch, so the reported epoch names the one
    // snapshot every row must come from.
    auto it = expected_by_epoch.find(reply.model_epoch);
    if (it == expected_by_epoch.end()) {
      failures.fetch_add(1);
      return;
    }
    for (std::size_t row = 0; row < kRowsPerBody; ++row) {
      const std::vector<float>& want =
          it->second[(first + row) % probes.size()];
      if (MaxAbsDiff(reply.outputs[row], want) >= 1e-4) {
        wrong_rows.fetch_add(1);
      }
    }
    answered.fetch_add(1);
    std::lock_guard<std::mutex> lock(versions_mu);
    versions_seen.insert(reply.model_version);
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client(server.port());
      // Traffic lasts until every swap is published; the request sent
      // after that is answered by the last snapshot.
      for (int r = 0;; ++r) {
        bool last = r >= kRequestsPerClient && all_published.load();
        send_and_check(&client, static_cast<std::size_t>(c * 3 + r));
        if (last) break;
      }
    });
  }
  // The swaps are spread over the traffic: swap k waits until k + 1
  // shares of the requests have been answered, and at least 2 ms.
  for (std::size_t k = 0; k < swaps.size(); ++k) {
    const int target = static_cast<int>(k + 1) * kClients *
                       kRequestsPerClient / (kSwaps + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (int spin = 0; spin < 5000 && answered.load() < target; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(SaveCheckpoint(swaps[k], ckpt_path).ok());
  }
  const int last_epoch = swaps.back().epoch;
  for (int spin = 0;
       spin < 5000 && registry.Current()->snapshot.epoch != last_epoch;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(registry.Current()->snapshot.epoch, last_epoch);
  all_published.store(true);
  for (std::thread& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_rows.load(), 0)
      << "a response reported one version but has rows of another";
  EXPECT_GE(answered.load(), kClients * (kRequestsPerClient + 1));
  // Answers came from before the first swap and after the last one.
  EXPECT_GT(versions_seen.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MultiRowHotSwapTest,
                         ::testing::Values(8, 3));

TEST(ServeHttpTest, RoutesAndErrorCodes) {
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec(kSpec, &spec).ok());
  std::string ckpt_path = TempPath("serve_http.gmckpt");
  TrainAndCheckpoint(spec, ckpt_path, /*epochs=*/1);
  ModelRegistry registry(ckpt_path);
  ASSERT_TRUE(registry.Reload().ok());
  ServerOptions options;
  options.port = 0;
  Server server(&registry, spec, options);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  int status = 0;
  std::string body;
  // Unknown route -> 404; wrong method -> 405.
  ASSERT_TRUE(HttpRequest(port, "GET", "/nope", "", &status, &body).ok());
  EXPECT_EQ(status, 404);
  ASSERT_TRUE(HttpRequest(port, "GET", "/v1/predict", "", &status, &body).ok());
  EXPECT_EQ(status, 405);
  ASSERT_TRUE(HttpRequest(port, "POST", "/healthz", "", &status, &body).ok());
  EXPECT_EQ(status, 405);
  // Malformed JSON and wrong row arity -> 400 with an "error" field.
  ASSERT_TRUE(
      HttpRequest(port, "POST", "/v1/predict", "{nope", &status, &body).ok());
  EXPECT_EQ(status, 400);
  EXPECT_NE(body.find("\"error\""), std::string::npos);
  ASSERT_TRUE(HttpRequest(port, "POST", "/v1/predict",
                          "{\"input\": [1, 2, 3]}", &status, &body)
                  .ok());
  EXPECT_EQ(status, 400);
  ASSERT_TRUE(HttpRequest(port, "POST", "/v1/predict", "{\"inputs\": []}",
                          &status, &body)
                  .ok());
  EXPECT_EQ(status, 400);
  // A good batched request returns one output row per input row.
  JsonWriter w;
  w.BeginObject().Key("inputs").BeginArray();
  for (int r = 0; r < 2; ++r) {
    w.BeginArray();
    for (std::int64_t j = 0; j < kFeatures; ++j) w.Double(0.25 * (r + 1));
    w.EndArray();
  }
  w.EndArray().EndObject();
  ASSERT_TRUE(
      HttpRequest(port, "POST", "/v1/predict", w.str(), &status, &body).ok());
  EXPECT_EQ(status, 200) << body;
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(body, &doc).ok());
  const JsonValue* outputs = doc.Find("outputs");
  ASSERT_NE(outputs, nullptr);
  EXPECT_EQ(outputs->items.size(), 2u);
  const JsonValue* predictions = doc.Find("predictions");
  ASSERT_NE(predictions, nullptr);
  EXPECT_EQ(predictions->items.size(), 2u);
  server.Stop();
}

TEST(ServeHttpTest, HealthzIs503BeforeFirstLoad) {
  ModelSpec spec;
  ASSERT_TRUE(ParseModelSpec(kSpec, &spec).ok());
  // A registry pointed at a checkpoint that does not exist yet.
  ModelRegistry registry(TempPath("serve_health_missing.gmckpt"));
  ServerOptions options;
  options.port = 0;
  Server server(&registry, spec, options);
  ASSERT_TRUE(server.Start().ok());
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpRequest(server.port(), "GET", "/healthz", "", &status,
                          &body)
                  .ok());
  EXPECT_EQ(status, 503);
  // Predictions also fail cleanly (503) rather than crashing.
  std::string row = "{\"input\": [0,0,0,0,0,0,0,0]}";
  ASSERT_TRUE(HttpRequest(server.port(), "POST", "/v1/predict", row, &status,
                          &body)
                  .ok());
  EXPECT_EQ(status, 503);
  server.Stop();
}

}  // namespace
}  // namespace gmreg
