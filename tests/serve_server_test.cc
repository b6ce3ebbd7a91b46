// Event-loop transport tests (ISSUE 7): keep-alive reuse, pipelining,
// slow-loris idle timeout, 429 + Retry-After under saturation, the
// max-connection cap, and graceful drain with in-flight keep-alive
// connections. These exercise the epoll path of src/serve/server.cc
// directly over real sockets; the request/response semantics themselves
// are covered by serve_e2e_test.cc.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <ctime>
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
constexpr const char* kSpec = "mlp:8:16:2";

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::int64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().counter(name)->value();
}

/// Trains the serving MLP for one epoch and leaves a checkpoint behind.
void TrainAndCheckpoint(const ModelSpec& spec, const std::string& ckpt_path) {
  std::unique_ptr<Layer> net = spec.factory();
  TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 16;
  opts.learning_rate = 0.05;
  opts.num_train_samples = 64;
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
      int label = static_cast<int>(data_rng.NextBounded(2));
      (*labels)[static_cast<std::size_t>(i)] = label;
      for (std::int64_t j = 0; j < kFeatures; ++j) {
        double mean = (j % 2 == label) ? 1.5 : -0.5;
        input->At(i, j) =
            static_cast<float>(data_rng.NextGaussian(mean, 1.0));
      }
    }
  };
  std::vector<EpochStats> stats =
      trainer.Train(next_batch, opts.num_train_samples / opts.batch_size);
  ASSERT_EQ(static_cast<int>(stats.size()), 1);
}

std::string PredictBody() {
  JsonWriter w;
  w.BeginObject().Key("input").BeginArray();
  for (std::int64_t j = 0; j < kFeatures; ++j) w.Double(0.25 * (j + 1));
  w.EndArray().EndObject();
  return w.str();
}

/// One served model on an ephemeral port, with per-test server options.
struct ServedModel {
  ModelSpec spec;
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<Server> server;

  void Start(const std::string& tag, ServerOptions options) {
    ASSERT_TRUE(ParseModelSpec(kSpec, &spec).ok());
    std::string ckpt_path = TempPath(tag + ".gmckpt");
    TrainAndCheckpoint(spec, ckpt_path);
    registry = std::make_unique<ModelRegistry>(ckpt_path);
    ASSERT_TRUE(registry->Reload().ok());
    options.port = 0;
    server = std::make_unique<Server>(registry.get(), spec, options);
    ASSERT_TRUE(server->Start().ok());
    ASSERT_GT(server->port(), 0);
  }
};

TEST(ServeEventLoopTest, KeepAliveServesManyRequestsOnOneConnection) {
  ServedModel served;
  served.Start("serve_keepalive", ServerOptions());
  std::int64_t accepted_before = CounterValue("gm.serve.conns_accepted");
  std::int64_t reuses_before = CounterValue("gm.serve.keepalive_reuses");

  constexpr int kRequests = 10;
  HttpClient client(served.server->port());
  for (int r = 0; r < kRequests; ++r) {
    int status = 0;
    std::string body, headers;
    ASSERT_TRUE(client
                    .Request("POST", "/v1/predict", PredictBody(), &status,
                             &body, &headers)
                    .ok())
        << "request " << r;
    EXPECT_EQ(status, 200) << body;
    EXPECT_NE(body.find("\"outputs\""), std::string::npos);
    // The server must not hang up between requests.
    EXPECT_TRUE(client.connected()) << "request " << r;
    EXPECT_EQ(FindHeader(headers, "Connection"), "keep-alive");
  }

  EXPECT_EQ(CounterValue("gm.serve.conns_accepted"), accepted_before + 1);
  EXPECT_GE(CounterValue("gm.serve.keepalive_reuses"),
            reuses_before + kRequests - 1);
  EXPECT_EQ(served.server->open_connections(), 1);
  served.server->Stop();
}

TEST(ServeEventLoopTest, PipelinedRequestsAnswerInOrder) {
  ServedModel served;
  served.Start("serve_pipeline", ServerOptions());
  std::int64_t accepted_before = CounterValue("gm.serve.conns_accepted");

  // Three requests written back-to-back before any response is read; the
  // responses must come back in request order on the same connection.
  HttpClient client(served.server->port());
  std::string wire = HttpClient::Serialize("GET", "/healthz", "") +
                     HttpClient::Serialize("POST", "/v1/predict",
                                           PredictBody()) +
                     HttpClient::Serialize("GET", "/nope", "");
  ASSERT_TRUE(client.SendRaw(wire).ok());

  int status = 0;
  std::string body;
  ASSERT_TRUE(client.ReadResponse(&status, &body).ok());
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\""), std::string::npos);
  ASSERT_TRUE(client.ReadResponse(&status, &body).ok());
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"outputs\""), std::string::npos);
  ASSERT_TRUE(client.ReadResponse(&status, &body).ok());
  EXPECT_EQ(status, 404);
  EXPECT_NE(body.find("\"error\""), std::string::npos);

  EXPECT_EQ(CounterValue("gm.serve.conns_accepted"), accepted_before + 1);
  served.server->Stop();
}

TEST(ServeEventLoopTest, PipelinedBurstParsesInLinearTime) {
  // A burst of N requests written in one go sits in the connection's read
  // buffer while it is parsed. Parsing must cost O(bytes), not O(N) per
  // request, or a deep pipeline stalls the event loop quadratically.
  ServerOptions options;
  options.batcher.max_delay_ms = 0;  // measure the parser, not batching
  ServedModel served;
  served.Start("serve_pipeline_burst", options);
  const std::string one = HttpClient::Serialize("POST", "/v1/predict",
                                                PredictBody());
  // Process CPU seconds, best of two bursts: other processes sharing the
  // machine inflate wall time, not the work the server does.
  auto burst_cpu_seconds = [&](int n) {
    std::string wire;
    wire.reserve(one.size() * static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) wire += one;
    double best = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
      HttpClient client(served.server->port());
      std::clock_t start = std::clock();
      EXPECT_TRUE(client.SendRaw(wire).ok());
      int ok = 0;
      for (int i = 0; i < n; ++i) {
        int status = 0;
        std::string body;
        if (!client.ReadResponse(&status, &body).ok()) break;
        if (status == 200) ++ok;
      }
      EXPECT_EQ(ok, n);
      best = std::min(best, static_cast<double>(std::clock() - start) /
                                CLOCKS_PER_SEC);
    }
    return best;
  };
  constexpr int kBurst = 8000;
  burst_cpu_seconds(64);  // warm-up: plan the model's buffers
  double small = burst_cpu_seconds(kBurst);
  double large = burst_cpu_seconds(4 * kBurst);
  EXPECT_LT(large, 8.0 * small)
      << kBurst << " requests took " << small << " CPU s, " << 4 * kBurst
      << " took " << large << " CPU s";
  served.server->Stop();
}

TEST(ServeEventLoopTest, SlowLorisPartialHeaderIsReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  ServedModel served;
  served.Start("serve_loris", options);
  std::int64_t idle_before = CounterValue("gm.serve.conns_idle_closed");

  // Dribble a partial request line and then stall: the idle sweep must
  // close the connection instead of holding a parser forever.
  HttpClient client(served.server->port());
  ASSERT_TRUE(client.SendRaw("POST /v1/pred").ok());
  int status = 0;
  std::string body;
  Status st = client.ReadResponse(&status, &body);
  EXPECT_FALSE(st.ok()) << "server answered a half-request";
  EXPECT_FALSE(client.connected());
  EXPECT_GE(CounterValue("gm.serve.conns_idle_closed"), idle_before + 1);
  served.server->Stop();
}

TEST(ServeEventLoopTest, SaturationReturns429WithRetryAfter) {
  // One worker, a near-empty queue allowance, and a long batch-fill delay:
  // the first requests park in the queue waiting for company while the
  // rest overflow it.
  ServerOptions options;
  options.batcher.num_workers = 1;
  options.batcher.max_batch_size = 8;
  options.batcher.max_delay_ms = 300;
  options.batcher.max_queue_depth = 2;
  options.num_handler_threads = 8;
  ServedModel served;
  served.Start("serve_saturate", options);
  std::int64_t shed_before = CounterValue("gm.serve.shed_requests");

  constexpr int kClients = 8;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::atomic<int> other_count{0};
  std::atomic<int> missing_retry_after{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      HttpClient client(served.server->port());
      int status = 0;
      std::string body, headers;
      Status st = client.Request("POST", "/v1/predict", PredictBody(),
                                 &status, &body, &headers);
      if (!st.ok()) {
        other_count.fetch_add(1);
        return;
      }
      if (status == 200) {
        ok_count.fetch_add(1);
      } else if (status == 429) {
        shed_count.fetch_add(1);
        // Load shedding is advisory, not a silent drop: the client is told
        // when to come back.
        std::string retry_after = FindHeader(headers, "Retry-After");
        if (retry_after.empty() || std::atoi(retry_after.c_str()) < 1) {
          missing_retry_after.fetch_add(1);
        }
      } else {
        other_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Every request is answered: served or shed, never dropped or errored.
  EXPECT_EQ(ok_count.load() + shed_count.load(), kClients);
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_GE(ok_count.load(), 1);
  EXPECT_GE(shed_count.load(), 1) << "queue never saturated";
  EXPECT_EQ(missing_retry_after.load(), 0);
  EXPECT_GE(CounterValue("gm.serve.shed_requests"),
            shed_before + shed_count.load());
  served.server->Stop();
}

TEST(ServeEventLoopTest, MaxConnectionCapRejectsWith503) {
  ServerOptions options;
  options.max_connections = 2;
  ServedModel served;
  served.Start("serve_conncap", options);
  std::int64_t rejected_before = CounterValue("gm.serve.conns_rejected");

  // Two keep-alive connections occupy the cap...
  HttpClient first(served.server->port());
  HttpClient second(served.server->port());
  int status = 0;
  std::string body;
  ASSERT_TRUE(first.Request("GET", "/healthz", "", &status, &body).ok());
  ASSERT_EQ(status, 200);
  ASSERT_TRUE(second.Request("GET", "/healthz", "", &status, &body).ok());
  ASSERT_EQ(status, 200);
  ASSERT_EQ(served.server->open_connections(), 2);

  // ...so a third is turned away with an explicit 503, not a hang.
  HttpClient third(served.server->port());
  std::string headers;
  ASSERT_TRUE(
      third.Request("GET", "/healthz", "", &status, &body, &headers).ok());
  EXPECT_EQ(status, 503);
  EXPECT_FALSE(FindHeader(headers, "Retry-After").empty());
  EXPECT_GE(CounterValue("gm.serve.conns_rejected"), rejected_before + 1);

  // The capped connections still work, and closing one frees a slot.
  ASSERT_TRUE(first.Request("GET", "/healthz", "", &status, &body).ok());
  EXPECT_EQ(status, 200);
  first.Close();
  bool reconnected = false;
  for (int spin = 0; spin < 200 && !reconnected; ++spin) {
    HttpClient retry(served.server->port());
    reconnected =
        retry.Request("GET", "/healthz", "", &status, &body).ok() &&
        status == 200;
    if (!reconnected) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(reconnected) << "slot was never released";
  served.server->Stop();
}

TEST(ServeEventLoopTest, GracefulDrainAnswersInFlightThenCloses) {
  // A slow batch fill keeps the in-flight request parked in the batcher
  // while Stop() lands, so the drain path has real work to finish.
  ServerOptions options;
  options.batcher.max_batch_size = 8;
  options.batcher.max_delay_ms = 200;
  ServedModel served;
  served.Start("serve_drain", options);

  // An idle keep-alive connection (must be closed by the drain) ...
  HttpClient idle_client(served.server->port());
  int status = 0;
  std::string body;
  ASSERT_TRUE(idle_client.Request("GET", "/healthz", "", &status, &body).ok());
  ASSERT_EQ(status, 200);
  ASSERT_TRUE(idle_client.connected());

  // ... and one request in flight when Stop() begins.
  std::atomic<bool> served_ok{false};
  std::atomic<bool> got_close_header{false};
  std::thread in_flight([&] {
    HttpClient client(served.server->port());
    int code = 0;
    std::string reply, headers;
    Status st = client.Request("POST", "/v1/predict", PredictBody(), &code,
                               &reply, &headers);
    served_ok.store(st.ok() && code == 200);
    got_close_header.store(FindHeader(headers, "Connection") == "close");
  });
  // Let the request reach the batcher queue (it waits ~200ms for company).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  served.server->Stop();
  in_flight.join();

  EXPECT_TRUE(served_ok.load())
      << "in-flight request was dropped by the drain";
  EXPECT_TRUE(got_close_header.load());
  EXPECT_EQ(served.server->open_connections(), 0);
  // The idle keep-alive peer finds its connection closed, not wedged.
  std::string headers;
  EXPECT_FALSE(
      idle_client.Request("GET", "/healthz", "", &status, &body, &headers)
          .ok());
  // And the port no longer accepts new connections.
  HttpClient late(served.server->port());
  EXPECT_FALSE(late.Connect().ok());
}

}  // namespace
}  // namespace gmreg
