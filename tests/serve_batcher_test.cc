// Micro-batching engine tests (src/serve/batcher.h): flush triggers (full
// batch vs. oldest-request deadline vs. shutdown drain), response routing
// under concurrent submitters, the request as the batching unit (never
// split, one version, oversized requests sliced on one snapshot),
// backpressure counted in rows, error propagation, and the graceful-drain
// guarantee that no accepted request is ever dropped.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "serve/batcher.h"
#include "tensor/tensor.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace gmreg {
namespace {

std::int64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().counter(name)->value();
}

/// Identity handler: echoes the stacked input back, so every reply must
/// carry exactly the rows its caller submitted — the routing oracle.
Status IdentityHandler(int /*worker*/, bool /*rebind*/, const Tensor& in,
                       Tensor* out, BatchInfo* info) {
  *out = in;
  info->model_version = 7;
  info->model_epoch = 3;
  return Status::Ok();
}

/// A request of `values.size()` one-element rows, shape [n, 1].
Tensor Rows(const std::vector<float>& values) {
  Tensor t({static_cast<std::int64_t>(values.size()), 1});
  for (std::size_t i = 0; i < values.size(); ++i) {
    t[static_cast<std::int64_t>(i)] = values[i];
  }
  return t;
}

/// A one-row request [1, 1].
Tensor ScalarExample(float value) { return Rows({value}); }

TEST(BatcherTest, SingleRequestFlushesAtDeadline) {
  BatcherOptions options;
  options.max_batch_size = 64;  // never fills
  options.max_delay_ms = 30;
  Batcher batcher(options, IdentityHandler);
  batcher.Start();
  Stopwatch watch;
  Batcher::Reply reply;
  Status st = batcher.Predict(ScalarExample(5.0f), &reply);
  double elapsed = watch.ElapsedSeconds();
  ASSERT_TRUE(st.ok()) << st.ToString();
  // The lone request must wait out the batching delay (deadline flush), not
  // hang forever waiting for a batch that never fills.
  EXPECT_GE(elapsed, 0.02);
  EXPECT_LT(elapsed, 5.0);
  ASSERT_EQ(reply.output.size(), 1);
  EXPECT_EQ(reply.output[0], 5.0f);
  EXPECT_EQ(reply.model_version, 7);
  EXPECT_EQ(reply.model_epoch, 3);
}

TEST(BatcherTest, FullBatchFlushesBeforeDeadline) {
  BatcherOptions options;
  options.max_batch_size = 4;
  options.max_delay_ms = 10000;  // a deadline flush would time the test out
  std::mutex mu;
  std::vector<std::int64_t> batch_sizes;
  Batcher batcher(options, [&](int worker, bool rebind, const Tensor& in,
                               Tensor* out, BatchInfo* info) {
    {
      std::lock_guard<std::mutex> lock(mu);
      batch_sizes.push_back(in.dim(0));
    }
    return IdentityHandler(worker, rebind, in, out, info);
  });
  batcher.Start();
  Stopwatch watch;
  std::vector<std::thread> clients;
  std::vector<Batcher::Reply> replies(4);
  std::vector<Status> statuses(4);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      statuses[static_cast<std::size_t>(c)] = batcher.Predict(
          ScalarExample(static_cast<float>(c)),
          &replies[static_cast<std::size_t>(c)]);
    });
  }
  for (std::thread& t : clients) t.join();
  // All four must come back as one full batch, long before the 10s deadline.
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(statuses[static_cast<std::size_t>(c)].ok());
    EXPECT_EQ(replies[static_cast<std::size_t>(c)].output[0],
              static_cast<float>(c));
  }
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(batch_sizes.empty());
  std::int64_t total = 0;
  for (std::int64_t b : batch_sizes) total += b;
  EXPECT_EQ(total, 4);
}

TEST(BatcherTest, RepliesRouteToTheRightCallerUnderConcurrency) {
  BatcherOptions options;
  options.max_batch_size = 8;
  options.max_delay_ms = 1;
  options.num_workers = 2;
  Batcher batcher(options, IdentityHandler);
  batcher.Start();
  constexpr int kThreads = 8;
  constexpr int kRequests = 50;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequests; ++r) {
        float value = static_cast<float>(c * 1000 + r);
        Batcher::Reply reply;
        Status st = batcher.Predict(ScalarExample(value), &reply);
        if (!st.ok()) {
          failures.fetch_add(1);
        } else if (reply.output.size() != 1 || reply.output[0] != value) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(BatcherTest, MixedShapesAreBatchedSeparately) {
  BatcherOptions options;
  options.max_batch_size = 16;
  options.max_delay_ms = 5;
  Batcher batcher(options, IdentityHandler);
  batcher.Start();
  std::vector<std::thread> clients;
  std::atomic<int> bad{0};
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      std::int64_t width = (c % 2 == 0) ? 2 : 3;
      Tensor example({1, width});
      for (std::int64_t i = 0; i < width; ++i) {
        example[i] = static_cast<float>(c);
      }
      Batcher::Reply reply;
      Status st = batcher.Predict(example, &reply);
      if (!st.ok() || reply.output.size() != width ||
          reply.output[0] != static_cast<float>(c)) {
        bad.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(BatcherTest, GracefulDrainAnswersEverythingAccepted) {
  BatcherOptions options;
  options.max_batch_size = 2;
  options.max_delay_ms = 1;
  // A deliberately slow handler so a backlog builds up before Shutdown.
  Batcher batcher(options, [](int worker, bool rebind, const Tensor& in,
                              Tensor* out, BatchInfo* info) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return IdentityHandler(worker, rebind, in, out, info);
  });
  batcher.Start();
  constexpr int kThreads = 8;
  std::atomic<int> answered{0};
  std::atomic<int> rejected{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 5; ++r) {
        Batcher::Reply reply;
        Status st = batcher.Predict(ScalarExample(static_cast<float>(c)),
                                    &reply);
        if (st.ok()) {
          answered.fetch_add(1);
        } else if (st.code() == StatusCode::kFailedPrecondition) {
          rejected.fetch_add(1);  // arrived after the drain began: fine
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  batcher.Shutdown();  // must answer the backlog, not drop it
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(answered.load() + rejected.load(), kThreads * 5);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(answered.load(), 0);
}

TEST(BatcherTest, PredictAfterShutdownIsRejected) {
  Batcher batcher(BatcherOptions{}, IdentityHandler);
  batcher.Start();
  batcher.Shutdown();
  Batcher::Reply reply;
  Status st = batcher.Predict(ScalarExample(1.0f), &reply);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(BatcherTest, ShutdownIsIdempotent) {
  Batcher batcher(BatcherOptions{}, IdentityHandler);
  batcher.Start();
  batcher.Shutdown();
  batcher.Shutdown();  // second call must be a no-op, not a deadlock
}

TEST(BatcherTest, EmptyExampleIsInvalid) {
  Batcher batcher(BatcherOptions{}, IdentityHandler);
  batcher.Start();
  Batcher::Reply reply;
  Tensor empty;
  EXPECT_EQ(batcher.Predict(empty, &reply).code(),
            StatusCode::kInvalidArgument);
  batcher.Shutdown();
}

TEST(BatcherTest, BackpressureRejectsWhenQueueIsFull) {
  BatcherOptions options;
  options.max_batch_size = 1;
  options.max_delay_ms = 0;
  options.max_queue_depth = 2;
  // Handler blocks until released so the queue can fill behind it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> in_handler{0};
  Batcher batcher(options, [&](int worker, bool rebind, const Tensor& in,
                               Tensor* out, BatchInfo* info) {
    in_handler.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return IdentityHandler(worker, rebind, in, out, info);
  });
  batcher.Start();
  std::vector<std::thread> blocked;
  std::atomic<int> ok_count{0};
  auto submit = [&] {
    blocked.emplace_back([&] {
      Batcher::Reply reply;
      if (batcher.Predict(ScalarExample(1.0f), &reply).ok()) {
        ok_count.fetch_add(1);
      }
    });
  };
  // One request occupies the worker first — if all three were submitted at
  // once, the third could hit the still-queued pair and be rejected before
  // the worker ever dequeued one.
  submit();
  for (int spin = 0; spin < 500 && in_handler.load() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(in_handler.load(), 1);
  // Now two more fill the queue behind the blocked worker.
  submit();
  submit();
  for (int spin = 0; spin < 500 && batcher.queue_depth() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(batcher.queue_depth(), 2);
  std::int64_t rejected_before = CounterValue("gm.serve.rejected");
  Batcher::Reply reply;
  Status st = batcher.Predict(ScalarExample(9.0f), &reply);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(CounterValue("gm.serve.rejected"), rejected_before + 1);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (std::thread& t : blocked) t.join();
  batcher.Shutdown();
  EXPECT_EQ(ok_count.load(), 3);
}

TEST(BatcherTest, HandlerErrorFailsTheWholeBatch) {
  BatcherOptions options;
  options.max_batch_size = 4;
  options.max_delay_ms = 20;
  Batcher batcher(options,
                  [](int, bool, const Tensor&, Tensor*, BatchInfo*) {
                    return Status::Internal("model exploded");
                  });
  batcher.Start();
  std::vector<std::thread> clients;
  std::atomic<int> internal_errors{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      Batcher::Reply reply;
      Status st = batcher.Predict(ScalarExample(1.0f), &reply);
      if (st.code() == StatusCode::kInternal) internal_errors.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(internal_errors.load(), 4);
}

TEST(BatcherTest, WrongHandlerOutputShapeIsInternalError) {
  BatcherOptions options;
  options.max_delay_ms = 1;
  Batcher batcher(options,
                  [](int, bool, const Tensor&, Tensor* out, BatchInfo*) {
                    *out = Tensor({99, 2});  // wrong leading dim
                    return Status::Ok();
                  });
  batcher.Start();
  Batcher::Reply reply;
  EXPECT_EQ(batcher.Predict(ScalarExample(1.0f), &reply).code(),
            StatusCode::kInternal);
}

TEST(BatcherTest, MetricsCoverRequestsBatchesAndLatency) {
  std::int64_t requests_before = CounterValue("gm.serve.requests");
  std::int64_t batches_before = CounterValue("gm.serve.batches");
  Histogram* latency =
      MetricsRegistry::Global().histogram("gm.serve.request_latency_seconds");
  std::int64_t latency_before = latency->snapshot().count;
  BatcherOptions options;
  options.max_batch_size = 4;
  options.max_delay_ms = 1;
  Batcher batcher(options, IdentityHandler);
  batcher.Start();
  // Six requests of two rows: the row counters see 12, the per-request
  // latency histogram sees 6.
  for (int r = 0; r < 6; ++r) {
    Batcher::Reply reply;
    ASSERT_TRUE(batcher.Predict(Rows({1.0f, 2.0f}), &reply).ok());
  }
  batcher.Shutdown();
  EXPECT_EQ(CounterValue("gm.serve.requests"), requests_before + 12);
  EXPECT_GE(CounterValue("gm.serve.batches"), batches_before + 6);
  Histogram::Snapshot snap = latency->snapshot();
  EXPECT_EQ(snap.count, latency_before + 6);
  EXPECT_GT(snap.p50(), 0.0);
}

TEST(BatcherTest, MultiRowRequestIsOneHandlerCallWithOneVersion) {
  BatcherOptions options;
  options.max_batch_size = 8;
  options.max_delay_ms = 10000;  // only a full batch may flush early
  std::atomic<int> calls{0};
  Batcher batcher(options, [&](int worker, bool rebind, const Tensor& in,
                               Tensor* out, BatchInfo* info) {
    int call = calls.fetch_add(1) + 1;
    EXPECT_TRUE(rebind);
    Status st = IdentityHandler(worker, rebind, in, out, info);
    info->model_version = call;  // a new version on every call
    return st;
  });
  batcher.Start();
  // Eight rows fill the batch on their own: one enqueue, one model call,
  // no wait for the 10 s deadline.
  std::vector<float> values = {1, 2, 3, 4, 5, 6, 7, 8};
  Stopwatch watch;
  Batcher::Reply reply;
  ASSERT_TRUE(batcher.Predict(Rows(values), &reply).ok());
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(reply.model_version, 1);
  ASSERT_EQ(reply.output.shape(), (std::vector<std::int64_t>{8, 1}));
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(reply.output[static_cast<std::int64_t>(i)], values[i]);
  }
  batcher.Shutdown();
}

TEST(BatcherTest, WholeRequestsAreNeverSplitAcrossBatches) {
  // Row values encode (request id, row index), so the handler can check
  // that every request in a model call is there with all of its rows.
  constexpr int kRequests = 40;
  auto rows_of = [](int id) { return 1 + id % 7; };
  BatcherOptions options;
  options.max_batch_size = 8;
  options.max_delay_ms = 2;
  options.num_workers = 2;
  std::atomic<int> oversized_calls{0};
  std::atomic<int> split_requests{0};
  std::atomic<std::int64_t> version{0};
  Batcher batcher(options, [&](int worker, bool rebind, const Tensor& in,
                               Tensor* out, BatchInfo* info) {
    if (in.dim(0) > 8) oversized_calls.fetch_add(1);
    std::map<int, int> seen;
    for (std::int64_t i = 0; i < in.size(); ++i) {
      ++seen[static_cast<int>(in[i]) / 100];
    }
    for (const auto& [id, count] : seen) {
      if (count != rows_of(id)) split_requests.fetch_add(1);
    }
    Status st = IdentityHandler(worker, rebind, in, out, info);
    info->model_version = version.fetch_add(1) + 1;
    return st;
  });
  batcher.Start();
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int id = c; id < kRequests; id += 4) {
        std::vector<float> values;
        for (int r = 0; r < rows_of(id); ++r) {
          values.push_back(static_cast<float>(id * 100 + r));
        }
        Batcher::Reply reply;
        if (!batcher.Predict(Rows(values), &reply).ok() ||
            reply.output.size() != rows_of(id) || reply.model_version < 1) {
          wrong.fetch_add(1);
          continue;
        }
        for (int r = 0; r < rows_of(id); ++r) {
          if (reply.output[r] != values[static_cast<std::size_t>(r)]) {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  batcher.Shutdown();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(split_requests.load(), 0);
  EXPECT_EQ(oversized_calls.load(), 0);
}

TEST(BatcherTest, OversizedRequestRunsInSlicesUnderOneSnapshot) {
  // The handler mimics an InferenceSession under a hot swap: the published
  // version moves on every call, and the handler picks it up only when
  // told to rebind. It scales rows by the version it is bound to.
  BatcherOptions options;
  options.max_batch_size = 4;
  options.max_delay_ms = 1;
  std::mutex mu;
  std::vector<std::int64_t> call_rows;
  std::vector<bool> call_rebinds;
  std::int64_t published = 1;
  std::int64_t bound = 0;
  Batcher batcher(options, [&](int, bool rebind, const Tensor& in,
                               Tensor* out, BatchInfo* info) {
    std::lock_guard<std::mutex> lock(mu);
    call_rows.push_back(in.dim(0));
    call_rebinds.push_back(rebind);
    if (rebind) bound = published;
    ++published;  // a swap lands after every call
    *out = in;
    for (std::int64_t i = 0; i < out->size(); ++i) {
      (*out)[i] *= static_cast<float>(bound);
    }
    info->model_version = bound;
    return Status::Ok();
  });
  batcher.Start();
  std::vector<float> values;
  for (int r = 0; r < 10; ++r) values.push_back(static_cast<float>(r + 1));
  std::int64_t batches_before = CounterValue("gm.serve.batches");
  Batcher::Reply reply;
  ASSERT_TRUE(batcher.Predict(Rows(values), &reply).ok());
  EXPECT_EQ(CounterValue("gm.serve.batches"), batches_before + 3);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(call_rows, (std::vector<std::int64_t>{4, 4, 2}));
    EXPECT_EQ(call_rebinds, (std::vector<bool>{true, false, false}));
  }
  EXPECT_EQ(reply.model_version, 1);
  ASSERT_EQ(reply.output.shape(), (std::vector<std::int64_t>{10, 1}));
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(reply.output[static_cast<std::int64_t>(i)], values[i])
        << "row " << i << " ran on another version";
  }
  // The next request rebinds to the newest version.
  ASSERT_TRUE(batcher.Predict(ScalarExample(1.0f), &reply).ok());
  EXPECT_EQ(reply.model_version, 4);
  batcher.Shutdown();
}

TEST(BatcherTest, AdmissionCountsRows) {
  BatcherOptions options;
  options.max_batch_size = 1;
  options.max_delay_ms = 0;
  options.max_queue_depth = 4;
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> in_handler{0};
  Batcher batcher(options, [&](int worker, bool rebind, const Tensor& in,
                               Tensor* out, BatchInfo* info) {
    in_handler.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return IdentityHandler(worker, rebind, in, out, info);
  });
  batcher.Start();
  std::vector<std::thread> blocked;
  std::atomic<int> ok_count{0};
  auto submit = [&](std::vector<float> values) {
    blocked.emplace_back([&, values] {
      Batcher::Reply reply;
      if (batcher.Predict(Rows(values), &reply).ok()) ok_count.fetch_add(1);
    });
  };
  auto wait_for_depth = [&](std::int64_t depth) {
    for (int spin = 0; spin < 500 && batcher.queue_depth() < depth; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return batcher.queue_depth();
  };
  // One request occupies the worker...
  submit({1});
  for (int spin = 0; spin < 500 && in_handler.load() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(in_handler.load(), 1);
  // ...then 3 queued rows are below the depth of 4, so a 2-row request is
  // still admitted, even though it takes the queue past the limit.
  submit({2, 3, 4});
  ASSERT_EQ(wait_for_depth(3), 3);
  submit({5, 6});
  ASSERT_EQ(wait_for_depth(5), 5);
  // Now 5 rows are queued: even one more row is refused, and the refusal
  // is counted in rows.
  std::int64_t rejected_before = CounterValue("gm.serve.rejected");
  Batcher::Reply reply;
  EXPECT_EQ(batcher.Predict(ScalarExample(9.0f), &reply).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(batcher.Predict(Rows({9, 9, 9}), &reply).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(CounterValue("gm.serve.rejected"), rejected_before + 4);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (std::thread& t : blocked) t.join();
  batcher.Shutdown();
  EXPECT_EQ(ok_count.load(), 3);
  EXPECT_EQ(batcher.queue_depth(), 0);
}

}  // namespace
}  // namespace gmreg
