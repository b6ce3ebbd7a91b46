#ifndef GMREG_SERVE_BATCHER_H_
#define GMREG_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "tensor/tensor.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/status.h"

namespace gmreg {

/// Tuning knobs of the micro-batching engine.
struct BatcherOptions {
  /// Most rows in one model call. Whole requests are packed into a batch
  /// up to this many rows; once that many rows are queued the batch
  /// flushes immediately, otherwise it waits for the oldest request's
  /// deadline. A request with more rows is a batch of its own, run in
  /// slices of this many rows.
  int max_batch_size = 8;
  /// How long a lone request may wait for company before its batch is
  /// flushed anyway — the latency the batcher is allowed to add.
  int max_delay_ms = 2;
  /// Worker threads executing batches (each needs its own handler state,
  /// e.g. one InferenceSession per worker index).
  int num_workers = 1;
  /// Backpressure: Predict() fails fast with OutOfRange once this many
  /// rows are queued, instead of growing the queue unboundedly.
  std::int64_t max_queue_depth = 1024;
};

/// Model-version stamp a handler attaches to the batch it answered, so
/// per-request replies can report which snapshot served them.
struct BatchInfo {
  std::int64_t model_version = 0;
  int model_epoch = -1;
};

/// Runs one model call: `in` is the stacked input [rows, ...] with rows <=
/// BatcherOptions::max_batch_size, `out` must receive the scores
/// [rows, C]. `worker` is the index of the worker thread making the call
/// (in [0, BatcherOptions::num_workers)) — calls are concurrent across
/// distinct worker indices but serialized within one, so per-worker
/// handler state needs no locking.
///
/// `rebind` is true on the first call of a batch: the handler may move to
/// the newest model then. It is false on the later slices of a request
/// larger than max_batch_size, which must run on the model the first slice
/// used, so every request is answered by one model version. The handler
/// reports that version in `info`. An error status fails every request in
/// the batch.
using BatchHandler =
    std::function<Status(int worker, bool rebind, const Tensor& in,
                         Tensor* out, BatchInfo* info)>;

/// Micro-batching request queue: Predict() calls from many client threads,
/// each carrying one request's rows, are coalesced into model calls of up
/// to `max_batch_size` rows (dynamic batching, the standard serving
/// throughput lever). A request is the unit: its rows are never split
/// across batches, so one model version answers all of them. A batch is
/// flushed when `max_batch_size` rows are queued, when the oldest request
/// has waited `max_delay_ms`, or when the batcher is draining for
/// shutdown.
///
/// Worker threads run on a dedicated util/parallel ThreadPool owned by the
/// batcher (the global pool keeps its fork-join role for the model's
/// internal GEMM parallelism).
///
/// Telemetry: gm.serve.requests / gm.serve.rejected count rows,
/// gm.serve.batches counts model calls, gm.serve.queue_depth gauges queued
/// rows, and the histograms gm.serve.batch_size (rows per model call),
/// gm.serve.batch_predict_seconds (per model call) and
/// gm.serve.request_latency_seconds (per Predict call, i.e. per request)
/// carry p50/p95/p99 in every metrics snapshot.
class Batcher {
 public:
  Batcher(const BatcherOptions& options, BatchHandler handler);
  ~Batcher();  ///< implies Shutdown()

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Spawns the worker threads. Predict() before Start() queues but does
  /// not complete.
  void Start();

  /// Graceful drain: stops accepting new requests, answers everything
  /// already queued, then stops the workers. Idempotent.
  void Shutdown();

  /// One completed request.
  struct Reply {
    Tensor output;  ///< the request's scores, one row per input row [n, C]
    std::int64_t model_version = 0;  ///< the one version that answered
    int model_epoch = -1;
  };

  /// Blocking inference of one request: enqueues `rows` ([n, ...]; the
  /// row shape must match every request it is batched with) as one unit
  /// and waits for its batch. Thread-safe; this is the server's
  /// per-request entry point. Fails with InvalidArgument on an empty
  /// tensor, OutOfRange when max_queue_depth rows are already queued
  /// (backpressure; a request is never refused for its own size) and
  /// FailedPrecondition after Shutdown().
  Status Predict(const Tensor& rows, Reply* reply);

  /// Rows currently queued (also exported as the gm.serve.queue_depth
  /// gauge).
  std::int64_t queue_depth() const;

  /// Advice for a 429 Retry-After header: how many seconds until the
  /// current queue should have drained, estimated from the observed mean
  /// batch predict time (gm.serve.batch_predict_seconds), the queue depth,
  /// and the worker count. Clamped to [1, 30]; 1 when nothing has been
  /// measured yet.
  int RetryAfterSeconds() const;

  const BatcherOptions& options() const { return options_; }

 private:
  struct Request {
    const Tensor* input = nullptr;  ///< [rows, ...], owned by the caller
    std::int64_t rows = 0;
    Reply* reply = nullptr;
    Status status;
    bool done = false;
    std::chrono::steady_clock::time_point deadline;
  };

  void WorkerLoop(int worker);

  /// Pops the next batch of whole requests; called with mu_ held.
  std::vector<Request*> TakeBatchLocked();

  /// Runs `batch` and fills each request's reply; called without mu_.
  Status RunBatch(int worker, const std::vector<Request*>& batch);

  /// Runs `in` in model calls of at most max_batch_size rows, every slice
  /// on the model the first one bound.
  Status RunSlices(int worker, const Tensor& in, Tensor* out,
                   BatchInfo* info);

  /// One handler call, timed and counted.
  Status CallHandler(int worker, bool rebind, const Tensor& in, Tensor* out,
                     BatchInfo* info);

  const BatcherOptions options_;
  const BatchHandler handler_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for requests/shutdown
  std::condition_variable done_cv_;  ///< Predict callers wait for completion
  std::deque<Request*> queue_;
  std::int64_t queued_rows_ = 0;  ///< rows of the requests in queue_
  bool accepting_ = false;
  bool draining_ = false;

  std::unique_ptr<ThreadPool> pool_;  ///< num_workers - 1 pool threads
  std::thread dispatcher_;  ///< drives pool_->Run with the worker loops

  Counter* requests_;        ///< gm.serve.requests (rows)
  Counter* batches_;         ///< gm.serve.batches (model calls)
  Counter* rejected_;        ///< gm.serve.rejected (rows)
  Gauge* queue_depth_;       ///< gm.serve.queue_depth (rows)
  Histogram* batch_size_;    ///< gm.serve.batch_size (rows per model call)
  Histogram* latency_;       ///< gm.serve.request_latency_seconds
  Histogram* predict_time_;  ///< gm.serve.batch_predict_seconds
};

}  // namespace gmreg

#endif  // GMREG_SERVE_BATCHER_H_
