#include "serve/batcher.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace gmreg {

Batcher::Batcher(const BatcherOptions& options, BatchHandler handler)
    : options_(options), handler_(std::move(handler)) {
  GMREG_CHECK_GE(options_.max_batch_size, 1);
  GMREG_CHECK_GE(options_.max_delay_ms, 0);
  GMREG_CHECK_GE(options_.num_workers, 1);
  GMREG_CHECK_GE(options_.max_queue_depth, 1);
  GMREG_CHECK(handler_ != nullptr);
  accepting_ = true;
  MetricsRegistry& registry = MetricsRegistry::Global();
  requests_ = registry.counter("gm.serve.requests");
  batches_ = registry.counter("gm.serve.batches");
  rejected_ = registry.counter("gm.serve.rejected");
  queue_depth_ = registry.gauge("gm.serve.queue_depth");
  batch_size_ = registry.histogram("gm.serve.batch_size");
  latency_ = registry.histogram("gm.serve.request_latency_seconds");
  predict_time_ = registry.histogram("gm.serve.batch_predict_seconds");
}

Batcher::~Batcher() { Shutdown(); }

void Batcher::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool_ != nullptr || draining_) return;
  // The dispatcher thread plus (num_workers - 1) pool threads together run
  // exactly num_workers WorkerLoop instances (ThreadPool::Run has the
  // calling thread claim tasks alongside the workers). Worker loops count
  // as a parallel region, so the model's own ParallelFor calls fall back to
  // serial — one batch saturates one core instead of oversubscribing.
  pool_ = std::make_unique<ThreadPool>(options_.num_workers - 1);
  dispatcher_ = std::thread([this] {
    pool_->Run(options_.num_workers, [this](int w) { WorkerLoop(w); });
  });
}

void Batcher::Shutdown() {
  std::thread dispatcher;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return;
    accepting_ = false;
    draining_ = true;
    dispatcher = std::move(dispatcher_);
  }
  work_cv_.notify_all();
  if (dispatcher.joinable()) dispatcher.join();
  // Workers have drained everything they could. Anything still queued means
  // Start() was never called — fail those requests instead of leaving their
  // callers blocked forever.
  std::lock_guard<std::mutex> lock(mu_);
  while (!queue_.empty()) {
    Request* req = queue_.front();
    queue_.pop_front();
    req->status = Status::FailedPrecondition("batcher shut down unstarted");
    req->done = true;
  }
  queued_rows_ = 0;
  queue_depth_->Set(0.0);
  done_cv_.notify_all();
}

Status Batcher::Predict(const Tensor& rows, Reply* reply) {
  GMREG_CHECK(reply != nullptr);
  if (rows.empty()) {
    return Status::InvalidArgument("empty request tensor");
  }
  Stopwatch watch;
  Request req;
  req.input = &rows;
  req.rows = rows.dim(0);
  req.reply = reply;
  req.deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(options_.max_delay_ms);
  std::unique_lock<std::mutex> lock(mu_);
  if (!accepting_) {
    rejected_->Add(req.rows);
    return Status::FailedPrecondition("batcher is shut down");
  }
  // Admission counts rows, but a request is never refused for its own
  // size: it is admitted whenever the queue holds fewer than
  // max_queue_depth rows.
  if (queued_rows_ >= options_.max_queue_depth) {
    rejected_->Add(req.rows);
    return Status::OutOfRange("serving queue is full (backpressure)");
  }
  queue_.push_back(&req);
  queued_rows_ += req.rows;
  queue_depth_->Set(static_cast<double>(queued_rows_));
  requests_->Add(req.rows);
  work_cv_.notify_one();
  done_cv_.wait(lock, [&req] { return req.done; });
  latency_->Observe(watch.ElapsedSeconds());
  return req.status;
}

std::int64_t Batcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_rows_;
}

int Batcher::RetryAfterSeconds() const {
  std::int64_t depth = queue_depth();
  Histogram::Snapshot predict = predict_time_->snapshot();
  double per_batch =
      predict.count > 0 ? predict.sum / static_cast<double>(predict.count)
                        : 0.02;  // nothing measured yet: assume 20ms
  // Batches left in the queue, plus one likely in flight per worker.
  double batches =
      std::ceil(static_cast<double>(depth) /
                static_cast<double>(options_.max_batch_size)) +
      static_cast<double>(options_.num_workers);
  double seconds =
      batches * per_batch / static_cast<double>(options_.num_workers);
  return static_cast<int>(
      std::clamp(std::ceil(seconds), 1.0, 30.0));
}

namespace {

// Requests batch together when their rows have one shape.
bool SameRowShape(const Tensor& a, const Tensor& b) {
  return std::equal(a.shape().begin() + 1, a.shape().end(),
                    b.shape().begin() + 1, b.shape().end());
}

}  // namespace

std::vector<Batcher::Request*> Batcher::TakeBatchLocked() {
  // A batch is a prefix of whole requests with one row shape and at most
  // max_batch_size rows. The first request always goes in, so one larger
  // than max_batch_size is a batch of its own; a request that does not
  // fit heads the next batch. Mixed-shape traffic therefore degrades
  // throughput, never correctness.
  std::vector<Request*> batch;
  std::int64_t rows = 0;
  const Tensor& first = *queue_.front()->input;
  while (!queue_.empty()) {
    Request* req = queue_.front();
    if (!batch.empty() &&
        (rows + req->rows > options_.max_batch_size ||
         !SameRowShape(*req->input, first))) {
      break;
    }
    batch.push_back(req);
    rows += req->rows;
    queue_.pop_front();
  }
  queued_rows_ -= rows;
  return batch;
}

void Batcher::WorkerLoop(int worker) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (draining_) return;
      continue;
    }
    // Micro-batching wait: give the batch a chance to fill, but never past
    // the oldest request's deadline — and drain immediately on shutdown.
    while (!draining_ && queued_rows_ < options_.max_batch_size) {
      auto deadline = queue_.front()->deadline;
      if (std::chrono::steady_clock::now() >= deadline) break;
      work_cv_.wait_until(lock, deadline);
      if (queue_.empty()) break;  // another worker took the whole queue
    }
    if (queue_.empty()) continue;
    std::vector<Request*> batch = TakeBatchLocked();
    queue_depth_->Set(static_cast<double>(queued_rows_));
    lock.unlock();
    Status st = RunBatch(worker, batch);
    lock.lock();
    for (Request* req : batch) {
      req->status = st;
      req->done = true;
    }
    done_cv_.notify_all();
  }
}

Status Batcher::RunBatch(int worker, const std::vector<Request*>& batch) {
  // A lone request is its own input; several are stacked into one
  // [rows, ...] tensor.
  const Tensor* in = batch[0]->input;
  Tensor stacked;
  if (batch.size() > 1) {
    std::vector<std::int64_t> shape = in->shape();
    shape[0] = 0;
    for (const Request* req : batch) shape[0] += req->rows;
    stacked = Tensor(shape);
    float* dst = stacked.data();
    for (const Request* req : batch) {
      dst = std::copy(req->input->data(),
                      req->input->data() + req->input->size(), dst);
    }
    in = &stacked;
  }
  Tensor out;
  BatchInfo info;
  GMREG_RETURN_IF_ERROR(RunSlices(worker, *in, &out, &info));

  // Each request gets its own rows of the scores and the one version that
  // computed all of them. Replies are written before `done` is set under
  // mu_, which publishes them to the waiting callers.
  std::int64_t out_row = out.size() / out.dim(0);
  std::int64_t offset = 0;
  for (Request* req : batch) {
    Reply* reply = req->reply;
    if (batch.size() == 1) {
      reply->output = std::move(out);
    } else {
      std::vector<std::int64_t> shape = out.shape();
      shape[0] = req->rows;
      reply->output = Tensor(shape);
      std::copy(out.data() + offset * out_row,
                out.data() + (offset + req->rows) * out_row,
                reply->output.data());
    }
    offset += req->rows;
    reply->model_version = info.model_version;
    reply->model_epoch = info.model_epoch;
  }
  return Status::Ok();
}

Status Batcher::RunSlices(int worker, const Tensor& in, Tensor* out,
                          BatchInfo* info) {
  const std::int64_t rows = in.dim(0);
  const std::int64_t max_rows = options_.max_batch_size;
  if (rows <= max_rows) {
    return CallHandler(worker, /*rebind=*/true, in, out, info);
  }
  // One request larger than max_batch_size: no model call (and no
  // arena-planned buffer) grows past max_batch_size rows.
  const std::int64_t in_row = in.size() / rows;
  std::vector<std::int64_t> shape = in.shape();
  Tensor slice, slice_out;
  for (std::int64_t begin = 0; begin < rows; begin += max_rows) {
    std::int64_t n = std::min(max_rows, rows - begin);
    shape[0] = n;
    slice.Resize(shape);
    std::copy(in.data() + begin * in_row, in.data() + (begin + n) * in_row,
              slice.data());
    GMREG_RETURN_IF_ERROR(
        CallHandler(worker, /*rebind=*/begin == 0, slice, &slice_out, info));
    std::int64_t out_row = slice_out.size() / n;
    if (begin == 0) {
      std::vector<std::int64_t> out_shape = slice_out.shape();
      out_shape[0] = rows;
      out->Resize(out_shape);
    } else if (out_row != out->size() / rows) {
      return Status::Internal("batch handler returned " +
                              slice_out.ShapeString() +
                              " for a slice of a " + out->ShapeString() +
                              " output");
    }
    std::copy(slice_out.data(), slice_out.data() + slice_out.size(),
              out->data() + begin * out_row);
  }
  return Status::Ok();
}

Status Batcher::CallHandler(int worker, bool rebind, const Tensor& in,
                            Tensor* out, BatchInfo* info) {
  const std::int64_t rows = in.dim(0);
  Status st;
  {
    Stopwatch predict_watch;
    st = handler_(worker, rebind, in, out, info);
    predict_time_->Observe(predict_watch.ElapsedSeconds());
  }
  batches_->Add(1);
  batch_size_->Observe(static_cast<double>(rows));
  if (st.ok() && (out->rank() < 1 || out->dim(0) != rows)) {
    st = Status::Internal("batch handler returned output shape " +
                          out->ShapeString() + " for a batch of " +
                          std::to_string(rows));
  }
  return st;
}

}  // namespace gmreg
