#include "util/parallel.h"

#include <algorithm>
#include <vector>

#include "util/arena.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace gmreg {
namespace {

// Hard cap on any thread budget: beyond this the shard bookkeeping itself
// would start to show up in the profile.
constexpr int kMaxThreads = 64;

// The global pool is sized for correctness testing as well as throughput: a
// floor of 8 lets explicitly-requested multi-way shards (determinism and
// TSan tests use 4) run genuinely concurrently even on small machines.
int PoolWorkerCount() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(std::max(hw, 8), 1, kMaxThreads) - 1;
}

std::atomic<int> g_default_threads_override{0};

thread_local bool tls_in_parallel_region = false;

// Pool utilization accounting, surfaced through MetricsRegistry snapshots
// (docs/OBSERVABILITY.md). caller_tasks vs worker_tasks is the work-sharing
// split of the ticket counter: tasks the submitting thread claimed itself
// vs tasks the pool workers stole off it.
struct PoolCounters {
  Counter* runs;          ///< parallel jobs dispatched to the pool
  Counter* serial_runs;   ///< jobs taken by the serial fallback
  Counter* tasks;         ///< total tasks across both paths
  Counter* caller_tasks;  ///< tasks executed by the submitting thread
  Counter* worker_tasks;  ///< tasks executed by pool workers
};

PoolCounters& GlobalPoolCounters() {
  static PoolCounters counters = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    return PoolCounters{registry.counter("parallel.runs"),
                        registry.counter("parallel.serial_runs"),
                        registry.counter("parallel.tasks"),
                        registry.counter("parallel.caller_tasks"),
                        registry.counter("parallel.worker_tasks")};
  }();
  return counters;
}

}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  GMREG_CHECK_GE(num_workers, 0);
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Run(int num_tasks, FunctionRef<void(int)> fn) {
  if (num_tasks <= 0) return;
  PoolCounters& counters = GlobalPoolCounters();
  if (workers_.empty() || tls_in_parallel_region || num_tasks == 1) {
    // Serial fallback; still mark the region so task code behaves the same
    // as under a worker (no nested pools).
    bool saved = tls_in_parallel_region;
    tls_in_parallel_region = true;
    for (int t = 0; t < num_tasks; ++t) fn(t);
    tls_in_parallel_region = saved;
    counters.serial_runs->Add(1);
    counters.tasks->Add(num_tasks);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = fn;
    job_arena_ = Arena::Current();
    total_tasks_ = num_tasks;
    next_task_.store(0, std::memory_order_relaxed);
    remaining_tasks_ = num_tasks;
    ++generation_;
  }
  wake_cv_.notify_all();
  // The caller claims tasks alongside the workers.
  tls_in_parallel_region = true;
  int caller_tasks = 0;
  int t;
  while ((t = next_task_.fetch_add(1, std::memory_order_relaxed)) <
         num_tasks) {
    fn(t);
    ++caller_tasks;
    std::lock_guard<std::mutex> lock(mu_);
    --remaining_tasks_;
  }
  tls_in_parallel_region = false;
  counters.runs->Add(1);
  counters.tasks->Add(num_tasks);
  counters.caller_tasks->Add(caller_tasks);
  counters.worker_tasks->Add(num_tasks - caller_tasks);
  // Wait until every task has run AND every worker has left the claim loop;
  // the latter makes it safe for the next Run to reset the ticket counter.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock,
                [this] { return remaining_tasks_ == 0 && active_workers_ == 0; });
  fn_ = FunctionRef<void(int)>();
  job_arena_ = nullptr;
}

void ThreadPool::WorkerLoop() {
  tls_in_parallel_region = true;  // pool workers never nest parallelism
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
    if (stop_) return;
    seen_generation = generation_;
    // Woken after the job finished and Run() cleared it: joining now would
    // call the null function on the next job's reset tickets.
    if (!fn_) continue;
    FunctionRef<void(int)> fn = fn_;
    Arena* job_arena = job_arena_;
    int total = total_tasks_;
    ++active_workers_;
    lock.unlock();
    {
      // Inherit the submitting thread's planning scope (if any) so buffers
      // this worker sizes during a planning pass land in the arena.
      ArenaScope scope(job_arena);
      int t;
      while ((t = next_task_.fetch_add(1, std::memory_order_relaxed)) <
             total) {
        fn(t);
        std::lock_guard<std::mutex> task_lock(mu_);
        --remaining_tasks_;
      }
    }
    lock.lock();
    --active_workers_;
    if (remaining_tasks_ == 0 && active_workers_ == 0) done_cv_.notify_all();
  }
}

ThreadPool* GlobalThreadPool() {
  // Leaked on purpose: worker threads must outlive static destruction.
  static ThreadPool* pool = new ThreadPool(PoolWorkerCount());
  return pool;
}

bool InParallelRegion() { return tls_in_parallel_region; }

int DefaultNumThreads() {
  int override_threads = g_default_threads_override.load(std::memory_order_relaxed);
  if (override_threads > 0) return std::min(override_threads, kMaxThreads);
  int env = GetNumThreadsEnv();
  if (env == 0) return 1;  // 0 and 1 both mean "serial"
  if (env > 0) return std::min(env, kMaxThreads);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, kMaxThreads);
}

void SetDefaultNumThreads(int n) {
  g_default_threads_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

int ResolveNumThreads(int requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
  return DefaultNumThreads();
}

int ComputeNumShards(std::int64_t n, std::int64_t grain, int num_threads) {
  if (n <= 0) return 0;
  grain = std::max<std::int64_t>(grain, 1);
  std::int64_t by_grain = (n + grain - 1) / grain;
  std::int64_t threads = std::max(num_threads, 1);
  return static_cast<int>(std::min(by_grain, threads));
}

void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 FunctionRef<void(std::int64_t, std::int64_t)> fn,
                 int num_threads) {
  int shards =
      ComputeNumShards(end - begin, grain, ResolveNumThreads(num_threads));
  if (shards <= 0) return;
  if (shards == 1) {
    fn(begin, end);
    return;
  }
  GlobalThreadPool()->Run(shards, [&](int s) {
    auto [b, e] = ShardRange(s, shards, begin, end);
    fn(b, e);
  });
}

void ParallelRunDynamic(std::int64_t num_items,
                        FunctionRef<void(std::int64_t)> fn, int num_threads) {
  if (num_items <= 0) return;
  std::int64_t budget = ResolveNumThreads(num_threads);
  int executors = static_cast<int>(std::min<std::int64_t>(budget, num_items));
  // The budget bounds concurrency, not work: `executors` pool tasks drain a
  // shared ticket, so all items complete whatever the pool size. At budget 1
  // (or nested inside another region) ThreadPool::Run serializes and the
  // single executor claims items 0..n-1 in order.
  std::atomic<std::int64_t> next{0};
  GlobalThreadPool()->Run(executors, [&](int /*executor*/) {
    std::int64_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < num_items) {
      fn(i);
    }
  });
}

void ParallelChunkedSum(
    std::int64_t begin, std::int64_t end, int width,
    FunctionRef<void(std::int64_t, std::int64_t, double*)> fn, double* sums,
    int num_threads) {
  GMREG_CHECK(width >= 1 && width <= kMaxChunkedSumWidth) << width;
  std::fill(sums, sums + width, 0.0);
  std::int64_t n = end - begin;
  if (n <= 0) return;
  std::int64_t chunks = (n + kChunkGrain - 1) / kChunkGrain;
  auto chunk_partial = [&](std::int64_t c, double* partial) {
    std::fill(partial, partial + width, 0.0);
    std::int64_t b = begin + c * kChunkGrain;
    fn(b, std::min(b + kChunkGrain, end), partial);
  };
  auto fold = [&](const double* partial) {
    for (int j = 0; j < width; ++j) sums[j] += partial[j];
  };
  int budget = ResolveNumThreads(num_threads);
  if (chunks == 1 || budget == 1 || InParallelRegion()) {
    // Serial: each partial is folded as soon as it is made — the same
    // additions in the same order as the fan-out below.
    double partial[kMaxChunkedSumWidth] = {};
    for (std::int64_t c = 0; c < chunks; ++c) {
      chunk_partial(c, partial);
      fold(partial);
    }
    return;
  }
  // Fan-out: one slot per chunk in the calling thread's grow-only buffer.
  // The workers write through the hoisted pointer (a thread_local named in
  // the task would resolve to each worker's own buffer). Code running
  // inside the tasks is in a parallel region and takes the serial path
  // above, so the buffer is never re-entered while its slots are live.
  thread_local std::vector<double> tls_partials;
  auto need = static_cast<std::size_t>(chunks * width);
  if (tls_partials.size() < need) tls_partials.resize(need);
  double* partials = tls_partials.data();
  ParallelFor(
      0, chunks, /*grain=*/1,
      [&](std::int64_t cb, std::int64_t ce) {
        for (std::int64_t c = cb; c < ce; ++c) {
          chunk_partial(c, partials + c * width);
        }
      },
      budget);
  for (std::int64_t c = 0; c < chunks; ++c) fold(partials + c * width);
}

double ParallelChunkedSum(std::int64_t begin, std::int64_t end,
                          FunctionRef<double(std::int64_t, std::int64_t)> fn,
                          int num_threads) {
  double sum = 0.0;
  ParallelChunkedSum(
      begin, end, /*width=*/1,
      [&fn](std::int64_t b, std::int64_t e, double* partial) {
        *partial = fn(b, e);
      },
      &sum, num_threads);
  return sum;
}

}  // namespace gmreg
