#ifndef GMREG_UTIL_PARALLEL_H_
#define GMREG_UTIL_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/function_ref.h"

namespace gmreg {

class Arena;

/// Fixed-size pool of persistent worker threads. The calling thread always
/// participates in a Run, so a pool with W workers executes up to W+1 tasks
/// concurrently. Tasks must not throw (fatal errors abort via GMREG_CHECK).
///
/// Reentrancy: a task that itself calls Run (nested parallelism, e.g. a
/// parallel GEMM inside a serving worker's model call) executes the inner
/// call serially on the current thread — the pool never deadlocks on
/// itself.
class ThreadPool {
 public:
  /// Spawns `num_workers` background threads (>= 0; 0 = everything runs on
  /// the calling thread).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(t) for every t in [0, num_tasks) across the workers and the
  /// calling thread; returns once all tasks have finished. Which thread
  /// executes which task is unspecified — determinism must come from the
  /// tasks writing disjoint outputs (see ParallelForShards).
  ///
  /// Takes a FunctionRef (not std::function) so dispatching a parallel job
  /// never allocates; the caller's Arena planning scope, if any, is
  /// propagated to the workers for the duration of the job, so buffers a
  /// worker sizes during a planning pass land in the arena too.
  void Run(int num_tasks, FunctionRef<void(int)> fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_cv_;  ///< workers wait here for a new job
  std::condition_variable done_cv_;  ///< Run waits here for completion
  // Current job; guarded by mu_ except the atomic ticket counter.
  std::uint64_t generation_ = 0;
  FunctionRef<void(int)> fn_;
  Arena* job_arena_ = nullptr;  ///< caller's planning scope, if any
  int total_tasks_ = 0;
  std::atomic<int> next_task_{0};
  int remaining_tasks_ = 0;  ///< tasks not yet finished
  int active_workers_ = 0;   ///< workers still inside the current job
  bool stop_ = false;
};

/// The process-wide pool, created lazily on the first parallel call and
/// intentionally leaked (workers must survive static destruction). Sized
/// from the hardware; the *shard* count of each call — what determines
/// results — is controlled separately via GMREG_NUM_THREADS / num_threads
/// arguments, so a small pool can still execute a 4-way-sharded call.
ThreadPool* GlobalThreadPool();

/// True while the current thread is executing a pool task (or a serialized
/// parallel region); nested parallel calls fall back to serial execution.
bool InParallelRegion();

/// The thread budget used when a call site passes num_threads <= 0:
///  1. SetDefaultNumThreads override, if set;
///  2. GMREG_NUM_THREADS (0 and 1 both mean serial — the pre-parallel
///     behaviour is always recoverable);
///  3. std::thread::hardware_concurrency().
/// Always in [1, 64].
int DefaultNumThreads();

/// Process-wide override of DefaultNumThreads (e.g. TrainOptions);
/// n <= 0 clears the override.
void SetDefaultNumThreads(int n);

/// Resolves a call-site request: requested > 0 is honored (clamped to 64),
/// otherwise DefaultNumThreads().
int ResolveNumThreads(int requested);

/// Number of shards a range of `n` items splits into: at most `num_threads`
/// and at most ceil(n / grain), so tiny ranges stay serial. Deterministic in
/// (n, grain, num_threads) — the foundation of the determinism guarantee
/// (docs/PARALLELISM.md).
int ComputeNumShards(std::int64_t n, std::int64_t grain, int num_threads);

/// The half-open range shard `s` of `num_shards` covers in [begin, end):
/// the first (end - begin) % num_shards shards get one extra item. This is
/// the boundary formula RunShards uses — call sites that execute shards
/// serially (e.g. a nested region fallback) use it to reproduce the exact
/// same split, keeping results bitwise-identical to the parallel path.
inline std::pair<std::int64_t, std::int64_t> ShardRange(int s, int num_shards,
                                                        std::int64_t begin,
                                                        std::int64_t end) {
  std::int64_t n = end - begin;
  std::int64_t chunk = n / num_shards;
  std::int64_t rem = n % num_shards;
  std::int64_t b = begin + s * chunk + std::min<std::int64_t>(s, rem);
  return {b, b + chunk + (s < rem ? 1 : 0)};
}

/// Runs fn(shard, shard_begin, shard_end) for `num_shards` contiguous,
/// near-equal shards of [begin, end). Shard boundaries are ShardRange —
/// they depend only on (begin, end, num_shards). Blocks until all shards
/// are done.
void RunShards(int num_shards, std::int64_t begin, std::int64_t end,
               FunctionRef<void(int, std::int64_t, std::int64_t)> fn);

/// Shards [begin, end) by ComputeNumShards(end - begin, grain,
/// ResolveNumThreads(num_threads)) and runs fn(shard, b, e) on each.
void ParallelForShards(std::int64_t begin, std::int64_t end,
                       std::int64_t grain,
                       FunctionRef<void(int, std::int64_t, std::int64_t)> fn,
                       int num_threads = 0);

/// Like ParallelForShards without the shard index: fn(b, e) must only touch
/// state derived from [b, e) (disjoint output slices) to stay deterministic.
void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 FunctionRef<void(std::int64_t, std::int64_t)> fn,
                 int num_threads = 0);

/// Dynamic work queue: runs fn(item) for every item in [0, num_items), with
/// at most ResolveNumThreads(num_threads) executors claiming items off a
/// shared atomic ticket. Unlike RunShards the item -> thread assignment is
/// load-balancing (first free executor takes the next item), so fn must
/// write disjoint outputs whose *values* do not depend on which thread runs
/// them — that is what keeps the packed-GEMM 2D tile queue bitwise
/// deterministic (docs/KERNELS.md). Inside a nested parallel region (or at
/// budget 1) items run 0..n-1 in order on the calling thread.
void ParallelRunDynamic(std::int64_t num_items,
                        FunctionRef<void(std::int64_t)> fn,
                        int num_threads = 0);

/// Deterministic chunked sum: [begin, end) is cut into fixed `grain`-sized
/// chunks (the last one short), `fn(b, e)` produces each chunk's partial sum
/// in parallel, and the partials are folded serially in chunk order. Because
/// the chunk boundaries depend only on (begin, end, grain) — never on the
/// thread budget — the result is bitwise identical at EVERY budget, a
/// stronger contract than ParallelReduce (whose shard count follows the
/// budget). The adaptive priors in src/reg/ build their hyper-parameter
/// updates on this so a checkpoint resumed under a different
/// GMREG_NUM_THREADS stays bit-exact (docs/REGULARIZERS.md).
double ParallelChunkedSum(std::int64_t begin, std::int64_t end,
                          std::int64_t grain,
                          FunctionRef<double(std::int64_t, std::int64_t)> fn,
                          int num_threads = 0);

/// Parallel map-reduce: partial = map(b, e) per shard, then the partials are
/// folded left-to-right in shard order — acc = reduce(acc, partial) — so the
/// result is bitwise-reproducible for a given thread budget.
template <typename T, typename MapFn, typename ReduceFn>
T ParallelReduce(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 T identity, const MapFn& map, const ReduceFn& reduce,
                 int num_threads = 0) {
  std::int64_t n = end - begin;
  if (n <= 0) return identity;
  int shards = ComputeNumShards(n, grain, ResolveNumThreads(num_threads));
  if (shards <= 1) return reduce(std::move(identity), map(begin, end));
  std::vector<T> partial(static_cast<std::size_t>(shards), identity);
  RunShards(shards, begin, end,
            [&](int s, std::int64_t b, std::int64_t e) {
              partial[static_cast<std::size_t>(s)] = map(b, e);
            });
  T acc = std::move(identity);
  for (T& p : partial) acc = reduce(std::move(acc), std::move(p));
  return acc;
}

}  // namespace gmreg

#endif  // GMREG_UTIL_PARALLEL_H_
