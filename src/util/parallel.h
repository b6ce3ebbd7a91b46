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
  /// tasks writing disjoint outputs (see ParallelFor).
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
/// from the hardware; the shard count of each call is controlled
/// separately via GMREG_NUM_THREADS / num_threads arguments, so a small
/// pool can still execute a 4-way-sharded call.
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
/// (n, grain, num_threads).
int ComputeNumShards(std::int64_t n, std::int64_t grain, int num_threads);

/// The half-open range shard `s` of `num_shards` covers in [begin, end):
/// the first (end - begin) % num_shards shards get one extra item. This is
/// ParallelFor's split; dist and conv use it to cut a range into a fixed
/// number of slices.
inline std::pair<std::int64_t, std::int64_t> ShardRange(int s, int num_shards,
                                                        std::int64_t begin,
                                                        std::int64_t end) {
  std::int64_t n = end - begin;
  std::int64_t chunk = n / num_shards;
  std::int64_t rem = n % num_shards;
  std::int64_t b = begin + s * chunk + std::min<std::int64_t>(s, rem);
  return {b, b + chunk + (s < rem ? 1 : 0)};
}

/// Runs fn(b, e) on ComputeNumShards(end - begin, grain,
/// ResolveNumThreads(num_threads)) contiguous ShardRange shards of
/// [begin, end) and blocks until all are done. The shards follow the
/// budget, so fn must only touch state derived from [b, e) (disjoint
/// output slices) to stay deterministic; reductions use ParallelChunkedSum.
void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 FunctionRef<void(std::int64_t, std::int64_t)> fn,
                 int num_threads = 0);

/// Dynamic work queue: runs fn(item) for every item in [0, num_items), with
/// at most ResolveNumThreads(num_threads) executors claiming items off a
/// shared atomic ticket. Unlike ParallelFor the item -> thread assignment is
/// load-balancing (first free executor takes the next item), so fn must
/// write disjoint outputs whose *values* do not depend on which thread runs
/// them — that is what keeps the packed-GEMM 2D tile queue bitwise
/// deterministic (docs/KERNELS.md). Inside a nested parallel region (or at
/// budget 1) items run 0..n-1 in order on the calling thread.
void ParallelRunDynamic(std::int64_t num_items,
                        FunctionRef<void(std::int64_t)> fn,
                        int num_threads = 0);

/// Elements per chunk of every reduction over a weight vector (the GM
/// E-step and Penalty, the EP-GIG and dynprior updates), and the grain of
/// the elementwise passes beside them. At the measured ~30 M weights/s a
/// chunk is >= ~100 us of work, far above the pool's dispatch cost.
inline constexpr std::int64_t kChunkGrain = 4096;

/// Widest per-chunk vector ParallelChunkedSum folds: two sums per mixture
/// component at the E-step's K <= 64.
inline constexpr int kMaxChunkedSumWidth = 128;

/// The reduction contract (docs/PARALLELISM.md): [begin, end) is cut into
/// fixed kChunkGrain-sized chunks (the last one short), fn(b, e, partial)
/// adds chunk [b, e)'s `width` sums into `partial` (zeroed beforehand), and
/// sums[j] = 0 + partial_0[j] + partial_1[j] + ... in chunk order. The
/// chunks depend only on (begin, end) and only their assignment to threads
/// follows the budget, so `sums` is bitwise identical at EVERY budget: a
/// run resumed under a different GMREG_NUM_THREADS stays bit-exact. The
/// partials live in the calling thread's grow-only buffer, so the steady
/// state does not allocate. 1 <= width <= kMaxChunkedSumWidth.
void ParallelChunkedSum(
    std::int64_t begin, std::int64_t end, int width,
    FunctionRef<void(std::int64_t, std::int64_t, double*)> fn, double* sums,
    int num_threads = 0);

/// Width-1 form: fn(b, e) returns chunk [b, e)'s partial sum.
double ParallelChunkedSum(std::int64_t begin, std::int64_t end,
                          FunctionRef<double(std::int64_t, std::int64_t)> fn,
                          int num_threads = 0);

}  // namespace gmreg

#endif  // GMREG_UTIL_PARALLEL_H_
