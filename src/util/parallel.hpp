// Shared fork-join thread pool and parallel_for.
//
// The planner pipeline fans out over backends, the torus search
// speculatively explores several tori, and region shards color in
// parallel — all through this one pool, so the process never
// oversubscribes the machine no matter how the layers nest.
//
// Design rules that keep users deterministic:
//  * the pool only provides *parallelism*, never *ordering*: every
//    consumer must combine worker results in a thread-independent order
//    (index order, CAS-min on indices, sorted merges);
//  * nested parallel regions degrade to serial inline execution, so a
//    parallel backend invoked from the parallel planner fan-out is safe;
//  * `set_parallel_threads(1)` (or LATTICESCHED_THREADS=1) turns every
//    parallel region into plain serial code — the determinism tests
//    compare that mode byte-for-byte against multi-threaded runs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace latticesched {

/// Worker count used by the global pool: set_parallel_threads() override,
/// else LATTICESCHED_THREADS, else std::thread::hardware_concurrency().
/// Always at least 1 (1 means fully serial).
std::size_t parallel_threads();

/// Overrides the worker count; 0 restores the environment default.
/// Existing pool threads are reconfigured lazily on the next region.
void set_parallel_threads(std::size_t n);

/// True while the calling thread is inside a parallel region (used to
/// serialize nested regions).
bool in_parallel_region();

class ThreadPool {
 public:
  /// Pool with `workers` helper threads; the caller of run() always
  /// participates, so total parallelism is workers + 1.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Runs body(rank) on min(parallelism, workers()+1) threads, rank 0 on
  /// the calling thread.  Blocks until every rank returns; rethrows the
  /// first exception any rank threw.  Nested calls run body(0) inline;
  /// concurrent calls from distinct application threads serialize on an
  /// internal region lock (the pool is shared, not partitioned).
  void run(std::size_t parallelism,
           const std::function<void(std::size_t)>& body);

  /// Process-wide pool, sized by parallel_threads() - 1 helpers; resized
  /// lazily when set_parallel_threads changes the target.
  static ThreadPool& global();

 private:
  void worker_loop(std::size_t rank);

  std::mutex region_mu_;  // serializes whole regions across caller threads
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t engaged_ = 0;  // helper ranks participating this generation
  std::size_t active_ = 0;   // helpers still running this generation
  std::vector<std::exception_ptr> errors_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

namespace detail {
/// Pool-dispatch slow path of parallel_for; only reached when the range
/// is big enough and the pool is genuinely parallel.
void parallel_for_dispatch(std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t)>& fn,
                           std::size_t grain);
}  // namespace detail

/// Calls fn(i) for every i in [begin, end), distributing chunks of
/// `grain` indices dynamically over the global pool.  Blocks until done.
/// Serial (inline, in index order, WITHOUT the std::function type
/// erasure — the 1-core CI runner never pays the indirection) when the
/// pool is serial, the range has at most one index, the range is tiny,
/// or the caller is already inside a parallel region.  `fn` must be
/// safe to call concurrently for distinct i; no ordering is guaranteed.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                  std::size_t grain = 1) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  if (n <= 1 || n <= grain || in_parallel_region() ||
      parallel_threads() <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  detail::parallel_for_dispatch(
      begin, end, std::function<void(std::size_t)>(std::ref(fn)), grain);
}

}  // namespace latticesched
