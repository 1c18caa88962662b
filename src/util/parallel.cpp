#include "util/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>

namespace latticesched {

namespace {

thread_local bool t_in_parallel_region = false;

std::size_t env_default_threads() {
  if (const char* env = std::getenv("LATTICESCHED_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::atomic<std::size_t> g_thread_override{0};

}  // namespace

std::size_t parallel_threads() {
  const std::size_t o = g_thread_override.load(std::memory_order_relaxed);
  if (o != 0) return o;
  static const std::size_t env = env_default_threads();
  return env;
}

void set_parallel_threads(std::size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

bool in_parallel_region() { return t_in_parallel_region; }

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t r = 0; r < workers; ++r) {
    threads_.emplace_back([this, r] { worker_loop(r); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop(std::size_t rank) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (rank >= engaged_) continue;  // not needed this region
      body = body_;
    }
    std::exception_ptr err;
    try {
      t_in_parallel_region = true;
      (*body)(rank + 1);
    } catch (...) {
      err = std::current_exception();
    }
    t_in_parallel_region = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (err) errors_.push_back(err);
      if (--active_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::run(std::size_t parallelism,
                     const std::function<void(std::size_t)>& body) {
  if (parallelism == 0) return;
  // Nested regions (or a serial pool) run the whole body on rank 0: the
  // body's own index-claiming loop then processes every item inline.
  if (t_in_parallel_region || threads_.empty() || parallelism == 1) {
    body(0);
    return;
  }
  // Distinct application threads may hit the shared pool concurrently;
  // regions are serialized so one region's helpers never decrement
  // another's active count.  (Workers themselves never reach this lock —
  // the inline path above catches them.)
  std::lock_guard<std::mutex> region_lock(region_mu_);
  const std::size_t helpers = std::min(parallelism - 1, threads_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    engaged_ = helpers;
    active_ = helpers;
    errors_.clear();
    ++generation_;
  }
  cv_work_.notify_all();
  std::exception_ptr caller_err;
  try {
    t_in_parallel_region = true;
    body(0);
  } catch (...) {
    caller_err = std::current_exception();
  }
  t_in_parallel_region = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return active_ == 0; });
    body_ = nullptr;
    if (!caller_err && !errors_.empty()) caller_err = errors_.front();
  }
  if (caller_err) std::rethrow_exception(caller_err);
}

ThreadPool& ThreadPool::global() {
  // The pool is sized once per distinct target; changing the target swaps
  // in a fresh pool (old pools are kept alive until process exit so any
  // stale references stay valid — targets change a handful of times per
  // process, in tests).
  static std::mutex mu;
  static std::size_t built_for = 0;
  static ThreadPool* pool = nullptr;
  static std::vector<std::unique_ptr<ThreadPool>> retired;
  std::lock_guard<std::mutex> lock(mu);
  const std::size_t want = parallel_threads();
  if (pool == nullptr || built_for != want) {
    retired.emplace_back(std::make_unique<ThreadPool>(want - 1));
    pool = retired.back().get();
    built_for = want;
  }
  return *pool;
}

void detail::parallel_for_dispatch(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t)>& fn, std::size_t grain) {
  const std::size_t n = end - begin;
  std::atomic<std::size_t> next{begin};
  ThreadPool::global().run(
      (n + grain - 1) / grain, [&](std::size_t) {
        for (;;) {
          const std::size_t lo =
              next.fetch_add(grain, std::memory_order_relaxed);
          if (lo >= end) return;
          const std::size_t hi = std::min(end, lo + grain);
          for (std::size_t i = lo; i < hi; ++i) fn(i);
        }
      });
}

}  // namespace latticesched
