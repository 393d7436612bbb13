// Deterministic parallel execution for hpcfail's embarrassingly parallel
// hot paths (per-(system, node) trace generation, independent MLE fits).
//
// The library's randomness contract makes parallelism safe by design:
// every (seed, system, node) triple seeds an independent PRNG stream, so
// work items never share mutable state and can run in any order. The
// helpers here preserve *output* determinism on top of that by always
// assembling results in work-item index order — parallel_map(n, fn)
// returns exactly the vector a sequential loop would build, at any thread
// count.
//
// Nesting: parallel_for / parallel_map called from inside a pool worker
// degrade to a plain sequential loop on that worker (detected via a
// thread-local flag). This keeps nested parallel code correct and
// deadlock-free: a worker never blocks waiting for queue slots that only
// it could drain.
//
// A task carries nothing across the thread hop but itself: to time a
// fan-out, put one obs::ScopedTimer around the parallel call.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace hpcfail {

/// Fixed-size worker pool with a FIFO task queue. Tasks are arbitrary
/// callables; submit() returns a std::future that carries the task's
/// result or its exception. A pool constructed with zero threads runs
/// every task inline in submit() (useful for forcing sequential
/// execution without special-casing call sites).
///
/// Worker i is pinned to the i-th CPU of the creating thread's affinity
/// mask, cycling when there are more workers than CPUs; a one-CPU mask
/// pins nothing. Unpinned, the workers a notify wakes start on the
/// waking thread's CPU and run there one after another: on 4 vCPUs a
/// parallel_for of four 1 ms tasks took a median 2.0-4.0 ms, and 1.02 ms
/// pinned.
class ThreadPool {
 public:
  /// Starts `threads` workers (0 means run tasks inline), pinned as
  /// above.
  explicit ThreadPool(unsigned threads);

  /// Drains nothing: outstanding tasks are completed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// True when the calling thread is a worker of *any* ThreadPool.
  /// parallel_for / parallel_map use this to run nested parallelism
  /// inline instead of deadlocking on a saturated queue.
  static bool inside_worker() noexcept;

  /// Schedules `fn` and returns a future for its result. Exceptions
  /// thrown by `fn` are captured into the future. Do not block on the
  /// returned future from another task of the same pool; use the
  /// parallel_* helpers, which handle nesting.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn&>> {
    using R = std::invoke_result_t<Fn&>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// std::thread::hardware_concurrency(), but never 0.
unsigned hardware_parallelism() noexcept;

/// Sets the library-wide worker count used by parallel_for/parallel_map
/// (and everything built on them: TraceGenerator::generate,
/// dist::fit_report, dist::fit_report_many). 0 restores the default,
/// hardware_parallelism().
/// Rebuilds the shared pool; do not call concurrently with running
/// parallel work.
void set_parallelism(unsigned n);

/// The current library-wide worker count (>= 1).
unsigned parallelism();

/// The shared pool behind the parallel_* helpers, sized to parallelism().
/// Created lazily; most code should use the helpers instead.
ThreadPool& global_pool();

/// Runs fn(0), ..., fn(n-1), sharding contiguous index chunks across the
/// shared pool. Blocks until all iterations finish. Runs sequentially
/// inline when parallelism() == 1, n <= 1, or the caller is itself a pool
/// worker. If any iteration throws, the exception from the
/// lowest-numbered failing chunk is rethrown after all chunks complete.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  if (n == 0) return;
  const unsigned threads = parallelism();
  if (threads <= 1 || n == 1 || ThreadPool::inside_worker()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool& pool = global_pool();
  // A few chunks per worker so uneven per-index cost still balances.
  const std::size_t chunks =
      std::min(n, static_cast<std::size_t>(threads) * 4);
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    futures.push_back(pool.submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }));
  }
  std::exception_ptr first;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

/// Parallel map: returns {fn(0), ..., fn(n-1)} in index order — the exact
/// vector the sequential loop would produce, at any thread count. Same
/// nesting/exception behavior as parallel_for.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<std::optional<R>> slots(n);
  parallel_for(n, [&slots, &fn](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace hpcfail
