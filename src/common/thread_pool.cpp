#include "common/thread_pool.hpp"

#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace hpcfail {

namespace {

thread_local bool t_inside_worker = false;

/// The CPUs in the calling thread's affinity mask, ascending; empty where
/// the mask cannot be read.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
#endif
  return cpus;
}

/// Restricts `thread` to one CPU. Best effort: a refused request leaves
/// the thread where the scheduler puts it.
void pin(std::thread& thread, int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(thread.native_handle(), sizeof set, &set);
#else
  (void)thread;
  (void)cpu;
#endif
}

// Shared-pool state. Guarded by g_pool_mutex; the pool itself is
// internally synchronized once created.
std::mutex g_pool_mutex;
unsigned g_target = 0;  // 0 = hardware default
std::unique_ptr<ThreadPool> g_pool;

unsigned resolved_target() noexcept {
  return g_target != 0 ? g_target : hardware_parallelism();
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  const std::vector<int> cpus = allowed_cpus();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
    if (cpus.size() > 1) pin(workers_.back(), cpus[i % cpus.size()]);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::inside_worker() noexcept { return t_inside_worker; }

void ThreadPool::enqueue(std::function<void()> job) {
  if (workers_.empty()) {
    job();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_inside_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();  // packaged_task: exceptions land in the future
  }
}

unsigned hardware_parallelism() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n != 0 ? n : 1;
}

void set_parallelism(unsigned n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (n == g_target && g_pool) return;
  g_target = n;
  g_pool.reset();  // rebuilt lazily at the new size
}

unsigned parallelism() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return resolved_target();
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(resolved_target());
  return *g_pool;
}

}  // namespace hpcfail
