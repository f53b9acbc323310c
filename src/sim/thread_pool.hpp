// Fixed-size worker pool for shared-nothing parallel fan-out.
//
// DSE sweeps evaluate many independent, deterministically-seeded
// simulations (one fresh cluster per operating point), so they
// parallelize with no shared mutable state: each task writes only its own
// result slot. The pool is deliberately minimal — a locked queue and a
// wait_idle() barrier. Index fan-outs (run_indexed) submit one claimer
// per worker, not one task per index, so the queue is touched a handful
// of times per fan-out even when the fleet fans out every quantum.
//
// The default worker count comes from the NTSERV_THREADS environment
// variable, falling back to the hardware concurrency.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ntserv::sim {

class ThreadPool {
 public:
  explicit ThreadPool(int threads = default_threads()) {
    if (threads < 1) threads = 1;
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_task_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue one task. Tasks must not throw; wrap anything that can (the
  /// sweep drivers capture exceptions into an std::exception_ptr slot).
  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_task_.notify_one();
  }

  /// Block until the queue is empty and every worker is idle.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  }

  /// Run body(i) for every i in [0, n) on the pool, then barrier.
  /// min(n, size()) claimer tasks pull indices from one shared atomic
  /// counter until n is used up, so a worker that finishes early takes
  /// the next index instead of idling; the handoff cost is one submit
  /// per worker plus one wait_idle barrier, whatever n is. The first
  /// exception any index throws is rethrown after the barrier (the
  /// remaining indices still run). Each index must write only its own
  /// state. Reusing a live pool lets per-step fan-outs (the fleet
  /// advances its chips every quantum) skip pool construction.
  template <typename Body>
  void run_indexed(std::size_t n, Body&& body) {
    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::exception_ptr err;
    const std::size_t claimers = std::min(n, static_cast<std::size_t>(size()));
    for (std::size_t c = 0; c < claimers; ++c) {
      submit([&body, &next, &err_mu, &err, n] {
        for (std::size_t i = next++; i < n; i = next++) {
          try {
            body(i);
          } catch (...) {
            std::lock_guard<std::mutex> lock(err_mu);
            if (!err) err = std::current_exception();
          }
        }
      });
    }
    wait_idle();
    if (err) std::rethrow_exception(err);
  }

  /// Worker count from NTSERV_THREADS, else the hardware concurrency.
  static int default_threads() {
    if (const char* env = std::getenv("NTSERV_THREADS")) {
      const int n = std::atoi(env);
      if (n >= 1) return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and drained
        task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu_);
        --active_;
      }
      cv_idle_.notify_all();
    }
  }

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  int active_ = 0;
  bool stop_ = false;
};

/// Run body(i) for i in [0, n): serially when one worker suffices,
/// otherwise fanned out over a pool of min(threads, n) workers. The first
/// exception any task throws is rethrown after the barrier. This is the
/// shared-nothing fan-out every sweep driver uses — each index must write
/// only its own result slot.
template <typename Body>
void parallel_for_index(int threads, std::size_t n, Body&& body) {
  if (n == 0) return;
  if (threads > static_cast<int>(n)) threads = static_cast<int>(n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool{threads};
  pool.run_indexed(n, body);
}

}  // namespace ntserv::sim
