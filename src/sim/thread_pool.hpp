// Persistent fork-join team for shared-nothing parallel fan-out.
//
// DSE sweeps evaluate many independent, deterministically-seeded
// simulations (one fresh cluster per operating point), and the fleet
// advances its chips once per horizon (up to the next fleet event); both
// write only their own result slot per index. A pool of width w is the
// calling thread plus w - 1 helper threads, and its one fan-out primitive
// is run_indexed: the caller publishes the job by bumping a generation
// counter, claims indices next to the helpers, then waits for the helpers
// to check back in. Both sides of that handoff spin for a few
// microseconds before parking on the atomic, so back-to-back fan-outs can
// skip the futex round trip, while an idle pool still sleeps.
//
// The default width comes from the NTSERV_THREADS environment variable,
// falling back to the hardware concurrency.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace ntserv::sim {

class ThreadPool {
 public:
  explicit ThreadPool(int threads = default_threads()) {
    if (threads < 1) threads = 1;
    helpers_.reserve(static_cast<std::size_t>(threads - 1));
    for (int i = 1; i < threads; ++i) {
      helpers_.emplace_back([this] { helper_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    stop_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (auto& h : helpers_) h.join();
  }

  /// Team width: the calling thread plus the helpers.
  [[nodiscard]] int size() const { return static_cast<int>(helpers_.size()) + 1; }

  /// Run body(i) for every i in [0, n), then barrier. The caller and
  /// every helper pull indices from one shared atomic counter until n is
  /// used up, so a thread that finishes early takes the next index
  /// instead of idling; the handoff costs one generation bump and one
  /// pending-count round trip, whatever n is. The first exception any
  /// index throws is rethrown after the barrier (the remaining indices
  /// still run). Each index must write only its own state. Not reentrant:
  /// one thread drives a pool, and body must not call back into it.
  template <typename Body>
  void run_indexed(std::size_t n, Body&& body) {
    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::exception_ptr err;
    auto claim = [&body, &next, &err_mu, &err, n] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!err) err = std::current_exception();
        }
      }
    };
    if (!helpers_.empty() && n > 0) {
      // Every write to job_ happens before this release bump and after
      // the previous fan-out's last check-in, so helpers read it race-free.
      job_ = Job{[](void* c) { (*static_cast<decltype(claim)*>(c))(); }, &claim};
      pending_.store(static_cast<std::uint32_t>(helpers_.size()), std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      generation_.notify_all();
      claim();
      await(pending_, [](std::uint32_t p) { return p == 0; });
    } else {
      claim();
    }
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
  /// The claim loop of the fan-out in flight, type-erased: it lives on
  /// the caller's stack for the duration of run_indexed.
  struct Job {
    void (*run)(void*) = nullptr;
    void* ctx = nullptr;
  };

  /// Pause iterations a waiter spins before parking on the atomic: about
  /// 5 us on a 2.1 GHz Xeon. That covers the serial work between two
  /// fleet horizons when it is short, so a helper that finishes with the
  /// others can catch the next fan-out without a futex round trip, while
  /// a pool left idle any longer stops burning CPU.
  static constexpr int kSpinPauses = 300;

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  /// Spin, then park, until done(a) holds; returns the value that did.
  template <typename Done>
  static std::uint32_t await(const std::atomic<std::uint32_t>& a, Done done) {
    std::uint32_t v = a.load(std::memory_order_acquire);
    for (int spins = 0; !done(v); v = a.load(std::memory_order_acquire)) {
      if (spins < kSpinPauses) {
        cpu_relax();
        ++spins;
      } else {
        a.wait(v, std::memory_order_acquire);
      }
    }
    return v;
  }

  void helper_loop() {
    // Not a load: a fan-out or the destructor may bump the generation
    // before this thread first runs, and that bump must not be missed.
    std::uint32_t seen = 0;
    for (;;) {
      seen = await(generation_, [seen](std::uint32_t g) { return g != seen; });
      if (stop_) return;
      job_.run(job_.ctx);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) pending_.notify_one();
    }
  }

  // Helpers spin on generation_ while the caller spins on pending_, so
  // each gets its own cache line.
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  alignas(64) std::atomic<std::uint32_t> pending_{0};
  Job job_;
  bool stop_ = false;
  std::vector<std::thread> helpers_;  // last: helpers read the members above
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
