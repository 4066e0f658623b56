// Host-parallel execution engine: a fixed-size worker pool with a
// deterministic, work-claiming, reentrant parallel-for.
//
// The simulated Fx runtime executes every virtual node's real numerics
// (SUPG transport layers, Young-Boris chemistry columns, redistribution
// pack/unpack) on host threads, and the batch supervisor runs whole
// scenarios as items of the same kind of pool. Determinism is a hard
// contract:
//
//   * Home ranges plus tail claiming — the iteration space [0, n) is split
//     into `threads` contiguous home ranges, [n·t/T, n·(t+1)/T) for thread
//     t. Every thread first works through its own home range in ascending
//     order (per-thread caches stay warm, locality is that of a static
//     split). A thread whose home range is empty takes one item at a time
//     off the tail of the range with the most items left. Which thread runs
//     an item therefore depends on timing; what the item computes does not.
//   * Per-item independence — callers give every item its own output slot
//     and per-thread scratch (solvers, buffers) whose state never changes
//     an item's result, so each item's floating-point results depend only
//     on its inputs, never on which thread ran it or in what order.
//   * Ordered reduction — callers merge per-item results on the calling
//     thread in index order after the call returns.
//   * Lowest-index rethrow — when items throw, every item still runs, and
//     the exception of the lowest item index is rethrown: exactly the one
//     the serial loop would have hit first.
//   * Nesting — a for_each issued from inside an item of the same pool
//     publishes a nested job instead of failing. The issuing thread works
//     through its own job; threads with no top-level work left help any
//     published nested job; a thread waiting on its own job helps only
//     nested jobs (leaf work), never takes a new top-level item. Idle
//     threads block on a condition variable.
//
// Under these rules a run is bit-identical for every thread count,
// including 1 (no worker threads at all: the caller runs every item).
//
// Thread count resolution: an explicit request wins; otherwise the
// AIRSHED_THREADS environment variable; otherwise hardware concurrency.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "airshed/obs/trace.hpp"

namespace airshed::par {

/// Hardware concurrency, at least 1.
int hardware_threads();

/// AIRSHED_THREADS environment override (0 when unset or invalid).
int env_threads();

/// Resolves a requested thread count: `requested` > 0 wins, then
/// AIRSHED_THREADS, then hardware concurrency. Always >= 1.
int resolve_threads(int requested);

/// Span label of one job: every item of the job becomes one host span on
/// the lane of the thread that ran it, in `observer` (none when null).
/// `name` must have static storage duration. The label travels with the
/// job, so a nested job keeps its own.
struct JobLabel {
  const char* name = "pool";
  PhaseCategory category = PhaseCategory::Communication;
  int hour = -1;
  obs::TraceRecorder* observer = nullptr;
};

/// Fixed-size pool of host worker threads with a deterministic
/// work-claiming parallel-for. The calling thread of a top-level job
/// participates as thread 0; `threads - 1` workers are spawned on
/// construction and joined on destruction. At most one thread outside the
/// pool may run a job on it at a time.
class WorkerPool {
 public:
  /// `threads` <= 0 resolves via resolve_threads(0).
  explicit WorkerPool(int threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return threads_; }

  /// fn(thread, i) for every i in [0, n); returns after every item ran.
  /// `thread` is the pool index of the running thread, unique among the
  /// threads running items at any moment. See the header comment for the
  /// claiming, rethrow and nesting rules.
  using ItemFn = std::function<void(int thread, std::size_t item)>;
  template <typename Fn>
  void for_each(std::size_t n, Fn&& fn, const JobLabel& label = {}) {
    run(n, ItemFn(std::ref(fn)), label);
  }

  /// The pool whose item the calling thread is running, and the thread's
  /// index in it; {nullptr, 0} outside any pool item.
  struct Current {
    WorkerPool* pool = nullptr;
    int thread = 0;
  };
  static Current current();

  /// CPU seconds each thread has spent running items since the last reset
  /// (thread CPU time, so oversubscribed hosts report true compute cost,
  /// not scheduler wait; a nested item counts once, inside its enclosing
  /// one). Index 0 is the calling thread.
  std::vector<double> busy_seconds() const;
  void reset_busy();

  /// Process-wide shared pool sized by resolve_threads(0); used by code
  /// paths without an explicit thread-count configuration (e.g. the
  /// redistribution engine).
  static WorkerPool& shared();

 private:
  struct Job;
  void run(std::size_t n, const ItemFn& fn, const JobLabel& label);
  void worker_main(int thread);
  Job* pick(int depth) const;
  void work(Job& job, int thread, std::unique_lock<std::mutex>& lock);

  int threads_ = 1;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // a job was published or finished, or stop
  std::vector<Job*> jobs_;      // published jobs, in publication order
  bool top_level_ = false;      // a caller outside the pool has a job running
  bool stop_ = false;
  std::vector<double> busy_s_;  // per thread, accumulated
};

/// Scoped wall-clock timer: accumulates the scope's duration into `*sink`
/// on destruction (no-op when sink is null). Pure instrumentation.
class PhaseTimer {
 public:
  explicit PhaseTimer(double* sink) : sink_(sink) {
    if (sink_) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (sink_) {
      *sink_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

/// One instance of T per pool thread, built from the factory on the
/// thread's first access. The canonical pattern for stateful kernels
/// (YoungBorisSolver, SupgTransport, VerticalTransport): scratch is reused
/// across items on the same thread but never shared between threads, and
/// a thread that never runs an item never pays for an instance. Slot t is
/// touched only by pool thread t, so no locking is needed.
template <typename T>
class PerThread {
 public:
  template <typename Factory>
  PerThread(int threads, Factory&& make)
      : make_(std::forward<Factory>(make)),
        items_(static_cast<std::size_t>(threads)) {}

  T& operator[](int thread) {
    std::optional<T>& slot = items_[static_cast<std::size_t>(thread)];
    if (!slot) slot.emplace(make_());
    return *slot;
  }
  int size() const { return static_cast<int>(items_.size()); }

  /// fn(instance) for every instance built so far, in thread order. Call
  /// only between parallel regions.
  template <typename Fn>
  void each_built(Fn&& fn) {
    for (std::optional<T>& slot : items_) {
      if (slot) fn(*slot);
    }
  }

 private:
  std::function<T()> make_;
  std::vector<std::optional<T>> items_;
};

}  // namespace airshed::par
