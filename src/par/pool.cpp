#include "airshed/par/pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <limits>

#include "airshed/util/error.hpp"

namespace airshed::par {

namespace {

/// CPU time of the calling thread in seconds (falls back to 0 where the
/// clock is unavailable; busy accounting is instrumentation, not logic).
double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

/// Where the calling thread is: the pool it runs items of, its index there
/// and how many items it is inside (0 between items).
struct Context {
  WorkerPool* pool = nullptr;
  int thread = 0;
  int depth = 0;
};
thread_local Context tls;

}  // namespace

/// One for_each call. Items are claimed under the pool mutex; `fn` and
/// `label` are immutable once the job is published.
struct WorkerPool::Job {
  struct Range {
    std::size_t begin = 0, end = 0;  // unclaimed items [begin, end)
  };

  const ItemFn* fn = nullptr;
  JobLabel label;
  int depth = 0;                // items the issuing thread was inside
  std::vector<Range> ranges;    // home range of each thread
  std::size_t unclaimed = 0;
  std::size_t running = 0;
  std::size_t error_item = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  bool done() const { return unclaimed == 0 && running == 0; }

  /// Next item for `thread`: the front of its home range, else the tail of
  /// the range with the most items left (lowest index on ties).
  bool claim(int thread, std::size_t& item) {
    if (unclaimed == 0) return false;
    Range* r = &ranges[static_cast<std::size_t>(thread)];
    if (r->begin < r->end) {
      item = r->begin++;
    } else {
      r = &*std::max_element(ranges.begin(), ranges.end(),
                             [](const Range& a, const Range& b) {
                               return a.end - a.begin < b.end - b.begin;
                             });
      item = --r->end;
    }
    --unclaimed;
    ++running;
    return true;
  }
};

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int env_threads() {
  if (const char* e = std::getenv("AIRSHED_THREADS")) {
    const int t = std::atoi(e);
    if (t >= 1) return t;
  }
  return 0;
}

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const int e = env_threads(); e > 0) return e;
  return hardware_threads();
}

WorkerPool::WorkerPool(int threads) : threads_(resolve_threads(threads)) {
  busy_s_.assign(static_cast<std::size_t>(threads_), 0.0);
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 1; t < threads_; ++t) {
    workers_.emplace_back([this, t] { worker_main(t); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

WorkerPool::Current WorkerPool::current() {
  if (tls.pool == nullptr || tls.depth == 0) return {};
  return {tls.pool, tls.thread};
}

WorkerPool::Job* WorkerPool::pick(int depth) const {
  // A thread inside `depth` items may only take items of jobs issued at
  // that depth or deeper, so a thread waiting on its own job never starts
  // a new top-level item. Among those: the shallowest job first (the
  // top-level one before any nested one), then the most unclaimed items.
  Job* best = nullptr;
  for (Job* j : jobs_) {
    if (j->unclaimed == 0 || j->depth < depth) continue;
    if (!best || j->depth < best->depth ||
        (j->depth == best->depth && j->unclaimed > best->unclaimed)) {
      best = j;
    }
  }
  return best;
}

void WorkerPool::work(Job& job, int thread,
                      std::unique_lock<std::mutex>& lock) {
  std::size_t item = 0;
  if (!job.claim(thread, item)) return;
  const bool outermost = tls.depth == 0;
  const double t0 = outermost ? thread_cpu_seconds() : 0.0;
  do {
    lock.unlock();
    std::exception_ptr error;
    ++tls.depth;
    try {
      obs::ObsSpan span(job.label.observer, thread, job.label.name,
                        job.label.category, job.label.hour);
      (*job.fn)(thread, item);
    } catch (...) {
      error = std::current_exception();
    }
    --tls.depth;
    lock.lock();
    --job.running;
    if (error && item < job.error_item) {
      job.error_item = item;
      job.error = error;
    }
    // The issuer may destroy the job once it is done and the lock is
    // released: `job` is not touched after this loop.
    if (job.done()) cv_.notify_all();
  } while (job.claim(thread, item));
  if (outermost) {
    busy_s_[static_cast<std::size_t>(thread)] += thread_cpu_seconds() - t0;
  }
}

void WorkerPool::worker_main(int thread) {
  tls = Context{this, thread, 0};
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (Job* job = pick(0)) {
      work(*job, thread, lock);
    } else if (stop_) {
      return;
    } else {
      cv_.wait(lock);
    }
  }
}

void WorkerPool::run(std::size_t n, const ItemFn& fn, const JobLabel& label) {
  if (n == 0) return;
  const Context saved = tls;
  const bool nested = saved.pool == this;
  const Context self = nested ? saved : Context{this, 0, 0};

  Job job;
  job.fn = &fn;
  job.label = label;
  job.depth = self.depth;
  job.unclaimed = n;
  job.ranges.resize(static_cast<std::size_t>(threads_));
  const std::size_t T = static_cast<std::size_t>(threads_);
  for (std::size_t t = 0; t < T; ++t) {
    job.ranges[t] = {n * t / T, n * (t + 1) / T};
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (!nested) {
    AIRSHED_REQUIRE(!top_level_,
                    "WorkerPool: another thread outside the pool already "
                    "has a job running on it");
    top_level_ = true;
  }
  tls = self;
  jobs_.push_back(&job);
  if (threads_ > 1) cv_.notify_all();

  // Own items first; while helpers finish the last ones, help nested jobs.
  work(job, self.thread, lock);
  while (!job.done()) {
    if (Job* other = pick(self.depth)) {
      work(*other, self.thread, lock);
    } else {
      cv_.wait(lock);
    }
  }
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  if (!nested) top_level_ = false;
  lock.unlock();
  tls = saved;
  if (job.error) std::rethrow_exception(job.error);
}

std::vector<double> WorkerPool::busy_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_s_;
}

void WorkerPool::reset_busy() {
  std::lock_guard<std::mutex> lock(mu_);
  for (double& b : busy_s_) b = 0.0;
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool(0);
  return pool;
}

}  // namespace airshed::par
