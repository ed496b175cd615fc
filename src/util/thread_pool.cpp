#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "obs/trace.hpp"

namespace fcad::util {
namespace {

/// Depth of parallel regions on this thread; > 0 makes nested loops inline.
thread_local int t_parallel_depth = 0;

/// Creation index of this pool worker (0 = not a worker). Worker lanes in
/// the trace key off it, so lane identity never depends on thread ids.
thread_local int t_worker_index = 0;

int normalized_threads(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::max(threads, 1);
}

}  // namespace

/// One parallel_for invocation: indices are claimed via `next`; completion is
/// tracked under `mutex` so the issuing thread can block on `done_cv`.
struct ThreadPool::Batch {
  const std::function<void(std::int64_t)>* fn = nullptr;
  std::int64_t n = 0;
  std::atomic<std::int64_t> next{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::int64_t completed = 0;          // guarded by mutex
  std::exception_ptr error;            // guarded by mutex; first one wins
};

ThreadPool::ThreadPool(int threads) {
  const int n = normalized_threads(threads);
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) {
    workers_.emplace_back([this, i] {
      t_worker_index = i + 1;
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // Abandoned tickets are safe: the thread that issued a batch always
    // drains it to completion itself.
    queue_.clear();
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::in_parallel_region() { return t_parallel_depth > 0; }

int ThreadPool::current_worker() { return t_worker_index; }

void ThreadPool::run_batch(Batch& batch) {
  // Claim an index before touching anything the caller owns. A ticket
  // picked up after the caller drained the batch itself is stale: the
  // caller may already have returned and destroyed the ambient tracer. A
  // worker holding an unfinished index keeps the caller waiting, so the
  // tracer outlives every use below.
  std::int64_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
  if (i >= batch.n) return;
  ++t_parallel_depth;
  // Resolved once per batch: a disabled tracer costs one atomic load here
  // and nothing per index.
  obs::Tracer* const tracer = obs::tracer();
  const obs::LaneId lane{obs::kPoolPid, t_worker_index};
  if (tracer != nullptr) {
    tracer->name_lane(lane, "thread pool (wall clock)",
                      t_worker_index == 0
                          ? "caller"
                          : "worker " + std::to_string(t_worker_index));
  }
  for (; i < batch.n;
       i = batch.next.fetch_add(1, std::memory_order_relaxed)) {
    std::exception_ptr error;
    const double span_start_us =
        tracer != nullptr ? tracer->wall_now_us() : 0;
    try {
      (*batch.fn)(i);
    } catch (...) {
      error = std::current_exception();
    }
    if (tracer != nullptr) {
      tracer->complete(lane, "task " + std::to_string(i), "pool",
                       span_start_us, tracer->wall_now_us() - span_start_us);
    }
    std::lock_guard<std::mutex> lock(batch.mutex);
    if (error && !batch.error) batch.error = error;
    if (++batch.completed == batch.n) batch.done_cv.notify_all();
  }
  --t_parallel_depth;
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1 || in_parallel_region()) {
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->n = n;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto tickets =
        std::min<std::int64_t>(static_cast<std::int64_t>(workers_.size()), n);
    for (std::int64_t i = 0; i < tickets; ++i) queue_.push_back(batch);
  }
  work_cv_.notify_all();

  // The caller participates, then waits out any indices still running on
  // workers. Because the caller drains `next` itself, completion never
  // depends on a worker picking the ticket up.
  run_batch(*batch);
  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done_cv.wait(lock, [&] { return batch->completed == batch->n; });
  if (batch->error) std::rethrow_exception(batch->error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      batch = std::move(queue_.front());
      queue_.pop_front();
    }
    run_batch(*batch);
  }
}

ThreadPool& ThreadPool::shared(int threads) {
  static std::mutex mutex;
  static std::unique_ptr<ThreadPool> pool;
  std::lock_guard<std::mutex> lock(mutex);
  if (!pool) {
    pool = std::make_unique<ThreadPool>(threads);
  } else if (threads > 0 && pool->size() != normalized_threads(threads) &&
             !in_parallel_region()) {
    pool = std::make_unique<ThreadPool>(threads);
  }
  return *pool;
}

}  // namespace fcad::util
