#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace sia {

namespace {

// Shared state of one ParallelFor call. Held by shared_ptr from the
// caller and from every helper task, because helper tasks queued behind
// other work may only run (as no-ops) after the call has returned.
struct ForState {
  size_t chunks = 0;
  size_t grain = 0;
  size_t total = 0;
  std::function<Status(size_t, size_t)> body;

  std::atomic<size_t> next{0};        // next chunk index to claim
  std::atomic<bool> failed{false};    // set => unstarted chunks skip

  Mutex mu;
  CondVar done_cv;
  // chunks finished (run or skipped)
  size_t done SIA_GUARDED_BY(mu) = 0;
  size_t error_chunk SIA_GUARDED_BY(mu) = std::numeric_limits<size_t>::max();
  Status status SIA_GUARDED_BY(mu);
};

Status RunChunk(const ForState& state, size_t chunk) {
  const size_t begin = chunk * state.grain;
  const size_t end = std::min(state.total, begin + state.grain);
  try {
    return state.body(begin, end);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("ParallelFor body threw: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("ParallelFor body threw a non-std exception");
  }
}

// Claims and runs chunks until none remain. Every claimed chunk is
// counted in `done` even when skipped after a failure, so the caller's
// done == chunks wait cannot miss.
void DrainChunks(ForState& state, bool is_helper) {
  size_t ran = 0;
  for (;;) {
    const size_t chunk = state.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= state.chunks) break;
    Status chunk_status;
    if (!state.failed.load(std::memory_order_acquire)) {
      chunk_status = RunChunk(state, chunk);
      ++ran;
    }
    MutexLock lock(&state.mu);
    if (!chunk_status.ok() && chunk < state.error_chunk) {
      // Keep the lowest-indexed failure so the reported error does not
      // depend on scheduling.
      state.error_chunk = chunk;
      state.status = std::move(chunk_status);
      state.failed.store(true, std::memory_order_release);
    }
    if (++state.done == state.chunks) state.done_cv.NotifyAll();
  }
  if (is_helper && ran > 0) SIA_COUNTER_ADD("pool.chunks_stolen", ran);
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  threads = std::max<size_t>(1, std::min(threads, kMaxThreads));
  workers_.reserve(threads - 1);
  for (size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (Thread& w : workers_) w.Join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(&mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      if (obs::MetricsRegistry::Enabled()) {
        obs::SetGauge("pool.queue_depth", static_cast<double>(queue_.size()));
      }
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(task));
    SIA_COUNTER_INC("pool.tasks");
    if (obs::MetricsRegistry::Enabled()) {
      obs::SetGauge("pool.queue_depth", static_cast<double>(queue_.size()));
    }
  }
  cv_.NotifyOne();
}

Status ThreadPool::ParallelFor(
    size_t total, size_t grain,
    const std::function<Status(size_t, size_t)>& body) {
  if (total == 0) return Status::OK();
  grain = std::max<size_t>(1, grain);
  const size_t chunks = (total + grain - 1) / grain;

  if (chunks == 1 || workers_.empty()) {
    // Serial path, still chunk-at-a-time so the observable call pattern
    // (and therefore any chunk-granular state the body keeps) matches
    // the parallel path exactly.
    ForState state;
    state.chunks = chunks;
    state.grain = grain;
    state.total = total;
    state.body = body;
    for (size_t c = 0; c < chunks; ++c) {
      Status st = RunChunk(state, c);
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  SIA_COUNTER_INC("pool.parallel_for.calls");
  SIA_COUNTER_ADD("pool.parallel_for.chunks", chunks);
  auto state = std::make_shared<ForState>();
  state->chunks = chunks;
  state->grain = grain;
  state->total = total;
  state->body = body;

  // One helper per worker, capped by the number of chunks the caller
  // leaves over. Helpers that reach the queue after all chunks are
  // claimed exit immediately; nobody ever waits on a queued task.
  const size_t helpers = std::min(workers_.size(), chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    Submit([state] { DrainChunks(*state, /*is_helper=*/true); });
  }
  DrainChunks(*state, /*is_helper=*/false);

  MutexLock lock(&state->mu);
  while (state->done != state->chunks) state->done_cv.Wait(&state->mu);
  return state->status;
}

size_t ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("SIA_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return std::min<size_t>(static_cast<size_t>(v), kMaxThreads);
    }
    // Malformed values fall through to the hardware default rather than
    // silently serializing the whole process.
  }
  const unsigned hw = HardwareConcurrency();
  return hw == 0 ? 1 : std::min<size_t>(hw, kMaxThreads);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    auto* p = new ThreadPool(DefaultThreadCount());
    if (obs::MetricsRegistry::Enabled()) {
      obs::SetGauge("pool.threads", static_cast<double>(p->thread_count()));
    }
    return p;
  }();
  return *pool;
}

}  // namespace sia
