#ifndef SIA_COMMON_THREAD_POOL_H_
#define SIA_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace sia {

// Fixed-size worker pool shared by every parallel stage in the tree:
// morsel-driven execution in src/engine and the concurrent batch
// rewriter in src/rewrite both draw from the same process-wide pool
// (Shared()), so going parallel in several components at once cannot
// oversubscribe the machine. Tests construct private pools to pin exact
// worker counts. ParallelFor is the only way to run work on a pool;
// long-lived loops (sia_serve's workers, the background learner) own
// plain Threads (common/sync.h) instead.
//
// `threads` counts the calling thread: a pool of size N owns N-1
// background workers, and ParallelFor always participates on the caller.
// A pool of size 1 therefore has no background threads at all —
// SIA_THREADS=1 is the genuinely serial engine, not a one-worker queue.
class ThreadPool {
 public:
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total execution width: background workers + the calling thread.
  size_t thread_count() const { return workers_.size() + 1; }

  // The process-wide pool, sized by DefaultThreadCount(). Constructed on
  // first use and intentionally leaked (workers may be parked in blocking
  // waits at process exit; joining them from a static destructor is a
  // shutdown-order hazard for no benefit).
  static ThreadPool& Shared();

  // SIA_THREADS if set to a positive integer (clamped to kMaxThreads),
  // else std::thread::hardware_concurrency(), never less than 1.
  static size_t DefaultThreadCount();

  static constexpr size_t kMaxThreads = 256;

  // Chunked parallel loop over [0, total): body(begin, end) runs once per
  // grain-sized chunk, on the calling thread plus up to thread_count()-1
  // background workers. Chunk boundaries depend only on `grain`, never on
  // the worker count or on scheduling, so per-chunk results concatenated
  // in chunk order are identical at every thread count — the determinism
  // guarantee the executor's byte-identical-output contract rests on.
  //
  // Error handling: the Status of the lowest-indexed failing chunk is
  // returned; a thrown exception is captured as kInternal. After a
  // failure, chunks that have not started yet are skipped (chunks already
  // running complete normally). A loop that fits in one chunk runs inline
  // on the caller with no synchronization at all, so sub-grain inputs pay
  // nothing for living in a parallel code path.
  //
  // Reentrant: safe to call from inside a body running on this pool.
  // Completion waits only on chunks actually claimed by a thread, never
  // on queued-but-unscheduled helper tasks, so nested calls cannot
  // deadlock (they may simply run with less parallelism).
  [[nodiscard]] Status ParallelFor(
      size_t total, size_t grain,
      const std::function<Status(size_t, size_t)>& body) SIA_EXCLUDES(mu_);

 private:
  // Enqueues `task` for a background worker (FIFO). Only ParallelFor
  // calls it, and only when the pool has workers.
  void Submit(std::function<void()> task) SIA_EXCLUDES(mu_);
  void WorkerLoop() SIA_EXCLUDES(mu_);

  // Lock hierarchy: mu_ is a leaf among sia locks (nothing in the tree
  // is acquired while it is held), but the obs registry lock may be
  // taken under it for the queue-depth gauge.
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ SIA_GUARDED_BY(mu_);
  bool shutdown_ SIA_GUARDED_BY(mu_) = false;
  // Written only by the constructor, before any worker exists; read-only
  // afterwards, so unguarded reads (thread_count, ParallelFor) are safe.
  std::vector<Thread> workers_;
};

}  // namespace sia

#endif  // SIA_COMMON_THREAD_POOL_H_
