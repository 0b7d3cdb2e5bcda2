#ifndef SIA_COMMON_SYNC_H_
#define SIA_COMMON_SYNC_H_

// Annotated synchronization primitives: the one place in the tree that
// touches std::mutex / std::condition_variable / std::thread directly.
// Everything else uses these wrappers (tools/sia_conventions enforces
// it), so every lock in the tree carries Clang thread-safety capability
// attributes and `clang++ -Wthread-safety -Werror` proves at compile
// time that guarded state is only touched with the right mutex held.
// On non-Clang compilers the attribute macros expand to nothing and the
// wrappers are zero-cost shims over the standard primitives.
//
// Layering: header-only and standard-library-only, so src/obs (which
// sits *below* src/common — see obs/metrics.h) can include it without a
// link-time dependency on sia_common.
//
// Usage pattern:
//
//   class Queue {
//    public:
//     void Push(Item item) SIA_EXCLUDES(mu_);
//    private:
//     Mutex mu_;
//     CondVar cv_;
//     std::deque<Item> items_ SIA_GUARDED_BY(mu_);
//   };
//
//   void Queue::Push(Item item) {
//     MutexLock lock(&mu_);
//     items_.push_back(std::move(item));   // OK: mu_ held
//     cv_.NotifyOne();
//   }
//
// Condition waits are written as explicit loops, never predicate
// lambdas — the analysis cannot see that a lock is held inside a lambda
// body, so `cv.Wait(&mu)` in a `while (!ready_)` loop is both the
// idiomatic and the provable form:
//
//   while (!ready_) cv_.Wait(&mu_);
//
// SIA_NO_THREAD_SAFETY_ANALYSIS is the escape hatch of last resort; a
// use must carry a justification comment (tools/sia_conventions rejects
// bare uses) and DESIGN.md ("Static analysis") lists the acceptable
// reasons.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>

// ---------------------------------------------------------------------------
// Attribute macros (no-ops outside Clang).

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SIA_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef SIA_THREAD_ANNOTATION_
#define SIA_THREAD_ANNOTATION_(x)
#endif

// On the type: this class is a lockable capability.
#define SIA_CAPABILITY(x) SIA_THREAD_ANNOTATION_(capability(x))
// On the type: RAII object that acquires a capability for its lifetime.
#define SIA_SCOPED_CAPABILITY SIA_THREAD_ANNOTATION_(scoped_lockable)
// On a member: may only be read/written with the given mutex held.
#define SIA_GUARDED_BY(x) SIA_THREAD_ANNOTATION_(guarded_by(x))
// On a pointer member: the pointee is guarded by the given mutex.
#define SIA_PT_GUARDED_BY(x) SIA_THREAD_ANNOTATION_(pt_guarded_by(x))
// On a function: acquires/releases the capability.
#define SIA_ACQUIRE(...) \
  SIA_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define SIA_RELEASE(...) \
  SIA_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define SIA_TRY_ACQUIRE(...) \
  SIA_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
// On a function: caller must hold / must not hold the capability.
#define SIA_REQUIRES(...) \
  SIA_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define SIA_EXCLUDES(...) SIA_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
// On a mutex member: documents (and, under -Wthread-safety-beta, checks)
// the lock hierarchy — this mutex is always taken before/after that one.
#define SIA_ACQUIRED_BEFORE(...) \
  SIA_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define SIA_ACQUIRED_AFTER(...) \
  SIA_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
// On a function: runtime assertion that the capability is held.
#define SIA_ASSERT_CAPABILITY(x) SIA_THREAD_ANNOTATION_(assert_capability(x))
// On a function: returns a reference to the given capability.
#define SIA_RETURN_CAPABILITY(x) SIA_THREAD_ANNOTATION_(lock_returned(x))
// Escape hatch: body is not analyzed. Requires a justification comment.
#define SIA_NO_THREAD_SAFETY_ANALYSIS \
  SIA_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace sia {

class CondVar;

// Annotated exclusive mutex. Prefer MutexLock over manual Lock/Unlock
// pairing; the manual form exists for the rare non-scoped protocol.
class SIA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SIA_ACQUIRE() { mu_.lock(); }
  void Unlock() SIA_RELEASE() { mu_.unlock(); }
  bool TryLock() SIA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Documents (to the analysis and the reader) that the caller believes
  // the lock is held; pure annotation, no runtime check.
  void AssertHeld() const SIA_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock. Supports releasing early and retaking (e.g. to call out of
// a leaf lock's scope, as BackgroundSynthesizer::Enqueue does before
// releasing a shed job's cache marker):
//
//   MutexLock lock(&mu_);
//   ...
//   lock.Unlock();
//   SlowWork();            // mu_ provably not held here
//   lock.Lock();
//   ...                    // guarded state accessible again
class SIA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SIA_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_->Lock();
  }
  ~MutexLock() SIA_RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() SIA_RELEASE() {
    held_ = false;
    mu_->Unlock();
  }
  void Lock() SIA_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* mu_;
  bool held_;
};

// Condition variable bound to sia::Mutex. Waits take the Mutex the
// caller already holds; there is deliberately no predicate-lambda
// overload (see the header comment — explicit while loops keep the
// guarded accesses visible to the analysis).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) SIA_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // still logically held by the caller
  }

  // Returns false iff the wait ended by timeout (the caller's predicate
  // loop decides what that means; spurious wakeups return true).
  bool WaitForMillis(Mutex* mu, int64_t timeout_ms) SIA_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(native, std::chrono::milliseconds(timeout_ms));
    native.release();  // still logically held by the caller
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// Thin movable wrapper over std::thread so spawning stays inside this
// header (the conventions linter bans raw std::thread elsewhere; a
// wrapped spawn is greppable and keeps join discipline in one place).
class Thread {
 public:
  Thread() = default;
  template <typename F>
  explicit Thread(F&& fn) : impl_(std::forward<F>(fn)) {}

  Thread(Thread&&) = default;
  Thread& operator=(Thread&& other) {
    if (impl_.joinable()) impl_.join();
    impl_ = std::move(other.impl_);
    return *this;
  }
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  // Joins on destruction: a Thread that goes out of scope running is a
  // bug we turn into a hang at the creation site, not std::terminate.
  ~Thread() {
    if (impl_.joinable()) impl_.join();
  }

  bool Joinable() const { return impl_.joinable(); }
  void Join() { impl_.join(); }

 private:
  std::thread impl_;
};

// std::thread::hardware_concurrency without naming std::thread at the
// call site; 0 when unknown (same contract as the standard).
inline unsigned HardwareConcurrency() {
  return std::thread::hardware_concurrency();
}

}  // namespace sia

#endif  // SIA_COMMON_SYNC_H_
