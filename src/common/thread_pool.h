// A small fixed-size thread pool plus a parallel_for helper.
//
// Design constraints, in order:
//   1. Determinism: parallelised callers only ever write to
//      index-addressed slots, so the schedule (which worker runs which
//      index, and when) is observationally irrelevant.  parallel_for
//      exposes nothing about the schedule to its body.
//   2. No work stealing, no futures, no task graph — the hot paths
//      (submission generation, digest-index probing) are flat loops over
//      independent items, and a chunked atomic-counter loop covers them.
//   3. Safe under TSan: all completion signalling goes through one
//      mutex/condvar pair; exceptions from workers are captured and
//      rethrown on the calling thread.
//
// The calling thread always participates as worker 0, so `run` makes
// progress even when the pool itself has fewer threads than requested
// (including the degenerate single-core pool).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lppa {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means hardware_threads().
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of pool-owned worker threads (the caller adds one more).
  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Runs job(w) once for every w in [0, workers): w = 0 on the calling
  /// thread, the rest on pool threads.  Blocks until every invocation
  /// returns.  The first exception thrown by any invocation is rethrown
  /// here (caller's own exception wins ties).
  ///
  /// On a stopped pool (stop() ran, or destruction has begun) every
  /// invocation runs inline on the calling thread, in ascending w order.
  /// Without this fallback a run() racing shutdown would enqueue tasks
  /// no worker will ever pop and block forever on their completion.
  void run(std::size_t workers, const std::function<void(std::size_t)>& job);

  /// Deterministic shutdown: wakes every worker, lets them drain the
  /// queue (queued tasks run to completion, never silently dropped),
  /// and joins.  Idempotent; the destructor calls it.  After stop(),
  /// run() degrades to inline execution (see above), so callers that
  /// own both a pool and work-producing threads can tear down in either
  /// order without racing the pool destructor; thread_pool_test and
  /// net_transport_test pin it.
  void stop();

  /// std::thread::hardware_concurrency(), clamped to at least 1.
  static std::size_t hardware_threads() noexcept;

  /// Process-wide pool sized to hardware_threads().  Lazily constructed;
  /// lives until process exit.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Calls body(i) once for every i in [0, n), spread over up to
/// `num_threads` threads (0 = hardware_threads()).  Indices are handed
/// out in contiguous chunks through an atomic cursor; bodies must
/// tolerate any assignment of indices to threads — in practice that
/// means "write only to slot i".  Serial (and allocation-free) when the
/// effective thread count is 1.
///
/// When one or more bodies throw, the exception from the LOWEST erroring
/// index is rethrown — deterministically, for every thread count — so a
/// parallel failure reproduces exactly under num_threads=1.  Indices
/// above the winning error may be skipped; indices below it always run.
void parallel_for(std::size_t n, std::size_t num_threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace lppa
