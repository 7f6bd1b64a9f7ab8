#ifndef MGJOIN_COMMON_THREAD_POOL_H_
#define MGJOIN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mgjoin {

/// \brief Minimal fixed-size thread pool for the functional layer.
///
/// The simulated GPUs process real tuples; ParallelFor spreads that work
/// over host threads so large functional runs stay tractable. Simulation
/// *timing* never depends on the pool — the discrete-event clock is
/// single-threaded and deterministic — and every parallel producer in
/// the repository writes thread-private output merged in canonical
/// order, so functional results are byte-identical at any thread count
/// (the determinism contract, DESIGN.md Sec 11).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` and returns immediately.
  void Submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished. If any task threw,
  /// rethrows the first exception (in submission-completion order); the
  /// remaining tasks still run to completion first — no task is lost.
  void Wait();

  std::size_t num_threads() const { return threads_.size(); }

  /// Returns a process-wide pool. Sized by ResolveThreadCount(0):
  /// `MGJ_THREADS` when set, hardware concurrency otherwise.
  static ThreadPool* Default();

  /// \brief Re-creates the default pool with `n` threads (0 = re-resolve
  /// from MGJ_THREADS / hardware concurrency).
  ///
  /// Used by the `--threads` / MgJoinOptions::host_threads plumbing and
  /// by the determinism suite to sweep thread counts in-process. Must
  /// not be called while parallel work is in flight.
  static void SetDefaultThreads(std::size_t n);

  /// \brief Thread-count resolution policy.
  ///
  /// `requested` <= 0 falls back to MGJ_THREADS, then to the hardware
  /// concurrency. Explicit requests are clamped to max(hardware, 8): the
  /// floor lets the determinism suite exercise real interleavings on
  /// small CI boxes, the cap keeps MGJ_THREADS=10000 from spawning
  /// 10000 threads (nested parallel sections never fan out at all — see
  /// InWorker()).
  static std::size_t ResolveThreadCount(long requested);

  /// True on a pool worker thread, and on a caller while it runs its
  /// share of a ParallelFor. ParallelFor uses this to run nested
  /// parallel sections inline: a worker that blocked on the pool it
  /// runs on could deadlock it, and re-submitting would fan tasks out
  /// quadratically.
  static bool InWorker();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::queue<std::function<void()>> tasks_;
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> threads_;
};

/// \brief Runs fn(i) for i in [begin, end) across the default pool,
/// blocking until all iterations complete.
///
/// Dispatch is by dynamic claim: the calling thread and
/// min(n, num_threads) - 1 pool tasks each claim the next index from a
/// shared atomic counter until the range is exhausted, so an index
/// costs one atomic increment rather than a queued task, and a short
/// range never waits for a sleeping pool thread to wake. Which thread
/// runs an index varies from run to run; each fn(i) runs exactly once,
/// so output written to a slot owned by `i` is thread-count invariant.
/// `fn` runs on pool worker threads as well as the caller's, and must
/// be safe to call concurrently for distinct indices.
///
/// Falls back to serial execution for ranges of one index, a one-thread
/// pool, and when already inside a pool worker or another ParallelFor
/// (nested use runs inline). If `fn` throws, the indices not yet
/// claimed are skipped, the ones in progress finish, and the first
/// exception is rethrown to the caller; the pool stays usable.
void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn);

/// Morsel-granular variant: splits [begin, end) into fixed chunks of
/// `grain` indices and runs fn(chunk_begin, chunk_end) per chunk. Chunk
/// boundaries depend only on `grain`, never on the thread count, so
/// per-chunk outputs merged in chunk order are thread-count invariant.
void ParallelForChunked(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace mgjoin

#endif  // MGJOIN_COMMON_THREAD_POOL_H_
