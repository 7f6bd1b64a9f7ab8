#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

namespace mgjoin {

namespace {

thread_local bool tls_in_worker = false;

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::mutex& DefaultPoolMutex() {
  static std::mutex mu;
  return mu;
}

std::unique_ptr<ThreadPool>& DefaultPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(fn));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (err != nullptr && first_error_ == nullptr) first_error_ = err;
      if (--in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

std::size_t ThreadPool::ResolveThreadCount(long requested) {
  if (requested <= 0) {
    const char* e = std::getenv("MGJ_THREADS");
    if (e != nullptr && *e != '\0') requested = std::atol(e);
  }
  const std::size_t hw = HardwareThreads();
  if (requested <= 0) return hw;
  return std::min<std::size_t>(static_cast<std::size_t>(requested),
                               std::max<std::size_t>(hw, 8));
}

bool ThreadPool::InWorker() { return tls_in_worker; }

ThreadPool* ThreadPool::Default() {
  std::lock_guard<std::mutex> lock(DefaultPoolMutex());
  auto& pool = DefaultPoolSlot();
  if (pool == nullptr) {
    pool = std::make_unique<ThreadPool>(ResolveThreadCount(0));
  }
  return pool.get();
}

void ThreadPool::SetDefaultThreads(std::size_t n) {
  std::lock_guard<std::mutex> lock(DefaultPoolMutex());
  auto& pool = DefaultPoolSlot();
  const std::size_t want = ResolveThreadCount(static_cast<long>(n));
  if (pool != nullptr && pool->num_threads() == want) return;
  pool.reset();  // joins the old workers before the new pool spins up
  pool = std::make_unique<ThreadPool>(want);
}

void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (ThreadPool::InWorker()) {
    // Nested parallel section: run inline on this worker. Blocking here
    // on the pool it runs on could deadlock it, and re-submitting would
    // fan out N^2 tasks.
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  ThreadPool* pool = ThreadPool::Default();
  if (n < 2 || pool->num_threads() < 2) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Shared by the participants. Helper tasks own it too, because one
  // may start only after the caller has returned.
  struct Claim {
    std::atomic<std::size_t> next;
    std::size_t end;
    const std::function<void(std::size_t)>* fn;
    std::atomic<int> active{0};
    std::mutex mu;
    std::exception_ptr error;
  };
  auto claim = std::make_shared<Claim>();
  claim->next.store(begin);
  claim->end = end;
  claim->fn = &fn;
  // A participant registers in `active` before it claims, so once the
  // range is exhausted (or cancelled) and `active` reads zero, no late
  // helper can still reach `fn`.
  auto participate = [](Claim& c) {
    c.active.fetch_add(1);
    try {
      for (std::size_t i = c.next.fetch_add(1); i < c.end;
           i = c.next.fetch_add(1)) {
        (*c.fn)(i);
      }
    } catch (...) {
      c.next.store(c.end);  // cancel the indices not yet claimed
      std::lock_guard<std::mutex> lock(c.mu);
      if (c.error == nullptr) c.error = std::current_exception();
    }
    if (c.active.fetch_sub(1) == 1) c.active.notify_all();
  };
  const std::size_t helpers = std::min(n, pool->num_threads()) - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool->Submit([claim, participate] { participate(*claim); });
  }
  // The caller claims too, as a worker (nested calls run inline), so a
  // short range never waits for a sleeping pool thread to wake.
  tls_in_worker = true;
  participate(*claim);
  tls_in_worker = false;
  for (int a = claim->active.load(); a != 0; a = claim->active.load()) {
    claim->active.wait(a);
  }
  if (claim->error != nullptr) std::rethrow_exception(claim->error);
}

void ParallelForChunked(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  ParallelFor(0, chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * grain;
    fn(lo, std::min(end, lo + grain));
  });
}

}  // namespace mgjoin
