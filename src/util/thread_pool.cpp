#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace fbf::util {

ThreadPool::ThreadPool(std::size_t n_threads) {
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      // The exception travels by move and the local is emptied here, so
      // its reference is never released after the lock: wait_idle may
      // rethrow and destroy the exception as soon as in_flight_ drops.
      std::lock_guard lock(mutex_);
      if (error && !first_error_) {
        first_error_ = std::move(error);
      }
      error = nullptr;
      --in_flight_;
      if (in_flight_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

void parallel_chunks(std::size_t count, std::size_t threads,
                     const std::function<void(std::size_t, std::size_t,
                                              std::size_t)>& body) {
  if (count == 0) {
    return;
  }
  const std::size_t n_chunks = std::max<std::size_t>(1, std::min(threads, count));
  if (n_chunks == 1) {
    body(0, 0, count);
    return;
  }
  ThreadPool pool(n_chunks);
  const std::size_t base = count / n_chunks;
  const std::size_t extra = count % n_chunks;
  std::size_t begin = 0;
  for (std::size_t chunk = 0; chunk < n_chunks; ++chunk) {
    const std::size_t len = base + (chunk < extra ? 1 : 0);
    const std::size_t end = begin + len;
    pool.submit([chunk, begin, end, &body] { body(chunk, begin, end); });
    begin = end;
  }
  pool.wait_idle();
}

}  // namespace fbf::util
