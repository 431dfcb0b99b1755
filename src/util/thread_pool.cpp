#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <string_view>
#include <utility>

#include "util/check.h"

namespace manetcap::util {

namespace {
// Upper bound on MANETCAP_THREADS: a typo such as 100000 must not start
// that many workers when the shared pool is first used.
constexpr long kMaxEnvThreads = 1024;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = default_num_threads();
  workers_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    // Destroying a joinable std::thread ends the process.
    join_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() { join_workers(); }

void ThreadPool::join_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MANETCAP_CHECK(!shutdown_);
    queue_.push_back(std::move(task));
  }
  cv_work_.notify_one();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t width) {
  if (count == 0) return;

  // Private completion state on the caller's stack: the group is done when
  // every runner (caller included) has drained the shared index counter.
  // The caller cannot return before `running` hits zero, so the runners'
  // reference to this frame never dangles.
  struct Group {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<std::size_t> next{0};
    std::size_t running = 0;
    std::exception_ptr first_error;
    std::size_t first_error_index = 0;
  } group;

  // Catches every exception of fn, so none leaves a worker.
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = group.next.fetch_add(1);
      if (i >= count) break;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(group.mu);
        if (!group.first_error || i < group.first_error_index) {
          group.first_error = std::current_exception();
          group.first_error_index = i;
        }
      }
    }
  };

  std::size_t runners = workers_.size() + 1;  // pool + the calling thread
  if (width != 0) runners = std::min(runners, width);
  runners = std::min(runners, count);
  {
    std::lock_guard<std::mutex> lock(group.mu);
    group.running = runners;
  }
  // A failed submit leaves fewer runners; the caller's drain still runs
  // every index, and the failure is rethrown once the queued runners end.
  std::size_t queued = 1;  // the calling thread
  std::exception_ptr submit_error;
  try {
    for (; queued < runners; ++queued)
      submit([&group, &drain] {
        drain();
        std::lock_guard<std::mutex> lock(group.mu);
        if (--group.running == 0) group.cv.notify_all();
      });
  } catch (...) {
    submit_error = std::current_exception();
  }
  drain();
  std::unique_lock<std::mutex> lock(group.mu);
  group.running -= runners - queued + 1;  // the caller and unqueued runners
  group.cv.wait(lock, [&group] { return group.running == 0; });
  if (group.first_error) std::rethrow_exception(group.first_error);
  if (submit_error) std::rethrow_exception(submit_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool instance(default_num_threads());
  return instance;
}

std::size_t ThreadPool::default_num_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t all_cores = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  const char* env = std::getenv("MANETCAP_THREADS");
  if (env == nullptr) return all_cores;
  const std::string_view text(env);
  long v = -1;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  MANETCAP_CHECK_MSG(ec == std::errc() && end == text.data() + text.size() &&
                         v >= 0 && v <= kMaxEnvThreads,
                     "MANETCAP_THREADS must be 0 (all cores) or an integer "
                     "in [1, " << kMaxEnvThreads << "], got '" << text
                               << "'");
  return v == 0 ? all_cores : static_cast<std::size_t>(v);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace manetcap::util
