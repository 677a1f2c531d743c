#include "runtime/runtime.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

namespace statsize::runtime {

namespace {

// g_mutex serializes resolution, set_threads and pool construction. Reads
// of an already-resolved setting or an already-built pool are lock-free.
std::mutex g_mutex;
std::unique_ptr<ThreadPool> g_pool;
std::atomic<ThreadPool*> g_pool_ptr{nullptr};  // g_pool.get() once built
std::atomic<int> g_threads{0};                 // 0 = not yet resolved

thread_local int t_budget = 0;  // 0 = no cap

int default_threads() {
  if (const char* env = std::getenv("STATSIZE_JOBS")) {
    std::string warning;
    const int n = resolve_jobs_value(env, hardware_threads(), &warning);
    if (!warning.empty()) std::fprintf(stderr, "warning: %s\n", warning.c_str());
    return n;
  }
  return hardware_threads();
}

int threads_locked() {
  if (g_threads.load(std::memory_order_relaxed) == 0) {
    g_threads.store(default_threads(), std::memory_order_release);
  }
  return g_threads.load(std::memory_order_relaxed);
}

}  // namespace

int resolve_jobs_value(const char* value, int fallback, std::string* warning) {
  if (warning != nullptr) warning->clear();
  auto reject = [&](const std::string& why) {
    if (warning != nullptr) {
      *warning = "STATSIZE_JOBS='" + std::string(value == nullptr ? "" : value) + "': " + why +
                 "; using " + std::to_string(fallback) + " (hardware concurrency)";
    }
    return fallback;
  };
  if (value == nullptr || value[0] == '\0') return reject("empty value");
  // strtol skips leading whitespace; the whole string must be the integer.
  if (std::isspace(static_cast<unsigned char>(value[0])) != 0) {
    return reject("expected an integer");
  }
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') return reject("expected an integer");
  if (errno == ERANGE || n > kMaxJobs) {
    return reject("value exceeds the maximum of " + std::to_string(kMaxJobs) + " threads");
  }
  if (n < 1) return reject("thread count must be >= 1");
  return static_cast<int>(n);
}

int threads() {
  if (const int n = g_threads.load(std::memory_order_acquire); n != 0) return n;
  const std::lock_guard<std::mutex> lock(g_mutex);
  return threads_locked();
}

void set_threads(int n) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  if (n < 1) n = 1;
  if (n > kMaxJobs) n = kMaxJobs;
  if (n == g_threads.load(std::memory_order_relaxed)) return;
  g_threads.store(n, std::memory_order_release);
  g_pool_ptr.store(nullptr, std::memory_order_release);
  g_pool.reset();
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& global_pool() {
  if (ThreadPool* pool = g_pool_ptr.load(std::memory_order_acquire)) return *pool;
  const std::lock_guard<std::mutex> lock(g_mutex);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(threads_locked());
    g_pool_ptr.store(g_pool.get(), std::memory_order_release);
  }
  return *g_pool;
}

ThreadBudget::ThreadBudget(int n) : saved_(std::exchange(t_budget, n < 0 ? 0 : n)) {}

ThreadBudget::~ThreadBudget() { t_budget = saved_; }

int thread_budget() {
  const int n = threads();
  return t_budget == 0 ? n : std::min(t_budget, n);
}

void parallel_for(std::size_t n, std::size_t grain, RangeFn body) {
  if (n == 0) return;
  const int budget = thread_budget();
  if (budget == 1 || n <= (grain == 0 ? 1 : grain)) {
    run_inline(n, grain, body);
    return;
  }
  global_pool().parallel_for(n, grain, body, budget);
}

}  // namespace statsize::runtime
