#include "runtime/runtime.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace statsize::runtime {

namespace {

std::mutex g_mutex;
std::unique_ptr<ThreadPool> g_pool;
int g_threads = 0;  // 0 = not yet resolved

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
  if (g_threads == 0) g_threads = default_threads();
  return g_threads;
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
  const std::lock_guard<std::mutex> lock(g_mutex);
  return threads_locked();
}

void set_threads(int n) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  if (n < 1) n = 1;
  if (n > kMaxJobs) n = kMaxJobs;
  if (n == g_threads) return;
  g_threads = n;
  g_pool.reset();
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& global_pool() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(threads_locked());
  return *g_pool;
}

void parallel_for(std::size_t n, std::size_t grain, RangeFn body) {
  if (n == 0) return;
  if (threads() == 1 || n <= (grain == 0 ? 1 : grain)) {
    poll_cancel();  // serial fallback honors the same chunk-boundary contract
    body(0, n);
    return;
  }
  global_pool().parallel_for(n, grain, body);
}

}  // namespace statsize::runtime
