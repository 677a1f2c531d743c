// serve::Metrics — the daemon's observability registry: monotonic counters,
// point-in-time gauges, and fixed-bucket latency histograms, all lock-free
// or small-mutex'd so the socket threads and the job executors can record
// without contending. GET /v1/stats serializes the whole registry as JSON.
//
// Wall-clock note: the repo's determinism contract bans clock reads on
// result paths (detlint DET002). Telemetry is the sanctioned exception, and
// serve::now() below is the single sanctioned wall-clock wrapper — detlint
// exempts `serve::now` sites under src/serve/ only; everything else in the
// daemon uses steady-clock durations (now_ms) or no clock at all.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/json.h"

namespace statsize::serve {

/// Unix wall-clock seconds — the one sanctioned wall-clock read in the
/// daemon (started_at / uptime in /v1/stats; never a result).
std::int64_t now();

/// Monotonic milliseconds on std::chrono::steady_clock, for durations
/// (queue wait, service time). Not wall-clock; safe anywhere.
double now_ms();

/// A monotonic counter (thread-safe).
class Counter {
 public:
  void inc(std::int64_t by = 1) { value_.fetch_add(by, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// A point-in-time gauge (thread-safe).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void inc(std::int64_t by = 1) { value_.fetch_add(by, std::memory_order_relaxed); }
  void dec(std::int64_t by = 1) { value_.fetch_sub(by, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Latency histogram with log-spaced bucket bounds (milliseconds by
/// convention). Quantiles are estimated by linear interpolation inside the
/// winning bucket; exact count/sum/min/max ride along. A small mutex guards
/// recording — the daemon records a handful of samples per job, so
/// contention is negligible next to the work being timed.
class Histogram {
 public:
  Histogram();  ///< default bounds: 0.1 ms .. ~100 s, 4 buckets per decade

  void record(double value);

  std::int64_t count() const;
  double sum() const;
  double min() const;  ///< 0 when empty
  double max() const;
  /// Estimated p-quantile (p in [0, 1]); 0 when empty.
  double quantile(double p) const;

  /// {"count":..,"sum_ms":..,"min_ms":..,"max_ms":..,"p50_ms":..,...}
  void write_json(util::JsonWriter& w) const;

 private:
  std::vector<double> bounds_;          ///< upper bound per bucket (last = +inf)
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  mutable std::mutex mu_;
};

/// The daemon's registry. Fixed, named members rather than a string-keyed
/// map: every metric the handlers touch is spelled out here, and write_json
/// is the single place that enumerates them.
struct Metrics {
  std::int64_t started_at_unix = 0;  ///< stamped by the server at start()

  // HTTP surface.
  Counter http_requests;
  Counter http_bad_requests;   ///< 4xx responses
  Counter http_server_errors;  ///< 5xx responses

  // Job lifecycle (counters are cumulative; state gauges are current).
  Counter jobs_submitted;
  Counter jobs_rejected;   ///< admission-queue overflow -> 429
  Counter jobs_completed;  ///< reached kDone (including kTimeLimit checkpoints)
  Counter jobs_cancelled;
  Counter jobs_failed;
  Counter jobs_deadline_checkpoints;  ///< size jobs returning a kTimeLimit checkpoint
  Gauge queue_depth;
  Gauge jobs_running;

  // Circuit cache.
  Counter cache_hits;
  Counter cache_misses;
  Counter cache_evictions;
  Gauge circuits_cached;

  // Robustness / crash-safety (DESIGN.md §13). Journal counters cover the
  // current process (records_replayed/truncated are stamped once at startup
  // recovery); fault counters are mirrored from the runtime::fault registry
  // at serialization time so /v1/stats reflects injected chaos live.
  Counter idempotent_dedup_hits;     ///< submissions answered from an existing job
  Counter journal_records_written;   ///< framed records durably appended
  Counter journal_records_replayed;  ///< records recovered by the startup scan
  Counter journal_truncated_bytes;   ///< torn-tail bytes discarded at startup
  Counter journal_write_errors;      ///< append failures (incl. injected torn writes)
  Counter jobs_recovered;            ///< queued/terminal jobs reinstalled at startup
  Counter jobs_interrupted;          ///< running-at-crash jobs surfaced as interrupted

  // Latency distributions (milliseconds).
  Histogram queue_wait_ms;       ///< admission to claim (~0 for ssta/sta, run at admission)
  Histogram service_ms;          ///< run time across all job types
  Histogram service_analysis_ms; ///< ssta | sta | monte_carlo
  Histogram service_sizing_ms;   ///< size

  /// Writes the full registry as one JSON object (counters, gauges,
  /// histograms with p50/p95/p99, uptime).
  void write_json(std::ostream& out) const;
};

}  // namespace statsize::serve
