// JobScheduler — bounded admission queue + the job executors behind
// `statsize serve`.
//
// Why one executor per thread of the process setting (runtime::threads(),
// the daemon's --jobs / STATSIZE_JOBS): a cheap ssta query must not wait
// behind a long size or Monte Carlo job. Execution state is per thread — a
// job's CancelScope chain and its ThreadBudget live on its executor, and a
// pool region carries its owner's chain to the workers that drain it — so
// jobs on different executors never see each other's deadline or token.
// Only Monte Carlo jobs use the one runtime::ThreadPool: a job that finds it
// free fans its trial chunks out (without a `jobs` value, only if it started
// alone), the others run them on their own executor. Every path gives the
// CLI's bits (index-keyed chunk outputs). DESIGN.md §11 expands on this.
//
// Lifecycle: submit() either enqueues (bounded; nullptr on overflow → the
// server answers 429) or rejects; an idle executor pops the oldest queued
// ssta/sta job, else the oldest job, runs it under its cancel
// token/deadline and thread budget, and publishes a result JSON blob.
// cancel() flips a queued job straight to kCancelled or trips a running
// job's CancellationToken so the cooperative polls unwind it. Every job,
// submitted, batched or replayed from the journal, enters through one
// admit_locked() and leaves through one finish(), the only place that writes
// end records, retires jobs and publishes terminal states.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/cancel.h"
#include "serve/circuit_cache.h"
#include "serve/journal.h"
#include "serve/metrics.h"

namespace statsize::serve {

enum class JobType { kSsta, kSta, kMonteCarlo, kSize };

/// kInterrupted is the recovery-surfaced terminal state: the job was running
/// (or its executor "crashed" via the serve.executor.crash fault) when the
/// process died, so no terminal journal record exists. It is terminal but
/// RETRYABLE: re-submitting with the same Idempotency-Key does NOT dedup
/// against it — it starts a fresh attempt (DESIGN.md §13).
enum class JobState { kQueued, kRunning, kDone, kCancelled, kFailed, kInterrupted };

const char* job_type_name(JobType type);
const char* job_state_name(JobState state);

/// Inverse of job_type_name, for requests and journal replay. Throws
/// std::invalid_argument on an unknown name.
JobType job_type_from_name(const std::string& name);

/// Everything a job request can carry. Parsed from the POST /v1/jobs body by
/// the server; defaults mirror the CLI's.
struct JobParams {
  double deadline_ms = 0.0;  ///< 0 = unlimited. Analysis: hard cancel; size:
                             ///< SizerOptions::time_limit_seconds (honest
                             ///< kTimeLimit checkpoint comes back as kDone).
  int jobs = 0;              ///< the job's thread budget (clamped to the pool
                             ///< size); 0 = the daemon's setting if alone, else 1

  // Delay model.
  double sigma_kappa = 0.25;
  double sigma_offset = 0.0;
  double speed = 1.0;  ///< uniform speed factor for analysis jobs

  // sta
  std::string corner = "worst";  ///< best | typical | worst

  // monte_carlo
  int mc_samples = 10000;
  std::uint64_t mc_seed = 1;

  // size
  std::string objective = "delay";  ///< delay | area
  double sigma_weight = 3.0;        ///< k in mu + k sigma (delay objective)
  double max_delay = 0.0;           ///< >0 adds DelayConstraint::at_most
  double constraint_sigma_weight = 0.0;
  std::string method = "reduced";  ///< full | reduced
  double max_speed = 3.0;
  int max_retries = 0;
};

struct Job {
  std::string id;  ///< "job-NNNNNN"
  JobType type = JobType::kSsta;
  JobParams params;
  /// The entry the job runs against. Set at admission and read only by the
  /// executor; finish() resets it, so a finished job does not keep an
  /// evicted cache entry (say a PATCH-derived view copy) alive.
  std::shared_ptr<const CachedCircuit> circuit;
  std::string circuit_key;   ///< circuit->key, kept for the job document
  std::string circuit_name;  ///< circuit->name, kept for the job document
  std::string idempotency_key;  ///< empty = none; immutable after admission

  std::atomic<JobState> state{JobState::kQueued};
  runtime::CancellationToken cancel;

  /// Guards result/error/timing below; state is the fast poll path.
  mutable std::mutex mu;
  std::string result_json;  ///< set once, on kDone
  std::string error;        ///< set on kFailed / kCancelled (reason)
  double submitted_ms = 0.0;
  double started_ms = 0.0;
  double finished_ms = 0.0;

  /// Serializes the full job document (state, params echo, timings, and the
  /// result object when done) as one JSON object. queue_wait_ms and run_ms
  /// appear only once the job has started.
  std::string describe() const;
};

/// Finished jobs kept pollable. Once this many newer jobs have finished, a
/// job's id answers 404 and its Idempotency-Key admits a fresh job. This
/// bounds the daemon's memory by its recent history, not by its uptime: at
/// several thousand jobs a minute, keeping every finished job grows the
/// process by megabytes a minute.
inline constexpr std::size_t kFinishedJobsKept = 4096;

struct SchedulerOptions {
  std::size_t queue_depth = 64;  ///< queued (not running) jobs before 429
};

class JobScheduler {
 public:
  explicit JobScheduler(SchedulerOptions options = {}, Metrics* metrics = nullptr);
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Attaches the durable journal. Must be called before start(); the
  /// scheduler then appends admit/start/end records for every job. Admission
  /// appends happen under the scheduler lock, so journal record order equals
  /// admission order (recovery re-admits in original order for free).
  void set_journal(Journal* journal) { journal_ = journal; }

  /// Starts runtime::threads() executors.
  void start();
  /// Cancels queued and running jobs, wakes the executors, joins them. Safe
  /// to call twice.
  void stop();

  /// How one submission resolved: a non-null job (with deduplicated=true,
  /// an existing job answering a retried Idempotency-Key); or a non-empty
  /// journal_error, meaning the admit record could not be made durable, so
  /// the job was NOT admitted (maps to 503 — the client retries and the same
  /// key cannot double-admit); or neither, an overflow (maps to 429).
  struct SubmitOutcome {
    std::shared_ptr<Job> job;
    bool deduplicated = false;
    std::string journal_error;
  };

  /// Admission. A non-empty idempotency_key first consults the dedup index
  /// (live jobs and journal-recovered ones alike, while they are inside the
  /// kFinishedJobsKept window); an existing non-interrupted
  /// job is returned as-is with deduplicated=true. An `interrupted` match
  /// does not dedup — the new admission replaces the mapping (retry
  /// semantics, see JobState).
  SubmitOutcome submit(JobType type, std::shared_ptr<const CachedCircuit> circuit,
                       JobParams params, std::string idempotency_key = {});

  /// One element of a batched submission (POST /v1/jobs with a JSON array).
  struct JobRequest {
    JobType type = JobType::kSsta;
    std::shared_ptr<const CachedCircuit> circuit;
    JobParams params;
  };

  struct BatchOutcome {
    std::vector<std::shared_ptr<Job>> jobs;  ///< request order; empty on failure
    std::string journal_error;
  };

  /// All-or-nothing admission under one lock: either every request is queued
  /// (ids assigned in order, FIFO with respect to other submissions) and the
  /// jobs come back in request order, or nothing is queued — overflow when
  /// the whole batch would not fit under the queue depth (429), journal_error
  /// when any admit record failed to persist (503; already-journaled records
  /// of the failed batch are re-admitted on a later recovery as queued jobs,
  /// which is the at-least-once side of the durability contract — batches
  /// carry no idempotency keys, so clients own batch-level retries).
  BatchOutcome submit_batch(std::vector<JobRequest> requests);

  /// Journal recovery, before start(), in journal order: re-admits the job of
  /// an `admit` record under its journaled id (no new admit record) on
  /// `circuit`, null when the entry did not survive replay, then settles it.
  /// With its `end` record it finishes as journaled; started without one it
  /// finishes `interrupted`; without its circuit, `failed` — both journaled,
  /// so a later restart replays them as they are. Otherwise it stays queued.
  /// Throws std::invalid_argument, admitting nothing, on an unknown type or
  /// state name (a corrupt-but-checksummed record).
  void recover(const util::JsonValue& admit, std::shared_ptr<const CachedCircuit> circuit,
               bool started, const util::JsonValue* end);

  std::shared_ptr<Job> get(const std::string& id) const;

  /// Cooperative cancel: queued jobs flip to kCancelled immediately, running
  /// jobs get their token tripped (state changes when the solve unwinds).
  /// False when the id is unknown or the job already finished.
  bool cancel(const std::string& id);

  std::size_t queue_size() const;

  /// Executor threads running (0 before start() and after stop()).
  std::size_t executors() const;

 private:
  /// How finish() treats a terminal state besides publishing it.
  enum class Ending {
    kNew,       ///< decided in this process: journal an end record, count it
    kCrash,     ///< serve.executor.crash: count it but journal nothing, as
                ///< a SIGKILL would leave no end record either
    kReplayed,  ///< read back from the journal's end record: neither
  };

  void executor_loop();
  /// Runs a claimed job; `t_start` is its start stamp, `alone` as for compute().
  void run_job(Job& job, double t_start, bool alone);
  /// Runs the job's engine, `alone` if no other job was running at its start,
  /// and returns its result JSON. Throws OperationCancelled or the engine's error.
  std::string compute(Job& job, bool alone);
  /// The one admission path; caller holds mu_. Keeps a journaled id (journal
  /// recovery) or assigns the next one and appends the job's admit record,
  /// then registers and queues the job. Throws JournalWriteError when the
  /// admit record could not be made durable; the job is not registered then.
  void admit_locked(const std::shared_ptr<Job>& job);
  /// The one terminal transition: releases the job's circuit, appends its
  /// end record, stores result/error/finish time, retires it, publishes
  /// `state` and counts it. Caller does not hold mu_.
  void finish(Job& job, JobState state, std::string result, std::string error,
              Ending ending = Ending::kNew);
  /// Finishes a queued job as cancelled when this thread wins the
  /// queued -> cancelled exchange; false when the job was not queued.
  bool cancel_queued(Job& job, std::string reason);
  /// Records that `job` reached a terminal state and forgets the oldest
  /// finished job beyond kFinishedJobsKept. Caller holds mu_.
  void retire_locked(const Job& job);
  /// Best-effort journal append for non-admission records (start/end):
  /// failures are counted, not raised — availability over a lost transition
  /// record (recovery then reports the job one state earlier, which the
  /// at-least-once contract absorbs).
  void journal_append_soft(const std::string& payload);

  const SchedulerOptions options_;
  Metrics* metrics_;
  Journal* journal_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::map<std::string, std::string> idem_;  ///< Idempotency-Key -> job id
  std::deque<std::string> finished_;          ///< finished job ids, oldest first
  int next_id_ = 1;
  std::atomic<int> running_{0};  ///< claimed jobs not yet finished
  bool stopping_ = false;
  bool started_ = false;
  std::vector<std::thread> executors_;
};

}  // namespace statsize::serve
