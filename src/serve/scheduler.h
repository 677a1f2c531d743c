// JobScheduler — bounded admission queue + the job executors behind
// `statsize serve`.
//
// Why one executor per thread of the process setting (runtime::threads(),
// the daemon's --jobs / STATSIZE_JOBS): a cheap ssta query must not wait
// behind a long size or Monte Carlo job. Execution state is per thread — a
// job's CancelScope chain and its ThreadBudget live on its executor, and a
// pool region carries its owner's chain to the workers that drain it — so
// jobs on different executors never see each other's deadline or token.
// They share the one runtime::ThreadPool: the job that finds it free fans
// out, the others run their regions on their own executor. Every path gives
// the CLI's bits (index-keyed chunk outputs). DESIGN.md §11 expands on this.
//
// Lifecycle: submit() either enqueues (bounded; nullptr on overflow → the
// server answers 429) or rejects; an idle executor pops the oldest queued
// ssta/sta job, else the oldest job, runs it under its cancel
// token/deadline and thread budget, and publishes a result JSON blob.
// cancel() flips a queued job straight to kCancelled or trips a running
// job's CancellationToken so the cooperative polls unwind it.

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

/// Inverse of job_type_name / job_state_name, for journal replay. Throw
/// std::invalid_argument on an unknown name (a corrupt-but-checksummed
/// record is a bug, not a torn tail — fail loudly).
JobType job_type_from_name(const std::string& name);
JobState job_state_from_name(const std::string& name);

/// Everything a job request can carry. Parsed from the POST /v1/jobs body by
/// the server; defaults mirror the CLI's.
struct JobParams {
  double deadline_ms = 0.0;  ///< 0 = unlimited. Analysis: hard cancel; size:
                             ///< SizerOptions::time_limit_seconds (honest
                             ///< kTimeLimit checkpoint comes back as kDone).
  int jobs = 0;              ///< the job's thread budget (clamped to the
                             ///< pool size); 0 = the daemon's setting

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

/// Serializes params as one JSON object (journal admit records); the inverse
/// of job_params_from_json. Every field round-trips bit-exactly except
/// mc_seed, which travels through the JSON layer's double representation and
/// is exact only up to 2^53 (the server's request parser has the same limit,
/// so a journaled seed always round-trips to what the client could submit).
void write_job_params(util::JsonWriter& w, const JobParams& params);
JobParams job_params_from_json(const util::JsonValue& doc);

struct Job {
  std::string id;  ///< "job-NNNNNN"
  JobType type = JobType::kSsta;
  JobParams params;
  /// The entry the job runs against. Set at admission and read only by the
  /// executor; every terminal path resets it, so a finished job does not
  /// keep an evicted cache entry (say a PATCH-derived view copy) alive.
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
  /// result object when done) as one JSON object.
  std::string describe() const;

  /// Admission: holds `entry` and records its key and name.
  void set_circuit(std::shared_ptr<const CachedCircuit> entry);
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

  /// How one submission resolved. Exactly one of job / overflow /
  /// journal_error is meaningful: a non-null job with deduplicated=true is
  /// an existing job answering a retried Idempotency-Key; overflow maps to
  /// 429; a non-empty journal_error means the admit record could not be made
  /// durable, so the job was NOT admitted (maps to 503 — the client retries
  /// and the same key cannot double-admit).
  struct SubmitOutcome {
    std::shared_ptr<Job> job;
    bool deduplicated = false;
    bool overflow = false;
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
    bool overflow = false;
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

  /// One journal-recovered job to reinstall at startup, before start().
  struct RestoredJob {
    std::string id;
    JobType type = JobType::kSsta;
    JobParams params;
    std::shared_ptr<const CachedCircuit> circuit;  ///< may be null for terminal states
    std::string circuit_key;                       ///< from the admit record
    std::string idempotency_key;
    JobState state = JobState::kQueued;  ///< kQueued re-enqueues; others install as-is
    std::string result_json;             ///< kDone payload
    std::string error;                   ///< failed/cancelled/interrupted reason
  };

  /// Reinstalls recovered jobs: terminal jobs become pollable again (the
  /// last kFinishedJobsKept of them, in journal order), kQueued
  /// jobs re-enter the queue in call order under their original ids, the
  /// idempotency index is rebuilt, and id allocation resumes past the highest
  /// recovered id. Writes NO journal records — the admit records already live
  /// in the journal being resumed.
  void restore(std::vector<RestoredJob> recovered);

  std::shared_ptr<Job> get(const std::string& id) const;

  /// Cooperative cancel: queued jobs flip to kCancelled immediately, running
  /// jobs get their token tripped (state changes when the solve unwinds).
  /// False when the id is unknown or the job already finished.
  bool cancel(const std::string& id);

  std::size_t queue_size() const;

  /// Executor threads running (0 before start() and after stop()).
  std::size_t executors() const;

 private:
  void executor_loop();
  /// Runs a claimed job; `t_start` is its start stamp.
  void run_job(Job& job, double t_start);
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
  bool stopping_ = false;
  bool started_ = false;
  std::vector<std::thread> executors_;
};

}  // namespace statsize::serve
