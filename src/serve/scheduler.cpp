#include "serve/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/sizer.h"
#include "runtime/fault.h"
#include "runtime/runtime.h"
#include "ssta/delay_model.h"
#include "ssta/monte_carlo.h"
#include "ssta/ssta.h"
#include "util/json.h"

namespace statsize::serve {

const char* job_type_name(JobType type) {
  switch (type) {
    case JobType::kSsta: return "ssta";
    case JobType::kSta: return "sta";
    case JobType::kMonteCarlo: return "monte_carlo";
    case JobType::kSize: return "size";
  }
  return "?";
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
    case JobState::kInterrupted: return "interrupted";
  }
  return "?";
}

JobType job_type_from_name(const std::string& name) {
  for (JobType t : {JobType::kSsta, JobType::kSta, JobType::kMonteCarlo, JobType::kSize}) {
    if (name == job_type_name(t)) return t;
  }
  throw std::invalid_argument("unknown job type: " + name);
}

namespace {

JobState job_state_from_name(const std::string& name) {
  for (JobState s : {JobState::kQueued, JobState::kRunning, JobState::kDone,
                     JobState::kCancelled, JobState::kFailed, JobState::kInterrupted}) {
    if (name == job_state_name(s)) return s;
  }
  throw std::invalid_argument("unknown job state: " + name);
}

/// Serializes params as one JSON object (journal admit records); the inverse
/// of job_params_from_json. Every field round-trips bit-exactly except
/// mc_seed, which travels through the JSON layer's double representation and
/// is exact only below 2^53 (the server's request parser admits no larger
/// seed, so a journaled seed always round-trips to what the client wrote).
void write_job_params(util::JsonWriter& w, const JobParams& p) {
  w.begin_object();
  w.key("deadline_ms").value(p.deadline_ms);
  w.key("jobs").value(p.jobs);
  w.key("sigma_kappa").value(p.sigma_kappa);
  w.key("sigma_offset").value(p.sigma_offset);
  w.key("speed").value(p.speed);
  w.key("corner").value(p.corner);
  w.key("mc_samples").value(p.mc_samples);
  w.key("mc_seed").value(static_cast<long>(p.mc_seed));
  w.key("objective").value(p.objective);
  w.key("sigma_weight").value(p.sigma_weight);
  w.key("max_delay").value(p.max_delay);
  w.key("constraint_sigma_weight").value(p.constraint_sigma_weight);
  w.key("method").value(p.method);
  w.key("max_speed").value(p.max_speed);
  w.key("max_retries").value(p.max_retries);
  w.end_object();
}

JobParams job_params_from_json(const util::JsonValue& doc) {
  JobParams p;
  p.deadline_ms = doc.number_or("deadline_ms", p.deadline_ms);
  p.jobs = static_cast<int>(doc.int_or("jobs", p.jobs));
  p.sigma_kappa = doc.number_or("sigma_kappa", p.sigma_kappa);
  p.sigma_offset = doc.number_or("sigma_offset", p.sigma_offset);
  p.speed = doc.number_or("speed", p.speed);
  p.corner = doc.string_or("corner", p.corner);
  p.mc_samples = static_cast<int>(doc.int_or("mc_samples", p.mc_samples));
  p.mc_seed = static_cast<std::uint64_t>(
      doc.int_or("mc_seed", static_cast<std::int64_t>(p.mc_seed)));
  p.objective = doc.string_or("objective", p.objective);
  p.sigma_weight = doc.number_or("sigma_weight", p.sigma_weight);
  p.max_delay = doc.number_or("max_delay", p.max_delay);
  p.constraint_sigma_weight =
      doc.number_or("constraint_sigma_weight", p.constraint_sigma_weight);
  p.method = doc.string_or("method", p.method);
  p.max_speed = doc.number_or("max_speed", p.max_speed);
  p.max_retries = static_cast<int>(doc.int_or("max_retries", p.max_retries));
  return p;
}

std::string fmt_double(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return std::string(buf);
}

/// Re-indents a pretty-printed JSON blob by `pad` spaces (first line is
/// spliced after a key, so it keeps no pad).
std::string indent_blob(const std::string& blob, int pad) {
  std::string out;
  out.reserve(blob.size() + 64);
  const std::string padding(static_cast<std::size_t>(pad), ' ');
  bool at_line_start = false;
  for (char c : blob) {
    if (at_line_start) {
      out += padding;
      at_line_start = false;
    }
    out += c;
    if (c == '\n') at_line_start = true;
  }
  return out;
}

// -- Journal record payloads (DESIGN.md §13). Admit carries everything
// needed to re-create the job after a crash; start/end are transition
// markers keyed by id. Result/error travel as escaped string members so the
// record stays one flat object regardless of the result's own structure.

std::string admit_record(const Job& job) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("kind").value("admit");
  w.key("id").value(job.id);
  w.key("type").value(job_type_name(job.type));
  w.key("circuit").value(job.circuit_key);
  w.key("idempotency_key").value(job.idempotency_key);
  w.key("params");
  write_job_params(w, job.params);
  w.end_object();
  return os.str();
}

std::string start_record(const std::string& id) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("kind").value("start");
  w.key("id").value(id);
  w.end_object();
  return os.str();
}

std::string end_record(const std::string& id, JobState state, const std::string& result,
                       const std::string& error) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("kind").value("end");
  w.key("id").value(id);
  w.key("state").value(job_state_name(state));
  w.key("result").value(result);
  w.key("error").value(error);
  w.end_object();
  return os.str();
}

/// ssta and sta jobs are one sweep each: the admitting thread runs them.
bool runs_at_admission(JobType type) { return type == JobType::kSsta || type == JobType::kSta; }

/// A new job for admission: everything but its id and idempotency key.
std::shared_ptr<Job> new_job(JobType type, std::shared_ptr<const CachedCircuit> circuit,
                             JobParams params) {
  auto job = std::make_shared<Job>();
  job->type = type;
  job->params = std::move(params);
  if (circuit) {
    job->circuit_key = circuit->key;
    job->circuit_name = circuit->name;
  }
  job->circuit = std::move(circuit);
  return job;
}

}  // namespace

std::string Job::describe(const char* flag, bool flag_value) const {
  const JobState st = state.load(std::memory_order_acquire);
  std::string out = "{\n";
  out += "  \"id\": \"" + util::JsonWriter::escape(id) + "\",\n";
  out += "  \"type\": \"" + std::string(job_type_name(type)) + "\",\n";
  out += "  \"state\": \"" + std::string(job_state_name(st)) + "\",\n";
  out += "  \"circuit\": \"" + util::JsonWriter::escape(circuit_key) + "\",\n";
  out += "  \"circuit_name\": \"" + util::JsonWriter::escape(circuit_name) + "\",\n";
  if (flag != nullptr) {
    out += std::string("  \"") + flag + "\": " + (flag_value ? "true" : "false") + ",\n";
  }
  if (!idempotency_key.empty()) {
    out += "  \"idempotency_key\": \"" + util::JsonWriter::escape(idempotency_key) + "\",\n";
  }
  if (st == JobState::kInterrupted) {
    // Interrupted is terminal but retryable: the same Idempotency-Key will
    // start a fresh attempt instead of deduplicating against this record.
    out += "  \"retryable\": true,\n";
  }
  out += "  \"deadline_ms\": " + fmt_double(params.deadline_ms) + ",\n";
  const std::lock_guard<std::mutex> lock(mu);
  if (started_ms > 0.0) {
    out += "  \"queue_wait_ms\": " + fmt_double(started_ms - submitted_ms) + ",\n";
    if (finished_ms > 0.0) {
      out += "  \"run_ms\": " + fmt_double(finished_ms - started_ms) + ",\n";
    }
  }
  if (st == JobState::kDone && !result_json.empty()) {
    out += "  \"result\": " + indent_blob(result_json, 2) + "\n";
  } else if (!error.empty()) {
    out += "  \"error\": \"" + util::JsonWriter::escape(error) + "\"\n";
  } else {
    out += "  \"error\": null\n";
  }
  out += "}";
  return out;
}

std::string describe_batch(const std::vector<std::shared_ptr<Job>>& jobs) {
  std::string out = "{\n  \"jobs\": [";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += indent_blob(jobs[i]->describe(), 4);
  }
  out += "\n  ]\n}";
  return out;
}

JobScheduler::JobScheduler(SchedulerOptions options, Metrics* metrics)
    : options_(options), metrics_(metrics) {}

JobScheduler::~JobScheduler() { stop(); }

void JobScheduler::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  const int n = runtime::threads();
  executors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) executors_.emplace_back([this] { executor_loop(); });
}

void JobScheduler::stop() {
  std::deque<std::shared_ptr<Job>> queued;
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    started_ = false;
    stopping_ = true;
    // Take the queue so no executor starts another job, and trip the running
    // ones; the executors drain cooperatively.
    queued.swap(queue_);
    if (metrics_) metrics_->queue_depth.set(0);
    for (auto& [id, job] : jobs_) {
      if (job->state.load(std::memory_order_acquire) == JobState::kRunning) {
        job->cancel.request_cancel();
      }
    }
    to_join = std::move(executors_);
    executors_.clear();
  }
  cv_.notify_all();
  // A graceful stop is an observed outcome, not a crash: the end records let
  // a restart on the same journal report these jobs cancelled instead of
  // re-admitting them.
  for (const auto& job : queued) cancel_queued(*job, "server shutting down");
  for (std::thread& t : to_join) t.join();
}

JobScheduler::SubmitOutcome JobScheduler::submit(JobType type,
                                                 std::shared_ptr<const CachedCircuit> circuit,
                                                 JobParams params,
                                                 std::string idempotency_key) {
  SubmitOutcome outcome;
  const bool inline_job = runs_at_admission(type);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || !started_) return outcome;
    // Idempotency first: a dedup hit must answer even when the queue is full
    // (that is the whole point of retrying with the same key after a 429).
    if (!idempotency_key.empty()) {
      auto it = idem_.find(idempotency_key);
      if (it != idem_.end()) {
        auto jit = jobs_.find(it->second);
        if (jit != jobs_.end() &&
            jit->second->state.load(std::memory_order_acquire) != JobState::kInterrupted) {
          if (metrics_) metrics_->idempotent_dedup_hits.inc();
          outcome.job = jit->second;
          outcome.deduplicated = true;
          return outcome;
        }
        // Interrupted (or vanished) match: fall through — the fresh
        // admission below replaces the mapping, giving retry semantics.
      }
    }
    if (!inline_job && queue_.size() >= options_.queue_depth) {
      if (metrics_) metrics_->jobs_rejected.inc();
      return outcome;
    }
    auto job = new_job(type, std::move(circuit), std::move(params));
    job->idempotency_key = std::move(idempotency_key);
    try {
      admit_locked(job, !inline_job);
    } catch (const JournalWriteError& e) {
      outcome.journal_error = e.what();
      return outcome;
    }
    if (metrics_) metrics_->jobs_submitted.inc();
    outcome.job = std::move(job);
  }
  if (inline_job) {
    run_inline(*outcome.job);
  } else {
    cv_.notify_one();
  }
  return outcome;
}

JobScheduler::BatchOutcome JobScheduler::submit_batch(std::vector<JobRequest> requests) {
  BatchOutcome outcome;
  if (requests.empty()) return outcome;
  const auto queued = static_cast<std::size_t>(
      std::count_if(requests.begin(), requests.end(),
                    [](const JobRequest& req) { return !runs_at_admission(req.type); }));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || !started_ || queue_.size() + queued > options_.queue_depth) {
      if (metrics_) metrics_->jobs_rejected.inc(static_cast<std::int64_t>(requests.size()));
      return outcome;
    }
    for (JobRequest& req : requests) {
      auto job = new_job(req.type, std::move(req.circuit), std::move(req.params));
      try {
        admit_locked(job, !runs_at_admission(job->type));
      } catch (const JournalWriteError& e) {
        // All-or-nothing in THIS process: the members admitted so far leave
        // again before mu_ is released, so nothing of the batch was visible
        // and the client's 503 is honest. Their admit records stay in the
        // journal; a crash-recovery would re-admit those as queued jobs
        // (at-least-once).
        for (const auto& admitted : outcome.jobs) {
          jobs_.erase(admitted->id);
          if (!runs_at_admission(admitted->type)) queue_.pop_back();
        }
        if (metrics_) metrics_->queue_depth.set(static_cast<std::int64_t>(queue_.size()));
        outcome.jobs.clear();
        outcome.journal_error = e.what();
        return outcome;
      }
      outcome.jobs.push_back(std::move(job));
    }
    if (metrics_) metrics_->jobs_submitted.inc(static_cast<std::int64_t>(outcome.jobs.size()));
  }
  if (queued > 0) cv_.notify_all();
  for (const auto& job : outcome.jobs) {
    if (runs_at_admission(job->type)) run_inline(*job);
  }
  return outcome;
}

void JobScheduler::recover(const util::JsonValue& admit,
                           std::shared_ptr<const CachedCircuit> circuit, bool started,
                           const util::JsonValue* end) {
  const JobState end_state =
      end ? job_state_from_name(end->string_or("state", "failed")) : JobState::kQueued;
  const util::JsonValue* params = admit.find("params");
  auto job = new_job(job_type_from_name(admit.string_or("type", "ssta")), std::move(circuit),
                     params ? job_params_from_json(*params) : JobParams{});
  job->id = admit.string_or("id", "");
  job->circuit_key = admit.string_or("circuit", "");
  job->idempotency_key = admit.string_or("idempotency_key", "");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    admit_locked(job, true);  // a journaled id: no admit record is written
  }
  if (end != nullptr) {
    // Terminal before the crash: pollable again with its exact pre-crash
    // result.
    finish(*job, end_state, end->string_or("result", ""), end->string_or("error", ""),
           Ending::kReplayed);
  } else if (started) {
    // Running at the crash: terminal but retryable. How far it got is
    // unknown, so it never silently re-runs (a size job mutates warm-start
    // state); the client re-submits under its idempotency key.
    finish(*job, JobState::kInterrupted, {},
           "interrupted: daemon crashed while this job was running (re-submit to retry)");
    return;  // counted as interrupted, not as recovered
  } else if (job->circuit == nullptr) {
    // Queued at the crash, but its circuit did not survive replay (torn tail
    // or eviction): a named failure, never a crash or a silent drop.
    finish(*job, JobState::kFailed, {},
           "recovery failed: circuit " + job->circuit_key +
               " is not in the recovered cache (journal truncated or entry evicted); "
               "re-upload it and re-submit");
  }
  if (metrics_) metrics_->jobs_recovered.inc();
}

void JobScheduler::admit_locked(const std::shared_ptr<Job>& job, bool queue) {
  if (job->id.empty()) {
    char idbuf[16];
    std::snprintf(idbuf, sizeof(idbuf), "job-%06d", next_id_++);
    job->id = idbuf;
    // Durable admission: the admit record must hit the journal before the
    // job becomes visible or acked. Appending under mu_ keeps journal order
    // identical to admission order, which recovery relies on.
    if (journal_ != nullptr) {
      try {
        journal_->append(admit_record(*job));
      } catch (const JournalWriteError&) {
        if (metrics_) metrics_->journal_write_errors.inc();
        throw;
      }
      if (metrics_) metrics_->journal_records_written.inc();
    }
  } else if (job->id.compare(0, 4, "job-") == 0) {
    // A journaled id: allocation resumes past it, so new admissions never
    // collide with journaled ones.
    next_id_ = std::max(next_id_, std::atoi(job->id.c_str() + 4) + 1);
  }
  job->submitted_ms = now_ms();  // a recovered job's queue wait restarts here
  jobs_[job->id] = job;
  if (!job->idempotency_key.empty()) idem_[job->idempotency_key] = job->id;
  if (!queue) return;
  queue_.push_back(job);
  if (metrics_) metrics_->queue_depth.set(static_cast<std::int64_t>(queue_.size()));
}

void JobScheduler::finish(Job& job, JobState state, std::string result, std::string error,
                          Ending ending) {
  job.circuit.reset();  // a finished job must not pin an evicted entry
  const double t_end = now_ms();
  // End record BEFORE the state flip: once a poller can observe "done", the
  // journal must already know — a crash between flip and append would
  // otherwise resurrect a completed job as interrupted after the client saw
  // its result.
  if (ending == Ending::kNew) journal_append_soft(end_record(job.id, state, result, error));
  double t_start;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.result_json = std::move(result);
    job.error = std::move(error);
    job.finished_ms = t_end;
    t_start = job.started_ms;
  }
  {
    // Into the history before the flip: a poller that sees the job finished
    // also sees it counted against kFinishedJobsKept. A job finished while
    // queued (cancelled, or settled by recovery) leaves the queue here.
    const std::lock_guard<std::mutex> lock(mu_);
    retire_locked(job);
    const auto queued = std::find_if(queue_.begin(), queue_.end(),
                                     [&](const auto& q) { return q.get() == &job; });
    if (queued != queue_.end()) {
      queue_.erase(queued);
      if (metrics_) metrics_->queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    }
  }
  job.state.store(state, std::memory_order_release);
  if (metrics_ == nullptr || ending == Ending::kReplayed) return;
  switch (state) {
    case JobState::kDone: metrics_->jobs_completed.inc(); break;
    case JobState::kCancelled: metrics_->jobs_cancelled.inc(); break;
    case JobState::kFailed: metrics_->jobs_failed.inc(); break;
    case JobState::kInterrupted: metrics_->jobs_interrupted.inc(); break;
    default: break;
  }
  if (t_start > 0.0) {  // it was claimed and ran
    metrics_->jobs_running.dec();
    metrics_->service_ms.record(t_end - t_start);
    if (job.type == JobType::kSize) {
      metrics_->service_sizing_ms.record(t_end - t_start);
    } else {
      metrics_->service_analysis_ms.record(t_end - t_start);
    }
  }
}

bool JobScheduler::cancel_queued(Job& job, std::string reason) {
  // Winning this exchange makes this thread the last reader of job.circuit:
  // claim_locked fails on a job it cannot claim, so nobody runs it.
  JobState expected = JobState::kQueued;
  if (!job.state.compare_exchange_strong(expected, JobState::kCancelled,
                                         std::memory_order_acq_rel)) {
    return false;
  }
  finish(job, JobState::kCancelled, {}, std::move(reason));
  return true;
}

void JobScheduler::retire_locked(const Job& job) {
  finished_.push_back(job.id);
  if (finished_.size() <= kFinishedJobsKept) return;
  const auto it = jobs_.find(finished_.front());
  finished_.pop_front();
  if (it == jobs_.end()) return;
  // The key may already name a newer attempt (an interrupted job's retry).
  const auto key = idem_.find(it->second->idempotency_key);
  if (key != idem_.end() && key->second == it->first) idem_.erase(key);
  jobs_.erase(it);
}

void JobScheduler::journal_append_soft(const std::string& payload) {
  if (journal_ == nullptr) return;
  try {
    journal_->append(payload);
    if (metrics_) metrics_->journal_records_written.inc();
  } catch (const JournalWriteError&) {
    if (metrics_) metrics_->journal_write_errors.inc();
  }
}

std::shared_ptr<Job> JobScheduler::get(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

bool JobScheduler::cancel(const std::string& id) {
  std::shared_ptr<Job> job = get(id);
  if (!job) return false;
  if (cancel_queued(*job, "cancelled before start")) return true;
  if (job->state.load(std::memory_order_acquire) != JobState::kRunning) {
    return false;  // already finished
  }
  job->cancel.request_cancel();
  return true;
}

std::size_t JobScheduler::queue_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t JobScheduler::executors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executors_.size();
}

void JobScheduler::executor_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    std::optional<Claim> claim;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      if (metrics_) metrics_->queue_depth.set(static_cast<std::int64_t>(queue_.size()));
      claim = claim_locked(*job);  // a DELETE may have cancelled it while queued
    }
    if (claim) run_job(*job, *claim);
  }
}

std::optional<JobScheduler::Claim> JobScheduler::claim_locked(Job& job) {
  JobState expected = JobState::kQueued;
  if (!job.state.compare_exchange_strong(expected, JobState::kRunning,
                                         std::memory_order_acq_rel)) {
    return std::nullopt;
  }
  // Stamped and counted under the scheduler lock, so start stamps follow
  // claim order and each claim sees every earlier one.
  const Claim claim{now_ms(), running_.fetch_add(1) == 0};
  const std::lock_guard<std::mutex> lock(job.mu);
  job.started_ms = claim.t_start;
  return claim;
}

void JobScheduler::run_inline(Job& job) {
  std::optional<Claim> claim;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) claim = claim_locked(job);
  }
  if (claim) {
    run_job(job, *claim);
  } else {
    // stop() began after admission; false when a DELETE already won the job.
    cancel_queued(job, "server shutting down");
  }
}

void JobScheduler::run_job(Job& job, Claim claim) {
  if (metrics_) {
    metrics_->jobs_running.inc();
    metrics_->queue_wait_ms.record(claim.t_start - job.submitted_ms);
  }
  journal_append_soft(start_record(job.id));

  if (runtime::fault::hit(runtime::fault::kServeExecutorCrash)) {
    // Simulated executor crash: the job dies mid-flight with NO terminal
    // journal record — exactly what a restart after SIGKILL would find. The
    // in-process outcome mirrors what recovery replay would surface.
    running_.fetch_sub(1);
    finish(job, JobState::kInterrupted, {},
           "interrupted: executor crashed (injected serve.executor.crash)", Ending::kCrash);
    return;
  }

  JobState state = JobState::kDone;
  std::string result;
  std::string error;
  try {
    result = compute(job, claim.alone);
  } catch (const runtime::OperationCancelled& e) {
    state = JobState::kCancelled;
    error = e.reason() == runtime::CancelReason::kDeadline
                ? std::string("deadline exceeded: ") + e.what()
                : std::string("cancelled: ") + e.what();
  } catch (const std::exception& e) {
    state = JobState::kFailed;
    error = e.what();
  }
  running_.fetch_sub(1);
  finish(job, state, std::move(result), std::move(error));
}

std::string JobScheduler::compute(Job& job, bool alone) {
  // Without a `jobs` value a job gets the daemon's setting if it started
  // alone, else one thread: pool workers atop busy executors slow every job.
  const runtime::ThreadBudget budget(job.params.jobs != 0 ? job.params.jobs : alone ? 0 : 1);

  // Analysis jobs run under one CancelScope on the thread that claimed them
  // (the admitting thread for ssta/sta, an executor for Monte Carlo): a
  // tripped token or expired deadline unwinds the sweep (no partial
  // results). Sizing routes the deadline through SizerOptions instead: the
  // sizer owns its CancelScope and degrades to an honest best-iterate
  // checkpoint (status ".../time-limit") rather than aborting — a
  // deadline'd size job is kDone, not kCancelled.
  const double deadline_seconds = job.params.deadline_ms / 1000.0;
  std::optional<runtime::CancelScope> scope;
  if (job.type != JobType::kSize) {
    scope.emplace(&job.cancel, deadline_seconds > 0.0
                                   ? runtime::Deadline::after_seconds(deadline_seconds)
                                   : runtime::Deadline::never());
  }

  // Derived (PATCH-created) entries carry an edited TimingView; jobs compute
  // against it through the same engines the CLI path runs on a Circuit's view,
  // so a patched result is bit-identical to re-uploading the edited netlist.
  const netlist::TimingView& view = job.circuit->timing_view();
  const ssta::SigmaModel sigma_model{job.params.sigma_kappa, job.params.sigma_offset};

  // Uniform analysis speed fill, then the entry's per-gate overrides.
  auto analysis_speed = [&] {
    std::vector<double> speed(static_cast<std::size_t>(view.num_nodes()), job.params.speed);
    for (const auto& [node, s] : job.circuit->speed_edits) {
      speed[static_cast<std::size_t>(node)] = s;
    }
    return speed;
  };

  // Names (corner, objective, method) were checked at admission.
  std::ostringstream os;
  util::JsonWriter w(os);
  switch (job.type) {
    case JobType::kSsta: {
      ssta::DelayCalculator calc(view, sigma_model);
      ssta::TimingReport report = ssta::run_ssta(calc, analysis_speed());
      w.begin_object();
      w.key("mu").value(report.circuit_delay.mu);
      w.key("sigma").value(report.circuit_delay.sigma());
      w.key("var").value(report.circuit_delay.var);
      w.key("mu_plus_3sigma").value(report.circuit_delay.quantile_offset(3.0));
      w.end_object();
      break;
    }
    case JobType::kSta: {
      ssta::Corner corner = ssta::Corner::kWorst;
      if (job.params.corner == "best") corner = ssta::Corner::kBest;
      if (job.params.corner == "typical") corner = ssta::Corner::kTypical;
      ssta::DelayCalculator calc(view, sigma_model);
      ssta::StaReport report = ssta::run_sta(view, calc.all_delays(analysis_speed()), corner);
      w.begin_object();
      w.key("corner").value(job.params.corner);
      w.key("circuit_delay").value(report.circuit_delay);
      w.end_object();
      break;
    }
    case JobType::kMonteCarlo: {
      ssta::DelayCalculator calc(view, sigma_model);
      ssta::MonteCarloOptions mc;
      mc.num_samples = job.params.mc_samples;
      mc.seed = job.params.mc_seed;
      ssta::MonteCarloResult mc_result =
          ssta::run_monte_carlo(view, calc.all_delays(analysis_speed()), mc);
      w.begin_object();
      w.key("samples").value(job.params.mc_samples);
      w.key("seed").value(static_cast<long>(job.params.mc_seed));
      w.key("mean").value(mc_result.mean);
      w.key("stddev").value(mc_result.stddev);
      w.key("min").value(mc_result.min);
      w.key("max").value(mc_result.max);
      w.key("q50").value(mc_result.quantile(0.50));
      w.key("q95").value(mc_result.quantile(0.95));
      w.key("q99").value(mc_result.quantile(0.99));
      w.end_object();
      break;
    }
    case JobType::kSize: {
      core::SizingSpec spec;
      spec.objective = job.params.objective == "area"
                           ? core::Objective::min_area()
                           : core::Objective::min_delay(job.params.sigma_weight);
      if (job.params.max_delay > 0.0) {
        spec.delay_constraint = core::DelayConstraint::at_most(
            job.params.max_delay, job.params.constraint_sigma_weight);
      }
      spec.max_speed = job.params.max_speed;
      spec.sigma_model = sigma_model;

      core::SizerOptions opt;
      opt.method = job.params.method == "full" ? core::Method::kFullSpace
                                               : core::Method::kReducedSpace;
      opt.time_limit_seconds = deadline_seconds;
      opt.cancel = &job.cancel;
      opt.max_retries = job.params.max_retries;

      // ECO resize (DESIGN.md §12): a reduced-space job on a derived entry
      // warm-starts from the nearest solved ancestor's sizes and
      // multiplier/penalty state when one exists. Everything else — uploads,
      // and full-space jobs on either kind of entry — solves cold.
      const core::Sizer sizer(view, spec);
      std::shared_ptr<const core::SizingWarmStart> warm;
      if (job.circuit->patched_view != nullptr && opt.method == core::Method::kReducedSpace) {
        warm = job.circuit->resolve_warm();
      }
      const bool warm_started = warm != nullptr;
      core::SizingResult r = warm_started ? sizer.resize(opt, *warm) : sizer.run(opt);
      if (opt.method == core::Method::kReducedSpace) {
        job.circuit->store_warm(
            std::make_shared<core::SizingWarmStart>(std::move(r.warm)));
      }
      if (metrics_ && r.from_checkpoint) metrics_->jobs_deadline_checkpoints.inc();
      w.begin_object();
      w.key("converged").value(r.converged);
      w.key("status").value(r.status);
      w.key("method").value(job.params.method);
      w.key("warm_started").value(warm_started);
      w.key("mu").value(r.circuit_delay.mu);
      w.key("sigma").value(r.circuit_delay.sigma());
      w.key("mu_plus_3sigma").value(r.circuit_delay.quantile_offset(3.0));
      w.key("sum_speed").value(r.sum_speed);
      w.key("area").value(r.area);
      w.key("objective_value").value(r.objective_value);
      w.key("constraint_violation").value(r.constraint_violation);
      w.key("iterations").value(r.iterations);
      w.key("outer_iterations").value(r.outer_iterations);
      w.key("value_evals").value(r.value_evals);
      w.key("gradient_evals").value(r.gradient_evals);
      w.key("retries_used").value(r.retries_used);
      w.key("from_checkpoint").value(r.from_checkpoint);
      w.key("checkpoint_outer").value(r.checkpoint_outer);
      w.key("speed").begin_array();
      for (double s : r.speed) w.value(s);
      w.end_array();
      w.end_object();
      break;
    }
  }
  return os.str();
}

}  // namespace statsize::serve
