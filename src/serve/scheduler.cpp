#include "serve/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

JobState job_state_from_name(const std::string& name) {
  for (JobState s : {JobState::kQueued, JobState::kRunning, JobState::kDone,
                     JobState::kCancelled, JobState::kFailed, JobState::kInterrupted}) {
    if (name == job_state_name(s)) return s;
  }
  throw std::invalid_argument("unknown job state: " + name);
}

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

namespace {

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

}  // namespace

void Job::set_circuit(std::shared_ptr<const CachedCircuit> entry) {
  circuit_key = entry ? entry->key : "";
  circuit_name = entry ? entry->name : "";
  circuit = std::move(entry);
}

std::string Job::describe() const {
  JobState st = state.load(std::memory_order_acquire);
  std::string result;
  std::string err;
  double sub_ms;
  double start_ms;
  double fin_ms;
  {
    std::lock_guard<std::mutex> lock(mu);
    result = result_json;
    err = error;
    sub_ms = submitted_ms;
    start_ms = started_ms;
    fin_ms = finished_ms;
  }

  std::string out = "{\n";
  out += "  \"id\": \"" + util::JsonWriter::escape(id) + "\",\n";
  out += "  \"type\": \"" + std::string(job_type_name(type)) + "\",\n";
  out += "  \"state\": \"" + std::string(job_state_name(st)) + "\",\n";
  out += "  \"circuit\": \"" + util::JsonWriter::escape(circuit_key) + "\",\n";
  out += "  \"circuit_name\": \"" + util::JsonWriter::escape(circuit_name) + "\",\n";
  if (!idempotency_key.empty()) {
    out += "  \"idempotency_key\": \"" + util::JsonWriter::escape(idempotency_key) + "\",\n";
  }
  if (st == JobState::kInterrupted) {
    // Interrupted is terminal but retryable: the same Idempotency-Key will
    // start a fresh attempt instead of deduplicating against this record.
    out += "  \"retryable\": true,\n";
  }
  out += "  \"deadline_ms\": " + fmt_double(params.deadline_ms) + ",\n";
  if (start_ms > 0.0) {
    out += "  \"queue_wait_ms\": " + fmt_double(start_ms - sub_ms) + ",\n";
  }
  if (fin_ms > 0.0) {
    out += "  \"run_ms\": " + fmt_double(fin_ms - start_ms) + ",\n";
  }
  if (st == JobState::kDone && !result.empty()) {
    out += "  \"result\": " + indent_blob(result, 2) + "\n";
  } else if (!err.empty()) {
    out += "  \"error\": \"" + util::JsonWriter::escape(err) + "\"\n";
  } else {
    out += "  \"error\": null\n";
  }
  out += "}";
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
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    started_ = false;
    stopping_ = true;
    // Flip every still-queued job to cancelled and trip the running ones; the
    // executors drain cooperatively.
    for (auto& job : queue_) {
      JobState expected = JobState::kQueued;
      if (job->state.compare_exchange_strong(expected, JobState::kCancelled,
                                             std::memory_order_acq_rel)) {
        job->circuit.reset();
        {
          std::lock_guard<std::mutex> jlock(job->mu);
          job->error = "server shutting down";
        }
        // Journal the shutdown cancellation so a restart on the same journal
        // reports these jobs cancelled instead of re-admitting them — a
        // graceful stop is an observed outcome, not a crash.
        journal_append_soft(end_record(job->id, JobState::kCancelled, "",
                                       "server shutting down"));
        if (metrics_) metrics_->jobs_cancelled.inc();
        retire_locked(*job);
      }
    }
    queue_.clear();
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
  for (std::thread& t : to_join) t.join();
}

JobScheduler::SubmitOutcome JobScheduler::submit(JobType type,
                                                 std::shared_ptr<const CachedCircuit> circuit,
                                                 JobParams params,
                                                 std::string idempotency_key) {
  SubmitOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || !started_) {
      outcome.overflow = true;
      return outcome;
    }
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
    if (queue_.size() >= options_.queue_depth) {
      if (metrics_) metrics_->jobs_rejected.inc();
      outcome.overflow = true;
      return outcome;
    }
    auto job = std::make_shared<Job>();
    char idbuf[16];
    std::snprintf(idbuf, sizeof(idbuf), "job-%06d", next_id_++);
    job->id = idbuf;
    job->type = type;
    job->params = std::move(params);
    job->set_circuit(std::move(circuit));
    job->idempotency_key = idempotency_key;
    job->submitted_ms = now_ms();
    // Durable admission: the admit record must hit the journal before the
    // job becomes visible or acked. Appending under mu_ keeps journal order
    // identical to admission order, which recovery relies on.
    if (journal_ != nullptr) {
      try {
        journal_->append(admit_record(*job));
        if (metrics_) metrics_->journal_records_written.inc();
      } catch (const JournalWriteError& e) {
        if (metrics_) metrics_->journal_write_errors.inc();
        outcome.journal_error = e.what();
        return outcome;
      }
    }
    jobs_.emplace(job->id, job);
    queue_.push_back(job);
    if (!idempotency_key.empty()) idem_[idempotency_key] = job->id;
    if (metrics_) {
      metrics_->jobs_submitted.inc();
      metrics_->queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    }
    outcome.job = std::move(job);
  }
  cv_.notify_one();
  return outcome;
}

JobScheduler::BatchOutcome JobScheduler::submit_batch(std::vector<JobRequest> requests) {
  BatchOutcome outcome;
  if (requests.empty()) return outcome;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || !started_ || queue_.size() + requests.size() > options_.queue_depth) {
      if (metrics_) metrics_->jobs_rejected.inc(static_cast<std::int64_t>(requests.size()));
      outcome.overflow = true;
      return outcome;
    }
    std::vector<std::shared_ptr<Job>> jobs;
    jobs.reserve(requests.size());
    const double submitted = now_ms();
    for (JobRequest& req : requests) {
      auto job = std::make_shared<Job>();
      char idbuf[16];
      std::snprintf(idbuf, sizeof(idbuf), "job-%06d", next_id_++);
      job->id = idbuf;
      job->type = req.type;
      job->params = std::move(req.params);
      job->set_circuit(std::move(req.circuit));
      job->submitted_ms = submitted;
      if (journal_ != nullptr) {
        try {
          journal_->append(admit_record(*job));
          if (metrics_) metrics_->journal_records_written.inc();
        } catch (const JournalWriteError& e) {
          // All-or-nothing in THIS process: nothing of the batch was made
          // visible, so the client's 503 is honest. Records already written
          // for earlier batch members stay in the journal; a crash-recovery
          // would re-admit those as queued jobs (at-least-once).
          if (metrics_) metrics_->journal_write_errors.inc();
          outcome.journal_error = e.what();
          return outcome;
        }
      }
      jobs_.emplace(job->id, job);
      jobs.push_back(std::move(job));
    }
    for (const auto& job : jobs) queue_.push_back(job);
    if (metrics_) {
      metrics_->jobs_submitted.inc(static_cast<std::int64_t>(jobs.size()));
      metrics_->queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    }
    outcome.jobs = std::move(jobs);
  }
  cv_.notify_all();
  return outcome;
}

void JobScheduler::restore(std::vector<RestoredJob> recovered) {
  std::lock_guard<std::mutex> lock(mu_);
  for (RestoredJob& r : recovered) {
    auto job = std::make_shared<Job>();
    job->id = r.id;
    job->type = r.type;
    job->params = std::move(r.params);
    job->circuit_key = std::move(r.circuit_key);
    job->circuit_name = r.circuit ? r.circuit->name : "";
    // Only a re-queued job runs again; a terminal one keeps just the key.
    if (r.state == JobState::kQueued) job->circuit = std::move(r.circuit);
    job->idempotency_key = r.idempotency_key;
    job->state.store(r.state, std::memory_order_release);
    {
      std::lock_guard<std::mutex> jlock(job->mu);
      job->result_json = std::move(r.result_json);
      job->error = std::move(r.error);
    }
    // Resume id allocation past every recovered id so new admissions never
    // collide with journaled ones.
    if (job->id.size() > 4 && job->id.compare(0, 4, "job-") == 0) {
      const int n = std::atoi(job->id.c_str() + 4);
      if (n >= next_id_) next_id_ = n + 1;
    }
    if (!job->idempotency_key.empty()) idem_[job->idempotency_key] = job->id;
    if (r.state == JobState::kQueued) {
      job->submitted_ms = now_ms();  // queue-wait clock restarts at recovery
      queue_.push_back(job);
    }
    jobs_[job->id] = job;
    if (r.state != JobState::kQueued) retire_locked(*job);
  }
  if (metrics_) metrics_->queue_depth.set(static_cast<std::int64_t>(queue_.size()));
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
  JobState expected = JobState::kQueued;
  if (job->state.compare_exchange_strong(expected, JobState::kCancelled,
                                         std::memory_order_acq_rel)) {
    // Winning the queued -> cancelled exchange makes this thread the last
    // reader of job->circuit: the executor skips a job it cannot claim.
    job->circuit.reset();
    {
      std::lock_guard<std::mutex> lock(job->mu);
      job->error = "cancelled before start";
      job->finished_ms = now_ms();
    }
    journal_append_soft(end_record(job->id, JobState::kCancelled, "", "cancelled before start"));
    if (metrics_) metrics_->jobs_cancelled.inc();
    const std::lock_guard<std::mutex> lock(mu_);
    retire_locked(*job);
    return true;
  }
  if (expected == JobState::kRunning) {
    job->cancel.request_cancel();
    return true;
  }
  return false;  // already finished
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
    double t_start = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      // Interactive jobs (ssta, sta) take microseconds; the oldest one goes
      // before any queued monte_carlo or size job. FIFO within a class.
      auto next = std::find_if(queue_.begin(), queue_.end(), [](const auto& j) {
        return j->type == JobType::kSsta || j->type == JobType::kSta;
      });
      if (next == queue_.end()) next = queue_.begin();
      job = std::move(*next);
      queue_.erase(next);
      if (metrics_) metrics_->queue_depth.set(static_cast<std::int64_t>(queue_.size()));
      // Claim: a DELETE may have flipped it to cancelled while queued.
      JobState expected = JobState::kQueued;
      if (!job->state.compare_exchange_strong(expected, JobState::kRunning,
                                              std::memory_order_acq_rel)) {
        continue;
      }
      // Stamped under the scheduler lock, so start stamps follow pop order
      // across executors.
      t_start = now_ms();
      std::lock_guard<std::mutex> jlock(job->mu);
      job->started_ms = t_start;
    }
    run_job(*job, t_start);
  }
}

void JobScheduler::run_job(Job& job, double t_start) {
  if (metrics_) {
    metrics_->jobs_running.inc();
    metrics_->queue_wait_ms.record(t_start - job.submitted_ms);
  }
  journal_append_soft(start_record(job.id));

  if (runtime::fault::hit(runtime::fault::kServeExecutorCrash)) {
    // Simulated executor crash: the job dies mid-flight with NO terminal
    // journal record — exactly what a restart after SIGKILL would find. The
    // in-process outcome mirrors what recovery replay would surface.
    job.circuit.reset();
    {
      std::lock_guard<std::mutex> lock(job.mu);
      job.error = "interrupted: executor crashed (injected serve.executor.crash)";
      job.finished_ms = now_ms();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      retire_locked(job);
    }
    job.state.store(JobState::kInterrupted, std::memory_order_release);
    if (metrics_) {
      metrics_->jobs_running.dec();
      metrics_->jobs_interrupted.inc();
    }
    return;
  }

  // The job's thread budget: caps this executor's parallel_for calls and
  // leaves the pool, and every later job, alone.
  const runtime::ThreadBudget budget(job.params.jobs);

  // Derived (PATCH-created) entries carry an edited TimingView; jobs compute
  // against it through the same engines the CLI path runs on a Circuit's view,
  // so a patched result is bit-identical to re-uploading the edited netlist.
  const netlist::TimingView& view = job.circuit->timing_view();
  const ssta::SigmaModel sigma_model{job.params.sigma_kappa, job.params.sigma_offset};
  const double deadline_seconds = job.params.deadline_ms / 1000.0;

  // Uniform analysis speed fill, then the entry's per-gate overrides.
  auto analysis_speed = [&] {
    std::vector<double> speed(static_cast<std::size_t>(view.num_nodes()), job.params.speed);
    for (const auto& [node, s] : job.circuit->speed_edits) {
      speed[static_cast<std::size_t>(node)] = s;
    }
    return speed;
  };

  JobState final_state = JobState::kDone;
  std::string result;
  std::string error;
  try {
    std::ostringstream os;
    util::JsonWriter w(os);
    switch (job.type) {
      case JobType::kSsta: {
        // Analysis jobs run under an outer CancelScope: a tripped token or
        // expired deadline unwinds the sweep (no partial results).
        runtime::CancelScope scope(&job.cancel,
                                   deadline_seconds > 0.0
                                       ? runtime::Deadline::after_seconds(deadline_seconds)
                                       : runtime::Deadline::never());
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
        runtime::CancelScope scope(&job.cancel,
                                   deadline_seconds > 0.0
                                       ? runtime::Deadline::after_seconds(deadline_seconds)
                                       : runtime::Deadline::never());
        ssta::Corner corner = ssta::Corner::kWorst;
        if (job.params.corner == "best") corner = ssta::Corner::kBest;
        else if (job.params.corner == "typical") corner = ssta::Corner::kTypical;
        else if (job.params.corner != "worst") {
          throw std::runtime_error("unknown corner: " + job.params.corner);
        }
        ssta::DelayCalculator calc(view, sigma_model);
        ssta::StaReport report = ssta::run_sta(view, calc.all_delays(analysis_speed()), corner);
        w.begin_object();
        w.key("corner").value(job.params.corner);
        w.key("circuit_delay").value(report.circuit_delay);
        w.end_object();
        break;
      }
      case JobType::kMonteCarlo: {
        runtime::CancelScope scope(&job.cancel,
                                   deadline_seconds > 0.0
                                       ? runtime::Deadline::after_seconds(deadline_seconds)
                                       : runtime::Deadline::never());
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
        // Sizing routes the deadline through SizerOptions instead of an
        // outer scope: the sizer owns its CancelScope and degrades to an
        // honest best-iterate checkpoint (status ".../time-limit") rather
        // than aborting — a deadline'd size job is kDone, not kCancelled.
        core::SizingSpec spec;
        if (job.params.objective == "delay") {
          spec.objective = core::Objective::min_delay(job.params.sigma_weight);
        } else if (job.params.objective == "area") {
          spec.objective = core::Objective::min_area();
        } else {
          throw std::runtime_error("unknown objective: " + job.params.objective);
        }
        if (job.params.max_delay > 0.0) {
          spec.delay_constraint = core::DelayConstraint::at_most(
              job.params.max_delay, job.params.constraint_sigma_weight);
        }
        spec.max_speed = job.params.max_speed;
        spec.sigma_model = sigma_model;

        core::SizerOptions opt;
        if (job.params.method == "full") opt.method = core::Method::kFullSpace;
        else if (job.params.method == "reduced") opt.method = core::Method::kReducedSpace;
        else throw std::runtime_error("unknown method: " + job.params.method);
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
    result = os.str();
  } catch (const runtime::OperationCancelled& e) {
    final_state = JobState::kCancelled;
    error = e.reason() == runtime::CancelReason::kDeadline
                ? std::string("deadline exceeded: ") + e.what()
                : std::string("cancelled: ") + e.what();
  } catch (const std::exception& e) {
    final_state = JobState::kFailed;
    error = e.what();
  }

  job.circuit.reset();  // a finished job must not pin an evicted entry
  const double t_end = now_ms();
  // Terminal record BEFORE the state flip: once a poller can observe "done",
  // the journal must already know — a crash between flip and append would
  // otherwise resurrect a completed job as interrupted after the client saw
  // its result.
  journal_append_soft(end_record(job.id, final_state, result, error));
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.result_json = std::move(result);
    job.error = std::move(error);
    job.finished_ms = t_end;
  }
  {
    // Into the history before the flip: a poller that sees the job finished
    // also sees it counted against kFinishedJobsKept.
    const std::lock_guard<std::mutex> lock(mu_);
    retire_locked(job);
  }
  job.state.store(final_state, std::memory_order_release);
  if (metrics_) {
    metrics_->jobs_running.dec();
    metrics_->service_ms.record(t_end - t_start);
    if (job.type == JobType::kSize) {
      metrics_->service_sizing_ms.record(t_end - t_start);
    } else {
      metrics_->service_analysis_ms.record(t_end - t_start);
    }
    switch (final_state) {
      case JobState::kDone: metrics_->jobs_completed.inc(); break;
      case JobState::kCancelled: metrics_->jobs_cancelled.inc(); break;
      case JobState::kFailed: metrics_->jobs_failed.inc(); break;
      default: break;
    }
  }
}

}  // namespace statsize::serve
