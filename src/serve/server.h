// The `statsize serve` daemon: a blocking-socket HTTP/1.1 front end over the
// CircuitCache and JobScheduler.
//
//   POST   /v1/circuits        upload BLIF/Verilog text -> content-hash key
//   GET    /v1/circuits        list cached circuits (most recently used first)
//   PATCH  /v1/circuits/<key>  ECO edit -> derived entry sharing the base
//                              circuit (key = "<base>+e-<edit hash>")
//   POST   /v1/jobs            submit ssta | sta | monte_carlo | size (an
//                              ssta/sta job is done in its 202); a JSON
//                              array batches jobs atomically (all admitted
//                              in order, or one 429 and none admitted)
//   GET    /v1/jobs/<id>       poll state + result
//   DELETE /v1/jobs/<id>       cooperative cancel
//   GET    /v1/stats           serve::Metrics as JSON
//   GET    /v1/healthz         liveness (200 even while draining)
//   GET    /v1/readyz          readiness: 503 + Retry-After once draining
//
// Every answer about a job (submit, each batch element, GET, DELETE) is the
// job's Job::describe() document, so a terminal job's answer carries its
// result; submit adds "deduplicated" and DELETE "cancel_requested". A
// mistyped request field answers 400 naming it; a JSON null reads as absent.
//
// Crash safety (DESIGN.md §13): with ServerOptions::journal_dir set, every
// upload/patch/admission/transition is appended to a durable journal before
// it is acknowledged, and start() replays the journal — circuits re-parsed
// through the same upload path, queued-at-crash jobs re-admitted in original
// order, running-at-crash jobs surfaced as `interrupted`. POST /v1/jobs
// honors an Idempotency-Key header so client retries never double-submit.
//
// Threading: one accept thread (SO_RCVTIMEO-paced so stop() is prompt) feeds
// a bounded fd queue; `io_threads` workers each own one connection at a time
// for its keep-alive lifetime. A worker runs the O(circuit) work of its own
// requests inline: upload parsing, PATCH, and the one sweep of an ssta/sta
// job, which the JobScheduler runs on the admitting thread. Monte Carlo and
// size jobs run on the scheduler's executors, one per thread of the process
// setting (see scheduler.h for why). Each job's cancel scope and thread
// budget live on the thread that runs it, for that job only, so no other job
// ever sees them.

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/circuit_cache.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "serve/scheduler.h"
#include "util/json.h"

namespace statsize::serve {

struct ServerOptions {
  int port = 0;          ///< 0 = ephemeral (read the bound port via port())
  int io_threads = 8;    ///< concurrent keep-alive connections served
  std::size_t cache_capacity = 16;
  SchedulerOptions scheduler;
  HttpLimits limits;
  /// Per-recv timeout on accepted sockets; bounds how long stop() waits for
  /// an idle keep-alive connection to notice shutdown.
  double io_recv_timeout_seconds = 0.2;
  /// Non-empty enables the durable job journal (created under this dir) and
  /// startup recovery replay from any journal already there.
  std::string journal_dir;
  FsyncPolicy journal_fsync = FsyncPolicy::kNone;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:<port>, starts the scheduler, accept thread, and IO
  /// workers. Throws std::runtime_error when the port cannot be bound.
  void start();

  /// Bound port (valid after start(); the interesting case is port 0).
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Stops accepting, drains IO workers (an ssta/sta job a worker is running
  /// finishes first), cancels queued + running jobs, joins everything.
  /// Idempotent.
  void stop();

  /// Marks the server draining: /v1/readyz starts answering 503 +
  /// Retry-After while /v1/healthz stays 200 and in-flight work proceeds.
  /// Called by the CLI's SIGINT/SIGTERM handler path ahead of stop() so load
  /// balancers stop routing before the listener goes away.
  void begin_drain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// The journal, when enabled (valid after start()); tests use it to
  /// inspect replay/truncation counters.
  Journal* journal() { return journal_.get(); }

  Metrics& metrics() { return metrics_; }
  CircuitCache& cache() { return cache_; }
  JobScheduler& scheduler() { return scheduler_; }

  /// Pure request dispatch (no sockets) — what the IO workers call, exposed
  /// so tests can exercise routing without a live connection.
  HttpResponse handle(const HttpRequest& request);

 private:
  void accept_loop();
  void io_loop();
  void serve_connection(int fd);
  /// Startup recovery: replays the opened journal's records — circuit/patch
  /// bodies re-driven through the upload/patch handlers (replaying_ set so
  /// they do not re-journal), jobs reconstructed and handed to
  /// JobScheduler::recover in journal order. Runs before any thread exists.
  void recover_from_journal();
  /// Journals a new upload ("circuit") or PATCH ("patch", from `base`) entry's
  /// raw request body for replay, then inserts the entry into `*inserted` and
  /// updates the cache metrics. On a journal failure it returns the 503 and
  /// inserts nothing: a cached entry would make the retry skip journaling.
  std::optional<HttpResponse> journal_and_insert(const char* kind, const std::string& base,
                                                 const std::string& body,
                                                 std::shared_ptr<const CachedCircuit> entry,
                                                 CircuitCache::InsertResult* inserted);

  HttpResponse handle_upload(const HttpRequest& request);
  HttpResponse handle_list_circuits();
  HttpResponse handle_patch(const HttpRequest& request, const std::string& key);
  HttpResponse handle_submit(const HttpRequest& request);
  HttpResponse handle_submit_batch(const util::JsonValue& body);
  /// Why a job request was refused: its HTTP status (0 = accepted) and the
  /// error message.
  struct Rejection {
    int status = 0;
    std::string message;
  };
  /// Parses one job-request object (a whole POST /v1/jobs body or one batch
  /// element) into `out`, checking every name and range, so an admitted job
  /// can always run.
  Rejection parse_job_request(const util::JsonValue& body, JobScheduler::JobRequest* out);
  HttpResponse handle_job_get(const std::string& id);
  HttpResponse handle_job_delete(const std::string& id);
  HttpResponse handle_stats();

  ServerOptions options_;
  Metrics metrics_;
  CircuitCache cache_;
  JobScheduler scheduler_;
  std::unique_ptr<Journal> journal_;
  bool replaying_ = false;  ///< true only inside recover_from_journal()

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  std::thread accept_thread_;
  std::vector<std::thread> io_threads_;

  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::deque<int> conn_queue_;
};

}  // namespace statsize::serve
