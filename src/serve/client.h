// Keep-alive HTTP client for the serve API — the plumbing behind
// `statsize submit/poll/cancel` and the benches. One Client owns one
// connection and reconnects transparently when the daemon closed it (idle
// timeout, error response with Connection: close). A submit whose answer is
// already terminal (an ssta/sta job) is kept, so submit + wait on such a
// job is one exchange (DESIGN.md §11).
//
// Resilience (DESIGN.md §13): with ClientOptions::retries > 0 the client
// survives a hostile network — transport failures (reset, torn response,
// connect timeout) and backpressure statuses (429, 503) are retried under
// capped exponential backoff with DETERMINISTIC seeded jitter:
//
//   delay_ms(attempt) = min(cap, backoff * 2^attempt) * U,  U in [0.5, 1.0)
//
// where U comes from a SplitMix64 stream seeded by jitter_seed — the house
// RNG, never rand()/random_device (detlint DET002 still fires on those in
// serve/). A server-sent Retry-After overrides the computed delay. Retrying
// a POST /v1/jobs is safe when paired with an Idempotency-Key: the daemon
// answers the retry from the original admission.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "serve/http.h"
#include "util/json.h"

namespace statsize::serve {

/// Response body + status from one API exchange.
struct ApiResult {
  int status = 0;
  std::string body;

  bool ok() const { return status >= 200 && status < 300; }

  /// Parses the body (daemon responses are always JSON).
  util::JsonValue json() const { return util::parse_json(body); }
};

struct ClientOptions {
  int retries = 0;              ///< extra attempts after the first (0 = fail fast)
  double backoff_ms = 100.0;    ///< base delay before the first retry
  double backoff_cap_ms = 2000.0;
  std::uint64_t jitter_seed = 1;  ///< SplitMix64 seed for the jitter stream
  /// Bounds connect() (0 = OS default) and each recv (0 = block forever).
  double connect_timeout_seconds = 5.0;
  double recv_timeout_seconds = 0.0;
};

class Client {
 public:
  /// Lazy: connects on the first request.
  Client(std::string host, int port, ClientOptions options = {})
      : host_(std::move(host)), port_(port), options_(options) {}

  /// One logical exchange, retried per ClientOptions. Throws
  /// std::runtime_error when transport keeps failing after every retry;
  /// returns the last response when the server keeps answering 429/503.
  ApiResult request(const std::string& method, const std::string& target,
                    const std::string& body = "",
                    const std::map<std::string, std::string>& headers = {});

  /// The first `count` backoff delays (ms) this options struct produces —
  /// pure function of (options, attempt index), so tests can assert the
  /// schedule is deterministic and capped without sleeping through it.
  static std::vector<double> backoff_schedule(const ClientOptions& options, int count);

  /// Retries attempted by this client so far (transport + backpressure).
  long retries_used() const { return retries_used_; }

  // -- Typed wrappers over the v1 API --

  /// Upload circuit text; returns the cache key.
  std::string upload(const std::string& text, const std::string& format,
                     const std::string& name = "");

  /// Submit a job; `body_json` is the full POST /v1/jobs body. A non-empty
  /// `idempotency_key` is sent as the Idempotency-Key header, making retries
  /// (manual or automatic) submit-once. Returns the job id. Throws on
  /// non-2xx (message includes the server's error body).
  ///
  /// The answer is the job document. When it is terminal (an ssta/sta job
  /// runs at admission, so its answer is already done), the client keeps it:
  /// the next job(id) or wait(id) for that id returns it without a round
  /// trip, once. A terminal document never changes, so the kept copy is what
  /// a GET would return, plus the answer's "deduplicated" member.
  std::string submit(const std::string& body_json, const std::string& idempotency_key = "");

  /// GET /v1/jobs/<id>, or the document kept from its terminal submit answer.
  ApiResult job(const std::string& id);
  ApiResult cancel(const std::string& id) { return request("DELETE", "/v1/jobs/" + id); }
  ApiResult stats() { return request("GET", "/v1/stats"); }

  /// Polls job(id) every `poll_seconds` until the job leaves queued/running
  /// (or `timeout_seconds` elapses, 0 = forever). Returns the final job
  /// document; for a job kept from its submit answer that costs no request.
  util::JsonValue wait(const std::string& id, double poll_seconds = 0.05,
                       double timeout_seconds = 0.0);

 private:
  void ensure_connected();
  /// Next jittered backoff delay for `attempt` (0-based), advancing the
  /// jitter stream.
  double next_backoff_ms(int attempt);

  std::string host_;
  int port_;
  ClientOptions options_;
  std::uint64_t jitter_state_ = 0;
  bool jitter_seeded_ = false;
  long retries_used_ = 0;
  std::optional<HttpConnection> conn_;
  std::string kept_id_;    ///< job whose terminal submit answer is kept; empty = none
  std::string kept_body_;  ///< that answer's body
};

}  // namespace statsize::serve
