#include "serve/client.h"

#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace statsize::serve {

namespace {

/// SplitMix64 — the house deterministic generator (same idiom as the Monte
/// Carlo sampler). Never rand()/random_device: backoff jitter must be
/// reproducible from jitter_seed alone (detlint DET002).
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform in [0, 1) from the top 53 bits.
double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

double jittered_delay_ms(const ClientOptions& options, int attempt, std::uint64_t& state) {
  double base = options.backoff_ms * std::ldexp(1.0, attempt);  // backoff * 2^attempt
  if (base > options.backoff_cap_ms) base = options.backoff_cap_ms;
  // Jitter in [0.5, 1.0): decorrelates a client fleet without ever shrinking
  // the delay below half the deterministic envelope.
  return base * (0.5 + 0.5 * uniform01(state));
}

/// Parses a Retry-After header (delta-seconds form only); <0 when absent or
/// unparseable.
double retry_after_seconds(const HttpResponse& response) {
  const auto it = response.headers.find("retry-after");
  if (it == response.headers.end() || it->second.empty()) return -1.0;
  double value = 0.0;
  for (const char c : it->second) {
    if (c < '0' || c > '9') return -1.0;  // HTTP-date form: ignore, use backoff
    value = value * 10.0 + (c - '0');
  }
  return value;
}

/// A job document's state once the job can no longer change.
bool ended(const std::string& state) { return state != "queued" && state != "running"; }

}  // namespace

void Client::ensure_connected() {
  if (conn_ && conn_->valid()) return;
  conn_.emplace(connect_tcp(host_, port_, options_.recv_timeout_seconds,
                            options_.connect_timeout_seconds));
}

double Client::next_backoff_ms(int attempt) {
  if (!jitter_seeded_) {
    jitter_state_ = options_.jitter_seed;
    jitter_seeded_ = true;
  }
  return jittered_delay_ms(options_, attempt, jitter_state_);
}

std::vector<double> Client::backoff_schedule(const ClientOptions& options, int count) {
  std::vector<double> delays;
  delays.reserve(static_cast<std::size_t>(count < 0 ? 0 : count));
  std::uint64_t state = options.jitter_seed;
  for (int attempt = 0; attempt < count; ++attempt) {
    delays.push_back(jittered_delay_ms(options, attempt, state));
  }
  return delays;
}

ApiResult Client::request(const std::string& method, const std::string& target,
                          const std::string& body,
                          const std::map<std::string, std::string>& headers) {
  const std::string host_header = host_ + ":" + std::to_string(port_);
  // One free same-attempt reconnect on orderly close (the daemon reaped an
  // idle keep-alive — not a failure, no backoff); everything else consumes a
  // retry with backoff.
  bool free_reconnect = true;
  int attempt = 0;
  std::string last_error;
  for (;;) {
    try {
      ensure_connected();
    } catch (const std::exception& e) {
      last_error = e.what();
      if (attempt >= options_.retries) {
        throw std::runtime_error(method + " " + target + " failed: " + last_error);
      }
      ++retries_used_;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(next_backoff_ms(attempt++)));
      continue;
    }
    bool wrote = conn_->write_request(method, target, body, host_header, headers);
    HttpResponse response;
    std::string error;
    ReadOutcome outcome = ReadOutcome::kError;
    if (wrote) outcome = conn_->read_response(&response, &error);

    if (wrote && outcome == ReadOutcome::kOk) {
      const auto it = response.headers.find("connection");
      if (it != response.headers.end() && it->second == "close") conn_.reset();
      const bool backpressure = response.status == 429 || response.status == 503;
      if (!backpressure || attempt >= options_.retries) {
        return ApiResult{response.status, std::move(response.body)};
      }
      // 429/503: the server told us to come back; honor its Retry-After when
      // present, capped by our own envelope so a hostile value cannot hang us.
      ++retries_used_;
      double delay_ms = next_backoff_ms(attempt++);
      const double server_seconds = retry_after_seconds(response);
      if (server_seconds >= 0.0) {
        delay_ms = server_seconds * 1000.0;
        if (delay_ms > options_.backoff_cap_ms) delay_ms = options_.backoff_cap_ms;
      }
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay_ms));
      continue;
    }

    // Transport failure: stale keep-alive, reset, torn response, timeout.
    conn_.reset();
    if (free_reconnect && (!wrote || outcome == ReadOutcome::kClosed)) {
      free_reconnect = false;  // stale keep-alive: plain reconnect, no backoff
      continue;
    }
    last_error = error.empty() ? outcome_name(wrote ? outcome : ReadOutcome::kError)
                               : error;
    if (attempt >= options_.retries) {
      throw std::runtime_error(method + " " + target + " failed: " + last_error);
    }
    ++retries_used_;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(next_backoff_ms(attempt++)));
  }
}

std::string Client::upload(const std::string& text, const std::string& format,
                           const std::string& name) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("format").value(format);
  if (!name.empty()) w.key("name").value(name);
  w.key("text").value(text);
  w.end_object();
  ApiResult result = request("POST", "/v1/circuits", os.str());
  if (!result.ok()) {
    throw std::runtime_error("upload rejected (" + std::to_string(result.status) +
                             "): " + result.body);
  }
  return result.json().string_or("key", "");
}

std::string Client::submit(const std::string& body_json, const std::string& idempotency_key) {
  std::map<std::string, std::string> headers;
  if (!idempotency_key.empty()) headers["Idempotency-Key"] = idempotency_key;
  ApiResult result = request("POST", "/v1/jobs", body_json, headers);
  if (!result.ok()) {
    throw std::runtime_error("submit rejected (" + std::to_string(result.status) +
                             "): " + result.body);
  }
  const util::JsonValue doc = result.json();
  std::string id = doc.string_or("id", "");
  if (ended(doc.string_or("state", ""))) {
    kept_id_ = id;
    kept_body_ = std::move(result.body);
  }
  return id;
}

ApiResult Client::job(const std::string& id) {
  if (!kept_id_.empty() && id == kept_id_) {
    kept_id_.clear();
    return ApiResult{200, std::move(kept_body_)};
  }
  return request("GET", "/v1/jobs/" + id);
}

util::JsonValue Client::wait(const std::string& id, double poll_seconds,
                             double timeout_seconds) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    ApiResult result = job(id);
    if (!result.ok()) {
      throw std::runtime_error("poll " + id + " failed (" +
                               std::to_string(result.status) + "): " + result.body);
    }
    util::JsonValue doc = result.json();
    const std::string state = doc.string_or("state", "");
    if (ended(state)) return doc;
    if (timeout_seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      if (elapsed > timeout_seconds) {
        throw std::runtime_error("timed out waiting for " + id + " (state " + state + ")");
      }
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(poll_seconds));
  }
}

}  // namespace statsize::serve
