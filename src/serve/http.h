// Hand-rolled blocking-socket HTTP/1.1 plumbing for `statsize serve` — no
// dependencies, POSIX sockets only. Scope is deliberately narrow: requests
// and responses with Content-Length bodies (no chunked transfer, no TLS),
// keep-alive by default, case-insensitive headers, and hard limits on header
// and body sizes so a hostile peer cannot balloon the daemon.
//
// The same buffered-connection type serves both sides: the server reads
// requests and writes responses; the client (tools/statsize submit, the
// throughput bench) writes requests and reads responses.

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>

namespace statsize::serve {

struct HttpRequest {
  std::string method;   ///< uppercase, e.g. "POST"
  std::string target;   ///< origin-form, e.g. "/v1/jobs/job-000001"
  std::string version;  ///< "HTTP/1.1"
  std::map<std::string, std::string> headers;  ///< keys lowercased
  std::string body;

  /// Header lookup by lowercase name; empty string when absent.
  std::string_view header(const std::string& lowercase_name) const;

  /// True when the peer asked to close after this exchange.
  bool wants_close() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::map<std::string, std::string> headers;  ///< written as-is (plus Content-Length)
  std::string body;

  static HttpResponse json(int status, std::string body);
};

enum class ReadOutcome {
  kOk,        ///< one complete message parsed
  kClosed,    ///< orderly EOF before any bytes of a new message
  kTimeout,   ///< recv timed out (SO_RCVTIMEO) with no complete message yet
  kTooLarge,  ///< header (64 KiB) or body (32 MiB) limit exceeded
  kMalformed, ///< unparseable message (error string has details)
  kError,     ///< socket error
};

const char* outcome_name(ReadOutcome outcome);

/// Reason phrase for the handful of status codes the server emits.
const char* reason_phrase(int status);

/// A connected socket with a read buffer, usable for pipelined keep-alive
/// exchanges. Owns the fd (closed on destruction). Move-only.
class HttpConnection {
 public:
  explicit HttpConnection(int fd) : fd_(fd) {}
  ~HttpConnection() { close_fd(); }

  HttpConnection(HttpConnection&& other) noexcept;
  HttpConnection& operator=(HttpConnection&& other) noexcept;
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close_fd();

  /// Reads one full request (server side). On kMalformed, `error` (if
  /// non-null) carries a human-readable reason for the 400.
  ReadOutcome read_request(HttpRequest* out, std::string* error);

  /// Reads one full response (client side).
  ReadOutcome read_response(HttpResponse* out, std::string* error);

  /// Serializes and sends a response; adds Content-Length and Connection
  /// headers. Head and body leave in one sendmsg, so the peer is woken once
  /// per message. Returns false on socket error.
  bool write_response(const HttpResponse& response, bool keep_alive);

  /// Serializes and sends a request with a Content-Length body, head and
  /// body in one sendmsg. `headers` are written as-is after Host (e.g.
  /// {"Idempotency-Key", "..."}).
  bool write_request(const std::string& method, const std::string& target,
                     const std::string& body, const std::string& host,
                     const std::map<std::string, std::string>& headers = {});

 private:
  /// Sends head then body with sendmsg over two iovecs, resuming after
  /// short sends.
  bool write_all(std::string_view head, std::string_view body);
  /// Grows buf_ by one recv; translates errno into an outcome.
  ReadOutcome fill();
  /// Parses a complete head+body message out of buf_ if present.
  ReadOutcome try_parse(bool is_request, HttpRequest* request, HttpResponse* response,
                        std::string* error, bool* complete);
  ReadOutcome read_message(bool is_request, HttpRequest* request, HttpResponse* response,
                           std::string* error);

  int fd_ = -1;
  std::string buf_;  ///< received, not-yet-consumed bytes
};

/// Connects to 127.0.0.1:`port` (or `host`); throws std::runtime_error on
/// failure. `recv_timeout_seconds` sets SO_RCVTIMEO (0 = blocking forever);
/// `connect_timeout_seconds` bounds the connect() handshake itself via a
/// non-blocking connect + poll (0 = OS default).
HttpConnection connect_tcp(const std::string& host, int port, double recv_timeout_seconds = 0.0,
                           double connect_timeout_seconds = 0.0);

}  // namespace statsize::serve
