#include "serve/http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "runtime/fault.h"

namespace statsize::serve {

namespace {

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 32u * 1024 * 1024;

std::string lowercase(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses the header block `head` (request/status line + header lines, no
/// terminating blank line) into `headers` + the first line. Lines split on
/// '\n' with optional trailing '\r'.
bool parse_head(std::string_view head, std::string* first_line,
                std::map<std::string, std::string>* headers, std::string* error) {
  std::size_t pos = 0;
  bool first = true;
  while (pos <= head.size()) {
    const std::size_t eol = head.find('\n', pos);
    std::string_view line =
        eol == std::string_view::npos ? head.substr(pos) : head.substr(pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (first) {
      if (line.empty()) {
        *error = "empty start line";
        return false;
      }
      *first_line = std::string(line);
      first = false;
    } else if (!line.empty()) {
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos) {
        *error = "header line without ':'";
        return false;
      }
      const std::string key = lowercase(trim(line.substr(0, colon)));
      if (key.empty()) {
        *error = "empty header name";
        return false;
      }
      (*headers)[key] = std::string(trim(line.substr(colon + 1)));
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return !first;
}

bool parse_content_length(const std::map<std::string, std::string>& headers,
                          std::size_t* length, std::string* error) {
  *length = 0;
  const auto it = headers.find("content-length");
  if (it == headers.end()) return true;
  const std::string& text = it->second;
  if (text.empty()) {
    *error = "empty Content-Length";
    return false;
  }
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      *error = "non-numeric Content-Length '" + text + "'";
      return false;
    }
    value = value * 10 + static_cast<std::size_t>(c - '0');
    if (value > kMaxBodyBytes) {
      *error = "Content-Length exceeds limit";
      return false;  // caller maps the error text to kTooLarge
    }
  }
  *length = value;
  return true;
}

}  // namespace

std::string_view HttpRequest::header(const std::string& lowercase_name) const {
  const auto it = headers.find(lowercase_name);
  return it == headers.end() ? std::string_view() : std::string_view(it->second);
}

bool HttpRequest::wants_close() const { return lowercase(header("connection")) == "close"; }

HttpResponse HttpResponse::json(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.reason = reason_phrase(status);
  r.headers["Content-Type"] = "application/json";
  r.body = std::move(body);
  return r;
}

const char* outcome_name(ReadOutcome outcome) {
  switch (outcome) {
    case ReadOutcome::kOk: return "ok";
    case ReadOutcome::kClosed: return "closed";
    case ReadOutcome::kTimeout: return "timeout";
    case ReadOutcome::kTooLarge: return "too-large";
    case ReadOutcome::kMalformed: return "malformed";
    case ReadOutcome::kError: return "error";
  }
  return "?";
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

HttpConnection::HttpConnection(HttpConnection&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

HttpConnection& HttpConnection::operator=(HttpConnection&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = other.fd_;
    buf_ = std::move(other.buf_);
    other.fd_ = -1;
  }
  return *this;
}

void HttpConnection::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool HttpConnection::write_all(std::string_view head, std::string_view body) {
  iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                  {const_cast<char*>(body.data()), body.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (iov[0].iov_len + iov[1].iov_len > 0) {
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // A short send leaves the rest queued in the iovecs for the next call.
    std::size_t sent = static_cast<std::size_t>(n);
    for (iovec& v : iov) {
      const std::size_t k = std::min(sent, v.iov_len);
      v.iov_base = static_cast<char*>(v.iov_base) + k;
      v.iov_len -= k;
      sent -= k;
    }
  }
  return true;
}

ReadOutcome HttpConnection::fill() {
  char chunk[16384];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n > 0) {
    buf_.append(chunk, static_cast<std::size_t>(n));
    return ReadOutcome::kOk;
  }
  if (n == 0) return ReadOutcome::kClosed;
  if (errno == EINTR) return ReadOutcome::kOk;  // retry on next loop
  if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadOutcome::kTimeout;
  return ReadOutcome::kError;
}

ReadOutcome HttpConnection::try_parse(bool is_request, HttpRequest* request,
                                      HttpResponse* response, std::string* error,
                                      bool* complete) {
  *complete = false;
  // Locate the end of the header block: CRLFCRLF or bare LFLF.
  std::size_t head_end = std::string::npos;
  std::size_t body_start = 0;
  const std::size_t crlf = buf_.find("\r\n\r\n");
  const std::size_t lflf = buf_.find("\n\n");
  if (crlf != std::string::npos && (lflf == std::string::npos || crlf < lflf)) {
    head_end = crlf;
    body_start = crlf + 4;
  } else if (lflf != std::string::npos) {
    head_end = lflf;
    body_start = lflf + 2;
  }
  if (head_end == std::string::npos) {
    if (buf_.size() > kMaxHeaderBytes) return ReadOutcome::kTooLarge;
    return ReadOutcome::kOk;  // need more bytes
  }
  if (head_end > kMaxHeaderBytes) return ReadOutcome::kTooLarge;

  std::string first_line;
  std::map<std::string, std::string> headers;
  std::string parse_error;
  if (!parse_head(std::string_view(buf_).substr(0, head_end), &first_line, &headers,
                  &parse_error)) {
    if (error != nullptr) *error = parse_error;
    return ReadOutcome::kMalformed;
  }
  if (headers.count("transfer-encoding") != 0) {
    if (error != nullptr) *error = "Transfer-Encoding is not supported (use Content-Length)";
    return ReadOutcome::kMalformed;
  }
  std::size_t content_length = 0;
  if (!parse_content_length(headers, &content_length, &parse_error)) {
    if (parse_error == "Content-Length exceeds limit") return ReadOutcome::kTooLarge;
    if (error != nullptr) *error = parse_error;
    return ReadOutcome::kMalformed;
  }
  if (buf_.size() < body_start + content_length) return ReadOutcome::kOk;  // need more bytes

  // Split the start line.
  const std::size_t sp1 = first_line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                   : first_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    if (error != nullptr) *error = "malformed start line '" + first_line + "'";
    return ReadOutcome::kMalformed;
  }
  if (is_request) {
    request->method = first_line.substr(0, sp1);
    request->target = first_line.substr(sp1 + 1, sp2 - sp1 - 1);
    request->version = first_line.substr(sp2 + 1);
    if (request->version.rfind("HTTP/1.", 0) != 0) {
      if (error != nullptr) *error = "unsupported protocol '" + request->version + "'";
      return ReadOutcome::kMalformed;
    }
    request->headers = std::move(headers);
    request->body = buf_.substr(body_start, content_length);
  } else {
    response->reason = first_line.substr(sp2 + 1);
    const std::string code = first_line.substr(sp1 + 1, sp2 - sp1 - 1);
    response->status = 0;
    for (const char c : code) {
      if (c < '0' || c > '9') {
        if (error != nullptr) *error = "non-numeric status '" + code + "'";
        return ReadOutcome::kMalformed;
      }
      response->status = response->status * 10 + (c - '0');
    }
    response->headers = std::move(headers);
    response->body = buf_.substr(body_start, content_length);
  }
  buf_.erase(0, body_start + content_length);
  *complete = true;
  return ReadOutcome::kOk;
}

ReadOutcome HttpConnection::read_message(bool is_request, HttpRequest* request,
                                         HttpResponse* response, std::string* error) {
  while (true) {
    bool complete = false;
    const ReadOutcome parsed = try_parse(is_request, request, response, error, &complete);
    if (parsed != ReadOutcome::kOk) return parsed;
    if (complete) return ReadOutcome::kOk;
    const ReadOutcome filled = fill();
    if (filled == ReadOutcome::kClosed) {
      // EOF between messages is an orderly close; EOF mid-message is not.
      if (buf_.empty()) return ReadOutcome::kClosed;
      if (error != nullptr) *error = "connection closed mid-message";
      return ReadOutcome::kMalformed;
    }
    if (filled != ReadOutcome::kOk) return filled;
  }
}

ReadOutcome HttpConnection::read_request(HttpRequest* out, std::string* error) {
  *out = HttpRequest();
  return read_message(true, out, nullptr, error);
}

ReadOutcome HttpConnection::read_response(HttpResponse* out, std::string* error) {
  *out = HttpResponse();
  return read_message(false, nullptr, out, error);
}

bool HttpConnection::write_response(const HttpResponse& response, bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " + response.reason +
                     "\r\n";
  for (const auto& [key, value] : response.headers) {
    head += key + ": " + value + "\r\n";
  }
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  head += std::string("Connection: ") + (keep_alive ? "keep-alive" : "close") + "\r\n\r\n";
  if (runtime::fault::hit(runtime::fault::kServeWritePartial)) {
    // Injected torn response: send roughly half the serialized bytes, then
    // die. The peer sees a mid-message EOF (kMalformed), never a silently
    // truncated-but-parseable body — Content-Length guarantees that.
    const std::size_t half = (head.size() + response.body.size()) / 2;
    const std::size_t from_head = std::min(half, head.size());
    write_all(std::string_view(head).substr(0, from_head),
              std::string_view(response.body).substr(0, half - from_head));
    close_fd();
    return false;
  }
  return write_all(head, response.body);
}

bool HttpConnection::write_request(const std::string& method, const std::string& target,
                                   const std::string& body, const std::string& host,
                                   const std::map<std::string, std::string>& headers) {
  std::string head = method + " " + target + " HTTP/1.1\r\nHost: " + host + "\r\n";
  for (const auto& [key, value] : headers) {
    head += key + ": " + value + "\r\n";
  }
  if (!body.empty()) head += "Content-Type: application/json\r\n";
  head += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  return write_all(head, body);
}

HttpConnection connect_tcp(const std::string& host, int port, double recv_timeout_seconds,
                           double connect_timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("invalid IPv4 address '" + host + "'");
  }
  if (connect_timeout_seconds > 0.0) {
    // Bounded handshake: non-blocking connect, poll for writability, then
    // read SO_ERROR and restore blocking mode.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (errno != EINPROGRESS) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("connect to " + host + ":" + std::to_string(port) + ": " + err);
      }
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      const int timeout_ms = static_cast<int>(connect_timeout_seconds * 1000.0);
      const int ready = ::poll(&pfd, 1, timeout_ms < 1 ? 1 : timeout_ms);
      if (ready <= 0) {
        ::close(fd);
        throw std::runtime_error("connect to " + host + ":" + std::to_string(port) +
                                 ": timed out after " + std::to_string(connect_timeout_seconds) +
                                 "s");
      }
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
      if (soerr != 0) {
        const std::string err = std::strerror(soerr);
        ::close(fd);
        throw std::runtime_error("connect to " + host + ":" + std::to_string(port) + ": " + err);
      }
    }
    ::fcntl(fd, F_SETFL, flags);
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect to " + host + ":" + std::to_string(port) + ": " + err);
  }
  if (recv_timeout_seconds > 0.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(recv_timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>((recv_timeout_seconds - static_cast<double>(tv.tv_sec)) *
                                          1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return HttpConnection(fd);
}

}  // namespace statsize::serve
