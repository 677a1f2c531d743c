#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "netlist/blif.h"
#include "runtime/fault.h"
#include "netlist/timing_view.h"
#include "netlist/verilog.h"
#include "util/json.h"

namespace statsize::serve {

namespace {

std::string error_body(const std::string& message) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("error").value(message);
  w.end_object();
  return os.str();
}

std::string parse_error_body(const util::JsonParseError& e) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("error").value(std::string("invalid JSON body: ") + e.what());
  w.key("line").value(static_cast<int>(e.line()));
  w.key("column").value(static_cast<int>(e.column()));
  w.end_object();
  return os.str();
}

/// A 429 or 503 the client should retry after a second.
HttpResponse retry_later(int status, const std::string& message) {
  HttpResponse response = HttpResponse::json(status, error_body(message));
  response.headers["Retry-After"] = "1";
  return response;
}

void set_recv_timeout(int fd, double seconds) {
  if (seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Path without the query string.
std::string_view path_of(const std::string& target) {
  const std::size_t q = target.find('?');
  return std::string_view(target).substr(0, q == std::string::npos ? target.size() : q);
}

/// Round-trippable double for the canonical edit serialization hashed into a
/// derived entry's key: %.17g is injective on finite doubles, so two edit
/// sets collide only if they are value-identical.
std::string fmt_g17(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return std::string(buf);
}

/// One parsed PATCH edit: optional speed override + optional delay-model
/// parameter overrides (absent fields keep the node's current values).
struct ParsedEdit {
  netlist::NodeId node = 0;
  bool has_speed = false;
  double speed = 1.0;
  bool has_t_int = false, has_c = false, has_c_in = false, has_area = false;
  double t_int = 0.0, c = 0.0, c_in = 0.0, area = 0.0;
};

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      cache_(options.cache_capacity),
      scheduler_(options.scheduler, &metrics_) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stopping_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);

  // Durability first: open (or resume) the journal and replay it before any
  // socket exists, so recovered state is fully installed by the time the
  // first request can arrive. A stop()/start() cycle on the same Server
  // keeps the already-open journal (its state was never lost).
  if (!options_.journal_dir.empty() && journal_ == nullptr) {
    journal_ = std::make_unique<Journal>(
        JournalOptions{options_.journal_dir, options_.journal_fsync});
    scheduler_.set_journal(journal_.get());
    recover_from_journal();
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("bind(127.0.0.1:") +
                             std::to_string(options_.port) + ") failed: " +
                             std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  // Pace accept() so the accept loop can notice stop() without a wakeup fd.
  set_recv_timeout(listen_fd_, 0.2);

  metrics_.started_at_unix = now();
  scheduler_.start();
  running_.store(true, std::memory_order_release);

  accept_thread_ = std::thread([this] { accept_loop(); });
  const int workers = options_.io_threads < 1 ? 1 : options_.io_threads;
  io_threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    io_threads_.emplace_back([this] { io_loop(); });
  }
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  conn_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& t : io_threads_) {
    conn_cv_.notify_all();
    if (t.joinable()) t.join();
  }
  io_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    while (!conn_queue_.empty()) {
      ::close(conn_queue_.front());
      conn_queue_.pop_front();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  scheduler_.stop();
  running_.store(false, std::memory_order_release);
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;  // transient (EMFILE etc.): keep the daemon alive
    }
    if (runtime::fault::hit(runtime::fault::kServeAccept)) {
      // Injected accept failure: the peer sees its freshly established
      // connection reset before a single byte — the client must reconnect.
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    set_recv_timeout(fd, options_.io_recv_timeout_seconds);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_queue_.push_back(fd);
    }
    conn_cv_.notify_one();
  }
}

void Server::io_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(conn_mu_);
      conn_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !conn_queue_.empty();
      });
      if (stopping_.load(std::memory_order_acquire) && conn_queue_.empty()) return;
      if (conn_queue_.empty()) continue;
      fd = conn_queue_.front();
      conn_queue_.pop_front();
    }
    serve_connection(fd);
  }
}

void Server::serve_connection(int fd) {
  HttpConnection conn(fd);
  while (!stopping_.load(std::memory_order_acquire)) {
    HttpRequest request;
    std::string parse_error;
    const ReadOutcome outcome =
        conn.read_request(&request, &parse_error, options_.limits);
    if (outcome == ReadOutcome::kTimeout) continue;  // idle keep-alive; recheck stop
    if (outcome == ReadOutcome::kClosed || outcome == ReadOutcome::kError) return;
    if (outcome == ReadOutcome::kTooLarge) {
      metrics_.http_requests.inc();
      metrics_.http_bad_requests.inc();
      conn.write_response(
          HttpResponse::json(413, error_body("request exceeds size limits")), false);
      return;
    }
    if (outcome == ReadOutcome::kMalformed) {
      metrics_.http_requests.inc();
      metrics_.http_bad_requests.inc();
      conn.write_response(
          HttpResponse::json(400, error_body("malformed HTTP request: " + parse_error)),
          false);
      return;
    }

    if (runtime::fault::hit(runtime::fault::kServeRead)) {
      // Injected read failure: drop the connection after a fully parsed
      // request, before any handling — the client cannot tell whether the
      // request took effect, which is exactly what Idempotency-Key is for.
      metrics_.http_requests.inc();
      return;
    }

    metrics_.http_requests.inc();
    HttpResponse response;
    try {
      response = handle(request);
    } catch (const std::exception& e) {
      response = HttpResponse::json(500, error_body(std::string("internal error: ") + e.what()));
    }
    if (response.status >= 500) metrics_.http_server_errors.inc();
    else if (response.status >= 400) metrics_.http_bad_requests.inc();

    const bool keep_alive = !request.wants_close() && !stopping_.load(std::memory_order_acquire);
    if (!conn.write_response(response, keep_alive)) return;
    if (!keep_alive) return;
  }
}

HttpResponse Server::handle(const HttpRequest& request) {
  const std::string_view path = path_of(request.target);

  if (path == "/v1/healthz" && request.method == "GET") {
    // Liveness, not readiness: stays 200 while draining so orchestrators do
    // not kill a daemon that is finishing in-flight work.
    return HttpResponse::json(200, "{\n  \"ok\": true\n}");
  }
  if (path == "/v1/readyz" && request.method == "GET") {
    if (draining_.load(std::memory_order_acquire)) {
      return retry_later(503, "draining: server is shutting down");
    }
    return HttpResponse::json(200, "{\n  \"ready\": true\n}");
  }
  if (path == "/v1/stats" && request.method == "GET") return handle_stats();
  if (path == "/v1/circuits") {
    if (request.method == "POST") return handle_upload(request);
    if (request.method == "GET") return handle_list_circuits();
    return HttpResponse::json(405, error_body("method not allowed"));
  }
  if (path.rfind("/v1/circuits/", 0) == 0) {
    const std::string key(path.substr(std::string_view("/v1/circuits/").size()));
    if (key.empty()) return HttpResponse::json(404, error_body("missing circuit key"));
    if (request.method == "PATCH") return handle_patch(request, key);
    return HttpResponse::json(405, error_body("method not allowed"));
  }
  if (path == "/v1/jobs" && request.method == "POST") return handle_submit(request);
  if (path.rfind("/v1/jobs/", 0) == 0) {
    const std::string id(path.substr(std::string_view("/v1/jobs/").size()));
    if (id.empty()) return HttpResponse::json(404, error_body("missing job id"));
    if (request.method == "GET") return handle_job_get(id);
    if (request.method == "DELETE") return handle_job_delete(id);
    return HttpResponse::json(405, error_body("method not allowed"));
  }
  return HttpResponse::json(404, error_body("no such endpoint: " + std::string(path)));
}

std::optional<HttpResponse> Server::journal_and_insert(const char* kind, const std::string& base,
                                                       const std::string& body,
                                                       std::shared_ptr<const CachedCircuit> entry,
                                                       CircuitCache::InsertResult* inserted) {
  if (journal_ != nullptr && !replaying_) {
    std::ostringstream os;
    util::JsonWriter w(os);
    w.begin_object();
    w.key("kind").value(kind);
    if (!base.empty()) w.key("base").value(base);
    w.key("body").value(body);
    w.end_object();
    try {
      journal_->append(os.str());
      metrics_.journal_records_written.inc();
    } catch (const JournalWriteError& e) {
      metrics_.journal_write_errors.inc();
      return retry_later(503, std::string(kind) + " not durable (journal write failed: " +
                                  e.what() + "); retry");
    }
  }
  *inserted = cache_.insert(std::move(entry));  // existed: a concurrent twin won the race
  if (inserted->evicted > 0) {
    metrics_.cache_evictions.inc(static_cast<std::int64_t>(inserted->evicted));
  }
  metrics_.circuits_cached.set(static_cast<std::int64_t>(cache_.size()));
  return std::nullopt;
}

HttpResponse Server::handle_upload(const HttpRequest& request) {
  util::JsonValue body;
  try {
    body = util::parse_json(request.body);
  } catch (const util::JsonParseError& e) {
    return HttpResponse::json(400, parse_error_body(e));
  }
  if (!body.is_object()) {
    return HttpResponse::json(400, error_body("body must be a JSON object"));
  }
  const util::JsonValue* text = body.find("text");
  if (text == nullptr || !text->is_string()) {
    return HttpResponse::json(400, error_body("missing string field: text"));
  }
  std::string format;
  std::string name;
  try {
    format = body.string_or("format", "blif");
    name = body.string_or("name", "");
  } catch (const std::exception& e) {
    return HttpResponse::json(400, error_body(std::string("bad upload field: ") + e.what()));
  }
  if (format != "blif" && format != "verilog") {
    return HttpResponse::json(400, error_body("unknown format: " + format +
                                              " (expected blif | verilog)"));
  }

  const std::string key = circuit_key(format, text->as_string());
  CircuitCache::InsertResult lookup{cache_.find(key)};
  lookup.existed = lookup.entry != nullptr;
  if (lookup.existed) {
    metrics_.cache_hits.inc();
  } else {
    metrics_.cache_misses.inc();
    auto fresh = std::make_shared<CachedCircuit>();
    try {
      std::istringstream in(text->as_string());
      netlist::Circuit circuit =
          format == "blif" ? netlist::read_blif(in) : netlist::read_verilog(in);
      fresh->num_gates = circuit.num_gates();
      fresh->num_inputs = circuit.num_inputs();
      fresh->num_outputs = static_cast<int>(circuit.outputs().size());
      fresh->depth = circuit.depth();
      fresh->num_levels = circuit.view().num_levels();
      fresh->circuit = std::make_shared<netlist::Circuit>(std::move(circuit));
    } catch (const std::exception& e) {
      return HttpResponse::json(
          400, error_body(std::string("circuit parse failed: ") + e.what()));
    }
    fresh->key = key;
    fresh->name = name;
    fresh->format = format;
    if (auto failed = journal_and_insert("circuit", "", request.body, std::move(fresh), &lookup)) {
      return *failed;
    }
  }

  const std::shared_ptr<const CachedCircuit>& entry = lookup.entry;
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("key").value(entry->key);
  w.key("cached").value(lookup.existed);
  w.key("name").value(entry->name);
  w.key("format").value(entry->format);
  w.key("gates").value(entry->num_gates);
  w.key("inputs").value(entry->num_inputs);
  w.key("outputs").value(entry->num_outputs);
  w.key("depth").value(entry->depth);
  w.key("levels").value(entry->num_levels);
  w.key("evicted").value(static_cast<long>(lookup.evicted));
  w.end_object();
  return HttpResponse::json(lookup.existed ? 200 : 201, os.str());
}

HttpResponse Server::handle_patch(const HttpRequest& request, const std::string& key) {
  util::JsonValue body;
  try {
    body = util::parse_json(request.body);
  } catch (const util::JsonParseError& e) {
    return HttpResponse::json(400, parse_error_body(e));
  }
  if (!body.is_object()) {
    return HttpResponse::json(400, error_body("body must be a JSON object"));
  }
  const util::JsonValue* edits_json = body.find("edits");
  if (edits_json == nullptr || !edits_json->is_array() || edits_json->items().empty()) {
    return HttpResponse::json(
        400, error_body("missing field: edits (non-empty array of edit objects)"));
  }

  std::shared_ptr<const CachedCircuit> base = cache_.find(key);
  if (!base) {
    metrics_.cache_misses.inc();
    return HttpResponse::json(
        404, error_body("unknown circuit key: " + key + " (upload it first)"));
  }
  metrics_.cache_hits.inc();
  std::string name;
  try {
    name = body.string_or("name", base->name);
  } catch (const std::exception& e) {
    return HttpResponse::json(400, error_body(std::string("bad patch field: ") + e.what()));
  }
  const netlist::TimingView& base_view = base->timing_view();

  // Parse + validate every edit before building anything; the canonical
  // serialization hashed into the derived key is built alongside.
  std::vector<ParsedEdit> edits;
  edits.reserve(edits_json->items().size());
  std::string canon;
  for (std::size_t i = 0; i < edits_json->items().size(); ++i) {
    const util::JsonValue& e = edits_json->items()[i];
    const std::string at = "edits[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      return HttpResponse::json(400, error_body(at + " must be an object"));
    }
    const util::JsonValue* node = e.find("node");
    if (node == nullptr || !node->is_number()) {
      return HttpResponse::json(400, error_body(at + ": missing integer field: node"));
    }
    ParsedEdit parsed;
    try {
      parsed.node = static_cast<netlist::NodeId>(node->as_int());
    } catch (const std::exception&) {
      return HttpResponse::json(400, error_body(at + ".node must be an integer NodeId"));
    }
    if (parsed.node < 0 || parsed.node >= static_cast<netlist::NodeId>(base_view.num_nodes()) ||
        !base_view.is_gate(parsed.node)) {
      return HttpResponse::json(
          400, error_body(at + ".node " + std::to_string(parsed.node) +
                          " is not a gate of circuit " + key));
    }
    canon += "n" + std::to_string(parsed.node);
    auto take = [&](const char* field, bool& has, double& value,
                    const char* tag) -> const char* {
      const util::JsonValue* v = e.find(field);
      if (v == nullptr) return nullptr;
      if (!v->is_number()) return "must be a number";
      value = v->as_number();
      if (!std::isfinite(value)) return "must be finite";
      has = true;
      canon += std::string(";") + tag + "=" + fmt_g17(value);
      return nullptr;
    };
    struct Field { const char* name; bool& has; double& value; const char* tag; };
    const Field fields[] = {{"speed", parsed.has_speed, parsed.speed, "s"},
                            {"t_int", parsed.has_t_int, parsed.t_int, "t"},
                            {"c", parsed.has_c, parsed.c, "c"},
                            {"c_in", parsed.has_c_in, parsed.c_in, "i"},
                            {"area", parsed.has_area, parsed.area, "a"}};
    for (const Field& f : fields) {
      if (const char* err = take(f.name, f.has, f.value, f.tag)) {
        return HttpResponse::json(400, error_body(at + "." + f.name + " " + err));
      }
    }
    if (parsed.has_speed && parsed.speed <= 0.0) {
      return HttpResponse::json(400, error_body(at + ".speed must be positive"));
    }
    if (!parsed.has_speed && !parsed.has_t_int && !parsed.has_c && !parsed.has_c_in &&
        !parsed.has_area) {
      return HttpResponse::json(
          400, error_body(at + " edits nothing (expected speed | t_int | c | c_in | area)"));
    }
    edits.push_back(parsed);
    canon += "\n";
  }

  char suffix[8 + 16 + 1];
  std::snprintf(suffix, sizeof(suffix), "+e-%016llx",
                static_cast<unsigned long long>(fnv1a64(canon)));
  const std::string derived_key = base->key + suffix;

  CircuitCache::InsertResult lookup{cache_.find(derived_key)};
  lookup.existed = lookup.entry != nullptr;
  if (lookup.existed) {
    metrics_.cache_hits.inc();
  } else {
    auto fresh = std::make_shared<CachedCircuit>();
    auto view = std::make_shared<netlist::TimingView>(base_view);
    fresh->speed_edits = base->speed_edits;
    try {
      for (const ParsedEdit& e : edits) {
        if (e.has_t_int || e.has_c || e.has_c_in || e.has_area) {
          netlist::NodeParams p = view->node_params(e.node);
          if (e.has_t_int) p.t_int = e.t_int;
          if (e.has_c) p.c = e.c;
          if (e.has_c_in) p.c_in = e.c_in;
          if (e.has_area) p.area = e.area;
          view->update_node_params(e.node, p);
        }
        if (e.has_speed) fresh->speed_edits.emplace_back(e.node, e.speed);
      }
    } catch (const std::exception& e) {
      return HttpResponse::json(400, error_body(std::string("edit rejected: ") + e.what()));
    }
    fresh->key = derived_key;
    fresh->name = std::move(name);
    fresh->format = base->format;
    fresh->circuit = base->circuit;
    fresh->num_gates = base->num_gates;
    fresh->num_inputs = base->num_inputs;
    fresh->num_outputs = base->num_outputs;
    fresh->depth = base->depth;
    fresh->num_levels = base->num_levels;
    fresh->base = base;
    fresh->patched_view = std::move(view);
    fresh->num_edits = base->num_edits + edits.size();
    if (auto failed = journal_and_insert("patch", base->key, request.body, std::move(fresh),
                                         &lookup)) {
      return *failed;
    }
  }

  const std::shared_ptr<const CachedCircuit>& entry = lookup.entry;
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("key").value(entry->key);
  w.key("base").value(base->key);
  w.key("cached").value(lookup.existed);
  w.key("name").value(entry->name);
  w.key("edits_applied").value(static_cast<long>(edits.size()));
  w.key("num_edits").value(static_cast<long>(entry->num_edits));
  w.key("gates").value(entry->num_gates);
  w.end_object();
  return HttpResponse::json(lookup.existed ? 200 : 201, os.str());
}

HttpResponse Server::handle_list_circuits() {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("capacity").value(static_cast<long>(cache_.capacity()));
  w.key("circuits").begin_array();
  for (const auto& entry : cache_.snapshot()) {
    w.begin_object();
    w.key("key").value(entry->key);
    w.key("name").value(entry->name);
    w.key("format").value(entry->format);
    w.key("gates").value(entry->num_gates);
    w.key("depth").value(entry->depth);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return HttpResponse::json(200, os.str());
}

Server::Rejection Server::parse_job_request(const util::JsonValue& body,
                                            JobScheduler::JobRequest* out) {
  if (!body.is_object()) return {400, "job request must be a JSON object"};
  std::string key;
  std::string type;
  try {
    key = body.string_or("circuit", "");
    type = body.string_or("type", "ssta");
  } catch (const std::exception& e) {
    return {400, std::string("bad job field: ") + e.what()};
  }
  if (key.empty()) return {400, "missing field: circuit (cache key)"};
  try {
    out->type = job_type_from_name(type);
  } catch (const std::invalid_argument& e) {
    return {400, std::string(e.what()) + " (expected ssta | sta | monte_carlo | size)"};
  }

  out->circuit = cache_.find(key);
  if (!out->circuit) {
    metrics_.cache_misses.inc();
    return {404, "unknown circuit key: " + key + " (upload it first)"};
  }
  metrics_.cache_hits.inc();

  JobParams& params = out->params;
  params = JobParams{};
  // Integer params are range-checked at full width, before they narrow to
  // their field; the first one out of range is named in the 400.
  std::string out_of_range;
  auto int_param = [&](const char* key, auto& field, std::int64_t lo, std::int64_t hi) {
    const std::int64_t v = body.int_or(key, static_cast<std::int64_t>(field));
    if (v >= lo && v <= hi) {
      field = static_cast<std::remove_reference_t<decltype(field)>>(v);
    } else if (out_of_range.empty()) {
      out_of_range = std::string(key) + " (expected " + std::to_string(lo) + " to " +
                     std::to_string(hi) + ")";
    }
  };
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  // JSON numbers are doubles, exact up to 2^53, and 2^53 + 1 reads as 2^53:
  // a seed must stay below 2^53 to run as the integer the client wrote.
  constexpr std::int64_t kSeedMax = (std::int64_t{1} << 53) - 1;
  try {
    params.deadline_ms = body.number_or("deadline_ms", params.deadline_ms);
    int_param("jobs", params.jobs, 0, 1024);
    params.sigma_kappa = body.number_or("sigma_kappa", params.sigma_kappa);
    params.sigma_offset = body.number_or("sigma_offset", params.sigma_offset);
    params.speed = body.number_or("speed", params.speed);
    params.corner = body.string_or("corner", params.corner);
    int_param("samples", params.mc_samples, 1, kIntMax);
    int_param("seed", params.mc_seed, 0, kSeedMax);
    params.objective = body.string_or("objective", params.objective);
    params.sigma_weight = body.number_or("sigma_weight", params.sigma_weight);
    params.max_delay = body.number_or("max_delay", params.max_delay);
    params.constraint_sigma_weight =
        body.number_or("constraint_sigma_weight", params.constraint_sigma_weight);
    params.method = body.string_or("method", params.method);
    params.max_speed = body.number_or("max_speed", params.max_speed);
    int_param("max_retries", params.max_retries, 0, kIntMax);
  } catch (const std::exception& e) {
    return {400, std::string("bad job field: ") + e.what()};
  }
  if (params.deadline_ms < 0.0 && out_of_range.empty()) {
    out_of_range = "deadline_ms (expected >= 0)";
  }
  if (!out_of_range.empty()) return {400, "job param out of range: " + out_of_range};
  // Names and the speed are checked here, so a job never meets one it cannot
  // run.
  if (params.corner != "best" && params.corner != "typical" && params.corner != "worst") {
    return {400, "unknown corner: " + params.corner + " (expected best | typical | worst)"};
  }
  if (params.objective != "delay" && params.objective != "area") {
    return {400, "unknown objective: " + params.objective + " (expected delay | area)"};
  }
  if (params.method != "full" && params.method != "reduced") {
    return {400, "unknown method: " + params.method + " (expected full | reduced)"};
  }
  if (params.speed <= 0.0) return {400, "speed must be positive"};
  return {};
}

HttpResponse Server::handle_submit(const HttpRequest& request) {
  util::JsonValue body;
  try {
    body = util::parse_json(request.body);
  } catch (const util::JsonParseError& e) {
    return HttpResponse::json(400, parse_error_body(e));
  }
  const std::string idempotency_key(request.header("idempotency-key"));
  if (body.is_array()) {
    if (!idempotency_key.empty()) {
      return HttpResponse::json(
          400, error_body("Idempotency-Key applies to a single job submission, "
                          "not a batch (submit batch elements individually to "
                          "deduplicate them)"));
    }
    return handle_submit_batch(body);
  }
  if (!body.is_object()) {
    return HttpResponse::json(
        400, error_body("body must be a JSON object (or an array of them to batch)"));
  }
  JobScheduler::JobRequest req;
  const Rejection rejected = parse_job_request(body, &req);
  if (rejected.status != 0) {
    return HttpResponse::json(rejected.status, error_body(rejected.message));
  }

  JobScheduler::SubmitOutcome outcome = scheduler_.submit(
      req.type, std::move(req.circuit), std::move(req.params), idempotency_key);
  if (!outcome.journal_error.empty()) {
    return retry_later(503, "admission not durable (journal write failed: " +
                                outcome.journal_error + "); retry");
  }
  if (outcome.job == nullptr) return retry_later(429, "job queue full (retry later)");
  // On a dedup hit the document is the ORIGINAL admission's, which is what
  // the retried request actually got; 200 (not 202): nothing new was accepted.
  return HttpResponse::json(outcome.deduplicated ? 200 : 202,
                            outcome.job->describe("deduplicated", outcome.deduplicated));
}

HttpResponse Server::handle_submit_batch(const util::JsonValue& body) {
  const std::vector<util::JsonValue>& items = body.items();
  if (items.empty()) {
    return HttpResponse::json(400, error_body("batch must contain at least one job"));
  }
  // Validate every element before queuing anything: a bad element rejects the
  // whole batch, so clients never have to hunt down half-submitted jobs.
  std::vector<JobScheduler::JobRequest> requests(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Rejection rejected = parse_job_request(items[i], &requests[i]);
    if (rejected.status != 0) {
      return HttpResponse::json(
          rejected.status, error_body("jobs[" + std::to_string(i) + "]: " + rejected.message));
    }
  }

  JobScheduler::BatchOutcome outcome = scheduler_.submit_batch(std::move(requests));
  if (!outcome.journal_error.empty()) {
    return retry_later(503, "batch admission not durable (journal write failed: " +
                                outcome.journal_error + "); retry");
  }
  if (outcome.jobs.empty()) {
    return retry_later(429, "job queue cannot take the whole batch (retry later)");
  }
  return HttpResponse::json(202, describe_batch(outcome.jobs));
}

HttpResponse Server::handle_job_get(const std::string& id) {
  std::shared_ptr<Job> job = scheduler_.get(id);
  if (!job) return HttpResponse::json(404, error_body("no such job: " + id));
  return HttpResponse::json(200, job->describe());
}

HttpResponse Server::handle_job_delete(const std::string& id) {
  std::shared_ptr<Job> job = scheduler_.get(id);
  if (!job) return HttpResponse::json(404, error_body("no such job: " + id));
  const bool accepted = scheduler_.cancel(id);
  return HttpResponse::json(accepted ? 200 : 409, job->describe("cancel_requested", accepted));
}

HttpResponse Server::handle_stats() {
  std::ostringstream os;
  metrics_.write_json(os);
  return HttpResponse::json(200, os.str());
}

void Server::recover_from_journal() {
  const std::vector<Journal::Record>& records = journal_->replay();
  metrics_.journal_records_replayed.inc(static_cast<std::int64_t>(records.size()));
  metrics_.journal_truncated_bytes.inc(journal_->truncated_bytes());
  if (records.empty()) return;

  // Circuit/patch records are re-driven through the real upload/patch
  // handlers (identical parsing, identical content-hash keys); replaying_
  // suppresses re-journaling inside them. Job records are folded per id;
  // the scheduler then re-admits and settles each job.
  replaying_ = true;
  struct Folded {
    const util::JsonValue* admit;
    bool started;
    const util::JsonValue* end;
  };
  std::vector<Folded> folded;  ///< admission order == journal order
  std::map<std::string, std::size_t> by_id;
  for (const Journal::Record& rec : records) {
    try {
      if (rec.kind == "circuit" || rec.kind == "patch") {
        HttpRequest req;
        req.body = rec.doc.string_or("body", "");
        if (rec.kind == "circuit") {
          req.method = "POST";
          req.target = "/v1/circuits";
          handle_upload(req);
        } else {
          const std::string base = rec.doc.string_or("base", "");
          req.method = "PATCH";
          req.target = "/v1/circuits/" + base;
          handle_patch(req, base);
        }
      } else if (rec.kind == "admit") {
        const std::string id = rec.doc.string_or("id", "");
        if (id.empty()) continue;
        by_id[id] = folded.size();
        folded.push_back({&rec.doc, false, nullptr});
      } else if (rec.kind == "start") {
        const auto it = by_id.find(rec.doc.string_or("id", ""));
        if (it != by_id.end()) folded[it->second].started = true;
      } else if (rec.kind == "end") {
        const auto it = by_id.find(rec.doc.string_or("id", ""));
        if (it != by_id.end()) folded[it->second].end = &rec.doc;
      }
      // Unknown kinds are skipped: a newer daemon's records must not brick
      // an older one pointed at the same directory.
    } catch (const std::exception&) {
      // A checksummed-but-unreplayable record (say, a circuit whose text no
      // longer parses) must not keep the daemon down; any job referencing
      // the missing state fails in recovery with a named error instead.
    }
  }
  replaying_ = false;

  for (const Folded& f : folded) {
    try {
      // Circuits are looked up after the whole replay: a job needs only its
      // entry to exist by the end of the journal.
      scheduler_.recover(*f.admit, cache_.find(f.admit->string_or("circuit", "")), f.started,
                         f.end);
    } catch (const std::exception&) {
      // A job record naming an unknown type or state is skipped like any
      // other record the fold cannot replay.
    }
  }
}

}  // namespace statsize::serve
