// Live-loopback tests of the statsize serve daemon: upload/submit/poll over
// real sockets, bit-identity against in-process SSTA, queue overflow -> 429,
// deadline'd jobs (checkpoint for sizing, cancel for analysis), DELETE on a
// running job, ssta/sta jobs answered at admission with their whole job
// document (kept by the client, so one exchange), mistyped fields as 400s,
// oversized headers and bodies as 413s, one send per HTTP message over a
// SOCK_SEQPACKET pair, jobs side by side on several executors (isolation,
// per-job thread budgets), LRU eviction under concurrent readers, stats, and
// the SIGINT interrupt token. The suite runs
// in the ThreadSanitizer configuration of scripts/check.sh, so the
// scheduler/cache/IO synchronization is part of the repo's concurrency
// surface.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sizer.h"
#include "netlist/blif.h"
#include "netlist/generators.h"
#include "netlist/timing_view.h"
#include "runtime/fault.h"
#include "runtime/runtime.h"
#include "runtime/signal.h"
#include "serve/circuit_cache.h"
#include "serve/client.h"
#include "serve/server.h"
#include "ssta/delay_model.h"
#include "ssta/monte_carlo.h"
#include "ssta/ssta.h"
#include "util/json.h"

namespace {

using namespace statsize;

// ISCAS-85 c17 (6 NAND2) — same text as examples/circuits/c17.blif, embedded
// so the test binary is location-independent.
constexpr const char* kC17 = R"(.model c17
.inputs 1GAT 2GAT 3GAT 6GAT 7GAT
.outputs 22GAT 23GAT
.names 1GAT 3GAT 10GAT
0- 1
-0 1
.names 3GAT 6GAT 11GAT
0- 1
-0 1
.names 2GAT 11GAT 16GAT
0- 1
-0 1
.names 11GAT 7GAT 19GAT
0- 1
-0 1
.names 10GAT 16GAT 22GAT
0- 1
-0 1
.names 16GAT 19GAT 23GAT
0- 1
-0 1
.end
)";

std::string apex1_blif() {
  netlist::Circuit circuit = netlist::make_mcnc_like("apex1");
  std::ostringstream os;
  netlist::write_blif(os, circuit, "apex1");
  return os.str();
}

std::string job_body(const std::string& key, const std::string& type,
                     const std::string& extra = "") {
  std::string body = "{\"circuit\": \"" + key + "\", \"type\": \"" + type + "\"";
  if (!extra.empty()) body += ", " + extra;
  return body + "}";
}

class ServeTest : public ::testing::Test {
 protected:
  void StartServer(serve::ServerOptions options = {}) {
    options.port = 0;
    server_ = std::make_unique<serve::Server>(options);
    server_->start();
    client_ = std::make_unique<serve::Client>("127.0.0.1", server_->port());
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  /// Polls until job `id` is running (gives up after ~5 s).
  void WaitUntilRunning(const std::string& id) {
    for (int i = 0; i < 500; ++i) {
      if (client_->job(id).json().string_or("state", "") == "running") return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// Starts one long Monte Carlo job per executor, each running before the
  /// next is submitted, so every executor is busy and later jobs stay
  /// queued. apex1 keeps the runs long at a modest sample count (each job
  /// holds its samples in memory). Returns the job ids.
  std::vector<std::string> OccupyEveryExecutor() {
    const std::string key = client_->upload(apex1_blif(), "blif", "apex1");
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < server_->scheduler().executors(); ++i) {
      ids.push_back(client_->submit(job_body(key, "monte_carlo", "\"samples\": 2000000")));
      WaitUntilRunning(ids.back());
    }
    return ids;
  }

  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::Client> client_;
};

TEST_F(ServeTest, UploadReportsMetadataAndDeduplicates) {
  StartServer();
  serve::ApiResult first = client_->request(
      "POST", "/v1/circuits", "{\"format\": \"blif\", \"name\": \"c17\", \"text\": \"" +
                                  util::JsonWriter::escape(kC17) + "\"}");
  ASSERT_EQ(first.status, 201) << first.body;
  util::JsonValue doc = first.json();
  EXPECT_EQ(doc.string_or("key", "").substr(0, 2), "c-");
  EXPECT_EQ(doc.int_or("gates", 0), 6);
  EXPECT_EQ(doc.int_or("inputs", 0), 5);
  EXPECT_EQ(doc.int_or("outputs", 0), 2);
  EXPECT_FALSE(doc.bool_or("cached", true));

  serve::ApiResult second = client_->request(
      "POST", "/v1/circuits",
      "{\"format\": \"blif\", \"text\": \"" + util::JsonWriter::escape(kC17) + "\"}");
  ASSERT_EQ(second.status, 200) << second.body;
  EXPECT_TRUE(second.json().bool_or("cached", false));
  EXPECT_EQ(second.json().string_or("key", "x"), doc.string_or("key", "y"));
  EXPECT_EQ(server_->metrics().cache_hits.value(), 1);
  EXPECT_EQ(server_->metrics().cache_misses.value(), 1);
}

TEST_F(ServeTest, UploadShapeFieldsEqualTheCircuitsOwn) {
  StartServer();
  const std::string text = apex1_blif();
  serve::ApiResult up = client_->request(
      "POST", "/v1/circuits",
      "{\"format\": \"blif\", \"text\": \"" + util::JsonWriter::escape(text) + "\"}");
  ASSERT_EQ(up.status, 201) << up.body;
  const util::JsonValue doc = up.json();

  std::istringstream in(text);
  const netlist::Circuit circuit = netlist::read_blif(in);
  EXPECT_EQ(doc.int_or("gates", -1), circuit.num_gates());
  EXPECT_EQ(doc.int_or("depth", -1), circuit.depth());
  EXPECT_EQ(doc.int_or("levels", -1), circuit.view().num_levels());
}

TEST_F(ServeTest, ServedSstaIsBitIdenticalToInProcess) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  const std::string id = client_->submit(job_body(key, "ssta"));
  util::JsonValue doc = client_->wait(id);
  ASSERT_EQ(doc.string_or("state", ""), "done") << doc.string_or("error", "");
  const util::JsonValue* result = doc.find("result");
  ASSERT_NE(result, nullptr);

  std::istringstream in(kC17);
  const netlist::Circuit circuit = netlist::read_blif(in);
  const ssta::DelayCalculator calc(circuit, {});
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  const ssta::TimingReport reference = ssta::run_ssta(calc, speed);

  // %.17g round-trips doubles exactly, so equality here is bit-identity.
  EXPECT_EQ(result->number_or("mu", -1.0), reference.circuit_delay.mu);
  EXPECT_EQ(result->number_or("sigma", -1.0), reference.circuit_delay.sigma());
  EXPECT_EQ(result->number_or("mu_plus_3sigma", -1.0),
            reference.circuit_delay.quantile_offset(3.0));
}

TEST_F(ServeTest, MalformedJsonBodyGets400WithParseLocus) {
  StartServer();
  serve::ApiResult bad =
      client_->request("POST", "/v1/jobs", "{\n  \"circuit\": }");
  EXPECT_EQ(bad.status, 400);
  util::JsonValue doc = bad.json();
  EXPECT_EQ(doc.int_or("line", 0), 2);
  EXPECT_GT(doc.int_or("column", 0), 0);

  serve::ApiResult trailing = client_->request("POST", "/v1/jobs", "{}{}");
  EXPECT_EQ(trailing.status, 400);
  EXPECT_NE(trailing.body.find("trailing"), std::string::npos) << trailing.body;
  EXPECT_GE(server_->metrics().http_bad_requests.value(), 2);
}

/// Sends `raw` as-is on a fresh connection and reads the one answer.
serve::HttpResponse raw_exchange(int port, const std::string& raw) {
  serve::HttpConnection conn = serve::connect_tcp("127.0.0.1", port, 5.0);
  for (std::size_t sent = 0; sent < raw.size();) {
    const ssize_t n = ::send(conn.fd(), raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  serve::HttpResponse response;
  std::string error;
  EXPECT_EQ(conn.read_response(&response, &error), serve::ReadOutcome::kOk) << error;
  return response;
}

TEST_F(ServeTest, BodyOver32MiBAnswers413) {
  StartServer();
  const serve::HttpResponse response = raw_exchange(
      server_->port(), "POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                           std::to_string(32u * 1024 * 1024 + 1) + "\r\n\r\n");
  EXPECT_EQ(response.status, 413) << response.body;
}

TEST_F(ServeTest, HeaderBlockOver64KiBAnswers413) {
  StartServer();
  // Exactly one byte over the limit and no blank line, so the daemon reads
  // every byte before it answers and closes.
  std::string raw = "GET /healthz HTTP/1.1\r\nX-Pad: ";
  raw.append(64 * 1024 + 1 - raw.size(), 'a');
  const serve::HttpResponse response = raw_exchange(server_->port(), raw);
  EXPECT_EQ(response.status, 413) << response.body;
}

TEST_F(ServeTest, UnknownTargetsAndParamsAreRejected) {
  StartServer();
  EXPECT_EQ(client_->request("GET", "/v1/nope").status, 404);
  EXPECT_EQ(client_->request("GET", "/v1/jobs/job-999999").status, 404);
  EXPECT_EQ(client_->request("DELETE", "/v1/jobs/job-999999").status, 404);
  EXPECT_EQ(
      client_->request("POST", "/v1/jobs", job_body("c-0000000000000000", "ssta")).status,
      404);
  const std::string key = client_->upload(kC17, "blif");
  EXPECT_EQ(client_->request("POST", "/v1/jobs", job_body(key, "warp")).status, 400);
  EXPECT_EQ(client_->request("POST", "/v1/circuits",
                             "{\"format\": \"blif\", \"text\": \"not blif at all\"}")
                .status,
            400);
  EXPECT_EQ(client_->request("PUT", "/v1/circuits").status, 405);
}

TEST_F(ServeTest, UnknownNamesAndNonPositiveSpeedGet400NamingTheField) {
  // Names and the analysis speed are checked at admission: an admitted job
  // never fails on them later, and speed 0 never comes back done with null
  // moments.
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  const std::pair<std::string, std::string> bad[] = {
      {job_body(key, "size", "\"method\": \"exact\""), "method"},
      {job_body(key, "sta", "\"corner\": \"slow\""), "corner"},
      {job_body(key, "size", "\"objective\": \"power\""), "objective"},
      {job_body(key, "ssta", "\"speed\": 0"), "speed"},
      {job_body(key, "monte_carlo", "\"speed\": -1.5"), "speed"},
  };
  for (const auto& [body, field] : bad) {
    serve::ApiResult rejected = client_->request("POST", "/v1/jobs", body);
    EXPECT_EQ(rejected.status, 400) << body << " -> " << rejected.body;
    EXPECT_NE(rejected.json().string_or("error", "").find(field), std::string::npos)
        << rejected.body;
  }
  serve::ApiResult batch = client_->request(
      "POST", "/v1/jobs",
      "[" + job_body(key, "ssta") + ", " + job_body(key, "sta", "\"corner\": \"slow\"") + "]");
  EXPECT_EQ(batch.status, 400) << batch.body;
  EXPECT_NE(batch.body.find("jobs[1]: unknown corner"), std::string::npos) << batch.body;
  EXPECT_EQ(server_->metrics().jobs_submitted.value(), 0);
}

TEST_F(ServeTest, OutOfRangeIntegerParamsGet400BeforeNarrowing) {
  // Integers are range-checked before they narrow: a negative retry count
  // would leave the sizer with no attempt to score, 2^32 + 1 would narrow to
  // 1, a seed of -5 would wrap to 2^64 - 5, and 2^53 + 1 reads as 2^53. Each
  // answers a 400 naming its field, and the daemon keeps serving.
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  const std::pair<std::string, std::string> bad[] = {
      {job_body(key, "size", "\"max_retries\": -1"), "max_retries"},
      {job_body(key, "monte_carlo", "\"samples\": 4294967297"), "samples"},
      {job_body(key, "ssta", "\"jobs\": 4294967297"), "jobs"},
      {job_body(key, "monte_carlo", "\"seed\": 9007199254740993"), "seed"},
      {job_body(key, "monte_carlo", "\"seed\": 9007199254740992"), "seed"},
      {job_body(key, "monte_carlo", "\"seed\": -5"), "seed"},
  };
  for (const auto& [body, field] : bad) {
    serve::ApiResult rejected = client_->request("POST", "/v1/jobs", body);
    EXPECT_EQ(rejected.status, 400) << body << " -> " << rejected.body;
    EXPECT_NE(rejected.json().string_or("error", "").find(field), std::string::npos)
        << rejected.body;
  }
  const std::string id = client_->submit(job_body(key, "size", "\"max_retries\": 1"));
  EXPECT_EQ(client_->wait(id, 0.01, 60.0).string_or("state", ""), "done");
  // The largest seed a double holds exactly runs as written.
  const util::JsonValue mc = client_->wait(client_->submit(
      job_body(key, "monte_carlo", "\"samples\": 10, \"seed\": 9007199254740991")));
  ASSERT_EQ(mc.string_or("state", ""), "done") << mc.string_or("error", "");
  EXPECT_EQ(mc.find("result")->int_or("seed", 0), 9007199254740991);
}

TEST_F(ServeTest, DeadlinedSizeJobReturnsTimeLimitCheckpoint) {
  StartServer();
  const std::string key = client_->upload(apex1_blif(), "blif", "apex1");
  // A 1 ms budget expires before the reduced-space solve can finish on
  // ~1000 gates; the sizer must come back kDone with its best checkpoint and
  // an honest ".../time-limit" status — never kFailed, never a hang.
  const std::string id = client_->submit(
      job_body(key, "size", "\"method\": \"reduced\", \"deadline_ms\": 1"));
  util::JsonValue doc = client_->wait(id, 0.02, 60.0);
  ASSERT_EQ(doc.string_or("state", ""), "done") << doc.string_or("error", "");
  const util::JsonValue* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_NE(result->string_or("status", "").find("time-limit"), std::string::npos)
      << result->string_or("status", "?");
  EXPECT_FALSE(result->bool_or("converged", true));
  // The checkpoint is still a fully scored sizing.
  EXPECT_GT(result->number_or("mu", 0.0), 0.0);
  EXPECT_TRUE(result->bool_or("from_checkpoint", false));
  EXPECT_GE(server_->metrics().jobs_deadline_checkpoints.value(), 1);
}

TEST_F(ServeTest, DeadlinedAnalysisJobIsCancelled) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif");
  const std::string id = client_->submit(job_body(
      key, "monte_carlo", "\"samples\": 200000000, \"deadline_ms\": 30"));
  util::JsonValue doc = client_->wait(id, 0.02, 60.0);
  EXPECT_EQ(doc.string_or("state", ""), "cancelled");
  EXPECT_NE(doc.string_or("error", "").find("deadline"), std::string::npos)
      << doc.string_or("error", "");
}

TEST_F(ServeTest, DeleteCancelsRunningJobWithoutWedgingTheDaemon) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif");
  const std::string id =
      client_->submit(job_body(key, "monte_carlo", "\"samples\": 200000000"));
  // Wait for the executor to pick it up so DELETE exercises the running path.
  for (int i = 0; i < 500; ++i) {
    if (client_->job(id).json().string_or("state", "") == "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  serve::ApiResult del = client_->cancel(id);
  EXPECT_EQ(del.status, 200) << del.body;
  util::JsonValue doc = client_->wait(id, 0.02, 60.0);
  EXPECT_EQ(doc.string_or("state", ""), "cancelled");

  // The daemon must still serve: health plus a fresh job end to end.
  EXPECT_EQ(client_->request("GET", "/v1/healthz").status, 200);
  const std::string id2 = client_->submit(job_body(key, "ssta"));
  EXPECT_EQ(client_->wait(id2, 0.02, 60.0).string_or("state", ""), "done");
}

TEST_F(ServeTest, QueueOverflowAnswers429) {
  serve::ServerOptions options;
  options.scheduler.queue_depth = 1;
  StartServer(options);
  const std::string key = client_->upload(kC17, "blif");
  // Occupy every executor with a long Monte Carlo run...
  const std::vector<std::string> running = OccupyEveryExecutor();
  // ...fill the one queue slot...
  const std::string queued = client_->submit(job_body(key, "monte_carlo", "\"samples\": 100"));
  // ...and the next submission must bounce with 429 + Retry-After.
  serve::ApiResult overflow =
      client_->request("POST", "/v1/jobs", job_body(key, "monte_carlo", "\"samples\": 100"));
  EXPECT_EQ(overflow.status, 429) << overflow.body;
  EXPECT_GE(server_->metrics().jobs_rejected.value(), 1);

  for (const std::string& id : running) {
    EXPECT_EQ(client_->cancel(id).status, 200);
    EXPECT_EQ(client_->wait(id, 0.02, 60.0).string_or("state", ""), "cancelled");
  }
  EXPECT_EQ(client_->wait(queued, 0.02, 60.0).string_or("state", ""), "done");
}

TEST_F(ServeTest, ConcurrentSubmitPollReturnsIdenticalResults) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif");
  constexpr int kClients = 4;
  std::vector<double> mus(kClients, -1.0);
  std::vector<std::string> states(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      serve::Client c("127.0.0.1", server_->port());
      const std::string id = c.submit(job_body(key, "ssta"));
      util::JsonValue doc = c.wait(id, 0.01, 60.0);
      states[static_cast<std::size_t>(i)] = doc.string_or("state", "");
      if (const util::JsonValue* r = doc.find("result")) {
        mus[static_cast<std::size_t>(i)] = r->number_or("mu", -1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(states[static_cast<std::size_t>(i)], "done");
    EXPECT_EQ(mus[static_cast<std::size_t>(i)], mus[0]);
  }
  EXPECT_GT(mus[0], 0.0);
}

TEST_F(ServeTest, StatsEndpointReportsCountersAndLatencies) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif");
  const std::string id = client_->submit(job_body(key, "ssta"));
  client_->wait(id, 0.01, 60.0);
  util::JsonValue stats = client_->stats().json();
  const util::JsonValue* http = stats.find("http");
  ASSERT_NE(http, nullptr);
  EXPECT_GE(http->int_or("requests", 0), 3);
  const util::JsonValue* jobs = stats.find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_GE(jobs->int_or("submitted", 0), 1);
  EXPECT_GE(jobs->int_or("completed", 0), 1);
  const util::JsonValue* latency = stats.find("latency");
  ASSERT_NE(latency, nullptr);
  const util::JsonValue* service = latency->find("service_ms");
  ASSERT_NE(service, nullptr);
  EXPECT_GE(service->int_or("count", 0), 1);
  EXPECT_GE(service->number_or("p99_ms", -1.0), service->number_or("p50_ms", 0.0));
}

TEST_F(ServeTest, StopCancelsQueuedAndRunningJobs) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif");
  // Every executor busy first, so the short Monte Carlo job stays queued.
  const std::vector<std::string> running = OccupyEveryExecutor();
  const std::string queued = client_->submit(job_body(key, "monte_carlo", "\"samples\": 100"));
  server_->stop();
  for (const std::string& id : running) {
    const auto r = server_->scheduler().get(id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->state.load(), serve::JobState::kCancelled);
  }
  const auto q = server_->scheduler().get(queued);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->state.load(), serve::JobState::kCancelled);
}

TEST_F(ServeTest, JobsCancelledWhileQueuedReportNoRunTime) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif");
  const std::vector<std::string> running = OccupyEveryExecutor();
  const std::string probe = job_body(key, "monte_carlo", "\"samples\": 100");
  const std::string deleted = client_->submit(probe);
  const std::string stopped = client_->submit(probe);

  ASSERT_EQ(client_->cancel(deleted).status, 200);
  util::JsonValue doc = client_->job(deleted).json();
  EXPECT_EQ(doc.string_or("state", ""), "cancelled");
  EXPECT_EQ(doc.find("run_ms"), nullptr) << client_->job(deleted).body;
  EXPECT_EQ(doc.find("queue_wait_ms"), nullptr);

  // stop() finishes its queued jobs the same way: stamped, but never run.
  server_->stop();
  const auto job = server_->scheduler().get(stopped);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->state.load(), serve::JobState::kCancelled);
  {
    std::lock_guard<std::mutex> lock(job->mu);
    EXPECT_GT(job->finished_ms, 0.0);
    EXPECT_EQ(job->started_ms, 0.0);
  }
  EXPECT_EQ(util::parse_json(job->describe()).find("run_ms"), nullptr) << job->describe();
  EXPECT_EQ(server_->metrics().jobs_cancelled.value(),
            static_cast<std::int64_t>(running.size()) + 2);
}

// ---------------------------------------------------------------------------
// Batched job submission (POST /v1/jobs with a JSON array)
// ---------------------------------------------------------------------------

TEST_F(ServeTest, BatchSubmitQueuesAllJobsInOrder) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  serve::ApiResult batch = client_->request(
      "POST", "/v1/jobs",
      "[" + job_body(key, "ssta") + ", " + job_body(key, "sta") + ", " +
          job_body(key, "monte_carlo", "\"samples\": 100") + "]");
  ASSERT_EQ(batch.status, 202) << batch.body;
  const util::JsonValue doc = batch.json();
  const util::JsonValue* jobs = doc.find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->items().size(), 3u);
  const char* types[] = {"ssta", "sta", "monte_carlo"};
  std::string prev_id;
  for (std::size_t i = 0; i < 3; ++i) {
    const util::JsonValue& j = jobs->items()[i];
    EXPECT_EQ(j.string_or("type", ""), types[i]);
    EXPECT_EQ(j.string_or("circuit", ""), key);
    const std::string id = j.string_or("id", "");
    ASSERT_EQ(id.substr(0, 4), "job-");
    EXPECT_GT(id, prev_id);  // "job-%06d": lexicographic == submission order
    prev_id = id;
    EXPECT_EQ(client_->wait(id, 0.01, 60.0).string_or("state", ""), "done");
  }
  EXPECT_EQ(server_->metrics().jobs_submitted.value(), 3);
}

TEST_F(ServeTest, BatchSubmitRejectsWholeBatchOnOneBadElement) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif");
  serve::ApiResult bad_type = client_->request(
      "POST", "/v1/jobs", "[" + job_body(key, "ssta") + ", " + job_body(key, "warp") + "]");
  EXPECT_EQ(bad_type.status, 400);
  EXPECT_NE(bad_type.body.find("jobs[1]"), std::string::npos) << bad_type.body;

  serve::ApiResult bad_key = client_->request(
      "POST", "/v1/jobs", "[" + job_body("c-0000000000000000", "ssta") + "]");
  EXPECT_EQ(bad_key.status, 404);
  EXPECT_NE(bad_key.body.find("jobs[0]"), std::string::npos) << bad_key.body;

  EXPECT_EQ(client_->request("POST", "/v1/jobs", "[]").status, 400);
  // A rejected batch queues nothing.
  EXPECT_EQ(server_->metrics().jobs_submitted.value(), 0);
}

TEST_F(ServeTest, BatchSubmitIsAllOrNothingOnQueueOverflow) {
  serve::ServerOptions options;
  options.scheduler.queue_depth = 2;
  StartServer(options);
  const std::string key = client_->upload(kC17, "blif");
  // Occupy every executor so queued jobs stay queued.
  const std::vector<std::string> running = OccupyEveryExecutor();
  // Three queued jobs cannot fit the two queue slots: the whole batch
  // bounces and none of it is queued.
  const std::string probe = job_body(key, "monte_carlo", "\"samples\": 100");
  const std::string batch3 = "[" + probe + ", " + probe + ", " + probe + "]";
  serve::ApiResult overflow = client_->request("POST", "/v1/jobs", batch3);
  EXPECT_EQ(overflow.status, 429) << overflow.body;
  EXPECT_GE(server_->metrics().jobs_rejected.value(), 3);

  // A batch that fits is accepted whole.
  serve::ApiResult ok = client_->request("POST", "/v1/jobs", "[" + probe + ", " + probe + "]");
  ASSERT_EQ(ok.status, 202) << ok.body;
  const util::JsonValue ok_doc = ok.json();
  const util::JsonValue* accepted = ok_doc.find("jobs");
  ASSERT_NE(accepted, nullptr);
  ASSERT_EQ(accepted->items().size(), 2u);

  for (const std::string& id : running) EXPECT_EQ(client_->cancel(id).status, 200);
  for (const util::JsonValue& j : accepted->items()) {
    EXPECT_EQ(client_->wait(j.string_or("id", ""), 0.02, 60.0).string_or("state", ""),
              "done");
  }
}

// ---------------------------------------------------------------------------
// PATCH /v1/circuits/<key>: ECO edits -> derived cache entries
// ---------------------------------------------------------------------------

/// First two gate NodeIds of the in-process parse of `kC17` (ids are stable:
/// the daemon parses the same text with the same reader).
std::pair<netlist::NodeId, netlist::NodeId> c17_gates() {
  std::istringstream in(kC17);
  const netlist::Circuit circuit = netlist::read_blif(in);
  const std::vector<netlist::NodeId>& gates = circuit.view().gates_in_topo_order();
  return {gates[0], gates[1]};
}

TEST_F(ServeTest, PatchValidatesAndCreatesDerivedEntry) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  const auto [g0, g1] = c17_gates();

  EXPECT_EQ(client_->request("PATCH", "/v1/circuits/c-0000000000000000",
                             "{\"edits\": [{\"node\": 5, \"t_int\": 2.0}]}")
                .status,
            404);
  EXPECT_EQ(client_->request("PATCH", "/v1/circuits/" + key, "{}").status, 400);
  EXPECT_EQ(client_->request("PATCH", "/v1/circuits/" + key, "{\"edits\": []}").status, 400);
  // Node 0 is a primary input, not a gate.
  EXPECT_EQ(client_->request("PATCH", "/v1/circuits/" + key,
                             "{\"edits\": [{\"node\": 0, \"t_int\": 2.0}]}")
                .status,
            400);
  EXPECT_EQ(client_->request("PATCH", "/v1/circuits/" + key,
                             "{\"edits\": [{\"node\": " + std::to_string(g0) +
                                 ", \"speed\": -1.0}]}")
                .status,
            400);
  EXPECT_EQ(client_->request("PATCH", "/v1/circuits/" + key,
                             "{\"edits\": [{\"node\": " + std::to_string(g0) +
                                 ", \"t_int\": \"fast\"}]}")
                .status,
            400);
  EXPECT_EQ(client_->request("PATCH", "/v1/circuits/" + key,
                             "{\"edits\": [{\"node\": " + std::to_string(g0) + "}]}")
                .status,
            400);

  const std::string edit = "{\"edits\": [{\"node\": " + std::to_string(g0) +
                           ", \"t_int\": 2.5}]}";
  serve::ApiResult created = client_->request("PATCH", "/v1/circuits/" + key, edit);
  ASSERT_EQ(created.status, 201) << created.body;
  const util::JsonValue doc = created.json();
  const std::string derived = doc.string_or("key", "");
  EXPECT_EQ(derived.substr(0, key.size() + 3), key + "+e-");
  EXPECT_EQ(derived.size(), key.size() + 3 + 16);  // "+e-" + 64-bit hex hash
  EXPECT_EQ(doc.string_or("base", ""), key);
  EXPECT_FALSE(doc.bool_or("cached", true));
  EXPECT_EQ(doc.int_or("num_edits", 0), 1);

  // Same edit body -> same derived key, served from cache.
  serve::ApiResult again = client_->request("PATCH", "/v1/circuits/" + key, edit);
  ASSERT_EQ(again.status, 200) << again.body;
  EXPECT_TRUE(again.json().bool_or("cached", false));
  EXPECT_EQ(again.json().string_or("key", ""), derived);

  // A different edit value derives a different key.
  serve::ApiResult other = client_->request(
      "PATCH", "/v1/circuits/" + key,
      "{\"edits\": [{\"node\": " + std::to_string(g1) + ", \"t_int\": 2.5}]}");
  ASSERT_EQ(other.status, 201) << other.body;
  EXPECT_NE(other.json().string_or("key", ""), derived);
}

TEST_F(ServeTest, FinishedJobReleasesItsEvictedCircuit) {
  // A PATCH-derived entry owns a TimingView copy. Once its job is done and
  // the cache evicts it, nothing may keep it alive — the job document keeps
  // only the key.
  serve::ServerOptions options;
  options.cache_capacity = 2;
  StartServer(options);
  const std::string key = client_->upload(kC17, "blif", "c17");
  const auto [g0, g1] = c17_gates();
  auto patch = [&](netlist::NodeId node, double t_int) {
    serve::ApiResult r = client_->request(
        "PATCH", "/v1/circuits/" + key,
        "{\"edits\": [{\"node\": " + std::to_string(node) +
            ", \"t_int\": " + std::to_string(t_int) + "}]}");
    EXPECT_EQ(r.status, 201) << r.body;
    return r.json().string_or("key", "");
  };
  const std::string derived = patch(g0, 2.5);
  std::weak_ptr<const serve::CachedCircuit> entry = server_->cache().find(derived);
  ASSERT_FALSE(entry.expired());

  const std::string id = client_->submit(job_body(derived, "ssta"));
  ASSERT_EQ(client_->wait(id).string_or("state", ""), "done");

  // Two more derived entries push `derived` out of the two-slot cache (each
  // PATCH touches the base first, so the base stays).
  patch(g1, 2.5);
  patch(g1, 3.5);
  EXPECT_TRUE(entry.expired()) << "a finished job still pins its evicted circuit";

  const util::JsonValue doc = client_->wait(id);
  EXPECT_EQ(doc.string_or("circuit", ""), derived);
  EXPECT_EQ(doc.string_or("circuit_name", ""), "c17");
}

TEST_F(ServeTest, ListAndPatchResponsesReportTheCircuitsShape) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  const auto [g0, g1] = c17_gates();
  (void)g1;
  std::istringstream in(kC17);
  const netlist::Circuit circuit = netlist::read_blif(in);

  serve::ApiResult patched = client_->request(
      "PATCH", "/v1/circuits/" + key,
      "{\"edits\": [{\"node\": " + std::to_string(g0) + ", \"t_int\": 2.5}]}");
  ASSERT_EQ(patched.status, 201) << patched.body;
  EXPECT_EQ(patched.json().int_or("gates", -1), circuit.num_gates());
  EXPECT_EQ(patched.body.find("cutoff"), std::string::npos);

  serve::ApiResult list = client_->request("GET", "/v1/circuits");
  ASSERT_EQ(list.status, 200) << list.body;
  EXPECT_EQ(list.body.find("cutoff"), std::string::npos);
  const util::JsonValue doc = list.json();
  const util::JsonValue* circuits = doc.find("circuits");
  ASSERT_NE(circuits, nullptr);
  ASSERT_FALSE(circuits->items().empty());
  bool saw_base = false;
  for (const util::JsonValue& entry : circuits->items()) {
    // A derived entry shares its base's structure, so every row is c17's.
    EXPECT_EQ(entry.int_or("gates", -1), circuit.num_gates());
    EXPECT_EQ(entry.int_or("depth", -1), circuit.depth());
    if (entry.string_or("key", "") == key) saw_base = true;
  }
  EXPECT_TRUE(saw_base);
}

TEST_F(ServeTest, ServedSstaOnAPooledCircuitIsBitIdenticalAtAnyJobs) {
  // apex1 (982 gates) at two "jobs" values: the forward sweep is serial at
  // any budget, so the answer must be the in-process one either way.
  StartServer();
  const std::string text = apex1_blif();
  const std::string key = client_->upload(text, "blif", "apex1");

  std::istringstream in(text);
  const netlist::Circuit circuit = netlist::read_blif(in);
  const ssta::DelayCalculator calc(circuit, {});
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  const ssta::TimingReport reference = ssta::run_ssta(calc, speed);

  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs = " + std::to_string(jobs));
    const std::string id =
        client_->submit(job_body(key, "ssta", "\"jobs\": " + std::to_string(jobs)));
    const util::JsonValue doc = client_->wait(id);
    ASSERT_EQ(doc.string_or("state", ""), "done") << doc.string_or("error", "");
    const util::JsonValue* result = doc.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->number_or("mu", -1.0), reference.circuit_delay.mu);
    EXPECT_EQ(result->number_or("sigma", -1.0), reference.circuit_delay.sigma());
  }
}

TEST_F(ServeTest, JobsValueIsAPerJobBudgetThatLeavesTheDaemonSetting) {
  // "jobs" caps one job's threads. It must not rebuild the pool or change
  // the process setting that every later job runs at.
  StartServer();
  const int setting = runtime::threads();
  const runtime::ThreadPool* pool = &runtime::global_pool();
  const std::string text = apex1_blif();
  const std::string key = client_->upload(text, "blif", "apex1");

  std::istringstream in(text);
  const netlist::Circuit circuit = netlist::read_blif(in);
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  const ssta::TimingReport reference = ssta::run_ssta(ssta::DelayCalculator(circuit, {}), speed);

  for (const std::string& extra : {std::string("\"jobs\": 1"), std::string()}) {
    SCOPED_TRACE(extra.empty() ? "no jobs value" : extra);
    const util::JsonValue doc = client_->wait(client_->submit(job_body(key, "ssta", extra)));
    ASSERT_EQ(doc.string_or("state", ""), "done") << doc.string_or("error", "");
    EXPECT_EQ(doc.find("result")->number_or("mu", -1.0), reference.circuit_delay.mu);
    EXPECT_EQ(runtime::threads(), setting);
    EXPECT_EQ(&runtime::global_pool(), pool);
  }
}

TEST_F(ServeTest, PooledSstaFinishesWhileAMonteCarloJobHoldsThePool) {
  // A long Monte Carlo job, which asks for 4 threads, owns the pool's
  // region. An apex1 ssta job on another executor sweeps serially on that
  // executor, never waits for the pool, and finishes first, with the
  // in-process bits.
  StartServer();
  if (server_->scheduler().executors() < 2) GTEST_SKIP() << "one executor: jobs run in turn";
  const std::string text = apex1_blif();
  const std::string key = client_->upload(text, "blif", "apex1");
  const std::string mc =
      client_->submit(job_body(key, "monte_carlo", "\"samples\": 2000000, \"jobs\": 4"));
  WaitUntilRunning(mc);

  const util::JsonValue doc = client_->wait(client_->submit(job_body(key, "ssta")), 0.01, 60.0);
  EXPECT_EQ(client_->job(mc).json().string_or("state", ""), "running");
  ASSERT_EQ(doc.string_or("state", ""), "done") << doc.string_or("error", "");
  std::istringstream in(text);
  const netlist::Circuit circuit = netlist::read_blif(in);
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  const ssta::TimingReport reference = ssta::run_ssta(ssta::DelayCalculator(circuit, {}), speed);
  EXPECT_EQ(doc.find("result")->number_or("mu", -1.0), reference.circuit_delay.mu);
  EXPECT_EQ(doc.find("result")->number_or("sigma", -1.0), reference.circuit_delay.sigma());

  EXPECT_EQ(client_->cancel(mc).status, 200);
  EXPECT_EQ(client_->wait(mc, 0.02, 60.0).string_or("state", ""), "cancelled");
}

TEST_F(ServeTest, DefaultMonteCarloJobUsesThePoolOnlyWhenItStartsAlone) {
  // A job without a "jobs" value runs at the daemon's setting when it starts
  // alone and on its executor alone while another job runs. With the
  // pool.chunk fault armed, a default Monte Carlo job beside a running job
  // claims no pool chunk and returns the in-process bits, while on the idle
  // daemon it runs a pool region and meets the fault. Unarmed, the default
  // job and "jobs": 4 return the same bits.
  StartServer();
  if (server_->scheduler().executors() < 2 || runtime::threads() < 2) {
    GTEST_SKIP() << "one thread: no job fans out";
  }
  const std::string text = apex1_blif();
  const std::string key = client_->upload(text, "blif", "apex1");
  std::istringstream in(text);
  const netlist::Circuit circuit = netlist::read_blif(in);
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  ssta::MonteCarloOptions mc;
  mc.num_samples = 3000;
  mc.seed = 11;
  const ssta::MonteCarloResult reference = ssta::run_monte_carlo(
      circuit.view(), ssta::DelayCalculator(circuit, {}).all_delays(speed), mc);
  const std::string params = "\"samples\": 3000, \"seed\": 11";
  const std::string default_body = job_body(key, "monte_carlo", params);
  const auto expect_reference = [&](const util::JsonValue& doc) {
    ASSERT_EQ(doc.string_or("state", ""), "done") << doc.string_or("error", "");
    EXPECT_EQ(doc.find("result")->number_or("mean", -1.0), reference.mean);
    EXPECT_EQ(doc.find("result")->number_or("stddev", -1.0), reference.stddev);
  };
  {
    const runtime::fault::ScopedFault armed("pool.chunk:1");
    const std::string busy =
        client_->submit(job_body(key, "monte_carlo", "\"samples\": 2000000, \"jobs\": 1"));
    WaitUntilRunning(busy);
    expect_reference(client_->wait(client_->submit(default_body)));
    EXPECT_EQ(client_->cancel(busy).status, 200);
    EXPECT_EQ(client_->wait(busy, 0.01, 60.0).string_or("state", ""), "cancelled");

    const util::JsonValue alone = client_->wait(client_->submit(default_body));
    EXPECT_EQ(alone.string_or("state", ""), "failed");
    EXPECT_NE(alone.string_or("error", "").find("pool.chunk"), std::string::npos)
        << alone.string_or("error", "");
  }
  expect_reference(client_->wait(client_->submit(default_body)));
  const std::string pooled_body = job_body(key, "monte_carlo", params + ", \"jobs\": 4");
  expect_reference(client_->wait(client_->submit(pooled_body)));
}

TEST_F(ServeTest, QueuedInteractiveJobStartsBeforeAnEarlierQueuedMonteCarloJob) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif");
  const std::vector<std::string> running = OccupyEveryExecutor();
  const std::string mc = client_->submit(job_body(key, "monte_carlo", "\"samples\": 100"));
  const std::string ssta = client_->submit(job_body(key, "ssta"));
  // The ssta job ran on its admitting thread, before any executor was free.
  EXPECT_EQ(client_->cancel(running.front()).status, 200);
  EXPECT_EQ(client_->wait(ssta, 0.01, 60.0).string_or("state", ""), "done");
  EXPECT_EQ(client_->wait(mc, 0.01, 60.0).string_or("state", ""), "done");
  for (const std::string& id : running) client_->cancel(id);

  const auto started = [&](const std::string& id) {
    const std::shared_ptr<serve::Job> job = server_->scheduler().get(id);
    const std::lock_guard<std::mutex> lock(job->mu);
    return job->started_ms;
  };
  EXPECT_LT(started(ssta), started(mc));
}

TEST_F(ServeTest, InteractiveJobIsDoneInItsSubmitAnswerWhileEveryExecutorIsBusy) {
  // An ssta or sta job runs on the thread that admits it: with every
  // executor held by a long Monte Carlo job, its 202 already says done, and
  // its bits are the in-process run's.
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  const std::vector<std::string> running = OccupyEveryExecutor();

  std::istringstream in(kC17);
  const netlist::Circuit circuit = netlist::read_blif(in);
  const ssta::DelayCalculator calc(circuit, {});
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  const stat::NormalRV ssta_ref = ssta::run_ssta(calc, speed).circuit_delay;
  const double sta_ref =
      ssta::run_sta(circuit.view(), calc.all_delays(speed), ssta::Corner::kWorst).circuit_delay;

  for (const std::string type : {"ssta", "sta"}) {
    SCOPED_TRACE(type);
    const serve::ApiResult submitted = client_->request("POST", "/v1/jobs", job_body(key, type));
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    EXPECT_EQ(submitted.json().string_or("state", ""), "done") << submitted.body;
    const serve::ApiResult polled = client_->job(submitted.json().string_or("id", ""));
    const util::JsonValue doc = polled.json();
    ASSERT_EQ(doc.string_or("state", ""), "done") << polled.body;
    const util::JsonValue* result = doc.find("result");
    ASSERT_NE(result, nullptr);
    if (type == "ssta") {
      EXPECT_EQ(result->number_or("mu", -1.0), ssta_ref.mu);
      EXPECT_EQ(result->number_or("sigma", -1.0), ssta_ref.sigma());
    } else {
      EXPECT_EQ(result->number_or("circuit_delay", -1.0), sta_ref);
    }
  }
  EXPECT_EQ(server_->scheduler().queue_size(), 0u);
  for (const std::string& id : running) {
    EXPECT_EQ(client_->cancel(id).status, 200);
    EXPECT_EQ(client_->wait(id, 0.02, 60.0).string_or("state", ""), "cancelled");
  }
}

TEST_F(ServeTest, MixedBatchRunsItsInteractiveMembersAtAdmissionAndQueuesTheRest) {
  // A batch's ssta and sta members are done in its 202; only its Monte Carlo
  // and size members take queue slots and count against the queue depth.
  serve::ServerOptions options;
  options.scheduler.queue_depth = 1;
  StartServer(options);
  const std::string key = client_->upload(kC17, "blif", "c17");
  const std::vector<std::string> running = OccupyEveryExecutor();
  const std::string probe = job_body(key, "monte_carlo", "\"samples\": 100");

  const serve::ApiResult batch = client_->request(
      "POST", "/v1/jobs",
      "[" + job_body(key, "ssta") + ", " + probe + ", " + job_body(key, "sta") + "]");
  ASSERT_EQ(batch.status, 202) << batch.body;
  const util::JsonValue doc = batch.json();
  const util::JsonValue* jobs = doc.find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->items().size(), 3u);
  EXPECT_EQ(jobs->items()[0].string_or("state", ""), "done");
  EXPECT_EQ(jobs->items()[1].string_or("state", ""), "queued");
  EXPECT_EQ(jobs->items()[2].string_or("state", ""), "done");
  EXPECT_EQ(server_->scheduler().queue_size(), 1u);

  // The one slot is taken: a batch with one more queued member bounces
  // whole, its ssta member too, while an all-interactive batch is answered.
  const serve::ApiResult overflow =
      client_->request("POST", "/v1/jobs", "[" + job_body(key, "ssta") + ", " + probe + "]");
  EXPECT_EQ(overflow.status, 429) << overflow.body;
  const serve::ApiResult interactive = client_->request(
      "POST", "/v1/jobs", "[" + job_body(key, "sta") + ", " + job_body(key, "ssta") + "]");
  ASSERT_EQ(interactive.status, 202) << interactive.body;
  const util::JsonValue interactive_doc = interactive.json();
  for (const util::JsonValue& j : interactive_doc.find("jobs")->items()) {
    EXPECT_EQ(j.string_or("state", ""), "done");
  }

  for (const std::string& id : running) EXPECT_EQ(client_->cancel(id).status, 200);
  EXPECT_EQ(client_->wait(jobs->items()[1].string_or("id", ""), 0.02, 60.0).string_or("state", ""),
            "done");
}

/// The submit answer's body with its "deduplicated" member taken out: the
/// job document a GET returns.
std::string without_deduplicated(std::string body) {
  for (const char* member : {"  \"deduplicated\": false,\n", "  \"deduplicated\": true,\n"}) {
    const std::size_t at = body.find(member);
    if (at != std::string::npos) body.erase(at, std::string(member).size());
  }
  return body;
}

/// http.requests from /v1/stats; the stats request itself is counted.
long http_requests(serve::Client& client) {
  return static_cast<long>(client.stats().json().find("http")->int_or("requests", -1));
}

TEST_F(ServeTest, TerminalSubmitAnswerCarriesTheJobDocument) {
  // An ssta or sta job is done at admission, so its 202 is the whole job
  // document: the result is the in-process run's bits, and apart from
  // "deduplicated" the answer is byte for byte the body a later GET returns.
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  std::istringstream in(kC17);
  const netlist::Circuit circuit = netlist::read_blif(in);
  const ssta::DelayCalculator calc(circuit, {});
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  const stat::NormalRV ssta_ref = ssta::run_ssta(calc, speed).circuit_delay;
  const double sta_ref =
      ssta::run_sta(circuit.view(), calc.all_delays(speed), ssta::Corner::kWorst).circuit_delay;

  for (const std::string type : {"ssta", "sta"}) {
    SCOPED_TRACE(type);
    const serve::ApiResult submitted = client_->request("POST", "/v1/jobs", job_body(key, type));
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    const util::JsonValue doc = submitted.json();
    EXPECT_EQ(doc.string_or("state", ""), "done") << submitted.body;
    EXPECT_FALSE(doc.bool_or("deduplicated", true));
    EXPECT_GE(doc.number_or("queue_wait_ms", -1.0), 0.0);
    EXPECT_GE(doc.number_or("run_ms", -1.0), 0.0);
    const util::JsonValue* result = doc.find("result");
    ASSERT_NE(result, nullptr) << submitted.body;
    if (type == "ssta") {
      EXPECT_EQ(result->number_or("mu", -1.0), ssta_ref.mu);
      EXPECT_EQ(result->number_or("sigma", -1.0), ssta_ref.sigma());
    } else {
      EXPECT_EQ(result->number_or("circuit_delay", -1.0), sta_ref);
    }
    const serve::ApiResult polled =
        client_->request("GET", "/v1/jobs/" + doc.string_or("id", ""));
    ASSERT_EQ(polled.status, 200);
    EXPECT_EQ(without_deduplicated(submitted.body), polled.body);
  }
}

TEST_F(ServeTest, ClientAnswersAnInteractiveJobFromItsSubmitAnswer) {
  // Client::submit keeps a terminal answer: the job(id) or wait(id) after it
  // costs no request, once. A queued job is still polled.
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");

  long before = http_requests(*client_);
  std::string id = client_->submit(job_body(key, "ssta"));
  const serve::ApiResult kept = client_->job(id);
  long after = http_requests(*client_);
  EXPECT_EQ(after - before - 1, 1) << "submit + job made more than the submit request";
  ASSERT_EQ(kept.status, 200);
  EXPECT_EQ(kept.json().string_or("state", ""), "done") << kept.body;
  ASSERT_NE(kept.json().find("result"), nullptr) << kept.body;
  EXPECT_EQ(without_deduplicated(kept.body), client_->request("GET", "/v1/jobs/" + id).body);

  before = http_requests(*client_);
  id = client_->submit(job_body(key, "sta"));
  const util::JsonValue waited = client_->wait(id);
  after = http_requests(*client_);
  EXPECT_EQ(after - before - 1, 1) << "submit + wait made more than the submit request";
  EXPECT_EQ(waited.string_or("state", ""), "done");
  EXPECT_NE(waited.find("result"), nullptr);

  // Once: the next job(id) for the same id asks the daemon.
  before = http_requests(*client_);
  EXPECT_EQ(client_->job(id).json().string_or("state", ""), "done");
  after = http_requests(*client_);
  EXPECT_EQ(after - before - 1, 1);
}

TEST_F(ServeTest, MixedBatchAnswerCarriesEachJobsDocument) {
  // The batch answer is each job's document: the interactive members are
  // done with their results, the queued ones carry no result yet.
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  const std::vector<std::string> running = OccupyEveryExecutor();
  const serve::ApiResult batch = client_->request(
      "POST", "/v1/jobs",
      "[" + job_body(key, "ssta") + ", " + job_body(key, "monte_carlo", "\"samples\": 100") +
          ", " + job_body(key, "size") + ", " + job_body(key, "sta") + "]");
  ASSERT_EQ(batch.status, 202) << batch.body;
  const util::JsonValue doc = batch.json();
  const std::vector<util::JsonValue>& jobs = doc.find("jobs")->items();
  ASSERT_EQ(jobs.size(), 4u);
  for (std::size_t i : {0u, 3u}) {
    SCOPED_TRACE(i);
    EXPECT_EQ(jobs[i].string_or("state", ""), "done");
    const util::JsonValue* result = jobs[i].find("result");
    ASSERT_NE(result, nullptr) << batch.body;
    const util::JsonValue polled = client_->job(jobs[i].string_or("id", "")).json();
    ASSERT_NE(polled.find("result"), nullptr);
    const char* field = i == 0 ? "mu" : "circuit_delay";
    EXPECT_EQ(result->number_or(field, -1.0), polled.find("result")->number_or(field, -2.0));
    EXPECT_GE(jobs[i].number_or("run_ms", -1.0), 0.0);
  }
  for (std::size_t i : {1u, 2u}) {
    SCOPED_TRACE(i);
    const std::string state = jobs[i].string_or("state", "");
    EXPECT_TRUE(state == "queued" || state == "running") << state;
    EXPECT_EQ(jobs[i].find("result"), nullptr) << batch.body;
    EXPECT_EQ(jobs[i].find("run_ms"), nullptr) << batch.body;
  }

  for (const std::string& id : running) EXPECT_EQ(client_->cancel(id).status, 200);
  for (std::size_t i : {1u, 2u}) {
    EXPECT_EQ(client_->wait(jobs[i].string_or("id", ""), 0.02, 60.0).string_or("state", ""),
              "done");
  }
}

TEST_F(ServeTest, IdempotentRetryOfAFinishedJobAnswersItsDocument) {
  // A dedup hit on a finished job answers 200 with the job's full document,
  // result included, and "deduplicated": true.
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  const std::map<std::string, std::string> headers = {{"Idempotency-Key", "done-once"}};
  const serve::ApiResult first = client_->request("POST", "/v1/jobs", job_body(key, "ssta"), headers);
  ASSERT_EQ(first.status, 202) << first.body;
  const serve::ApiResult retry = client_->request("POST", "/v1/jobs", job_body(key, "ssta"), headers);
  ASSERT_EQ(retry.status, 200) << retry.body;
  const util::JsonValue doc = retry.json();
  EXPECT_TRUE(doc.bool_or("deduplicated", false));
  EXPECT_EQ(doc.string_or("id", ""), first.json().string_or("id", "x"));
  EXPECT_EQ(doc.string_or("state", ""), "done");
  EXPECT_EQ(doc.string_or("idempotency_key", ""), "done-once");
  ASSERT_NE(doc.find("result"), nullptr) << retry.body;
  EXPECT_EQ(without_deduplicated(retry.body), without_deduplicated(first.body));
}

TEST_F(ServeTest, MistypedFieldsGet400NamingTheFieldAndNullReadsAsAbsent) {
  // A member of the wrong type is the client's error (400 naming it), never
  // a 500; a JSON null member reads as absent.
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  const std::string circuit = "{\"circuit\": \"" + key + "\", ";
  const std::pair<std::string, std::string> bad[] = {
      {"{\"circuit\": null}", "circuit"},
      {"{\"circuit\": 5}", "circuit"},
      {circuit + "\"type\": 7}", "type"},
      {circuit + "\"type\": \"ssta\", \"seed\": \"one\"}", "seed"},
      {"[" + circuit + "\"type\": 7}]", "jobs[0]: bad job field: type"},
  };
  for (const auto& [body, field] : bad) {
    const serve::ApiResult rejected = client_->request("POST", "/v1/jobs", body);
    EXPECT_EQ(rejected.status, 400) << body << " -> " << rejected.body;
    EXPECT_NE(rejected.json().string_or("error", "").find(field), std::string::npos)
        << rejected.body;
  }
  const serve::ApiResult untyped = client_->request("POST", "/v1/jobs", circuit + "\"type\": null}");
  ASSERT_EQ(untyped.status, 202) << untyped.body;
  EXPECT_EQ(untyped.json().string_or("type", ""), "ssta");

  const std::string text = "\"text\": \"" + util::JsonWriter::escape(kC17) + "\"";
  for (const auto& [field, value] : {std::make_pair("format", "5"), std::make_pair("name", "[]")}) {
    const serve::ApiResult rejected = client_->request(
        "POST", "/v1/circuits", "{\"" + std::string(field) + "\": " + value + ", " + text + "}");
    EXPECT_EQ(rejected.status, 400) << rejected.body;
    EXPECT_NE(rejected.json().string_or("error", "").find(field), std::string::npos)
        << rejected.body;
  }
  EXPECT_EQ(client_->request("POST", "/v1/circuits", "{\"format\": null, " + text + "}").status,
            200);

  const serve::ApiResult patch = client_->request(
      "PATCH", "/v1/circuits/" + key, "{\"name\": 4, \"edits\": [{\"node\": 5, \"speed\": 2}]}");
  EXPECT_EQ(patch.status, 400) << patch.body;
  EXPECT_NE(patch.json().string_or("error", "").find("name"), std::string::npos) << patch.body;

  EXPECT_EQ(client_->stats().json().find("http")->int_or("server_errors", -1), 0);
}

TEST_F(ServeTest, MixedConcurrentJobsAreBitIdenticalToInProcessRuns) {
  // Several clients keep every executor busy with all four job types at
  // once; each answer must be the in-process one to the bit.
  StartServer();
  const std::string text = apex1_blif();
  const std::string apex1 = client_->upload(text, "blif", "apex1");
  const std::string c17 = client_->upload(kC17, "blif", "c17");

  std::istringstream in(text);
  const netlist::Circuit circuit = netlist::read_blif(in);
  const ssta::DelayCalculator calc(circuit, {});
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  const stat::NormalRV ssta_ref = ssta::run_ssta(calc, speed).circuit_delay;
  const double sta_ref =
      ssta::run_sta(circuit.view(), calc.all_delays(speed), ssta::Corner::kWorst).circuit_delay;
  ssta::MonteCarloOptions mc;
  mc.num_samples = 3000;
  mc.seed = 11;
  const ssta::MonteCarloResult mc_ref =
      ssta::run_monte_carlo(circuit.view(), calc.all_delays(speed), mc);
  std::istringstream c17_in(kC17);
  const netlist::Circuit c17_circuit = netlist::read_blif(c17_in);
  core::SizingSpec spec;
  spec.objective = core::Objective::min_delay(3.0);
  spec.max_speed = 3.0;
  core::SizerOptions opt;
  opt.method = core::Method::kReducedSpace;
  const core::SizingResult size_ref = core::Sizer(c17_circuit, spec).run(opt);

  const std::string bodies[] = {
      job_body(apex1, "ssta"),
      job_body(apex1, "sta"),
      // 4 threads, so the Monte Carlo jobs contend for the pool.
      job_body(apex1, "monte_carlo", "\"samples\": 3000, \"seed\": 11, \"jobs\": 4"),
      job_body(c17, "size", "\"method\": \"reduced\""),
  };
  constexpr int kClients = 4;
  constexpr int kRounds = 2;
  std::mutex mu;
  std::vector<std::string> failures;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client("127.0.0.1", server_->port());
      for (int k = 0; k < kRounds * 4; ++k) {
        const int type = (c + k) % 4;
        const util::JsonValue doc = client.wait(client.submit(bodies[type]), 0.005, 120.0);
        const util::JsonValue* r = doc.find("result");
        bool ok = doc.string_or("state", "") == "done" && r != nullptr;
        if (ok && type == 0) {
          ok = r->number_or("mu", -1.0) == ssta_ref.mu &&
               r->number_or("sigma", -1.0) == ssta_ref.sigma();
        } else if (ok && type == 1) {
          ok = r->number_or("circuit_delay", -1.0) == sta_ref;
        } else if (ok && type == 2) {
          ok = r->number_or("mean", -1.0) == mc_ref.mean &&
               r->number_or("stddev", -1.0) == mc_ref.stddev &&
               r->number_or("q99", -1.0) == mc_ref.quantile(0.99);
        } else if (ok && type == 3) {
          ok = r->number_or("mu", -1.0) == size_ref.circuit_delay.mu &&
               r->number_or("sum_speed", -1.0) == size_ref.sum_speed;
        }
        if (!ok) {
          const std::lock_guard<std::mutex> lock(mu);
          failures.push_back(bodies[type] + " -> " + doc.string_or("state", "?") + " " +
                             doc.string_or("error", ""));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(failures.empty()) << failures.size() << " jobs differ; first: " << failures[0];
  EXPECT_EQ(server_->metrics().jobs_completed.value(), kClients * kRounds * 4);
}

TEST_F(ServeTest, DeletingOneRunningJobLeavesAConcurrentOneDone) {
  // Two jobs run side by side; cancelling one trips only its own token. Both
  // ask for 4 threads: the doomed job owns the pool, the survivor runs its
  // chunks on its own executor.
  StartServer();
  if (server_->scheduler().executors() < 2) GTEST_SKIP() << "one executor: jobs run in turn";
  const std::string text = apex1_blif();
  const std::string key = client_->upload(text, "blif", "apex1");
  const std::string doomed =
      client_->submit(job_body(key, "monte_carlo", "\"samples\": 2000000, \"jobs\": 4"));
  WaitUntilRunning(doomed);
  const std::string survivor = client_->submit(
      job_body(key, "monte_carlo", "\"samples\": 20000, \"seed\": 5, \"jobs\": 4"));
  WaitUntilRunning(survivor);
  EXPECT_EQ(client_->cancel(doomed).status, 200);
  EXPECT_EQ(client_->wait(doomed, 0.01, 60.0).string_or("state", ""), "cancelled");

  const util::JsonValue doc = client_->wait(survivor, 0.01, 120.0);
  ASSERT_EQ(doc.string_or("state", ""), "done") << doc.string_or("error", "");
  std::istringstream in(text);
  const netlist::Circuit circuit = netlist::read_blif(in);
  const std::vector<double> speed(static_cast<std::size_t>(circuit.num_nodes()), 1.0);
  ssta::MonteCarloOptions mc;
  mc.num_samples = 20000;
  mc.seed = 5;
  const ssta::MonteCarloResult reference = ssta::run_monte_carlo(
      circuit.view(), ssta::DelayCalculator(circuit, {}).all_delays(speed), mc);
  EXPECT_EQ(doc.find("result")->number_or("mean", -1.0), reference.mean);
  EXPECT_EQ(doc.find("result")->number_or("stddev", -1.0), reference.stddev);
}

TEST_F(ServeTest, AnalysisOnPatchedCircuitIsBitIdenticalToInProcessEdit) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif");
  const auto [g0, g1] = c17_gates();

  serve::ApiResult patched = client_->request(
      "PATCH", "/v1/circuits/" + key,
      "{\"edits\": [{\"node\": " + std::to_string(g0) +
          ", \"t_int\": 2.5, \"c_in\": 0.4}, {\"node\": " + std::to_string(g1) +
          ", \"speed\": 1.5}]}");
  ASSERT_EQ(patched.status, 201) << patched.body;
  const std::string derived = patched.json().string_or("key", "");

  const std::string id = client_->submit(job_body(derived, "ssta"));
  util::JsonValue doc = client_->wait(id, 0.01, 60.0);
  ASSERT_EQ(doc.string_or("state", ""), "done") << doc.string_or("error", "");
  const util::JsonValue* result = doc.find("result");
  ASSERT_NE(result, nullptr);

  // The same ECO applied in process: params edit on a view copy, speed edit
  // as a per-node override of the uniform analysis speed.
  std::istringstream in(kC17);
  const netlist::Circuit circuit = netlist::read_blif(in);
  netlist::TimingView view = circuit.view();
  netlist::NodeParams p = view.node_params(g0);
  p.t_int = 2.5;
  p.c_in = 0.4;
  view.update_node_params(g0, p);
  std::vector<double> speed(static_cast<std::size_t>(view.num_nodes()), 1.0);
  speed[static_cast<std::size_t>(g1)] = 1.5;
  const ssta::DelayCalculator calc(view, {});
  const ssta::TimingReport reference = ssta::run_ssta(view, calc.all_delays(speed));

  EXPECT_EQ(result->number_or("mu", -1.0), reference.circuit_delay.mu);
  EXPECT_EQ(result->number_or("sigma", -1.0), reference.circuit_delay.sigma());
}

TEST_F(ServeTest, PatchedSizeOverHttpMatchesInProcessWarmResize) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif");
  const auto [g0, g1] = c17_gates();
  (void)g1;

  // Base solve: cold (nothing to warm-start from), and it memoizes its warm
  // state on the cache entry.
  const std::string base_id =
      client_->submit(job_body(key, "size", "\"method\": \"reduced\""));
  util::JsonValue base_doc = client_->wait(base_id, 0.01, 120.0);
  ASSERT_EQ(base_doc.string_or("state", ""), "done") << base_doc.string_or("error", "");
  const util::JsonValue* base_result = base_doc.find("result");
  ASSERT_NE(base_result, nullptr);
  EXPECT_FALSE(base_result->bool_or("warm_started", true));
  EXPECT_GE(base_result->int_or("outer_iterations", 0), 1);

  serve::ApiResult patched = client_->request(
      "PATCH", "/v1/circuits/" + key,
      "{\"edits\": [{\"node\": " + std::to_string(g0) + ", \"t_int\": 1.8}]}");
  ASSERT_EQ(patched.status, 201) << patched.body;
  const std::string derived = patched.json().string_or("key", "");

  // Derived solve: warm-started from the base entry's memoized result.
  const std::string warm_id =
      client_->submit(job_body(derived, "size", "\"method\": \"reduced\""));
  util::JsonValue warm_doc = client_->wait(warm_id, 0.01, 120.0);
  ASSERT_EQ(warm_doc.string_or("state", ""), "done") << warm_doc.string_or("error", "");
  const util::JsonValue* warm_result = warm_doc.find("result");
  ASSERT_NE(warm_result, nullptr);
  EXPECT_TRUE(warm_result->bool_or("warm_started", false));

  // Full-space sizing runs on a patched entry like on an upload: cold, with
  // its reduced pre-solve (warm starts stay reduced-only).
  const std::string full_id =
      client_->submit(job_body(derived, "size", "\"method\": \"full\""));
  util::JsonValue full_doc = client_->wait(full_id, 0.01, 120.0);
  ASSERT_EQ(full_doc.string_or("state", ""), "done") << full_doc.string_or("error", "");
  const util::JsonValue* full_result = full_doc.find("result");
  ASSERT_NE(full_result, nullptr);
  EXPECT_FALSE(full_result->bool_or("warm_started", true));

  // In-process mirror of the daemon's exact pipeline (JobParams defaults:
  // min-delay objective with sigma weight 3, max_speed 3, default sigma
  // model): cold base solve, then resize on the edited view warm-started
  // from the base result.
  std::istringstream in(kC17);
  const netlist::Circuit circuit = netlist::read_blif(in);
  core::SizingSpec spec;
  spec.objective = core::Objective::min_delay(3.0);
  spec.max_speed = 3.0;
  core::SizerOptions opt;
  opt.method = core::Method::kReducedSpace;
  const core::SizingResult base_ref = core::Sizer(circuit, spec).run(opt);

  netlist::TimingView view = circuit.view();
  netlist::NodeParams p = view.node_params(g0);
  p.t_int = 1.8;
  view.update_node_params(g0, p);
  const core::SizingResult warm_ref =
      core::Sizer(view, spec).resize(opt, base_ref.warm);

  // %.17g round-trips doubles exactly: the sizes served over HTTP must be
  // the bits the in-process warm path computes.
  const util::JsonValue* served_speed = warm_result->find("speed");
  ASSERT_NE(served_speed, nullptr);
  ASSERT_EQ(served_speed->items().size(), warm_ref.speed.size());
  for (std::size_t i = 0; i < warm_ref.speed.size(); ++i) {
    EXPECT_EQ(served_speed->items()[i].as_number(), warm_ref.speed[i]) << "node " << i;
  }
  EXPECT_EQ(warm_result->number_or("mu", -1.0), warm_ref.circuit_delay.mu);
  EXPECT_EQ(warm_result->int_or("outer_iterations", -1), warm_ref.outer_iterations);

  // The served full-space job is bit-identical to the in-process full solve
  // on the edited view.
  core::SizerOptions full_opt;
  full_opt.method = core::Method::kFullSpace;
  const core::SizingResult full_ref = core::Sizer(view, spec).run(full_opt);
  const util::JsonValue* full_speed = full_result->find("speed");
  ASSERT_NE(full_speed, nullptr);
  ASSERT_EQ(full_speed->items().size(), full_ref.speed.size());
  for (std::size_t i = 0; i < full_ref.speed.size(); ++i) {
    EXPECT_EQ(full_speed->items()[i].as_number(), full_ref.speed[i]) << "node " << i;
  }
  EXPECT_EQ(full_result->number_or("mu", -1.0), full_ref.circuit_delay.mu);
  EXPECT_EQ(full_result->int_or("outer_iterations", -1), full_ref.outer_iterations);
}

// ---------------------------------------------------------------------------
// Liveness vs readiness during the drain window
// ---------------------------------------------------------------------------

TEST_F(ServeTest, ReadyzFlipsDuringDrainWhileHealthzStaysLive) {
  StartServer();
  EXPECT_EQ(client_->request("GET", "/v1/healthz").status, 200);
  serve::ApiResult ready = client_->request("GET", "/v1/readyz");
  EXPECT_EQ(ready.status, 200) << ready.body;
  EXPECT_TRUE(ready.json().bool_or("ready", false));

  // The CLI's signal path calls begin_drain() ahead of stop(): readiness
  // flips so load balancers stop routing, liveness must NOT (a restart here
  // would cut the very drain we are advertising).
  server_->begin_drain();
  EXPECT_EQ(client_->request("GET", "/v1/healthz").status, 200);
  EXPECT_EQ(client_->request("GET", "/v1/readyz").status, 503);

  // Work already in the building still completes during the window.
  const std::string key = client_->upload(kC17, "blif", "c17");
  const std::string id = client_->submit(job_body(key, "ssta"));
  EXPECT_EQ(client_->wait(id).string_or("state", ""), "done");

  // Retry-After rides the 503 so clients back off politely (handle() is the
  // socket-free dispatch path; ApiResult does not expose headers).
  serve::HttpRequest request;
  request.method = "GET";
  request.target = "/v1/readyz";
  serve::HttpResponse response = server_->handle(request);
  EXPECT_EQ(response.status, 503);
  EXPECT_FALSE(response.headers["Retry-After"].empty());
}

// ---------------------------------------------------------------------------
// CircuitCache: LRU + shared-lock reads
// ---------------------------------------------------------------------------

std::shared_ptr<const serve::CachedCircuit> make_entry(const std::string& key) {
  auto entry = std::make_shared<serve::CachedCircuit>();
  entry->key = key;
  return entry;
}

/// A connected AF_UNIX SOCK_SEQPACKET pair: each send is one record and a
/// recv returns at most one, so a message split over two sends shows as two
/// reads.
struct PacketPair {
  int fds[2] = {-1, -1};
  PacketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds), 0); }
  ~PacketPair() {
    if (fds[1] >= 0) ::close(fds[1]);
  }
  /// One recv from the reading end.
  std::string read_one() {
    std::string buf(1 << 16, '\0');
    const ssize_t n = ::recv(fds[1], buf.data(), buf.size(), 0);
    buf.resize(n < 0 ? 0 : static_cast<std::size_t>(n));
    return buf;
  }
};

TEST(HttpTest, EachMessageLeavesInOneSend) {
  PacketPair pair;
  serve::HttpConnection conn(pair.fds[0]);
  const std::string body = "{\n  \"ok\": true\n}";
  ASSERT_TRUE(conn.write_response(serve::HttpResponse::json(200, body), true));
  const std::string response = pair.read_one();
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_EQ(response.size() - response.find("\r\n\r\n") - 4, body.size()) << response;

  const std::string request_body = "{\"circuit\": \"c-1\"}";
  ASSERT_TRUE(conn.write_request("POST", "/v1/jobs", request_body, "127.0.0.1:1",
                                 {{"Idempotency-Key", "k"}}));
  const std::string request = pair.read_one();
  EXPECT_EQ(request.rfind("POST /v1/jobs HTTP/1.1\r\n", 0), 0u) << request;
  EXPECT_EQ(request.substr(request.size() - request_body.size()), request_body) << request;
}

TEST(HttpTest, TornWriteSendsAStrictPrefixThenCloses) {
  PacketPair pair;
  serve::HttpConnection conn(pair.fds[0]);
  const std::string body(200, 'x');
  std::string full;
  {
    // The untorn bytes of the same message, for comparison.
    PacketPair reference;
    serve::HttpConnection whole(reference.fds[0]);
    ASSERT_TRUE(whole.write_response(serve::HttpResponse::json(200, body), false));
    full = reference.read_one();
  }
  {
    const runtime::fault::ScopedFault fault(runtime::fault::kServeWritePartial);
    EXPECT_FALSE(conn.write_response(serve::HttpResponse::json(200, body), false));
  }
  EXPECT_FALSE(conn.valid());
  const std::string prefix = pair.read_one();
  EXPECT_FALSE(prefix.empty());
  EXPECT_LT(prefix.size(), full.size());
  EXPECT_EQ(full.substr(0, prefix.size()), prefix);
  EXPECT_EQ(pair.read_one(), "");  // EOF
}

TEST(JobSchedulerTest, KeepsTheLastFinishedJobsPollable) {
  // Once kFinishedJobsKept newer jobs have finished, the oldest finished job
  // is forgotten: its id is unknown and its Idempotency-Key admits afresh.
  auto entry = std::make_shared<serve::CachedCircuit>();
  entry->key = "c-c17";
  std::istringstream in(kC17);
  entry->circuit = std::make_shared<const netlist::Circuit>(netlist::read_blif(in));
  serve::JobScheduler scheduler;
  scheduler.start();
  auto run_all = [](const std::vector<std::shared_ptr<serve::Job>>& jobs) {
    for (const auto& job : jobs) {
      while (job->state.load() == serve::JobState::kQueued ||
             job->state.load() == serve::JobState::kRunning) {
        std::this_thread::yield();
      }
    }
  };
  const serve::JobScheduler::SubmitOutcome first =
      scheduler.submit(serve::JobType::kSta, entry, {}, "first-key");
  ASSERT_NE(first.job, nullptr);
  run_all({first.job});
  std::vector<std::shared_ptr<serve::Job>> later;
  for (std::size_t done = 0; done < serve::kFinishedJobsKept;) {
    std::vector<serve::JobScheduler::JobRequest> batch(
        std::min<std::size_t>(32, serve::kFinishedJobsKept - done));
    for (auto& r : batch) {
      r.type = serve::JobType::kSta;
      r.circuit = entry;
    }
    const serve::JobScheduler::BatchOutcome out = scheduler.submit_batch(std::move(batch));
    ASSERT_FALSE(out.jobs.empty());
    run_all(out.jobs);
    done += out.jobs.size();
    if (later.empty()) later = out.jobs;
  }
  EXPECT_EQ(scheduler.get(first.job->id), nullptr);
  EXPECT_NE(scheduler.get(later.front()->id), nullptr);
  const serve::JobScheduler::SubmitOutcome again =
      scheduler.submit(serve::JobType::kSta, entry, {}, "first-key");
  ASSERT_NE(again.job, nullptr);
  EXPECT_FALSE(again.deduplicated);
  EXPECT_NE(again.job->id, first.job->id);
  scheduler.stop();
}

TEST(CircuitCacheTest, EvictsLeastRecentlyUsedAndKeepsHandlesAlive) {
  serve::CircuitCache cache(2);
  auto a = cache.insert(make_entry("c-a")).entry;
  cache.insert(make_entry("c-b"));
  ASSERT_NE(cache.find("c-a"), nullptr);  // bump a; b is now LRU
  auto result = cache.insert(make_entry("c-c"));
  EXPECT_EQ(result.evicted, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find("c-b"), nullptr);   // evicted
  EXPECT_NE(cache.find("c-a"), nullptr);   // survived (recently used)
  EXPECT_NE(cache.find("c-c"), nullptr);
  EXPECT_EQ(a->key, "c-a");  // in-flight handle is unaffected by cache churn
}

TEST(CircuitCacheTest, InsertIsIdempotentOnKeyCollision) {
  serve::CircuitCache cache(4);
  auto first = cache.insert(make_entry("c-x"));
  auto second = cache.insert(make_entry("c-x"));
  EXPECT_FALSE(first.existed);
  EXPECT_TRUE(second.existed);
  EXPECT_EQ(first.entry.get(), second.entry.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CircuitCacheTest, ConcurrentReadersSurviveEviction) {
  serve::CircuitCache cache(2);
  cache.insert(make_entry("c-0"));
  std::atomic<bool> stop{false};
  std::atomic<int> hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 8; ++k) {
          auto entry = cache.find("c-" + std::to_string(k));
          if (entry) hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int k = 1; k < 8; ++k) {
    cache.insert(make_entry("c-" + std::to_string(k)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GT(hits.load(), 0);
}

TEST(CircuitCacheTest, ContentHashKeysAreStableAndFormatScoped) {
  EXPECT_EQ(serve::circuit_key("blif", "abc"), serve::circuit_key("blif", "abc"));
  EXPECT_NE(serve::circuit_key("blif", "abc"), serve::circuit_key("verilog", "abc"));
  EXPECT_NE(serve::circuit_key("blif", "abc"), serve::circuit_key("blif", "abd"));
  EXPECT_EQ(serve::circuit_key("blif", "abc").substr(0, 2), "c-");
  EXPECT_EQ(serve::circuit_key("blif", "abc").size(), 18u);
}

// ---------------------------------------------------------------------------
// Signal handling
// ---------------------------------------------------------------------------

TEST(SignalTest, SigintTripsTheInterruptToken) {
  runtime::reset_interrupt_state();
  runtime::install_interrupt_handlers();
  ASSERT_FALSE(runtime::interrupt_requested());
  // One raise only: SA_RESETHAND restores the default disposition after the
  // first delivery (a second SIGINT would terminate the test binary).
  std::raise(SIGINT);
  EXPECT_TRUE(runtime::interrupt_requested());
  EXPECT_EQ(runtime::interrupt_signal(), SIGINT);
  runtime::reset_interrupt_state();
  EXPECT_FALSE(runtime::interrupt_requested());
}

}  // namespace
