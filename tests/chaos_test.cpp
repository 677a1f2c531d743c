// Chaos & crash-safety suite (ctest label `chaos`, DESIGN.md §13): the
// multi-site fault schedule engine, the durable job journal (framing, torn
// tails, injected torn writes), startup recovery replay through a real
// Server (queued re-admission, `interrupted` surfacing, missing-circuit
// errors, terminal jobs pollable across restarts), idempotent submission
// including the duplicate-in-flight race, and the client's deterministic
// seeded backoff against injected accept/read/write faults. Runs in both
// sanitizer configurations of scripts/check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fault.h"
#include "serve/client.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "util/json.h"

namespace {

using namespace statsize;
namespace fault = runtime::fault;

// Same embedded c17 as serve_test.cpp so recovery results can be eyeballed
// against that suite's bit-identity checks.
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

std::string job_body(const std::string& key, const std::string& type) {
  return "{\"circuit\": \"" + key + "\", \"type\": \"" + type + "\"}";
}

// ---------------------------------------------------------------------------
// Multi-site fault schedules.
// ---------------------------------------------------------------------------

class FaultScheduleTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

TEST_F(FaultScheduleTest, MultiSiteEntriesCountAndFireIndependently) {
  fault::arm("serve.read:2,cache.evict:1");
  EXPECT_TRUE(fault::armed());

  EXPECT_TRUE(fault::hit(fault::kCacheEvict));   // hit 1 of 1: fires
  EXPECT_FALSE(fault::hit(fault::kCacheEvict));  // already fired: never again
  EXPECT_FALSE(fault::hit(fault::kServeRead));   // hit 1 of 2
  EXPECT_TRUE(fault::hit(fault::kServeRead));    // hit 2 of 2: fires
  EXPECT_FALSE(fault::hit(fault::kServeRead));

  EXPECT_EQ(fault::hits_observed(fault::kServeRead), 3);
  EXPECT_EQ(fault::hits_observed(fault::kCacheEvict), 2);
  EXPECT_EQ(fault::hits_observed(), 5);
  EXPECT_EQ(fault::fires_observed(), 2);
  EXPECT_TRUE(fault::fired(fault::kServeRead));
  EXPECT_TRUE(fault::fired(fault::kCacheEvict));
  EXPECT_FALSE(fault::fired(fault::kServeAccept));  // not armed at all
  EXPECT_FALSE(fault::hit(fault::kServeAccept));
}

TEST_F(FaultScheduleTest, RepeatedSiteKeepsLastEntry) {
  fault::arm("serve.read:5,serve.read:1");
  EXPECT_TRUE(fault::hit(fault::kServeRead));  // last entry (hit 1) wins
}

TEST_F(FaultScheduleTest, InvalidScheduleLeavesPreviousArmingIntact) {
  fault::arm("serve.read:1");
  EXPECT_THROW(fault::arm("serve.read:1,no.such.site:2"), std::invalid_argument);
  EXPECT_THROW(fault::arm("serve.read:0"), std::invalid_argument);
  EXPECT_THROW(fault::arm("serve.read:1,,cache.evict:1"), std::invalid_argument);
  // The bad schedules must not have disturbed the good one.
  EXPECT_TRUE(fault::armed());
  EXPECT_TRUE(fault::hit(fault::kServeRead));
}

TEST_F(FaultScheduleTest, DisarmClearsEverySiteAndCounter) {
  fault::arm("serve.read:1,serve.journal.write:1");
  EXPECT_TRUE(fault::hit(fault::kServeRead));
  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::hit(fault::kServeRead));
  EXPECT_FALSE(fault::hit(fault::kServeJournalWrite));
  EXPECT_EQ(fault::hits_observed(), 0);
  EXPECT_EQ(fault::fires_observed(), 0);
}

// ---------------------------------------------------------------------------
// Journal framing, torn tails, injected torn writes.
// ---------------------------------------------------------------------------

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "statsize_chaos_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    fault::disarm();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(JournalTest, RecordsRoundTripAcrossReopen) {
  {
    serve::Journal journal({dir_, serve::FsyncPolicy::kAlways});
    EXPECT_TRUE(journal.replay().empty());
    journal.append("{\"kind\": \"start\", \"id\": \"job-000001\"}");
    // Payloads may carry embedded newlines (pretty-printed results); the
    // decimal length in the frame, not the newline, delimits the record.
    journal.append("{\"kind\": \"end\", \"id\": \"job-000001\",\n \"state\": \"done\"}");
    EXPECT_EQ(journal.records_written(), 2);
  }
  serve::Journal reopened({dir_, serve::FsyncPolicy::kNone});
  ASSERT_EQ(reopened.replay().size(), 2u);
  EXPECT_EQ(reopened.truncated_bytes(), 0);
  EXPECT_EQ(reopened.replay()[0].kind, "start");
  EXPECT_EQ(reopened.replay()[0].doc.string_or("id", ""), "job-000001");
  EXPECT_EQ(reopened.replay()[1].kind, "end");
  EXPECT_EQ(reopened.replay()[1].doc.string_or("state", ""), "done");
}

TEST_F(JournalTest, EmptyJournalRecoversToNothing) {
  { serve::Journal journal({dir_, serve::FsyncPolicy::kNone}); }
  serve::Journal reopened({dir_, serve::FsyncPolicy::kNone});
  EXPECT_TRUE(reopened.replay().empty());
  EXPECT_EQ(reopened.truncated_bytes(), 0);
  EXPECT_EQ(reopened.records_written(), 0);
}

TEST_F(JournalTest, TornTailIsTruncatedAndGoodPrefixKept) {
  std::string path;
  {
    serve::Journal journal({dir_, serve::FsyncPolicy::kNone});
    journal.append("{\"kind\": \"start\", \"id\": \"job-000001\"}");
    journal.append("{\"kind\": \"start\", \"id\": \"job-000002\"}");
    path = journal.path();
  }
  // A crash mid-append: a frame header that promises more bytes than exist.
  const std::string torn = "SJ1 999 0123456789abcdef {\"kind\": \"tr";
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << torn;
  }
  serve::Journal reopened({dir_, serve::FsyncPolicy::kNone});
  ASSERT_EQ(reopened.replay().size(), 2u);
  EXPECT_EQ(reopened.truncated_bytes(), static_cast<std::int64_t>(torn.size()));
  // The truncation is physical: a third open sees a clean file.
  serve::Journal again({dir_, serve::FsyncPolicy::kNone});
  EXPECT_EQ(again.replay().size(), 2u);
  EXPECT_EQ(again.truncated_bytes(), 0);
}

TEST_F(JournalTest, ChecksumMismatchStopsReplayAtBadFrame) {
  std::string path;
  {
    serve::Journal journal({dir_, serve::FsyncPolicy::kNone});
    journal.append("{\"kind\": \"start\", \"id\": \"job-000001\"}");
    path = journal.path();
  }
  // Bit-rot the payload of a correctly framed record: length parses, the
  // checksum must catch it.
  const std::string payload = "{\"kind\": \"start\", \"id\": \"job-000002\"}";
  std::ostringstream frame;
  frame << "SJ1 " << payload.size() << " 0000000000000000 " << payload << "\n";
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << frame.str();
  }
  serve::Journal reopened({dir_, serve::FsyncPolicy::kNone});
  ASSERT_EQ(reopened.replay().size(), 1u);
  EXPECT_EQ(reopened.truncated_bytes(), static_cast<std::int64_t>(frame.str().size()));
}

TEST_F(JournalTest, JournalWithOnlyTornTailRecoversToEmpty) {
  std::filesystem::create_directories(dir_);
  const std::string garbage = "SJ1 12 deadbeefdeadbeef {\"ki";
  {
    std::ofstream out(dir_ + "/journal.jsonl", std::ios::binary);
    out << garbage;
  }
  serve::Journal journal({dir_, serve::FsyncPolicy::kNone});
  EXPECT_TRUE(journal.replay().empty());
  EXPECT_EQ(journal.truncated_bytes(), static_cast<std::int64_t>(garbage.size()));
  // The repaired (now empty) journal accepts fresh appends.
  journal.append("{\"kind\": \"start\", \"id\": \"job-000001\"}");
  EXPECT_EQ(journal.records_written(), 1);
}

TEST_F(JournalTest, InjectedTornWriteThrowsAndTailIsRepaired) {
  serve::Journal journal({dir_, serve::FsyncPolicy::kNone});
  {
    fault::ScopedFault torn("serve.journal.write:1");
    EXPECT_THROW(journal.append("{\"kind\": \"start\", \"id\": \"job-000001\"}"),
                 serve::JournalWriteError);
  }
  EXPECT_EQ(journal.records_written(), 0);
  // The next append overwrites the torn prefix; only it survives a reopen.
  journal.append("{\"kind\": \"start\", \"id\": \"job-000002\"}");
  EXPECT_EQ(journal.records_written(), 1);
  serve::Journal reopened({dir_, serve::FsyncPolicy::kNone});
  ASSERT_EQ(reopened.replay().size(), 1u);
  EXPECT_EQ(reopened.replay()[0].doc.string_or("id", ""), "job-000002");
  EXPECT_EQ(reopened.truncated_bytes(), 0);
}

// ---------------------------------------------------------------------------
// Recovery replay through a real Server.
//
// The journals here are hand-framed with the documented record payloads
// (DESIGN.md §13) — the on-disk format is a contract, and writing it from
// the test proves a daemon restart needs nothing but the file.
// ---------------------------------------------------------------------------

class ChaosServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "statsize_chaos_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    fault::disarm();
    if (server_) server_->stop();
    std::filesystem::remove_all(dir_);
  }

  void StartServer() {
    serve::ServerOptions options;
    options.port = 0;
    options.journal_dir = dir_;
    server_ = std::make_unique<serve::Server>(options);
    server_->start();
    client_ = std::make_unique<serve::Client>("127.0.0.1", server_->port());
  }

  void RestartServer() {
    server_->stop();
    server_.reset();
    client_.reset();
    StartServer();
  }

  /// The raw POST /v1/circuits body for c17 — what a `circuit` journal
  /// record carries and replays through the real upload handler.
  static std::string upload_body() {
    return "{\"format\": \"blif\", \"name\": \"c17\", \"text\": \"" +
           util::JsonWriter::escape(kC17) + "\"}";
  }

  static std::string circuit_record() {
    std::ostringstream os;
    util::JsonWriter w(os);
    w.begin_object();
    w.key("kind").value("circuit");
    w.key("body").value(upload_body());
    w.end_object();
    return os.str();
  }

  static std::string admit_record(const std::string& id, const std::string& circuit_key,
                                  const std::string& idempotency_key = "") {
    std::ostringstream os;
    util::JsonWriter w(os);
    w.begin_object();
    w.key("kind").value("admit");
    w.key("id").value(id);
    w.key("type").value("ssta");
    w.key("circuit").value(circuit_key);
    w.key("idempotency_key").value(idempotency_key);
    w.key("params").begin_object().end_object();  // parser fills CLI defaults
    w.end_object();
    return os.str();
  }

  static std::string start_record(const std::string& id) {
    return "{\"kind\": \"start\", \"id\": \"" + id + "\"}";
  }

  static std::string end_record(const std::string& id, const std::string& state,
                                const std::string& result) {
    std::ostringstream os;
    util::JsonWriter w(os);
    w.begin_object();
    w.key("kind").value("end");
    w.key("id").value(id);
    w.key("state").value(state);
    w.key("result").value(result);
    w.key("error").value("");
    w.end_object();
    return os.str();
  }

  std::string c17_key() const { return serve::circuit_key("blif", kC17); }

  std::string dir_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::Client> client_;
};

TEST_F(ChaosServeTest, QueuedAtCrashJobsAreReadmittedInOriginalOrder) {
  {
    serve::Journal journal({dir_, serve::FsyncPolicy::kNone});
    journal.append(circuit_record());
    journal.append(admit_record("job-000001", c17_key()));
    journal.append(admit_record("job-000002", c17_key()));
  }
  StartServer();
  EXPECT_EQ(server_->metrics().jobs_recovered.value(), 2);
  EXPECT_EQ(server_->metrics().journal_records_replayed.value(), 3);

  // Both recovered jobs run to completion under their original ids.
  util::JsonValue first = client_->wait("job-000001");
  util::JsonValue second = client_->wait("job-000002");
  EXPECT_EQ(first.string_or("state", ""), "done") << first.string_or("error", "");
  EXPECT_EQ(second.string_or("state", ""), "done") << second.string_or("error", "");
  // FIFO re-admission: job-000001 started no later than job-000002.
  const std::shared_ptr<serve::Job> j1 = server_->scheduler().get("job-000001");
  const std::shared_ptr<serve::Job> j2 = server_->scheduler().get("job-000002");
  ASSERT_TRUE(j1 && j2);
  double s1, s2;
  {
    std::lock_guard<std::mutex> lock(j1->mu);
    s1 = j1->started_ms;
  }
  {
    std::lock_guard<std::mutex> lock(j2->mu);
    s2 = j2->started_ms;
  }
  EXPECT_LE(s1, s2);

  // Id allocation resumes past the recovered ids.
  const std::string key = client_->upload(kC17, "blif", "c17");
  EXPECT_EQ(key, c17_key());  // replayed upload produced the same content hash
  EXPECT_EQ(client_->submit(job_body(key, "ssta")), "job-000003");
}

TEST_F(ChaosServeTest, RunningAtCrashJobSurfacesAsInterrupted) {
  {
    serve::Journal journal({dir_, serve::FsyncPolicy::kNone});
    journal.append(circuit_record());
    journal.append(admit_record("job-000001", c17_key(), "retry-me"));
    journal.append(start_record("job-000001"));
  }
  StartServer();
  EXPECT_EQ(server_->metrics().jobs_interrupted.value(), 1);

  serve::ApiResult poll = client_->job("job-000001");
  ASSERT_EQ(poll.status, 200) << poll.body;
  util::JsonValue doc = poll.json();
  EXPECT_EQ(doc.string_or("state", ""), "interrupted");
  EXPECT_TRUE(doc.bool_or("retryable", false));
  EXPECT_NE(doc.string_or("error", "").find("re-submit"), std::string::npos);

  // Interrupted is retryable: the same Idempotency-Key starts a FRESH job
  // instead of deduplicating against the dead one.
  serve::ApiResult retry =
      client_->request("POST", "/v1/jobs", job_body(c17_key(), "ssta"),
                       {{"Idempotency-Key", "retry-me"}});
  ASSERT_EQ(retry.status, 202) << retry.body;
  util::JsonValue admitted = retry.json();
  EXPECT_FALSE(admitted.bool_or("deduplicated", true));
  EXPECT_EQ(admitted.string_or("id", ""), "job-000002");
  EXPECT_EQ(client_->wait("job-000002").string_or("state", ""), "done");
}

TEST_F(ChaosServeTest, TerminalJobsStayPollableAcrossRestart) {
  {
    serve::Journal journal({dir_, serve::FsyncPolicy::kNone});
    journal.append(admit_record("job-000001", "c-gone"));
    journal.append(start_record("job-000001"));
    journal.append(end_record("job-000001", "done", "{\"mu\": 1.5}"));
  }
  // No circuit record at all: a terminal job needs none to stay pollable.
  StartServer();
  serve::ApiResult poll = client_->job("job-000001");
  ASSERT_EQ(poll.status, 200) << poll.body;
  util::JsonValue doc = poll.json();
  EXPECT_EQ(doc.string_or("state", ""), "done");
  const util::JsonValue* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->number_or("mu", 0.0), 1.5);
}

TEST_F(ChaosServeTest, QueuedJobWithMissingCircuitFailsWithNamedError) {
  {
    serve::Journal journal({dir_, serve::FsyncPolicy::kNone});
    journal.append(admit_record("job-000001", "c-0000000000000bad"));
  }
  StartServer();
  serve::ApiResult poll = client_->job("job-000001");
  ASSERT_EQ(poll.status, 200) << poll.body;
  util::JsonValue doc = poll.json();
  EXPECT_EQ(doc.string_or("state", ""), "failed");
  const std::string error = doc.string_or("error", "");
  EXPECT_NE(error.find("c-0000000000000bad"), std::string::npos) << error;
  EXPECT_NE(error.find("re-upload"), std::string::npos) << error;
}

TEST_F(ChaosServeTest, TerminalStatesRecoveryDecidesAreJournaled) {
  {
    serve::Journal journal({dir_, serve::FsyncPolicy::kNone});
    // The circuit record is lost: job-000001 fails, job-000002 was running.
    journal.append(admit_record("job-000001", c17_key()));
    journal.append(admit_record("job-000002", c17_key()));
    journal.append(start_record("job-000002"));
  }
  StartServer();
  EXPECT_EQ(client_->job("job-000001").json().string_or("state", ""), "failed");
  EXPECT_EQ(client_->job("job-000002").json().string_or("state", ""), "interrupted");

  // The client re-uploads the circuit, then the daemon restarts. Both
  // verdicts were journaled, so neither job comes back to life and runs.
  EXPECT_EQ(client_->upload(kC17, "blif", "c17"), c17_key());
  RestartServer();
  std::vector<std::string> ends;
  for (const serve::Journal::Record& rec : server_->journal()->replay()) {
    if (rec.kind == "end") {
      ends.push_back(rec.doc.string_or("id", "") + " " + rec.doc.string_or("state", ""));
    }
  }
  EXPECT_EQ(ends, (std::vector<std::string>{"job-000001 failed", "job-000002 interrupted"}));
  const util::JsonValue failed = client_->job("job-000001").json();
  EXPECT_EQ(failed.string_or("state", ""), "failed");
  EXPECT_NE(failed.string_or("error", "").find("re-upload"), std::string::npos);
  EXPECT_EQ(client_->job("job-000002").json().string_or("state", ""), "interrupted");
  EXPECT_EQ(server_->metrics().jobs_recovered.value(), 2);
  EXPECT_EQ(server_->scheduler().queue_size(), 0u);
}

TEST_F(ChaosServeTest, BatchWithAFailedAdmitRecordQueuesNothing) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  fault::arm("serve.journal.write:2");  // the second member's admit record tears
  serve::ApiResult batch = client_->request(
      "POST", "/v1/jobs", "[" + job_body(key, "ssta") + ", " + job_body(key, "sta") + "]");
  EXPECT_EQ(batch.status, 503) << batch.body;
  fault::disarm();
  EXPECT_EQ(server_->scheduler().get("job-000001"), nullptr);
  EXPECT_EQ(server_->scheduler().queue_size(), 0u);
  EXPECT_EQ(server_->metrics().jobs_submitted.value(), 0);
  // The batch's ids stay spent: job-000001's admit record is in the journal.
  EXPECT_EQ(client_->submit(job_body(key, "ssta")), "job-000003");
}

TEST_F(ChaosServeTest, LiveWorkAndGracefulStopSurviveRestart) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  const std::string done_id = client_->submit(job_body(key, "ssta"));
  util::JsonValue done = client_->wait(done_id);
  ASSERT_EQ(done.string_or("state", ""), "done");
  const double mu = done.find("result")->number_or("mu", 0.0);

  RestartServer();
  // The finished job: same id, same state, bit-identical result after replay.
  util::JsonValue recovered = client_->job(done_id).json();
  EXPECT_EQ(recovered.string_or("state", ""), "done");
  EXPECT_EQ(recovered.find("result")->number_or("mu", -1.0), mu);
  // The replayed upload is already cached: re-upload dedups to the same key.
  EXPECT_EQ(client_->upload(kC17, "blif", "c17"), key);
}

TEST_F(ChaosServeTest, ExecutorCrashFaultYieldsInterruptedAndRetrySucceeds) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  fault::arm("serve.executor.crash:1");
  serve::ApiResult first = client_->request("POST", "/v1/jobs", job_body(key, "ssta"),
                                            {{"Idempotency-Key", "crash-retry"}});
  ASSERT_EQ(first.status, 202) << first.body;
  const std::string id = first.json().string_or("id", "");
  util::JsonValue doc = client_->wait(id);
  EXPECT_EQ(doc.string_or("state", ""), "interrupted");
  EXPECT_TRUE(doc.bool_or("retryable", false));
  EXPECT_EQ(server_->metrics().jobs_interrupted.value(), 1);
  fault::disarm();

  serve::ApiResult retry = client_->request("POST", "/v1/jobs", job_body(key, "ssta"),
                                            {{"Idempotency-Key", "crash-retry"}});
  ASSERT_EQ(retry.status, 202) << retry.body;
  const std::string retry_id = retry.json().string_or("id", "");
  EXPECT_NE(retry_id, id);
  EXPECT_EQ(client_->wait(retry_id).string_or("state", ""), "done");
}

// ---------------------------------------------------------------------------
// Idempotent submission.
// ---------------------------------------------------------------------------

TEST_F(ChaosServeTest, IdempotencyKeyDeduplicatesRetries) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  serve::ApiResult first = client_->request("POST", "/v1/jobs", job_body(key, "ssta"),
                                            {{"Idempotency-Key", "k-1"}});
  ASSERT_EQ(first.status, 202) << first.body;
  const std::string id = first.json().string_or("id", "");
  // The job document echoes the key it was admitted under.
  EXPECT_EQ(client_->job(id).json().string_or("idempotency_key", ""), "k-1");

  // The retry answers 200 (not 202) from the original admission.
  serve::ApiResult again = client_->request("POST", "/v1/jobs", job_body(key, "ssta"),
                                            {{"Idempotency-Key", "k-1"}});
  ASSERT_EQ(again.status, 200) << again.body;
  EXPECT_TRUE(again.json().bool_or("deduplicated", false));
  EXPECT_EQ(again.json().string_or("id", ""), id);
  EXPECT_EQ(server_->metrics().idempotent_dedup_hits.value(), 1);
  EXPECT_EQ(server_->metrics().jobs_submitted.value(), 1);

  // Batches own their retries client-side: a batch with a key is a 400.
  serve::ApiResult batch = client_->request("POST", "/v1/jobs",
                                            "[" + job_body(key, "ssta") + "]",
                                            {{"Idempotency-Key", "k-2"}});
  EXPECT_EQ(batch.status, 400) << batch.body;
}

TEST_F(ChaosServeTest, ConcurrentDuplicateSubmissionsAdmitExactlyOneJob) {
  StartServer();
  const std::string key = client_->upload(kC17, "blif", "c17");
  const std::string body = job_body(key, "ssta");

  std::vector<std::string> ids(4);
  std::vector<std::thread> racers;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    racers.emplace_back([&, i] {
      serve::Client racer("127.0.0.1", server_->port());
      serve::ApiResult result = racer.request("POST", "/v1/jobs", body,
                                              {{"Idempotency-Key", "race"}});
      ids[i] = result.json().string_or("id", "");
    });
  }
  for (std::thread& t : racers) t.join();

  for (const std::string& id : ids) EXPECT_EQ(id, ids[0]);
  EXPECT_EQ(server_->metrics().jobs_submitted.value(), 1);
  EXPECT_EQ(server_->metrics().idempotent_dedup_hits.value(),
            static_cast<std::int64_t>(ids.size()) - 1);
  EXPECT_EQ(client_->wait(ids[0]).string_or("state", ""), "done");
}

// ---------------------------------------------------------------------------
// Client backoff determinism and retry behaviour under injected IO faults.
// ---------------------------------------------------------------------------

TEST(ClientBackoffTest, ScheduleIsDeterministicCappedAndSeedSensitive) {
  serve::ClientOptions options;
  options.backoff_ms = 100.0;
  options.backoff_cap_ms = 800.0;
  options.jitter_seed = 42;

  const std::vector<double> a = serve::Client::backoff_schedule(options, 8);
  const std::vector<double> b = serve::Client::backoff_schedule(options, 8);
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a, b);  // bit-identical: same seed, same schedule

  for (std::size_t attempt = 0; attempt < a.size(); ++attempt) {
    const double envelope =
        std::min(options.backoff_cap_ms, options.backoff_ms * double(1u << attempt));
    EXPECT_GE(a[attempt], 0.5 * envelope) << "attempt " << attempt;
    EXPECT_LT(a[attempt], envelope) << "attempt " << attempt;
  }

  serve::ClientOptions reseeded = options;
  reseeded.jitter_seed = 43;
  EXPECT_NE(serve::Client::backoff_schedule(reseeded, 8), a);
}

class ClientFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::ServerOptions options;
    options.port = 0;
    server_ = std::make_unique<serve::Server>(options);
    server_->start();
  }
  void TearDown() override {
    fault::disarm();
    server_->stop();
  }

  serve::ClientOptions fast_retries(int retries) {
    serve::ClientOptions options;
    options.retries = retries;
    options.backoff_ms = 1.0;  // keep the suite fast; schedule shape is
    options.backoff_cap_ms = 4.0;  // covered by ClientBackoffTest
    return options;
  }

  std::unique_ptr<serve::Server> server_;
};

TEST_F(ClientFaultTest, RetriesThroughTornResponseWrite) {
  serve::Client client("127.0.0.1", server_->port(), fast_retries(3));
  fault::arm("serve.write.partial:1");
  serve::ApiResult stats = client.stats();
  EXPECT_EQ(stats.status, 200) << stats.body;
  EXPECT_GE(client.retries_used(), 1);
  EXPECT_TRUE(fault::fired(fault::kServeWritePartial));
}

TEST_F(ClientFaultTest, SurvivesAcceptResetAndDroppedRead) {
  serve::Client client("127.0.0.1", server_->port(), fast_retries(3));
  fault::arm("serve.accept:1");
  EXPECT_EQ(client.stats().status, 200);
  EXPECT_TRUE(fault::fired(fault::kServeAccept));
  fault::disarm();

  fault::arm("serve.read:1");
  EXPECT_EQ(client.stats().status, 200);
  EXPECT_TRUE(fault::fired(fault::kServeRead));
}

TEST_F(ClientFaultTest, StatsExposeRobustnessCounters) {
  serve::Client client("127.0.0.1", server_->port(), fast_retries(3));
  fault::arm("serve.read:1");
  ASSERT_EQ(client.stats().status, 200);

  // Still armed: the robustness section reads the live fault counters
  // (disarm() would reset them).
  util::JsonValue doc = client.stats().json();
  const util::JsonValue* robustness = doc.find("robustness");
  ASSERT_NE(robustness, nullptr) << "stats JSON lost its robustness section";
  EXPECT_GE(robustness->int_or("faults_injected", -1), 1);
  EXPECT_GE(robustness->int_or("fault_hits_observed", -1), 1);
  EXPECT_EQ(robustness->int_or("journal_records_written", -1), 0);
  EXPECT_EQ(robustness->int_or("jobs_interrupted", -1), 0);
}

}  // namespace
