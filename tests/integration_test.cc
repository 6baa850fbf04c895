// End-to-end tests across real sockets: Chronos Control REST server +
// Chronos Agent(s) + MokkaDB deployments — the paper's full toolkit loop.
#include <gtest/gtest.h>

#include "agent/agent.h"
#include "archive/zip.h"
#include "clients/mokka_client.h"
#include "clients/mokka_provisioner.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/strings.h"
#include "control/rest_api.h"
#include "net/ftp.h"
#include "obs/metrics_registry.h"
#include "sue/mokkadb/wire.h"

namespace chronos {
namespace {

using chronos::file::TempDir;
using model::JobState;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::Get()->set_stderr_enabled(false);
    auto db = model::MetaDb::Open(dir_.path());
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    control::ControlServiceOptions options;
    options.heartbeat_timeout_ms = 3000;
    service_ = std::make_unique<control::ControlService>(
        db_.get(), SystemClock::Get(), options);
    auto admin = service_->CreateUser("admin", "secret",
                                      model::UserRole::kAdmin);
    ASSERT_TRUE(admin.ok());
    admin_id_ = admin->id;
    auto server = control::ControlServer::Start(service_.get(), 0,
                                                /*monitor_interval_ms=*/500);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  // Registers the MokkaDB system and spins up `n` live deployments, each a
  // wire server over its own Database.
  void StartMokkaDeployments(int n) {
    model::System system;
    system.name = "MokkaDB";
    for (const char* name : {"engine", "ratio", "distribution"}) {
      model::ParameterDef def;
      def.name = name;
      def.type = model::ParameterType::kValue;
      system.parameters.push_back(def);
    }
    for (const char* name : {"threads", "records", "operations"}) {
      model::ParameterDef def;
      def.name = name;
      def.type = model::ParameterType::kInterval;
      def.min = 1;
      def.max = 1000000;
      system.parameters.push_back(def);
    }
    model::DiagramDef diagram;
    diagram.name = "Throughput by threads";
    diagram.type = model::DiagramType::kLine;
    diagram.x_field = "threads";
    diagram.y_field = "throughput";
    diagram.group_by = "engine";
    system.diagrams.push_back(diagram);
    auto registered = service_->RegisterSystem(system);
    ASSERT_TRUE(registered.ok());
    system_id_ = registered->id;

    for (int i = 0; i < n; ++i) {
      auto database = std::make_unique<mokka::Database>();
      auto wire = mokka::StartWireServer(database.get(), 0);
      ASSERT_TRUE(wire.ok());
      model::Deployment deployment;
      deployment.system_id = system_id_;
      deployment.name = "mokka-" + std::to_string(i);
      deployment.endpoint = (*wire)->endpoint();
      auto created = service_->CreateDeployment(deployment);
      ASSERT_TRUE(created.ok());
      deployment_ids_.push_back(created->id);
      endpoints_.push_back((*wire)->endpoint());
      databases_.push_back(std::move(database));
      wire_servers_.push_back(std::move(wire).value());
    }
  }

  // Creates project + experiment + evaluation over the engine x threads
  // space with a tiny workload.
  std::string MakeEvaluation(std::vector<json::Json> engines,
                             std::vector<json::Json> threads) {
    auto project = service_->CreateProject("demo", "", admin_id_);
    EXPECT_TRUE(project.ok());
    project_id_ = project->id;
    model::ParameterSetting engine_setting;
    engine_setting.name = "engine";
    engine_setting.sweep = std::move(engines);
    model::ParameterSetting thread_setting;
    thread_setting.name = "threads";
    thread_setting.sweep = std::move(threads);
    model::ParameterSetting records;
    records.name = "records";
    records.fixed = json::Json(100);
    model::ParameterSetting operations;
    operations.name = "operations";
    operations.fixed = json::Json(150);
    auto experiment = service_->CreateExperiment(
        project_id_, admin_id_, system_id_, "engines", "",
        {engine_setting, thread_setting, records, operations});
    EXPECT_TRUE(experiment.ok()) << experiment.status();
    auto evaluation = service_->CreateEvaluation(experiment->id, "run");
    EXPECT_TRUE(evaluation.ok());
    return evaluation->id;
  }

  agent::AgentOptions AgentOptionsFor(size_t deployment_index) {
    agent::AgentOptions options;
    options.control_port = server_->port();
    options.username = "admin";
    options.password = "secret";
    options.deployment_id = deployment_ids_[deployment_index];
    options.poll_interval_ms = 20;
    options.heartbeat_interval_ms = 200;
    options.log_flush_interval_ms = 100;
    return options;
  }

  TempDir dir_;
  std::unique_ptr<model::MetaDb> db_;
  std::unique_ptr<control::ControlService> service_;
  std::unique_ptr<control::ControlServer> server_;
  std::string admin_id_, system_id_, project_id_;
  std::vector<std::unique_ptr<mokka::Database>> databases_;
  std::vector<std::unique_ptr<net::ConnectionServer>> wire_servers_;
  std::vector<std::string> deployment_ids_;
  std::vector<std::string> endpoints_;
};

// --- REST surface ---

TEST_F(IntegrationTest, StatusEndpointIsPublic) {
  net::HttpClient client("127.0.0.1", server_->port());
  auto response = client.Get("/api/v1/status");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
  auto body = json::Parse(response->body);
  EXPECT_EQ(body->at("service").as_string(), "chronos-control");
  // v2 mounted simultaneously.
  response = client.Get("/api/v2/status");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(json::Parse(response->body)->at("api_version").as_int(), 2);
}

TEST_F(IntegrationTest, AuthRequiredEverywhereElse) {
  net::HttpClient client("127.0.0.1", server_->port());
  auto response = client.Get("/api/v1/projects");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 401);
  response = client.Post("/api/v1/projects", R"({"name":"x"})");
  EXPECT_EQ(response->status_code, 401);
}

TEST_F(IntegrationTest, LoginAndCrudOverRest) {
  net::HttpClient client("127.0.0.1", server_->port());
  auto login = client.Post("/api/v1/auth/login",
                           R"({"username":"admin","password":"secret"})");
  ASSERT_TRUE(login.ok());
  ASSERT_EQ(login->status_code, 200);
  std::string token = json::Parse(login->body)->at("token").as_string();
  client.SetDefaultHeader("X-Session", token);

  // whoami does not leak password material.
  auto whoami = client.Get("/api/v1/whoami");
  ASSERT_EQ(whoami->status_code, 200);
  auto who = json::Parse(whoami->body);
  EXPECT_EQ(who->at("username").as_string(), "admin");
  EXPECT_FALSE(who->Has("password_hash"));

  // Create a project, read it back.
  auto created = client.Post("/api/v1/projects",
                             R"({"name":"rest-project","description":"d"})");
  ASSERT_EQ(created->status_code, 201);
  std::string project_id =
      json::Parse(created->body)->at("id").as_string();
  auto fetched = client.Get("/api/v1/projects/" + project_id);
  ASSERT_EQ(fetched->status_code, 200);
  EXPECT_EQ(json::Parse(fetched->body)->at("name").as_string(),
            "rest-project");

  // Wrong login.
  auto bad = client.Post("/api/v1/auth/login",
                         R"({"username":"admin","password":"nope"})");
  EXPECT_EQ(bad->status_code, 401);
}

TEST_F(IntegrationTest, UsersListIsAdminOnlyAndSanitized) {
  service_->CreateUser("bob", "pass", model::UserRole::kMember).IgnoreError();
  net::HttpClient client("127.0.0.1", server_->port());
  auto login = client.Post("/api/v1/auth/login",
                           R"({"username":"admin","password":"secret"})");
  client.SetDefaultHeader(
      "X-Session", json::Parse(login->body)->at("token").as_string());
  auto listed = client.Get("/api/v1/users");
  ASSERT_EQ(listed->status_code, 200);
  auto users = json::Parse(listed->body);
  ASSERT_EQ(users->size(), 2u);
  for (const json::Json& user : users->as_array()) {
    EXPECT_FALSE(user.Has("password_hash"));
    EXPECT_FALSE(user.Has("salt"));
  }
  // Member is rejected.
  net::HttpClient member_client("127.0.0.1", server_->port());
  auto member_login = member_client.Post(
      "/api/v1/auth/login", R"({"username":"bob","password":"pass"})");
  member_client.SetDefaultHeader(
      "X-Session",
      json::Parse(member_login->body)->at("token").as_string());
  EXPECT_EQ(member_client.Get("/api/v1/users")->status_code, 403);
}

TEST_F(IntegrationTest, NonAdminCannotCreateUsers) {
  net::HttpClient client("127.0.0.1", server_->port());
  auto member = service_->CreateUser("bob", "pass", model::UserRole::kMember);
  ASSERT_TRUE(member.ok());
  auto login = client.Post("/api/v1/auth/login",
                           R"({"username":"bob","password":"pass"})");
  std::string token = json::Parse(login->body)->at("token").as_string();
  client.SetDefaultHeader("X-Session", token);
  auto response = client.Post(
      "/api/v1/users", R"({"username":"eve","password":"pass"})");
  EXPECT_EQ(response->status_code, 403);
}

// --- Observability: /metrics exposition + trace propagation ---

// Value of the first sample whose line starts with `prefix`, or -1.
double MetricValue(const std::string& exposition, const std::string& prefix) {
  size_t position = 0;
  while (position < exposition.size()) {
    size_t end = exposition.find('\n', position);
    if (end == std::string::npos) end = exposition.size();
    std::string line = exposition.substr(position, end - position);
    if (line.rfind(prefix, 0) == 0) {
      size_t space = line.rfind(' ');
      if (space != std::string::npos) {
        return std::stod(line.substr(space + 1));
      }
    }
    position = end + 1;
  }
  return -1;
}

TEST_F(IntegrationTest, MetricsEndpointExposesToolkitActivity) {
  StartMokkaDeployments(1);
  std::string evaluation_id =
      MakeEvaluation({json::Json("wiredtiger")}, {json::Json(1)});
  agent::ChronosAgent chronos_agent(AgentOptionsFor(0));
  chronos_agent.SetHandler(
      clients::MakeMokkaEvaluationHandler(endpoints_[0]));
  ASSERT_TRUE(chronos_agent.Connect().ok());
  ASSERT_TRUE(chronos_agent.Run(/*max_jobs=*/1).ok());

  // Unauthenticated, like /status; also served under the versioned API.
  net::HttpClient client("127.0.0.1", server_->port());
  auto alias = client.Get("/api/v1/metrics");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias->status_code, 200);

  // The monitor (500ms interval) has certainly swept at least once within
  // a few seconds; poll until its counter shows up non-zero.
  std::string text;
  for (int i = 0; i < 100; ++i) {
    auto response = client.Get("/metrics");
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status_code, 200);
    EXPECT_NE(response->headers.Get("Content-Type").find("text/plain"),
              std::string::npos);
    text = response->body;
    if (MetricValue(text, "chronos_heartbeat_sweeps_total") > 0) break;
    SystemClock::Get()->SleepMs(50);
  }

  // A full quickstart run leaves every instrumented layer non-zero. (The
  // registry is process-wide, so values only grow across tests.)
  EXPECT_GT(MetricValue(text, "chronos_http_requests_total"), 0);
  EXPECT_GT(MetricValue(text, "chronos_jobs_scheduled_total"), 0);
  EXPECT_GT(MetricValue(text, "chronos_jobs_claimed_total"), 0);
  EXPECT_GT(MetricValue(text, "chronos_jobs_finished_total"), 0);
  EXPECT_GT(MetricValue(text, "chronos_heartbeat_sweeps_total"), 0);
  EXPECT_GT(MetricValue(text, "chronos_agent_polls_total"), 0);
  EXPECT_GT(MetricValue(text, "chronos_agent_uploads_total"), 0);
  EXPECT_GT(MetricValue(text, "chronos_wal_appends_total"), 0);
  // Latency renders as a summary with derived quantiles.
  EXPECT_NE(text.find("chronos_http_request_latency_us"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_GT(MetricValue(text, "chronos_http_request_latency_us_count"), 0);

  // Every response carries the trace header assigned at ingress.
  auto traced = client.Get("/api/v1/status");
  ASSERT_TRUE(traced.ok());
  EXPECT_TRUE(traced->headers.Has("X-Chronos-Trace"));
}

TEST_F(IntegrationTest, StatusReportsHeartbeatActivity) {
  net::HttpClient client("127.0.0.1", server_->port());
  json::Json body;
  for (int i = 0; i < 100; ++i) {
    auto response = client.Get("/api/v1/status");
    ASSERT_TRUE(response.ok());
    auto parsed = json::Parse(response->body);
    ASSERT_TRUE(parsed.ok());
    body = std::move(parsed).value();
    if (body.GetIntOr("heartbeat_sweeps", 0) > 0) break;
    SystemClock::Get()->SleepMs(50);
  }
  EXPECT_GT(body.GetIntOr("heartbeat_sweeps", 0), 0);
  ASSERT_TRUE(body.Has("heartbeat_jobs_failed"));
  EXPECT_EQ(body.GetIntOr("heartbeat_jobs_failed", -1), 0);
}

TEST_F(IntegrationTest, StatusAndMetricsReportConnectionHealth) {
  std::vector<std::unique_ptr<net::TcpConnection>> idle;
  for (int i = 0; i < 2; ++i) {
    auto conn = net::TcpConnection::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(conn.ok());
    idle.push_back(std::move(conn).value());
  }
  net::HttpClient client("127.0.0.1", server_->port());
  auto response = client.Get("/api/v1/status");
  ASSERT_TRUE(response.ok());
  auto body = json::Parse(response->body);
  ASSERT_TRUE(body.ok());
  ASSERT_TRUE(body->Has("connections"));
  const json::Json& connections = body->at("connections");
  // The two idle sockets plus the status request's own connection.
  EXPECT_GE(connections.GetIntOr("live", -1), 3);
  EXPECT_EQ(connections.GetIntOr("shed", -1), 0);
  EXPECT_EQ(connections.GetIntOr("accept_errors", -1), 0);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(MetricValue(metrics->body,
                        "chronos_net_connections{server=\"http\"}"),
            3);
  EXPECT_EQ(MetricValue(metrics->body,
                        "chronos_net_connections_shed_total{server=\"http\"}"),
            0);
  EXPECT_EQ(MetricValue(metrics->body,
                        "chronos_net_accept_errors_total{server=\"http\"}"),
            0);
}

TEST_F(IntegrationTest, AgentTraceIdReachesControlLogs) {
  StartMokkaDeployments(1);
  MakeEvaluation({json::Json("wiredtiger")}, {json::Json(1)});

  CaptureLogSink capture;
  agent::ChronosAgent chronos_agent(AgentOptionsFor(0));
  chronos_agent.SetHandler(
      clients::MakeMokkaEvaluationHandler(endpoints_[0]));
  ASSERT_TRUE(chronos_agent.Connect().ok());
  ASSERT_TRUE(chronos_agent.Run(/*max_jobs=*/1).ok());

  // The agent logs "starting job <id>" inside its per-poll trace scope;
  // Chronos Control adopts the propagated trace at HTTP ingress, so its own
  // job-transition records for the same job must carry the agent's trace id.
  std::vector<LogRecord> records = capture.Drain();
  std::string job_id, agent_trace;
  for (const LogRecord& record : records) {
    if (record.component == "agent" &&
        record.message.rfind("starting job ", 0) == 0) {
      job_id = record.message.substr(std::string("starting job ").size());
      agent_trace = record.trace_id;
    }
  }
  ASSERT_FALSE(job_id.empty());
  ASSERT_EQ(agent_trace.size(), 32u);

  int control_records = 0;
  for (const LogRecord& record : records) {
    if (record.component == "control.job" &&
        record.message.rfind(job_id + ":", 0) == 0) {
      ++control_records;
      EXPECT_EQ(record.trace_id, agent_trace) << record.message;
      // Control is a separate hop: same trace, its own span.
      EXPECT_EQ(record.span_id.size(), 16u);
    }
  }
  // At least claim (scheduled -> running) and finish (running -> finished).
  EXPECT_GE(control_records, 2);
}

// --- The full demo: agent + MokkaDB through Chronos ---

TEST_F(IntegrationTest, FullDemoWorkflowSingleDeployment) {
  StartMokkaDeployments(1);
  std::string evaluation_id = MakeEvaluation(
      {json::Json("wiredtiger"), json::Json("mmapv1")}, {json::Json(1)});

  agent::ChronosAgent chronos_agent(AgentOptionsFor(0));
  chronos_agent.SetHandler(
      clients::MakeMokkaEvaluationHandler(endpoints_[0]));
  ASSERT_TRUE(chronos_agent.Connect().ok());
  ASSERT_TRUE(chronos_agent.Run(/*max_jobs=*/2).ok());

  // Both jobs finished with results.
  auto jobs = service_->ListJobs(evaluation_id);
  ASSERT_EQ(jobs.size(), 2u);
  for (const model::Job& job : jobs) {
    EXPECT_EQ(job.state, JobState::kFinished) << job.failure_reason;
    auto result = service_->GetResult(job.id);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->data.at("throughput").as_double(), 0);
    EXPECT_TRUE(result->data.Has("metrics"));
    // The zip bundle round-trips.
    std::string bundle;
    ASSERT_TRUE(strings::Base64Decode(result->zip_base64, &bundle));
    auto reader = archive::ZipReader::Open(bundle);
    ASSERT_TRUE(reader.ok());
    EXPECT_TRUE(reader->Has("result.json"));
    EXPECT_TRUE(reader->Has("summary.json"));
    // Log lines were shipped.
    EXPECT_FALSE(service_->JobLog(job.id).empty());
  }

  // Diagrams materialize (Fig. 3d analogue).
  auto diagrams = service_->EvaluationDiagrams(evaluation_id);
  ASSERT_TRUE(diagrams.ok());
  ASSERT_EQ(diagrams->size(), 1u);
  EXPECT_EQ((*diagrams)[0].series.size(), 2u);
}

TEST_F(IntegrationTest, ParallelDeploymentsShareEvaluation) {
  StartMokkaDeployments(2);
  std::string evaluation_id =
      MakeEvaluation({json::Json("wiredtiger"), json::Json("mmapv1")},
                     {json::Json(1), json::Json(2)});  // 4 jobs.

  agent::ChronosAgent agent_a(AgentOptionsFor(0));
  agent_a.SetHandler(clients::MakeMokkaEvaluationHandler(endpoints_[0]));
  ASSERT_TRUE(agent_a.Connect().ok());
  agent::ChronosAgent agent_b(AgentOptionsFor(1));
  agent_b.SetHandler(clients::MakeMokkaEvaluationHandler(endpoints_[1]));
  ASSERT_TRUE(agent_b.Connect().ok());

  agent_a.StartAsync();
  agent_b.StartAsync();
  // Wait until all 4 jobs are terminal (max ~20s).
  for (int i = 0; i < 400; ++i) {
    auto summary = service_->Summarize(evaluation_id);
    if (summary.ok() &&
        summary->state_counts[JobState::kFinished] == 4) {
      break;
    }
    SystemClock::Get()->SleepMs(50);
  }
  agent_a.Stop();
  agent_b.Stop();

  auto summary = service_->Summarize(evaluation_id);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->state_counts[JobState::kFinished], 4);
  // Both agents did real work.
  EXPECT_GT(agent_a.jobs_executed(), 0);
  EXPECT_GT(agent_b.jobs_executed(), 0);
  EXPECT_EQ(agent_a.jobs_executed() + agent_b.jobs_executed(), 4);
}

TEST_F(IntegrationTest, AgentCrashIsDetectedAndJobRecovered) {
  StartMokkaDeployments(1);
  std::string evaluation_id =
      MakeEvaluation({json::Json("wiredtiger")}, {json::Json(1)});

  // An "agent" that takes the job and dies without ever heartbeating.
  auto job = service_->PollJob(deployment_ids_[0]);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(job->has_value());
  std::string job_id = (*job)->id;

  // The heartbeat monitor (500ms interval, 3000ms timeout) must fail and
  // auto-reschedule it.
  bool recovered = false;
  for (int i = 0; i < 200; ++i) {
    auto current = service_->GetJob(job_id);
    if (current.ok() && current->state == JobState::kScheduled &&
        current->attempt == 2) {
      recovered = true;
      break;
    }
    SystemClock::Get()->SleepMs(100);
  }
  EXPECT_TRUE(recovered);

  // A healthy agent now completes the recovered job.
  agent::ChronosAgent chronos_agent(AgentOptionsFor(0));
  chronos_agent.SetHandler(
      clients::MakeMokkaEvaluationHandler(endpoints_[0]));
  ASSERT_TRUE(chronos_agent.Connect().ok());
  ASSERT_TRUE(chronos_agent.Run(/*max_jobs=*/1).ok());
  EXPECT_EQ(service_->GetJob(job_id)->state, JobState::kFinished);
}

TEST_F(IntegrationTest, FailingHandlerMarksJobFailed) {
  StartMokkaDeployments(1);
  control::ControlServiceOptions no_retry;
  no_retry.auto_reschedule = false;
  // Rebuild service options via a fresh service is complex; instead use an
  // evaluation with a handler that fails and check failed+auto-reschedule.
  std::string evaluation_id =
      MakeEvaluation({json::Json("wiredtiger")}, {json::Json(1)});

  agent::ChronosAgent chronos_agent(AgentOptionsFor(0));
  chronos_agent.SetHandler([](agent::JobContext*) {
    return Status::Internal("synthetic client failure");
  });
  ASSERT_TRUE(chronos_agent.Connect().ok());
  // max_attempts(3) runs: job fails, auto-reschedules twice, stays failed.
  ASSERT_TRUE(chronos_agent.Run(/*max_jobs=*/3).ok());

  auto jobs = service_->ListJobs(evaluation_id);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, JobState::kFailed);
  EXPECT_EQ(jobs[0].attempt, 3);
  EXPECT_NE(jobs[0].failure_reason.find("synthetic"), std::string::npos);
}

TEST_F(IntegrationTest, AbortObservedByRunningAgent) {
  StartMokkaDeployments(1);
  std::string evaluation_id =
      MakeEvaluation({json::Json("wiredtiger")}, {json::Json(1)});
  auto jobs = service_->ListJobs(evaluation_id);
  ASSERT_EQ(jobs.size(), 1u);
  std::string job_id = jobs[0].id;

  agent::ChronosAgent chronos_agent(AgentOptionsFor(0));
  std::atomic<bool> saw_abort{false};
  chronos_agent.SetHandler([&](agent::JobContext* context) {
    // Long-running handler that polls for the abort.
    for (int i = 0; i < 200; ++i) {
      if (!context->SetProgress(i % 100)) {
        saw_abort.store(true);
        return Status::Aborted("stopping per server request");
      }
      SystemClock::Get()->SleepMs(20);
    }
    return Status::Ok();
  });
  ASSERT_TRUE(chronos_agent.Connect().ok());
  chronos_agent.StartAsync(/*max_jobs=*/1);

  // Wait for it to start running, then abort.
  for (int i = 0; i < 100; ++i) {
    auto job = service_->GetJob(job_id);
    if (job.ok() && job->state == JobState::kRunning) break;
    SystemClock::Get()->SleepMs(20);
  }
  ASSERT_TRUE(service_->AbortJob(job_id).ok());
  for (int i = 0; i < 200 && !saw_abort.load(); ++i) {
    SystemClock::Get()->SleepMs(20);
  }
  chronos_agent.Stop();
  EXPECT_TRUE(saw_abort.load());
  EXPECT_EQ(service_->GetJob(job_id)->state, JobState::kAborted);
}

TEST_F(IntegrationTest, ResultBundleViaFtp) {
  StartMokkaDeployments(1);
  auto ftp = net::FtpServer::Start(0, "results", "store");
  ASSERT_TRUE(ftp.ok());

  std::string evaluation_id =
      MakeEvaluation({json::Json("mmapv1")}, {json::Json(1)});

  agent::AgentOptions options = AgentOptionsFor(0);
  options.ftp_host = "127.0.0.1";
  options.ftp_port = (*ftp)->port();
  options.ftp_username = "results";
  options.ftp_password = "store";
  agent::ChronosAgent chronos_agent(options);
  chronos_agent.SetHandler(
      clients::MakeMokkaEvaluationHandler(endpoints_[0]));
  ASSERT_TRUE(chronos_agent.Connect().ok());
  ASSERT_TRUE(chronos_agent.Run(/*max_jobs=*/1).ok());

  auto jobs = service_->ListJobs(evaluation_id);
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_EQ(jobs[0].state, JobState::kFinished);
  auto result = service_->GetResult(jobs[0].id);
  ASSERT_TRUE(result.ok());
  // Bundle went to FTP, not inline.
  EXPECT_TRUE(result->zip_base64.empty());
  std::string remote_name =
      result->data.GetStringOr("bundle_ftp_ref", "");
  ASSERT_FALSE(remote_name.empty());
  auto stored = (*ftp)->GetFile(remote_name);
  ASSERT_TRUE(stored.ok());
  auto reader = archive::ZipReader::Open(*stored);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->Has("result.json"));
}

TEST_F(IntegrationTest, V2PollBundlesExperimentAndSystem) {
  StartMokkaDeployments(1);
  MakeEvaluation({json::Json("wiredtiger")}, {json::Json(1)});

  net::HttpClient client("127.0.0.1", server_->port());
  auto login = client.Post("/api/v2/auth/login",
                           R"({"username":"admin","password":"secret"})");
  std::string token = json::Parse(login->body)->at("token").as_string();
  client.SetDefaultHeader("X-Session", token);

  json::Json poll = json::Json::MakeObject();
  poll.Set("deployment_id", deployment_ids_[0]);
  auto response = client.Post("/api/v2/agent/poll", poll.Dump());
  ASSERT_TRUE(response.ok());
  auto body = json::Parse(response->body);
  ASSERT_TRUE(body.ok());
  ASSERT_FALSE(body->at("job").is_null());
  // v2 extras absent from v1.
  EXPECT_TRUE(body->Has("experiment"));
  EXPECT_TRUE(body->Has("system"));
  EXPECT_EQ(body->at("system").at("name").as_string(), "MokkaDB");
}

// The v2 poll splices the experiment's and the system's cached texts into
// its reply. The bytes must equal dumping the three entities as one object,
// also after either entity changes, and each (entity, version) is read and
// rendered once.
TEST_F(IntegrationTest, V2PollBundleBytesFollowEntityVersions) {
  StartMokkaDeployments(1);
  std::vector<json::Json> threads;
  for (int i = 1; i <= 5000; ++i) threads.push_back(json::Json(i));
  const std::string evaluation_id =
      MakeEvaluation({json::Json("wiredtiger")}, std::move(threads));
  const std::string experiment_id =
      service_->GetEvaluation(evaluation_id)->experiment_id;

  net::HttpClient client("127.0.0.1", server_->port());
  auto login = client.Post("/api/v2/auth/login",
                           R"({"username":"admin","password":"secret"})");
  ASSERT_TRUE(login.ok());
  client.SetDefaultHeader(
      "X-Session", json::Parse(login->body)->at("token").as_string());
  json::Json poll = json::Json::MakeObject();
  poll.Set("deployment_id", deployment_ids_[0]);

  // Claims one job over v2, checks the reply against the reference built
  // from the store, finishes the job and returns the parsed reply.
  auto poll_and_check = [&]() -> json::Json {
    auto response = client.Post("/api/v2/agent/poll", poll.Dump());
    EXPECT_TRUE(response.ok());
    if (!response.ok()) return json::Json();
    auto body = json::Parse(response->body);
    EXPECT_TRUE(body.ok());
    if (!body.ok()) return json::Json();
    const std::string job_id = body->at("job").at("id").as_string();
    json::Json reference = json::Json::MakeObject();
    reference.Set("job", service_->GetJob(job_id)->ToJson());
    reference.Set("experiment",
                  service_->GetExperiment(experiment_id)->ToJson());
    reference.Set("system", service_->GetSystem(system_id_)->ToJson());
    EXPECT_EQ(response->body, reference.Dump());
    EXPECT_TRUE(
        service_->UploadResult(job_id, json::Json::MakeObject(), "").ok());
    return *std::move(body);
  };
  auto cache_count = [](const char* table, const char* result) {
    return obs::MetricsRegistry::Get()
        ->GetCounter("chronos_entity_cache_total", "",
                     {{"table", table}, {"result", result}})
        ->value();
  };
  const uint64_t experiment_misses = cache_count("experiments", "miss");
  const uint64_t experiment_hits = cache_count("experiments", "hit");
  const uint64_t system_misses = cache_count("systems", "miss");
  const uint64_t system_hits = cache_count("systems", "hit");

  json::Json first = poll_and_check();
  // MakeEvaluation's settings are engine, threads, records, operations.
  EXPECT_EQ(first.at("experiment")
                .at("settings")
                .as_array()[1]
                .at("sweep")
                .as_array()
                .size(),
            5000u);
  EXPECT_FALSE(first.at("experiment").at("archived").as_bool());
  poll_and_check();

  ASSERT_TRUE(service_->SetExperimentArchived(experiment_id, true).ok());
  EXPECT_TRUE(poll_and_check().at("experiment").at("archived").as_bool());

  model::System system = *service_->GetSystem(system_id_);
  system.description = "retuned";
  ASSERT_TRUE(service_->UpdateSystem(system).ok());
  EXPECT_EQ(poll_and_check().at("system").at("description").as_string(),
            "retuned");
  poll_and_check();

  // Five polls over two versions of each entity: one miss per version.
  EXPECT_EQ(cache_count("experiments", "miss") - experiment_misses, 2u);
  EXPECT_EQ(cache_count("experiments", "hit") - experiment_hits, 3u);
  EXPECT_EQ(cache_count("systems", "miss") - system_misses, 2u);
  EXPECT_EQ(cache_count("systems", "hit") - system_hits, 3u);
}

TEST_F(IntegrationTest, HtmlReportServedOverRest) {
  StartMokkaDeployments(1);
  std::string evaluation_id =
      MakeEvaluation({json::Json("wiredtiger"), json::Json("mmapv1")},
                     {json::Json(1)});
  agent::ChronosAgent chronos_agent(AgentOptionsFor(0));
  chronos_agent.SetHandler(
      clients::MakeMokkaEvaluationHandler(endpoints_[0]));
  ASSERT_TRUE(chronos_agent.Connect().ok());
  ASSERT_TRUE(chronos_agent.Run(/*max_jobs=*/2).ok());

  net::HttpClient client("127.0.0.1", server_->port());
  auto login = client.Post("/api/v1/auth/login",
                           R"({"username":"admin","password":"secret"})");
  client.SetDefaultHeader(
      "X-Session", json::Parse(login->body)->at("token").as_string());
  auto report =
      client.Get("/api/v1/evaluations/" + evaluation_id + "/report");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->status_code, 200);
  EXPECT_NE(report->body.find("<svg"), std::string::npos);
  EXPECT_NE(report->body.find("wiredtiger"), std::string::npos);
}

// --- Web UI (server-rendered monitoring views) ---

TEST_F(IntegrationTest, WebUiRequiresToken) {
  net::HttpClient client("127.0.0.1", server_->port());
  auto response = client.Get("/ui");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);  // Friendly sign-in hint, no data.
  EXPECT_NE(response->body.find("Sign in"), std::string::npos);
  EXPECT_EQ(response->body.find("Projects</h1><table"), std::string::npos);
}

TEST_F(IntegrationTest, WebUiWalksTheHierarchy) {
  StartMokkaDeployments(1);
  std::string evaluation_id =
      MakeEvaluation({json::Json("wiredtiger")}, {json::Json(1)});
  agent::ChronosAgent chronos_agent(AgentOptionsFor(0));
  chronos_agent.SetHandler(
      clients::MakeMokkaEvaluationHandler(endpoints_[0]));
  ASSERT_TRUE(chronos_agent.Connect().ok());
  ASSERT_TRUE(chronos_agent.Run(/*max_jobs=*/1).ok());

  auto token = service_->Login("admin", "secret");
  ASSERT_TRUE(token.ok());
  std::string suffix = "?token=" + *token;
  net::HttpClient client("127.0.0.1", server_->port());

  // Projects overview links to the project.
  auto overview = client.Get("/ui" + suffix);
  ASSERT_EQ(overview->status_code, 200);
  EXPECT_NE(overview->body.find("demo"), std::string::npos);
  EXPECT_NE(overview->body.find("/ui/projects/" + project_id_),
            std::string::npos);

  // Project page shows the experiment and evaluation with progress.
  auto project_page = client.Get("/ui/projects/" + project_id_ + suffix);
  ASSERT_EQ(project_page->status_code, 200);
  EXPECT_NE(project_page->body.find("engines"), std::string::npos);
  EXPECT_NE(project_page->body.find("/ui/evaluations/" + evaluation_id),
            std::string::npos);

  // Evaluation page shows the finished job and the SVG diagram.
  auto evaluation_page =
      client.Get("/ui/evaluations/" + evaluation_id + suffix);
  ASSERT_EQ(evaluation_page->status_code, 200);
  EXPECT_NE(evaluation_page->body.find("state-finished"), std::string::npos);
  EXPECT_NE(evaluation_page->body.find("<svg"), std::string::npos);

  // Job page shows parameters, timeline and log.
  auto jobs = service_->ListJobs(evaluation_id);
  ASSERT_EQ(jobs.size(), 1u);
  auto job_page = client.Get("/ui/jobs/" + jobs[0].id + suffix);
  ASSERT_EQ(job_page->status_code, 200);
  EXPECT_NE(job_page->body.find("Timeline"), std::string::npos);
  EXPECT_NE(job_page->body.find("wiredtiger"), std::string::npos);
  EXPECT_NE(job_page->body.find("Log"), std::string::npos);
  EXPECT_NE(job_page->body.find("Result"), std::string::npos);
}

TEST_F(IntegrationTest, WebUiEscapesUserContent) {
  auto project = service_->CreateProject(
      "<script>alert('xss')</script>", "desc<img>", admin_id_);
  ASSERT_TRUE(project.ok());
  auto token = service_->Login("admin", "secret");
  net::HttpClient client("127.0.0.1", server_->port());
  auto overview = client.Get("/ui?token=" + *token);
  ASSERT_EQ(overview->status_code, 200);
  EXPECT_EQ(overview->body.find("<script>alert"), std::string::npos);
  EXPECT_NE(overview->body.find("&lt;script&gt;"), std::string::npos);
}

// --- Provisioning (§5 future work, v2 API) ---

TEST_F(IntegrationTest, ProvisionRunTeardownOverRest) {
  // Register the system but start NO deployments: the provisioner will.
  StartMokkaDeployments(0);
  clients::LocalMokkaProvisioner provisioner;
  control::ProvisioningManager manager(service_.get());
  ASSERT_TRUE(manager.RegisterProvisioner(&provisioner).ok());

  // Re-start the server with provisioning mounted.
  server_->Stop();
  auto server = control::ControlServer::Start(service_.get(), 0, 500,
                                              &manager);
  ASSERT_TRUE(server.ok());
  server_ = std::move(server).value();

  net::HttpClient client("127.0.0.1", server_->port());
  auto login = client.Post("/api/v2/auth/login",
                           R"({"username":"admin","password":"secret"})");
  client.SetDefaultHeader(
      "X-Session", json::Parse(login->body)->at("token").as_string());

  // Discover provisioners.
  auto listed = client.Get("/api/v2/provisioners");
  ASSERT_EQ(listed->status_code, 200);
  auto list_body = json::Parse(listed->body);
  EXPECT_EQ(list_body->at("provisioners").at(0).as_string(), "local-mokka");

  // Provision a deployment.
  json::Json request = json::Json::MakeObject();
  request.Set("provisioner", "local-mokka");
  request.Set("system_id", system_id_);
  request.Set("name", "auto-deployed");
  json::Json spec = json::Json::MakeObject();
  spec.Set("default_engine", "btree");
  request.Set("spec", spec);
  auto provisioned =
      client.Post("/api/v2/deployments/provision", request.Dump());
  ASSERT_EQ(provisioned->status_code, 201) << provisioned->body;
  auto deployment = json::Parse(provisioned->body);
  std::string deployment_id = deployment->at("id").as_string();
  std::string endpoint = deployment->at("endpoint").as_string();
  EXPECT_EQ(provisioner.running_count(), 1u);
  EXPECT_EQ(deployment->at("environment").as_string(), "local-mokka");

  // The provisioned instance is a live MokkaDB: run a real job on it.
  std::string evaluation_id =
      MakeEvaluation({json::Json("wiredtiger")}, {json::Json(1)});
  agent::AgentOptions options;
  options.control_port = server_->port();
  options.username = "admin";
  options.password = "secret";
  options.deployment_id = deployment_id;
  options.poll_interval_ms = 20;
  agent::ChronosAgent chronos_agent(options);
  chronos_agent.SetHandler(clients::MakeMokkaEvaluationHandler(endpoint));
  ASSERT_TRUE(chronos_agent.Connect().ok());
  ASSERT_TRUE(chronos_agent.Run(/*max_jobs=*/1).ok());
  auto jobs = service_->ListJobs(evaluation_id);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, JobState::kFinished) << jobs[0].failure_reason;

  // Teardown removes the deployment and stops the instance.
  auto torn = client.Post(
      "/api/v2/deployments/" + deployment_id + "/teardown", "{}");
  EXPECT_EQ(torn->status_code, 200) << torn->body;
  EXPECT_EQ(provisioner.running_count(), 0u);
  EXPECT_TRUE(service_->PollJob(deployment_id).status().IsNotFound());

  // v1 does not expose provisioning (versioned API).
  auto v1 = client.Get("/api/v1/provisioners");
  EXPECT_EQ(v1->status_code, 404);
}

TEST_F(IntegrationTest, ProvisioningRequiresAdmin) {
  StartMokkaDeployments(0);
  clients::LocalMokkaProvisioner provisioner;
  control::ProvisioningManager manager(service_.get());
  ASSERT_TRUE(manager.RegisterProvisioner(&provisioner).ok());
  server_->Stop();
  auto server = control::ControlServer::Start(service_.get(), 0, 500,
                                              &manager);
  server_ = std::move(server).value();

  service_->CreateUser("pleb", "pass", model::UserRole::kMember).IgnoreError();
  net::HttpClient client("127.0.0.1", server_->port());
  auto login = client.Post("/api/v2/auth/login",
                           R"({"username":"pleb","password":"pass"})");
  client.SetDefaultHeader(
      "X-Session", json::Parse(login->body)->at("token").as_string());
  auto response = client.Post("/api/v2/deployments/provision",
                              R"({"provisioner":"local-mokka"})");
  EXPECT_EQ(response->status_code, 403);
}

TEST_F(IntegrationTest, ProvisionerManagerDirectApi) {
  StartMokkaDeployments(0);
  clients::LocalMokkaProvisioner provisioner;
  control::ProvisioningManager manager(service_.get());
  ASSERT_TRUE(manager.RegisterProvisioner(&provisioner).ok());
  EXPECT_TRUE(manager.RegisterProvisioner(&provisioner).IsAlreadyExists());
  EXPECT_TRUE(manager
                  .ProvisionDeployment("nope", system_id_, "", json::Json())
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(manager.TeardownDeployment("ghost").IsNotFound());

  // Unknown system rolls the launched instance back.
  auto bad = manager.ProvisionDeployment("local-mokka", "no-such-system",
                                         "", json::Json());
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(provisioner.running_count(), 0u);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager
                    .ProvisionDeployment("local-mokka", system_id_,
                                         "d" + std::to_string(i),
                                         json::Json())
                    .ok());
  }
  EXPECT_EQ(manager.active_count(), 3u);
  EXPECT_EQ(manager.TeardownAll(), 3);
  EXPECT_EQ(provisioner.running_count(), 0u);
  EXPECT_TRUE(service_->ListDeployments(system_id_).empty());
}

// --- Durable deployment restart ---

TEST_F(IntegrationTest, DurableDeploymentSurvivesRestart) {
  StartMokkaDeployments(0);
  file::TempDir data_dir("mokka-deploy");
  int port;
  {
    mokka::DatabaseOptions options;
    options.data_dir = data_dir.path();
    auto database = mokka::Database::Open(options);
    ASSERT_TRUE(database.ok());
    auto wire = mokka::StartWireServer(database->get(), 0);
    ASSERT_TRUE(wire.ok());
    port = (*wire)->port();
    auto client = mokka::WireClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->CreateCollection("t", "wiredtiger").ok());
    json::Json doc = json::Json::MakeObject();
    doc.Set("_id", "persistent");
    doc.Set("value", 42);
    ASSERT_TRUE((*client)->Insert("t", std::move(doc)).ok());
    (*wire)->Stop();
  }
  // "Restart the deployment" — a fresh server over the same data dir.
  mokka::DatabaseOptions options;
  options.data_dir = data_dir.path();
  auto database = mokka::Database::Open(options);
  ASSERT_TRUE(database.ok());
  auto wire = mokka::StartWireServer(database->get(), 0);
  ASSERT_TRUE(wire.ok());
  auto client = mokka::WireClient::Connect("127.0.0.1", (*wire)->port());
  ASSERT_TRUE(client.ok());
  auto doc = (*client)->Get("t", "persistent");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->at("value").as_int(), 42);
}

// --- Direct benchmark client sanity (no Chronos in the loop) ---

TEST_F(IntegrationTest, MokkaBenchmarkRunsStandalone) {
  StartMokkaDeployments(1);
  clients::MokkaBenchConfig config;
  config.endpoint = endpoints_[0];
  config.engine = "mmapv1";
  config.threads = 2;
  config.spec.record_count = 50;
  config.spec.operation_count = 100;
  analysis::MetricsCollector metrics;
  auto summary = clients::RunMokkaBenchmark(config, &metrics);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_GT(summary->at("throughput").as_double(), 0);
  EXPECT_EQ(summary->at("engine").as_string(), "mmapv1");
  EXPECT_EQ(metrics.TotalOperations(), 200u);  // 2 threads x 100 ops.
}

TEST_F(IntegrationTest, ConfigFromParametersMapsEverything) {
  model::ParameterAssignment parameters;
  parameters["engine"] = json::Json("mmapv1");
  parameters["threads"] = json::Json(4);
  parameters["records"] = json::Json(123);
  parameters["operations"] = json::Json(456);
  parameters["ratio"] = json::Json("read:50,update:50");
  parameters["distribution"] = json::Json("uniform");
  parameters["field_count"] = json::Json(3);
  parameters["field_length"] = json::Json(8);
  parameters["warmup_ops"] = json::Json(10);
  auto config = clients::ConfigFromParameters(parameters, "h:1");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->engine, "mmapv1");
  EXPECT_EQ(config->threads, 4);
  EXPECT_EQ(config->spec.record_count, 123u);
  EXPECT_EQ(config->spec.operation_count, 456u);
  EXPECT_DOUBLE_EQ(config->spec.read_proportion, 0.5);
  EXPECT_EQ(config->spec.distribution,
            workload::DistributionKind::kUniform);
  EXPECT_EQ(config->spec.field_count, 3);
  EXPECT_EQ(config->warmup_ops_per_thread, 10u);

  parameters["threads"] = json::Json(0);
  EXPECT_FALSE(clients::ConfigFromParameters(parameters, "h:1").ok());
}

}  // namespace
}  // namespace chronos
