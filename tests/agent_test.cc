// Agent-library unit tests against a scripted stub of the Chronos Control
// REST API (the integration suite covers the real server; these pin the
// agent's own behaviour: context accessors, result assembly, abort
// detection, log batching, failure reporting).
#include <gtest/gtest.h>

#include <mutex>

#include "agent/agent.h"
#include "archive/zip.h"
#include "common/logging.h"
#include "common/strings.h"
#include "net/http.h"
#include "net/router.h"

namespace chronos::agent {
namespace {

// Minimal scripted control server: serves login, one poll'able job, and
// records everything the agent sends.
class StubControl {
 public:
  StubControl() {
    router_.Post("/api/v2/auth/login", [](const net::HttpRequest&) {
      json::Json body = json::Json::MakeObject();
      body.Set("token", "stub-token");
      return net::HttpResponse::Json(body);
    });
    router_.Post("/api/v2/agent/poll", [this](const net::HttpRequest&) {
      std::lock_guard<std::mutex> lock(mu_);
      json::Json body = json::Json::MakeObject();
      if (jobs_to_serve_ > 0) {
        --jobs_to_serve_;
        body.Set("job", MakeJob());
      } else {
        body.Set("job", nullptr);
      }
      return net::HttpResponse::Json(body);
    });
    router_.Post("/api/v2/agent/jobs/{id}/progress",
                 [this](const net::HttpRequest& request) {
                   std::lock_guard<std::mutex> lock(mu_);
                   auto body = request.JsonBody();
                   progress_.push_back(
                       static_cast<int>(body->GetIntOr("percent", -1)));
                   json::Json response = json::Json::MakeObject();
                   response.Set("state", job_state_);
                   return net::HttpResponse::Json(response);
                 });
    router_.Post("/api/v2/agent/jobs/{id}/heartbeat",
                 [this](const net::HttpRequest&) {
                   std::lock_guard<std::mutex> lock(mu_);
                   ++heartbeats_;
                   json::Json response = json::Json::MakeObject();
                   response.Set("state", job_state_);
                   return net::HttpResponse::Json(response);
                 });
    router_.Post("/api/v2/agent/jobs/{id}/log",
                 [this](const net::HttpRequest& request) {
                   std::lock_guard<std::mutex> lock(mu_);
                   auto body = request.JsonBody();
                   for (const json::Json& line :
                        body->at("lines").as_array()) {
                     log_lines_.push_back(line.as_string());
                   }
                   ++log_batches_;
                   return net::HttpResponse::Json(json::Json::MakeObject());
                 });
    router_.Post("/api/v2/agent/jobs/{id}/result",
                 [this](const net::HttpRequest& request) {
                   std::lock_guard<std::mutex> lock(mu_);
                   auto body = request.JsonBody();
                   result_ = *body;
                   return net::HttpResponse::Json(json::Json::MakeObject(),
                                                  201);
                 });
    router_.Post("/api/v2/agent/jobs/{id}/fail",
                 [this](const net::HttpRequest& request) {
                   std::lock_guard<std::mutex> lock(mu_);
                   auto body = request.JsonBody();
                   failure_reason_ = body->GetStringOr("reason", "");
                   return net::HttpResponse::Json(json::Json::MakeObject());
                 });
    auto server = net::StartHttpServer(
        0, [this](const net::HttpRequest& request) {
          return router_.Dispatch(request);
        });
    server_ = std::move(server).value();
  }

  static json::Json MakeJob() {
    model::Job job;
    job.id = "job-1";
    job.evaluation_id = "eval-1";
    job.state = model::JobState::kRunning;
    job.parameters["threads"] = json::Json(8);
    job.parameters["engine"] = json::Json("btree");
    job.parameters["rate"] = json::Json(2.5);
    job.parameters["verbose"] = json::Json(true);
    job.attempt = 2;
    return job.ToJson();
  }

  AgentOptions Options() {
    AgentOptions options;
    options.control_port = server_->port();
    options.username = "u";
    options.password = "p";
    options.deployment_id = "dep-1";
    options.poll_interval_ms = 10;
    options.heartbeat_interval_ms = 100;
    options.log_flush_interval_ms = 100;
    return options;
  }

  void ServeJobs(int n) {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_to_serve_ = n;
  }
  void SetJobState(const std::string& state) {
    std::lock_guard<std::mutex> lock(mu_);
    job_state_ = state;
  }
  std::vector<int> progress() {
    std::lock_guard<std::mutex> lock(mu_);
    return progress_;
  }
  std::vector<std::string> log_lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return log_lines_;
  }
  int log_batches() {
    std::lock_guard<std::mutex> lock(mu_);
    return log_batches_;
  }
  int heartbeats() {
    std::lock_guard<std::mutex> lock(mu_);
    return heartbeats_;
  }
  json::Json result() {
    std::lock_guard<std::mutex> lock(mu_);
    return result_;
  }
  std::string failure_reason() {
    std::lock_guard<std::mutex> lock(mu_);
    return failure_reason_;
  }

 private:
  net::Router router_;
  std::unique_ptr<net::ConnectionServer> server_;
  std::mutex mu_;
  int jobs_to_serve_ = 0;
  std::string job_state_ = "running";
  std::vector<int> progress_;
  std::vector<std::string> log_lines_;
  int log_batches_ = 0;
  int heartbeats_ = 0;
  json::Json result_;
  std::string failure_reason_;
};

class AgentTest : public ::testing::Test {
 protected:
  void SetUp() override { Logger::Get()->set_stderr_enabled(false); }
  StubControl stub_;
};

TEST_F(AgentTest, ConnectLogsIn) {
  ChronosAgent agent(stub_.Options());
  EXPECT_TRUE(agent.Connect().ok());
  EXPECT_EQ(agent.session_token(), "stub-token");
}

TEST_F(AgentTest, RunOnceWithoutHandlerFails) {
  ChronosAgent agent(stub_.Options());
  ASSERT_TRUE(agent.Connect().ok());
  EXPECT_TRUE(agent.RunOnce().status().IsFailedPrecondition());
}

TEST_F(AgentTest, RunOnceIdleReturnsFalse) {
  ChronosAgent agent(stub_.Options());
  agent.SetHandler([](JobContext*) { return Status::Ok(); });
  ASSERT_TRUE(agent.Connect().ok());
  auto ran = agent.RunOnce();
  ASSERT_TRUE(ran.ok());
  EXPECT_FALSE(*ran);
  EXPECT_EQ(agent.jobs_executed(), 0);
}

TEST_F(AgentTest, ContextExposesTypedParameters) {
  stub_.ServeJobs(1);
  ChronosAgent agent(stub_.Options());
  std::atomic<bool> checked{false};
  agent.SetHandler([&checked](JobContext* context) {
    EXPECT_EQ(context->ParamInt("threads", -1), 8);
    EXPECT_EQ(context->ParamString("engine", ""), "btree");
    EXPECT_DOUBLE_EQ(context->ParamDouble("rate", 0), 2.5);
    EXPECT_TRUE(context->ParamBool("verbose", false));
    // Fallbacks for missing / mistyped parameters.
    EXPECT_EQ(context->ParamInt("missing", -7), -7);
    EXPECT_EQ(context->ParamString("threads", "fb"), "fb");
    EXPECT_FALSE(context->ParamBool("engine", false));
    EXPECT_EQ(context->job().attempt, 2);
    checked.store(true);
    return Status::Ok();
  });
  ASSERT_TRUE(agent.Connect().ok());
  ASSERT_TRUE(agent.Run(/*max_jobs=*/1).ok());
  EXPECT_TRUE(checked.load());
  EXPECT_EQ(agent.jobs_executed(), 1);
}

TEST_F(AgentTest, ResultCarriesMetricsParametersAndBundle) {
  stub_.ServeJobs(1);
  ChronosAgent agent(stub_.Options());
  agent.SetHandler([](JobContext* context) {
    context->metrics()->StartRun();
    context->metrics()->RecordLatency("read", 120);
    context->metrics()->EndRun();
    context->SetResultField("throughput", 987.5);
    context->AddResultFile("trace.csv", "a,b\n1,2\n");
    context->Log("did the thing");
    return Status::Ok();
  });
  ASSERT_TRUE(agent.Connect().ok());
  ASSERT_TRUE(agent.Run(1).ok());

  json::Json uploaded = stub_.result();
  const json::Json& data = uploaded.at("data");
  EXPECT_DOUBLE_EQ(data.at("throughput").as_double(), 987.5);
  // Built-in metrics block.
  EXPECT_EQ(data.at("metrics").at("latency_us").at("read").at("count")
                .as_int(),
            1);
  // Parameters travel with the result.
  EXPECT_EQ(data.at("parameters").at("threads").as_int(), 8);
  // Bundle contains the handler file + result.json.
  std::string bundle;
  ASSERT_TRUE(strings::Base64Decode(
      uploaded.GetStringOr("zip_base64", ""), &bundle));
  auto reader = archive::ZipReader::Open(bundle);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->Read("trace.csv"), "a,b\n1,2\n");
  EXPECT_TRUE(reader->Has("result.json"));
  // The logged line was shipped.
  auto lines = stub_.log_lines();
  bool found = false;
  for (const std::string& line : lines) {
    if (line == "did the thing") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(AgentTest, HandlerFailureReportsReason) {
  stub_.ServeJobs(1);
  ChronosAgent agent(stub_.Options());
  agent.SetHandler([](JobContext*) {
    return Status::Internal("kaboom");
  });
  ASSERT_TRUE(agent.Connect().ok());
  ASSERT_TRUE(agent.Run(1).ok());
  EXPECT_NE(stub_.failure_reason().find("kaboom"), std::string::npos);
  EXPECT_TRUE(stub_.result().is_null());  // No result upload on failure.
}

TEST_F(AgentTest, AbortDetectedViaProgress) {
  stub_.ServeJobs(1);
  ChronosAgent agent(stub_.Options());
  agent.SetHandler([this](JobContext* context) {
    EXPECT_TRUE(context->SetProgress(10));  // Still running.
    stub_.SetJobState("aborted");
    EXPECT_FALSE(context->SetProgress(20));  // Abort observed.
    EXPECT_TRUE(context->IsAborted());
    return Status::Aborted("stopping");
  });
  ASSERT_TRUE(agent.Connect().ok());
  ASSERT_TRUE(agent.Run(1).ok());
  // Neither a result nor a failure report for an aborted job.
  EXPECT_TRUE(stub_.result().is_null());
  EXPECT_TRUE(stub_.failure_reason().empty());
  auto progress = stub_.progress();
  ASSERT_EQ(progress.size(), 2u);
  EXPECT_EQ(progress[0], 10);
  EXPECT_EQ(progress[1], 20);
}

TEST_F(AgentTest, KeepaliveShipsLogsAndHeartbeats) {
  stub_.ServeJobs(1);
  AgentOptions options = stub_.Options();
  options.heartbeat_interval_ms = 60;
  options.log_flush_interval_ms = 60;
  ChronosAgent agent(options);
  agent.SetHandler([](JobContext* context) {
    for (int i = 0; i < 4; ++i) {
      context->Log("tick " + std::to_string(i));
      SystemClock::Get()->SleepMs(100);
    }
    return Status::Ok();
  });
  ASSERT_TRUE(agent.Connect().ok());
  ASSERT_TRUE(agent.Run(1).ok());
  // Logs were shipped in more than one batch (periodic flushing), and
  // heartbeats flowed during the ~400ms handler.
  EXPECT_GE(stub_.log_batches(), 2);
  EXPECT_GE(stub_.heartbeats(), 2);
  EXPECT_GE(stub_.log_lines().size(), 5u);  // 4 ticks + pickup line.
}

TEST_F(AgentTest, ProgressClampedToValidRange) {
  stub_.ServeJobs(1);
  ChronosAgent agent(stub_.Options());
  agent.SetHandler([](JobContext* context) {
    context->SetProgress(-10);
    context->SetProgress(150);
    return Status::Ok();
  });
  ASSERT_TRUE(agent.Connect().ok());
  ASSERT_TRUE(agent.Run(1).ok());
  auto progress = stub_.progress();
  ASSERT_GE(progress.size(), 2u);
  // The agent sends raw values; the stub records them — the server clamps.
  // (The real ControlService clamps; here we just pin the wire contract.)
  EXPECT_EQ(progress[0], -10);
  EXPECT_EQ(progress[1], 150);
}

}  // namespace
}  // namespace chronos::agent
