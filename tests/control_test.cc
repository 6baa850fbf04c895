#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <tuple>

#include "archive/zip.h"
#include "common/file_util.h"
#include "common/strings.h"
#include "control/archiver.h"
#include "control/auth.h"
#include "control/control_service.h"
#include "control/heartbeat_monitor.h"
#include "obs/metrics_registry.h"

namespace chronos::control {
namespace {

using chronos::file::TempDir;
using model::JobState;

// --- Auth primitives ---

TEST(AuthTest, HashIsDeterministicAndSalted) {
  std::string salt_a = GenerateSalt();
  std::string salt_b = GenerateSalt();
  EXPECT_NE(salt_a, salt_b);
  EXPECT_EQ(HashPassword("pw", salt_a), HashPassword("pw", salt_a));
  EXPECT_NE(HashPassword("pw", salt_a), HashPassword("pw", salt_b));
  EXPECT_NE(HashPassword("pw", salt_a), HashPassword("pw2", salt_a));
  EXPECT_TRUE(VerifyPassword("pw", salt_a, HashPassword("pw", salt_a)));
  EXPECT_FALSE(VerifyPassword("nope", salt_a, HashPassword("pw", salt_a)));
}

// A session's User as captured at login; only the id matters to these tests.
model::User SessionUser(const std::string& id) {
  model::User user;
  user.id = id;
  return user;
}

TEST(SessionTest, LifecycleAndExpiry) {
  SimulatedClock clock(1000000);
  SessionManager sessions(&clock, /*ttl_ms=*/1000);
  std::string token = sessions.CreateSession(SessionUser("u1"));
  EXPECT_EQ(sessions.Resolve(token)->id, "u1");
  clock.AdvanceMs(500);
  EXPECT_TRUE(sessions.Resolve(token).ok());
  clock.AdvanceMs(600);
  EXPECT_TRUE(sessions.Resolve(token).status().code() ==
              StatusCode::kUnauthenticated);
  EXPECT_FALSE(sessions.Resolve("bogus").ok());
}

TEST(SessionTest, InvalidateAndSweep) {
  SimulatedClock clock;
  SessionManager sessions(&clock, 100);
  std::string token_a = sessions.CreateSession(SessionUser("a"));
  sessions.CreateSession(SessionUser("b"));
  EXPECT_TRUE(sessions.Invalidate(token_a).ok());
  EXPECT_TRUE(sessions.Invalidate(token_a).IsNotFound());
  clock.AdvanceMs(200);
  EXPECT_EQ(sessions.Sweep(), 1);
  EXPECT_EQ(sessions.active_sessions(), 0u);
}

// Tokens that are never presented again (a CLI login, a restarted agent)
// must not pile up: each login drops the expired sessions.
TEST(SessionTest, LoginReclaimsExpiredSessions) {
  SimulatedClock clock;
  SessionManager sessions(&clock, /*ttl_ms=*/100);
  for (int i = 0; i < 1000; ++i) {
    sessions.CreateSession(SessionUser("u" + std::to_string(i)));
  }
  EXPECT_EQ(sessions.active_sessions(), 1000u);
  clock.AdvanceMs(200);
  std::string token = sessions.CreateSession(SessionUser("late"));
  EXPECT_EQ(sessions.active_sessions(), 1u);
  EXPECT_EQ(sessions.Resolve(token)->id, "late");
}

// --- Service fixture ---

class ControlServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = model::MetaDb::Open(dir_.path());
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    options_.heartbeat_timeout_ms = 1000;
    options_.max_attempts = 3;
    service_ = std::make_unique<ControlService>(db_.get(), &clock_, options_);

    auto admin = service_->CreateUser("admin", "secret", model::UserRole::kAdmin);
    ASSERT_TRUE(admin.ok()) << admin.status();
    admin_id_ = admin->id;
  }

  // Registers the MokkaDB system with the demo parameters and diagram.
  model::System RegisterDemoSystem() {
    model::System system;
    system.name = "MokkaDB";
    model::ParameterDef engine;
    engine.name = "engine";
    engine.type = model::ParameterType::kCheckbox;
    engine.options = {json::Json("wiredtiger"), json::Json("mmapv1")};
    system.parameters.push_back(engine);
    model::ParameterDef threads;
    threads.name = "threads";
    threads.type = model::ParameterType::kInterval;
    threads.min = 1;
    threads.max = 64;
    system.parameters.push_back(threads);
    model::DiagramDef diagram;
    diagram.name = "Throughput";
    diagram.type = model::DiagramType::kLine;
    diagram.x_field = "threads";
    diagram.y_field = "throughput";
    diagram.group_by = "engine";
    system.diagrams.push_back(diagram);
    auto registered = service_->RegisterSystem(system);
    EXPECT_TRUE(registered.ok());
    return *registered;
  }

  model::Deployment AddDeployment(const std::string& system_id,
                                  const std::string& name = "dep") {
    model::Deployment deployment;
    deployment.system_id = system_id;
    deployment.name = name;
    deployment.endpoint = "127.0.0.1:1";
    auto created = service_->CreateDeployment(deployment);
    EXPECT_TRUE(created.ok());
    return *created;
  }

  // Full path to a scheduled evaluation: project -> experiment (engine x
  // threads sweep) -> evaluation.
  model::Evaluation MakeDemoEvaluation(
      std::vector<json::Json> thread_sweep = {json::Json(1), json::Json(2)}) {
    model::System system = RegisterDemoSystem();
    system_id_ = system.id;
    auto project = service_->CreateProject("mongo-eval", "", admin_id_);
    EXPECT_TRUE(project.ok());
    project_id_ = project->id;
    model::ParameterSetting engines;
    engines.name = "engine";
    engines.sweep = {json::Json("wiredtiger"), json::Json("mmapv1")};
    model::ParameterSetting threads;
    threads.name = "threads";
    threads.sweep = std::move(thread_sweep);
    auto experiment = service_->CreateExperiment(
        project_id_, admin_id_, system.id, "engine comparison", "",
        {engines, threads});
    EXPECT_TRUE(experiment.ok()) << experiment.status();
    experiment_id_ = experiment->id;
    auto evaluation = service_->CreateEvaluation(experiment_id_, "run 1");
    EXPECT_TRUE(evaluation.ok());
    return *evaluation;
  }

  TempDir dir_;
  SimulatedClock clock_{1000000};
  ControlServiceOptions options_;
  std::unique_ptr<model::MetaDb> db_;
  std::unique_ptr<ControlService> service_;
  std::string admin_id_, project_id_, experiment_id_, system_id_;
};

// --- Users / login ---

TEST_F(ControlServiceTest, LoginRoundTrip) {
  auto token = service_->Login("admin", "secret");
  ASSERT_TRUE(token.ok());
  auto user = service_->Authenticate(*token);
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(user->username, "admin");
  ASSERT_TRUE(service_->Logout(*token).ok());
  EXPECT_FALSE(service_->Authenticate(*token).ok());
}

TEST_F(ControlServiceTest, LoginRejectsBadCredentials) {
  EXPECT_FALSE(service_->Login("admin", "wrong").ok());
  EXPECT_FALSE(service_->Login("ghost", "secret").ok());
}

TEST_F(ControlServiceTest, DuplicateUsernameRejected) {
  EXPECT_TRUE(service_->CreateUser("admin", "xxxx", model::UserRole::kMember)
                  .status()
                  .IsAlreadyExists());
}

TEST_F(ControlServiceTest, WeakPasswordRejected) {
  EXPECT_FALSE(service_->CreateUser("u", "ab", model::UserRole::kMember).ok());
}

// --- Project access control ---

TEST_F(ControlServiceTest, ProjectMembershipGatesAccess) {
  auto outsider =
      service_->CreateUser("outsider", "pass", model::UserRole::kMember);
  auto member =
      service_->CreateUser("member", "pass", model::UserRole::kMember);
  auto project = service_->CreateProject("p", "", admin_id_);
  ASSERT_TRUE(project.ok());

  EXPECT_TRUE(service_->GetProject(project->id, outsider->id)
                  .status()
                  .code() == StatusCode::kPermissionDenied);
  ASSERT_TRUE(
      service_->AddProjectMember(project->id, admin_id_, member->id).ok());
  EXPECT_TRUE(service_->GetProject(project->id, member->id).ok());

  // Member (not outsider) sees it in the listing.
  EXPECT_EQ(service_->ListProjects(member->id).size(), 1u);
  EXPECT_EQ(service_->ListProjects(outsider->id).size(), 0u);
  EXPECT_EQ(service_->ListProjects(admin_id_).size(), 1u);  // Admin sees all.
}

TEST_F(ControlServiceTest, ArchivedProjectRefusesNewExperiments) {
  model::System system = RegisterDemoSystem();
  auto project = service_->CreateProject("p", "", admin_id_);
  ASSERT_TRUE(
      service_->SetProjectArchived(project->id, admin_id_, true).ok());
  EXPECT_TRUE(service_
                  ->CreateExperiment(project->id, admin_id_, system.id, "x",
                                     "", {})
                  .status()
                  .IsFailedPrecondition());
}

// --- Experiment validation ---

TEST_F(ControlServiceTest, ExperimentValidatesAgainstSystem) {
  model::System system = RegisterDemoSystem();
  auto project = service_->CreateProject("p", "", admin_id_);

  model::ParameterSetting unknown;
  unknown.name = "bogus";
  unknown.fixed = json::Json(1);
  EXPECT_TRUE(service_
                  ->CreateExperiment(project->id, admin_id_, system.id, "x",
                                     "", {unknown})
                  .status()
                  .IsInvalidArgument());

  model::ParameterSetting out_of_range;
  out_of_range.name = "threads";
  out_of_range.fixed = json::Json(1000);  // max is 64.
  EXPECT_FALSE(service_
                   ->CreateExperiment(project->id, admin_id_, system.id, "x",
                                      "", {out_of_range})
                   .ok());

  model::ParameterSetting bad_engine;
  bad_engine.name = "engine";
  bad_engine.fixed = json::Json("rocksdb");
  EXPECT_FALSE(service_
                   ->CreateExperiment(project->id, admin_id_, system.id, "x",
                                      "", {bad_engine})
                   .ok());
}

// --- Evaluation expansion ---

TEST_F(ControlServiceTest, EvaluationExpandsCartesianJobs) {
  model::Evaluation evaluation =
      MakeDemoEvaluation({json::Json(1), json::Json(2), json::Json(4)});
  auto jobs = service_->ListJobs(evaluation.id);
  EXPECT_EQ(jobs.size(), 6u);  // 2 engines x 3 thread counts.
  for (const model::Job& job : jobs) {
    EXPECT_EQ(job.state, JobState::kScheduled);
    EXPECT_TRUE(job.parameters.count("engine") > 0);
    EXPECT_TRUE(job.parameters.count("threads") > 0);
  }
  auto summary = service_->Summarize(evaluation.id);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->total_jobs, 6);
  EXPECT_EQ(summary->state_counts[JobState::kScheduled], 6);
  EXPECT_EQ(summary->overall_progress_percent, 0);
}

TEST_F(ControlServiceTest, EvaluationRepetitionsMultiplyJobs) {
  MakeDemoEvaluation();  // Registers everything; ignore its evaluation.
  auto evaluation =
      service_->CreateEvaluation(experiment_id_, "rep run", /*repetitions=*/3);
  ASSERT_TRUE(evaluation.ok());
  auto jobs = service_->ListJobs(evaluation->id);
  EXPECT_EQ(jobs.size(), 12u);  // 2 engines x 2 threads x 3 repetitions.
  // Repeated assignments are identical.
  int same_params = 0;
  for (size_t i = 1; i < jobs.size(); ++i) {
    if (model::AssignmentToJson(jobs[i].parameters) ==
        model::AssignmentToJson(jobs[i - 1].parameters)) {
      ++same_params;
    }
  }
  EXPECT_EQ(same_params, 8);  // 2 duplicates per 4 distinct assignments.

  EXPECT_FALSE(service_->CreateEvaluation(experiment_id_, "x", 0).ok());
  EXPECT_FALSE(service_->CreateEvaluation(experiment_id_, "x", 1001).ok());
}

TEST_F(ControlServiceTest, RepeatedResultsAverageInDiagrams) {
  MakeDemoEvaluation();
  auto evaluation = service_->CreateEvaluation(experiment_id_, "avg",
                                               /*repetitions=*/2);
  ASSERT_TRUE(evaluation.ok());
  model::Deployment deployment = AddDeployment(system_id_);
  // Finish the repetition jobs with different throughputs; diagram points
  // must be their mean. Abort the jobs of the fixture's first evaluation so
  // only ours complete... they belong to a different evaluation anyway.
  double values[] = {100, 300, 100, 300, 100, 300, 100, 300};
  int i = 0;
  while (true) {
    auto job = service_->PollJob(deployment.id);
    ASSERT_TRUE(job.ok());
    if (!job->has_value()) break;
    if ((*job)->evaluation_id != evaluation->id) {
      ASSERT_TRUE(service_->AbortJob((*job)->id).ok());
      continue;
    }
    json::Json data = json::Json::MakeObject();
    data.Set("throughput", values[i++ % 8]);
    ASSERT_TRUE(service_->UploadResult((*job)->id, data, "").ok());
  }
  auto diagrams = service_->EvaluationDiagrams(evaluation->id);
  ASSERT_TRUE(diagrams.ok());
  ASSERT_EQ(diagrams->size(), 1u);
  for (const analysis::Series& series : (*diagrams)[0].series) {
    for (double v : series.values) {
      EXPECT_DOUBLE_EQ(v, 200);  // Mean of 100 and 300.
    }
  }
}

// --- Dispatch / job lifecycle ---

TEST_F(ControlServiceTest, PollAssignsOldestScheduledJob) {
  model::Evaluation evaluation = MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);

  auto polled = service_->PollJob(deployment.id);
  ASSERT_TRUE(polled.ok()) << polled.status();
  ASSERT_TRUE(polled->has_value());
  EXPECT_EQ((*polled)->state, JobState::kRunning);
  EXPECT_EQ((*polled)->deployment_id, deployment.id);
  EXPECT_GT((*polled)->started_at, 0);

  // Deployment is busy: next poll gets nothing.
  auto second = service_->PollJob(deployment.id);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->has_value());
}

TEST_F(ControlServiceTest, PollRespectsSystemMatch) {
  MakeDemoEvaluation();
  // A deployment of a different system must not receive these jobs.
  model::System other;
  other.name = "OtherDB";
  auto registered = service_->RegisterSystem(other);
  model::Deployment deployment = AddDeployment(registered->id);
  auto polled = service_->PollJob(deployment.id);
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(polled->has_value());
}

TEST_F(ControlServiceTest, PollRejectsInactiveDeployment) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  ASSERT_TRUE(service_->SetDeploymentActive(deployment.id, false).ok());
  EXPECT_TRUE(service_->PollJob(deployment.id).status().IsFailedPrecondition());
}

TEST_F(ControlServiceTest, TwoDeploymentsGetDistinctJobs) {
  MakeDemoEvaluation();
  model::Deployment dep_a = AddDeployment(system_id_, "a");
  model::Deployment dep_b = AddDeployment(system_id_, "b");
  auto job_a = service_->PollJob(dep_a.id);
  auto job_b = service_->PollJob(dep_b.id);
  ASSERT_TRUE(job_a->has_value());
  ASSERT_TRUE(job_b->has_value());
  EXPECT_NE((*job_a)->id, (*job_b)->id);
}

TEST_F(ControlServiceTest, ResultUploadFinishesJob) {
  model::Evaluation evaluation = MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());

  json::Json data = json::Json::MakeObject();
  data.Set("throughput", 1234.5);
  ASSERT_TRUE(service_->UploadResult((*job)->id, data, "").ok());

  auto finished = service_->GetJob((*job)->id);
  EXPECT_EQ(finished->state, JobState::kFinished);
  EXPECT_EQ(finished->progress_percent, 100);
  EXPECT_GT(finished->finished_at, 0);
  auto result = service_->GetResult((*job)->id);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->data.at("throughput").as_double(), 1234.5);

  // A second upload must be rejected (job no longer running).
  EXPECT_TRUE(
      service_->UploadResult((*job)->id, data, "").IsFailedPrecondition());
}

TEST_F(ControlServiceTest, AbortScheduledAndRunning) {
  model::Evaluation evaluation = MakeDemoEvaluation();
  auto jobs = service_->ListJobs(evaluation.id);
  ASSERT_GE(jobs.size(), 2u);

  // Abort a scheduled job directly.
  ASSERT_TRUE(service_->AbortJob(jobs[0].id).ok());
  EXPECT_EQ(service_->GetJob(jobs[0].id)->state, JobState::kAborted);

  // Abort a running job; the agent sees it on the next progress ping.
  model::Deployment deployment = AddDeployment(system_id_);
  auto running = service_->PollJob(deployment.id);
  ASSERT_TRUE(running->has_value());
  ASSERT_TRUE(service_->AbortJob((*running)->id).ok());
  auto state = service_->ReportProgress((*running)->id, 50);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, JobState::kAborted);

  // Aborted jobs cannot be aborted again or rescheduled.
  EXPECT_FALSE(service_->AbortJob(jobs[0].id).ok());
  EXPECT_FALSE(service_->RescheduleJob(jobs[0].id).ok());
}

TEST_F(ControlServiceTest, FailAndManualReschedule) {
  options_.auto_reschedule = false;
  service_ = std::make_unique<ControlService>(db_.get(), &clock_, options_);
  model::Evaluation evaluation = MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());

  ASSERT_TRUE(service_->FailJob((*job)->id, "client exploded").ok());
  auto failed = service_->GetJob((*job)->id);
  EXPECT_EQ(failed->state, JobState::kFailed);
  EXPECT_EQ(failed->failure_reason, "client exploded");

  ASSERT_TRUE(service_->RescheduleJob((*job)->id).ok());
  auto rescheduled = service_->GetJob((*job)->id);
  EXPECT_EQ(rescheduled->state, JobState::kScheduled);
  EXPECT_EQ(rescheduled->attempt, 2);
  EXPECT_EQ(rescheduled->progress_percent, 0);
  EXPECT_TRUE(rescheduled->deployment_id.empty());
}

TEST_F(ControlServiceTest, ProgressAndLogAccumulate) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());

  ASSERT_TRUE(service_->ReportProgress((*job)->id, 42).ok());
  EXPECT_EQ(service_->GetJob((*job)->id)->progress_percent, 42);
  ASSERT_TRUE(
      service_->AppendLog((*job)->id, {"line one", "line two"}).ok());
  EXPECT_EQ(service_->JobLog((*job)->id), "line one\nline two\n");
  // Timeline captured state change + progress + logs.
  auto events = service_->JobEvents((*job)->id);
  EXPECT_GE(events.size(), 4u);
  EXPECT_FALSE(service_->AppendLog("missing", {"x"}).ok());
}

// --- Reliability: heartbeats + auto-reschedule (requirement iii) ---

TEST_F(ControlServiceTest, HeartbeatTimeoutFailsAndAutoReschedules) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());
  std::string job_id = (*job)->id;

  // Fresh heartbeat: nothing happens.
  EXPECT_EQ(service_->CheckHeartbeats(), 0);

  // Silence for > timeout: job fails, then auto-reschedules (attempt 2).
  clock_.AdvanceMs(1500);
  EXPECT_EQ(service_->CheckHeartbeats(), 1);
  auto rescheduled = service_->GetJob(job_id);
  EXPECT_EQ(rescheduled->state, JobState::kScheduled);
  EXPECT_EQ(rescheduled->attempt, 2);
}

TEST_F(ControlServiceTest, AutoRescheduleStopsAtMaxAttempts) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  std::string job_id;
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    auto job = service_->PollJob(deployment.id);
    ASSERT_TRUE(job.ok() && job->has_value()) << "attempt " << attempt;
    if (job_id.empty()) job_id = (*job)->id;
    EXPECT_EQ((*job)->attempt, attempt);
    clock_.AdvanceMs(2000);
    EXPECT_GE(service_->CheckHeartbeats(), 1);
  }
  // After max_attempts the job stays failed.
  EXPECT_EQ(service_->GetJob(job_id)->state, JobState::kFailed);
  auto no_more = service_->PollJob(deployment.id);
  // All jobs of the 2x2 evaluation eventually fail this way, but the first
  // job must not come back.
  if (no_more.ok() && no_more->has_value()) {
    EXPECT_NE((*no_more)->id, job_id);
  }
}

TEST_F(ControlServiceTest, HeartbeatKeepsJobAlive) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  for (int i = 0; i < 5; ++i) {
    clock_.AdvanceMs(800);  // Under the 1000ms timeout each time.
    ASSERT_TRUE(service_->Heartbeat((*job)->id).ok());
    EXPECT_EQ(service_->CheckHeartbeats(), 0);
  }
  EXPECT_EQ(service_->GetJob((*job)->id)->state, JobState::kRunning);
}

TEST_F(ControlServiceTest, DispatchIsFifoWithinSystem) {
  MakeDemoEvaluation({json::Json(1)});  // 2 jobs (engine sweep x 1 thread).
  model::Deployment deployment = AddDeployment(system_id_);
  // Jobs dispatch in creation (id) order.
  auto first = service_->PollJob(deployment.id);
  ASSERT_TRUE(first->has_value());
  json::Json data = json::Json::MakeObject();
  data.Set("throughput", 1.0);
  ASSERT_TRUE(service_->UploadResult((*first)->id, data, "").ok());
  auto second = service_->PollJob(deployment.id);
  ASSERT_TRUE(second->has_value());
  EXPECT_LT((*first)->id, (*second)->id);
  // First job's engine is the first sweep value.
  EXPECT_EQ((*first)->parameters.at("engine").as_string(), "wiredtiger");
  EXPECT_EQ((*second)->parameters.at("engine").as_string(), "mmapv1");
}

TEST_F(ControlServiceTest, PollOrderIsCreatedAtThenIdAcrossEvaluations) {
  // An older evaluation of another system, which must never be handed out.
  MakeDemoEvaluation();
  const std::string other_system_id = system_id_;
  // Several evaluations of one system: two share a creation time (so their
  // jobs interleave by id across evaluations), one is newer.
  MakeDemoEvaluation();
  ASSERT_TRUE(service_->CreateEvaluation(experiment_id_, "twin").ok());
  clock_.AdvanceMs(5);
  ASSERT_TRUE(service_->CreateEvaluation(experiment_id_, "newer").ok());
  model::Deployment deployment = AddDeployment(system_id_);

  // The dispatch order the claim must keep: the oldest scheduled job of the
  // deployment's system by (created_at, id), read from a full scan.
  auto oldest_scheduled = [&]() -> std::string {
    std::vector<model::Job> scheduled;
    for (model::Job& job : db_->jobs().All()) {
      if (job.state == JobState::kScheduled && job.system_id == system_id_) {
        scheduled.push_back(std::move(job));
      }
    }
    if (scheduled.empty()) return "";
    return std::min_element(scheduled.begin(), scheduled.end(),
                            [](const model::Job& a, const model::Job& b) {
                              return std::tie(a.created_at, a.id) <
                                     std::tie(b.created_at, b.id);
                            })
        ->id;
  };
  json::Json data = json::Json::MakeObject();
  data.Set("throughput", 1.0);
  int claims = 0;
  bool rescheduled = false;
  for (;;) {
    const std::string expected = oldest_scheduled();
    auto polled = service_->PollJob(deployment.id);
    ASSERT_TRUE(polled.ok()) << polled.status();
    if (!polled->has_value()) {
      EXPECT_EQ(expected, "");
      break;
    }
    const model::Job& job = **polled;
    ASSERT_EQ(job.id, expected) << "claim " << claims;
    EXPECT_NE(job.system_id, other_system_id);
    ++claims;
    if (claims == 3) {
      // Fail the third claim: it is rescheduled with its old created_at, so
      // the next poll must hand it out again ahead of younger jobs.
      ASSERT_TRUE(service_->FailJob(job.id, "flaky").ok());
      ASSERT_EQ(service_->GetJob(job.id)->state, JobState::kScheduled);
      rescheduled = true;
      continue;
    }
    ASSERT_TRUE(service_->UploadResult(job.id, data, "").ok());
  }
  EXPECT_TRUE(rescheduled);
  EXPECT_EQ(claims, 3 * 4 + 1);
}

TEST_F(ControlServiceTest, ConcurrentClaimersNeverShareAJob) {
  MakeDemoEvaluation({json::Json(1), json::Json(2), json::Json(4),
                      json::Json(8)});
  ASSERT_TRUE(service_->CreateEvaluation(experiment_id_, "more", 3).ok());
  const size_t total = db_->jobs().Count();
  ASSERT_EQ(total, 8u + 24u);
  constexpr int kClaimers = 4;
  std::vector<std::string> deployment_ids;
  for (int i = 0; i < kClaimers; ++i) {
    deployment_ids.push_back(
        AddDeployment(system_id_, "dep-" + std::to_string(i)).id);
  }
  std::vector<std::vector<std::string>> claimed(kClaimers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClaimers; ++i) {
    threads.emplace_back([&, i] {
      json::Json data = json::Json::MakeObject();
      data.Set("throughput", 1.0);
      for (;;) {
        auto polled = service_->PollJob(deployment_ids[i]);
        ASSERT_TRUE(polled.ok()) << polled.status();
        if (!polled->has_value()) return;
        claimed[i].push_back((*polled)->id);
        ASSERT_TRUE(service_->UploadResult((*polled)->id, data, "").ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<std::string> distinct;
  size_t claims = 0;
  for (const auto& ids : claimed) {
    claims += ids.size();
    distinct.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(claims, total);
  EXPECT_EQ(distinct.size(), total);
}

TEST_F(ControlServiceTest, SummaryCountsStatesAndProgressFromTheIndex) {
  model::Evaluation evaluation = MakeDemoEvaluation(
      {json::Json(1), json::Json(2), json::Json(4)});  // 6 jobs.
  model::Deployment dep_a = AddDeployment(system_id_, "a");
  model::Deployment dep_b = AddDeployment(system_id_, "b");
  auto finished = service_->PollJob(dep_a.id);
  ASSERT_TRUE(finished->has_value());
  ASSERT_TRUE(service_
                  ->UploadResult((*finished)->id, json::Json::MakeObject(),
                                 "")
                  .ok());
  auto running = service_->PollJob(dep_a.id);
  ASSERT_TRUE(running->has_value());
  ASSERT_TRUE(service_->ReportProgress((*running)->id, 40).ok());
  auto aborted = service_->PollJob(dep_b.id);
  ASSERT_TRUE(aborted->has_value());
  ASSERT_TRUE(service_->ReportProgress((*aborted)->id, 30).ok());
  ASSERT_TRUE(service_->AbortJob((*aborted)->id).ok());

  auto summary = service_->Summarize(evaluation.id);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->total_jobs, 6);
  EXPECT_EQ(summary->state_counts[JobState::kScheduled], 3);
  EXPECT_EQ(summary->state_counts[JobState::kRunning], 1);
  EXPECT_EQ(summary->state_counts[JobState::kFinished], 1);
  EXPECT_EQ(summary->state_counts[JobState::kAborted], 1);
  EXPECT_EQ(summary->overall_progress_percent, (100 + 40 + 30) / 6);
  EXPECT_EQ(service_->ListJobs(evaluation.id, JobState::kRunning).size(), 1u);
  EXPECT_EQ(service_->ListJobs(evaluation.id).size(), 6u);
}

TEST_F(ControlServiceTest, SummaryCountsStayConsistentWhileJobsMove) {
  // Jobs cycle scheduled -> running -> failed -> scheduled on another thread
  // while summaries are read: every summary must still count each job once.
  options_.max_attempts = 1000;
  service_ = std::make_unique<ControlService>(db_.get(), &clock_, options_);
  model::Evaluation evaluation = MakeDemoEvaluation(
      {json::Json(1), json::Json(2), json::Json(4), json::Json(8)});
  model::Deployment deployment = AddDeployment(system_id_);
  std::atomic<bool> done{false};
  std::thread mover([&] {
    for (int i = 0; i < 150; ++i) {
      auto job = service_->PollJob(deployment.id);
      if (!job.ok() || !job->has_value()) break;
      service_->FailJob((*job)->id, "cycle").IgnoreError();
    }
    done.store(true);
  });
  int summaries = 0;
  while (!done.load()) {
    auto summary = service_->Summarize(evaluation.id);
    ASSERT_TRUE(summary.ok());
    int counted = 0;
    for (const auto& [state, count] : summary->state_counts) counted += count;
    EXPECT_EQ(summary->total_jobs, 8);
    EXPECT_EQ(counted, 8);
    ++summaries;
  }
  mover.join();
  EXPECT_GT(summaries, 0);
}

// The v2 poll's entity text cache never holds a text larger than its whole
// byte budget: such a text is rendered afresh on every lookup.
TEST_F(ControlServiceTest, EntityTextOverTheCacheBudgetIsServedUncached) {
  model::System system = RegisterDemoSystem();
  system.description.assign(16u << 20, 'd');
  ASSERT_TRUE(service_->UpdateSystem(system).ok());
  auto miss_count = [] {
    return obs::MetricsRegistry::Get()
        ->GetCounter("chronos_entity_cache_total", "",
                     {{"table", "systems"}, {"result", "miss"}})
        ->value();
  };
  const uint64_t misses = miss_count();
  auto first = service_->SystemText(system.id);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(**first, system.ToJson().Dump());
  auto second = service_->SystemText(system.id);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(**second, **first);
  EXPECT_EQ(miss_count() - misses, 2u);

  // Back under the budget, the next version is cached again.
  system.description = "small";
  ASSERT_TRUE(service_->UpdateSystem(system).ok());
  ASSERT_TRUE(service_->SystemText(system.id).ok());
  ASSERT_TRUE(service_->SystemText(system.id).ok());
  EXPECT_EQ(miss_count() - misses, 3u);
  EXPECT_TRUE(service_->SystemText("no-such-system").status().IsNotFound());
}

TEST_F(ControlServiceTest, PollUnknownDeploymentFails) {
  EXPECT_TRUE(service_->PollJob("ghost").status().IsNotFound());
}

TEST_F(ControlServiceTest, EventTimelineOrderSurvivesRestart) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());
  ASSERT_TRUE(service_->AppendLog((*job)->id, {"one"}).ok());

  // Restart the service over the same store; the event sequence must
  // continue past persisted events, keeping order stable.
  std::string job_id = (*job)->id;
  service_ = std::make_unique<ControlService>(db_.get(), &clock_, options_);
  ASSERT_TRUE(service_->AppendLog(job_id, {"two", "three"}).ok());
  EXPECT_EQ(service_->JobLog(job_id), "one\ntwo\nthree\n");
  auto events = service_->JobEvents(job_id);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST_F(ControlServiceTest, SummarizeMissingEvaluationFails) {
  EXPECT_TRUE(service_->Summarize("ghost").status().IsNotFound());
  EXPECT_TRUE(service_->CollectResults("ghost").status().IsNotFound());
  EXPECT_TRUE(service_->EvaluationDiagrams("ghost").status().IsNotFound());
}

TEST_F(ControlServiceTest, DeploymentDeletionStopsDispatch) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  ASSERT_TRUE(service_->DeleteDeployment(deployment.id).ok());
  EXPECT_TRUE(service_->PollJob(deployment.id).status().IsNotFound());
  EXPECT_TRUE(service_->DeleteDeployment(deployment.id).IsNotFound());
}

// --- Analysis integration ---

TEST_F(ControlServiceTest, DiagramsFromFinishedJobs) {
  model::Evaluation evaluation = MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  // Run all four jobs, uploading synthetic throughput results.
  double throughput = 1000;
  while (true) {
    auto job = service_->PollJob(deployment.id);
    ASSERT_TRUE(job.ok());
    if (!job->has_value()) break;
    json::Json data = json::Json::MakeObject();
    data.Set("throughput", throughput);
    throughput += 500;
    ASSERT_TRUE(service_->UploadResult((*job)->id, data, "").ok());
  }
  auto results = service_->CollectResults(evaluation.id);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 4u);

  auto diagrams = service_->EvaluationDiagrams(evaluation.id);
  ASSERT_TRUE(diagrams.ok());
  ASSERT_EQ(diagrams->size(), 1u);
  EXPECT_EQ((*diagrams)[0].series.size(), 2u);   // Two engines.
  EXPECT_EQ((*diagrams)[0].x_values.size(), 2u); // Two thread counts.
}

// --- Archiving (requirement iv) ---

TEST_F(ControlServiceTest, ProjectArchiveContainsEverything) {
  model::Evaluation evaluation = MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());
  ASSERT_TRUE(service_->AppendLog((*job)->id, {"log line"}).ok());
  json::Json data = json::Json::MakeObject();
  data.Set("throughput", 99.0);
  std::string bundle = archive::ZipFiles({{"raw.txt", "raw-bytes"}});
  ASSERT_TRUE(service_
                  ->UploadResult((*job)->id, data,
                                 strings::Base64Encode(bundle))
                  .ok());

  auto archive_bytes = BuildProjectArchive(service_.get(), project_id_,
                                           admin_id_);
  ASSERT_TRUE(archive_bytes.ok()) << archive_bytes.status();
  auto reader = archive::ZipReader::Open(*archive_bytes);
  ASSERT_TRUE(reader.ok());

  EXPECT_TRUE(reader->Has("project.json"));
  std::string job_prefix = "experiments/" + experiment_id_ + "/evaluations/" +
                           evaluation.id + "/jobs/" + (*job)->id + "/";
  EXPECT_TRUE(reader->Has(job_prefix + "job.json"));
  EXPECT_TRUE(reader->Has(job_prefix + "job.log"));
  EXPECT_TRUE(reader->Has(job_prefix + "result.json"));
  EXPECT_TRUE(reader->Has(job_prefix + "bundle.zip"));
  // The nested bundle is itself a valid zip with the raw file.
  auto nested = archive::ZipReader::Open(*reader->Read(job_prefix +
                                                       "bundle.zip"));
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(*nested->Read("raw.txt"), "raw-bytes");
  // Parameters that led to the results are preserved (requirement iv).
  auto job_json = json::Parse(*reader->Read(job_prefix + "job.json"));
  ASSERT_TRUE(job_json.ok());
  EXPECT_TRUE(job_json->at("parameters").Has("engine"));
}

TEST_F(ControlServiceTest, ArchiveImportRecreatesExperiments) {
  MakeDemoEvaluation();
  auto archive_bytes =
      BuildProjectArchive(service_.get(), project_id_, admin_id_);
  ASSERT_TRUE(archive_bytes.ok());
  auto imported =
      ImportProjectArchive(service_.get(), *archive_bytes, admin_id_);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(*imported, 2);  // Project + one experiment.
  EXPECT_EQ(service_->ListProjects(admin_id_).size(), 2u);
}

// --- Durability of control state ---

TEST_F(ControlServiceTest, StateSurvivesServiceRestart) {
  model::Evaluation evaluation = MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());
  std::string job_id = (*job)->id;

  // Simulate a Chronos Control crash: reopen the MetaDb from disk.
  service_.reset();
  db_.reset();
  auto db = model::MetaDb::Open(dir_.path());
  ASSERT_TRUE(db.ok());
  db_ = std::move(db).value();
  service_ = std::make_unique<ControlService>(db_.get(), &clock_, options_);

  auto recovered = service_->GetJob(job_id);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->state, JobState::kRunning);
  // The recovered control plane can still fail/reschedule it.
  clock_.AdvanceMs(5000);
  EXPECT_EQ(service_->CheckHeartbeats(), 1);
  EXPECT_EQ(service_->GetJob(job_id)->state, JobState::kScheduled);
}

TEST_F(ControlServiceTest, CreateEvaluationBoundsJobsBeforeExpanding) {
  model::System system;
  system.name = "wide";
  model::ParameterDef index;
  index.name = "index";
  index.type = model::ParameterType::kInterval;
  index.min = 0;
  index.max = 1e6;
  system.parameters.push_back(index);
  auto registered = service_->RegisterSystem(system);
  ASSERT_TRUE(registered.ok());
  auto project = service_->CreateProject("wide", "", admin_id_);
  ASSERT_TRUE(project.ok());
  model::ParameterSetting sweep;
  sweep.name = "index";
  for (int i = 0; i <= 1000; ++i) sweep.sweep.push_back(json::Json(i));
  auto experiment = service_->CreateExperiment(
      project->id, admin_id_, registered->id, "wide", "", {sweep});
  ASSERT_TRUE(experiment.ok()) << experiment.status();

  auto row_counts = [this] {
    std::map<std::string, size_t> counts;
    for (const std::string& table : db_->table_store()->TableNames()) {
      counts[table] = db_->table_store()->Count(table);
    }
    return counts;
  };
  const std::map<std::string, size_t> before = row_counts();
  // 1,001 assignments x 1,000 repetitions is past the job cap, though the
  // space alone is not: refused before a single assignment is expanded.
  auto created = service_->CreateEvaluation(experiment->id, "too big",
                                            /*repetitions=*/1000);
  EXPECT_EQ(created.status().code(), StatusCode::kResourceExhausted)
      << created.status();
  EXPECT_EQ(row_counts(), before);
  // The same space without repetitions is within the cap.
  EXPECT_TRUE(service_->CreateEvaluation(experiment->id, "fits").ok());
}

// --- Idempotent terminal reports (crash-safe agent retries) ---

TEST_F(ControlServiceTest, UploadResultIsIdempotentPerAttempt) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());
  const std::string job_id = (*job)->id;
  const std::string key = job_id + "#1";

  json::Json data = json::Json::MakeObject();
  data.Set("throughput", 7.0);
  ASSERT_TRUE(service_->UploadResult(job_id, data, "", key).ok());
  EXPECT_EQ(service_->GetJob(job_id)->state, JobState::kFinished);

  // A retried delivery of the same report is acknowledged, not re-applied:
  // still one result row, still exactly one finished transition.
  ASSERT_TRUE(service_->UploadResult(job_id, data, "", key).ok());
  EXPECT_EQ(db_->jobs().Get(job_id)->terminal_key, key);
  EXPECT_EQ(db_->results().FindBy("job_id", json::Json(job_id)).size(), 1u);
  int finished_events = 0;
  for (const model::JobEvent& event : service_->JobEvents(job_id)) {
    if (event.kind == "state" &&
        event.message.find("-> finished") != std::string::npos) {
      ++finished_events;
    }
  }
  EXPECT_EQ(finished_events, 1);

  // A keyless upload still hits the legacy state check.
  EXPECT_TRUE(service_->UploadResult(job_id, data, "").IsFailedPrecondition());
}

TEST_F(ControlServiceTest, FailJobReplayDoesNotBurnNextAttempt) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());
  const std::string job_id = (*job)->id;

  // First delivery fails attempt 1; auto-reschedule makes attempt 2.
  ASSERT_TRUE(service_->FailJob(job_id, "boom", job_id + "#1").ok());
  auto rescheduled = service_->GetJob(job_id);
  EXPECT_EQ(rescheduled->state, JobState::kScheduled);
  EXPECT_EQ(rescheduled->attempt, 2);

  // The retried delivery (e.g. after a Control restart ate the ack) must
  // not fail the freshly scheduled attempt.
  ASSERT_TRUE(service_->FailJob(job_id, "boom", job_id + "#1").ok());
  auto after = service_->GetJob(job_id);
  EXPECT_EQ(after->state, JobState::kScheduled);
  EXPECT_EQ(after->attempt, 2);

  // Even after the next claim, the stale key is still a no-op.
  auto reclaimed = service_->PollJob(deployment.id);
  ASSERT_TRUE(reclaimed->has_value());
  ASSERT_EQ((*reclaimed)->id, job_id);
  ASSERT_TRUE(service_->FailJob(job_id, "boom", job_id + "#1").ok());
  EXPECT_EQ(service_->GetJob(job_id)->state, JobState::kRunning);
}

TEST_F(ControlServiceTest, FailJobAtExhaustedBudgetStaysFailed) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());
  const std::string job_id = (*job)->id;
  for (int attempt = 1; attempt < options_.max_attempts; ++attempt) {
    ASSERT_TRUE(service_->FailJob(job_id, "boom").ok());
    ASSERT_EQ(service_->GetJob(job_id)->state, JobState::kScheduled);
    auto again = service_->PollJob(deployment.id);
    ASSERT_TRUE(again->has_value());
    ASSERT_EQ((*again)->id, job_id);
  }
  // Attempt == max_attempts: failure is final, no reschedule.
  ASSERT_TRUE(service_->FailJob(job_id, "boom").ok());
  auto final_state = service_->GetJob(job_id);
  EXPECT_EQ(final_state->state, JobState::kFailed);
  EXPECT_EQ(final_state->attempt, options_.max_attempts);
}

TEST_F(ControlServiceTest, StaleAttemptPostsAreRejectedWithoutMutation) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());
  const std::string job_id = (*job)->id;

  // Attempt 1 dies; the job is rescheduled and re-claimed as attempt 2.
  clock_.AdvanceMs(2000);
  ASSERT_EQ(service_->CheckHeartbeats(), 1);
  auto reclaimed = service_->PollJob(deployment.id);
  ASSERT_TRUE(reclaimed->has_value());
  ASSERT_EQ((*reclaimed)->attempt, 2);

  // Zombie posts from attempt 1 are told to stop (kAborted) and must not
  // touch the current attempt's progress or heartbeat.
  auto progress = service_->ReportProgress(job_id, 93, /*attempt=*/1);
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(*progress, JobState::kAborted);
  EXPECT_EQ(service_->GetJob(job_id)->progress_percent, 0);
  TimestampMs heartbeat_before = service_->GetJob(job_id)->last_heartbeat_at;
  clock_.AdvanceMs(100);
  auto beat = service_->Heartbeat(job_id, /*attempt=*/1);
  ASSERT_TRUE(beat.ok());
  EXPECT_EQ(*beat, JobState::kAborted);
  EXPECT_EQ(service_->GetJob(job_id)->last_heartbeat_at, heartbeat_before);

  // The live attempt's posts go through.
  auto live = service_->ReportProgress(job_id, 55, /*attempt=*/2);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, JobState::kRunning);
  EXPECT_EQ(service_->GetJob(job_id)->progress_percent, 55);
}

// --- Graceful drain ---

TEST_F(ControlServiceTest, DrainStopsDispatchAndFiresCallbackOnce) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  int callbacks = 0;
  service_->SetDrainCallback([&callbacks] { ++callbacks; });

  auto held = service_->PollJob(deployment.id);
  ASSERT_TRUE(held->has_value());
  EXPECT_FALSE(service_->draining());
  service_->BeginDrain();
  EXPECT_TRUE(service_->draining());
  EXPECT_EQ(callbacks, 1);
  service_->BeginDrain();  // Idempotent.
  EXPECT_EQ(callbacks, 1);

  // No new work is handed out, but the in-flight job can still finish.
  auto denied = service_->PollJob(deployment.id);
  ASSERT_TRUE(denied.ok());
  EXPECT_FALSE(denied->has_value());
  json::Json data = json::Json::MakeObject();
  data.Set("throughput", 1.0);
  ASSERT_TRUE(service_->UploadResult((*held)->id, data, "").ok());
  EXPECT_EQ(service_->GetJob((*held)->id)->state, JobState::kFinished);
}

// --- Startup reconciliation ---

TEST_F(ControlServiceTest, ReconcileGrantsGraceLeaseToOrphanedRunningJobs) {
  MakeDemoEvaluation();
  model::Deployment deployment = AddDeployment(system_id_);
  auto job = service_->PollJob(deployment.id);
  ASSERT_TRUE(job->has_value());
  const std::string job_id = (*job)->id;

  // "Crash": a fresh service over the same db, long after the heartbeat.
  clock_.AdvanceMs(5000);
  service_ = std::make_unique<ControlService>(db_.get(), &clock_, options_);
  ReconcileReport report = service_->ReconcileOnStartup();
  EXPECT_FALSE(report.clean_shutdown);
  EXPECT_EQ(report.actions["grace_lease"], 1);
  EXPECT_EQ(service_->reconcile_report().total(), 1);

  // The lease shields the job for one full timeout window...
  EXPECT_EQ(service_->CheckHeartbeats(), 0);
  EXPECT_EQ(service_->GetJob(job_id)->state, JobState::kRunning);
  // ...then the normal failure handling recycles it through the budget.
  clock_.AdvanceMs(1500);
  EXPECT_EQ(service_->CheckHeartbeats(), 1);
  auto recycled = service_->GetJob(job_id);
  EXPECT_EQ(recycled->state, JobState::kScheduled);
  EXPECT_EQ(recycled->attempt, 2);
}

TEST_F(ControlServiceTest, CleanShutdownMarkerShortCircuitsReconcileOnce) {
  MakeDemoEvaluation();
  ASSERT_TRUE(service_->MarkCleanShutdown().ok());

  // Boot 1: fast path, marker consumed.
  service_ = std::make_unique<ControlService>(db_.get(), &clock_, options_);
  ReconcileReport report = service_->ReconcileOnStartup();
  EXPECT_TRUE(report.clean_shutdown);
  EXPECT_EQ(report.total(), 0);
  json::Json as_json = report.ToJson();
  EXPECT_TRUE(as_json.GetBoolOr("clean_shutdown", false));
  EXPECT_EQ(as_json.GetIntOr("total", -1), 0);

  // Boot 2 without an intervening MarkCleanShutdown (i.e. after a crash):
  // the one-shot marker no longer applies.
  service_ = std::make_unique<ControlService>(db_.get(), &clock_, options_);
  EXPECT_FALSE(service_->ReconcileOnStartup().clean_shutdown);
}

// --- Heartbeat monitor jitter ---

TEST(HeartbeatMonitorJitterTest, ZeroJitterIsExactInterval) {
  HeartbeatMonitorOptions options;
  options.interval_ms = 250;
  options.jitter = 0.0;
  HeartbeatMonitor monitor(nullptr, options);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(monitor.NextIntervalMs(), 250);
  }
}

TEST(HeartbeatMonitorJitterTest, JitterStaysInBoundsAndVaries) {
  HeartbeatMonitorOptions options;
  options.interval_ms = 1000;
  options.jitter = 0.2;
  options.seed = 42;
  HeartbeatMonitor monitor(nullptr, options);
  bool varied = false;
  int64_t previous = -1;
  for (int i = 0; i < 200; ++i) {
    int64_t interval = monitor.NextIntervalMs();
    EXPECT_GE(interval, 800);
    EXPECT_LE(interval, 1200);
    if (previous >= 0 && interval != previous) varied = true;
    previous = interval;
  }
  EXPECT_TRUE(varied);
}

TEST(HeartbeatMonitorJitterTest, ScheduleIsDeterministicPerSeed) {
  HeartbeatMonitorOptions options;
  options.interval_ms = 1000;
  options.jitter = 0.3;
  options.seed = 1337;
  HeartbeatMonitor a(nullptr, options);
  HeartbeatMonitor b(nullptr, options);
  std::vector<int64_t> sequence_a, sequence_b;
  for (int i = 0; i < 50; ++i) {
    sequence_a.push_back(a.NextIntervalMs());
    sequence_b.push_back(b.NextIntervalMs());
  }
  EXPECT_EQ(sequence_a, sequence_b);

  // A different seed draws a different schedule.
  options.seed = 1338;
  HeartbeatMonitor c(nullptr, options);
  std::vector<int64_t> sequence_c;
  for (int i = 0; i < 50; ++i) sequence_c.push_back(c.NextIntervalMs());
  EXPECT_NE(sequence_a, sequence_c);
}

}  // namespace
}  // namespace chronos::control
