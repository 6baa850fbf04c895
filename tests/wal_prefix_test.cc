// WAL prefix audit: every crash point of a seeded Control scenario.
//
// The scenario runs in process on a SimulatedClock (no checkpoints, no
// fsync) and covers evaluation creation, claims, progress, logs, uploads, a
// failure with auto-reschedule, an abort, and replayed terminal reports.
// Its WAL is then cut after every record k: the first k records are written
// to a fresh directory (a store without a snapshot numbers its records from
// 1), the MetaDb is opened there and ReconcileOnStartup runs. Each prefix
// must hold every cross-row invariant with the grace lease as the only
// repair, and must then finish its remaining jobs through ControlService.
//
// The scenario varies with CHRONOS_CRASH_SEED (scripts/check.sh --crash runs
// seeds 7, 21 and 1337); each seed is deterministic.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "control/control_service.h"
#include "store/wal.h"

namespace chronos::control {
namespace {

using chronos::file::TempDir;
using model::Job;
using model::JobState;

constexpr int64_t kHeartbeatTimeoutMs = 1000;

uint64_t CrashSeed() {
  const char* env = std::getenv("CHRONOS_CRASH_SEED");
  uint64_t seed = 0;
  if (env != nullptr && strings::ParseUint64(env, &seed)) return seed;
  return 7;
}

store::TableStoreOptions FastStoreOptions() {
  store::TableStoreOptions options;
  options.sync_writes = false;
  options.checkpoint_wal_bytes = 0;
  return options;
}

ControlServiceOptions ServiceOptions() {
  ControlServiceOptions options;
  options.heartbeat_timeout_ms = kHeartbeatTimeoutMs;
  options.max_attempts = 3;
  return options;
}

std::string AttemptKey(const Job& job) {
  return job.id + "#" + std::to_string(job.attempt);
}

// The state a job's last "state" event names.
StatusOr<JobState> StateOfLastEvent(ControlService* service,
                                    const std::string& job_id) {
  std::string last;
  for (const model::JobEvent& event : service->JobEvents(job_id)) {
    if (event.kind == "state") last = event.message;
  }
  if (last == "job created (scheduled)") return JobState::kScheduled;
  size_t arrow = last.rfind("-> ");
  if (arrow == std::string::npos) {
    return Status::NotFound("no state event for " + job_id);
  }
  return model::ParseJobState(last.substr(arrow + 3));
}

// Drives the seeded scenario on a live store; returns the system's
// deployments (one per simulated agent).
std::vector<std::string> RunScenario(model::MetaDb* db, SimulatedClock* clock,
                                     uint64_t seed) {
  Rng rng(seed);
  ControlService service(db, clock, ServiceOptions());
  auto admin = service.CreateUser("admin", "secret", model::UserRole::kAdmin);
  EXPECT_TRUE(admin.ok()) << admin.status();
  model::System system;
  system.name = "MokkaDB";
  model::ParameterDef threads;
  threads.name = "threads";
  threads.type = model::ParameterType::kInterval;
  threads.min = 1;
  threads.max = 64;
  system.parameters.push_back(threads);
  auto registered = service.RegisterSystem(system);
  EXPECT_TRUE(registered.ok()) << registered.status();
  std::vector<std::string> deployments;
  for (int i = 0; i < 2; ++i) {
    model::Deployment deployment;
    deployment.system_id = registered->id;
    deployment.name = "agent-" + std::to_string(i);
    auto created = service.CreateDeployment(deployment);
    EXPECT_TRUE(created.ok()) << created.status();
    deployments.push_back(created->id);
  }
  auto project = service.CreateProject("prefix", "", admin->id);
  EXPECT_TRUE(project.ok()) << project.status();
  model::ParameterSetting sweep;
  sweep.name = "threads";
  const int values = 8 + static_cast<int>(rng.NextUint64(3));
  for (int i = 1; i <= values; ++i) sweep.sweep.push_back(json::Json(i));
  auto experiment = service.CreateExperiment(project->id, admin->id,
                                             registered->id, "sweep", "",
                                             {sweep});
  EXPECT_TRUE(experiment.ok()) << experiment.status();
  auto evaluation =
      service.CreateEvaluation(experiment->id, "run", /*repetitions=*/4);
  EXPECT_TRUE(evaluation.ok()) << evaluation.status();

  // Each agent holds at most one job; every step it posts progress, a log
  // batch or a heartbeat, and after a few steps a terminal report. The
  // first terminal report fails (auto-reschedule) and is replayed, the
  // first upload is replayed, and one running job is aborted under its
  // agent.
  std::map<std::string, Job> held;
  std::map<std::string, int> steps_left;
  bool failed_once = false, uploaded_once = false, aborted_once = false;
  for (int round = 0; round < 1000; ++round) {
    bool any_work = false;
    for (const std::string& deployment : deployments) {
      clock->AdvanceMs(10);
      if (held.count(deployment) == 0) {
        auto poll = service.PollJob(deployment);
        EXPECT_TRUE(poll.ok()) << poll.status();
        if (!poll.ok() || !poll->has_value()) continue;
        held[deployment] = **poll;
        steps_left[deployment] = 3 + static_cast<int>(rng.NextUint64(5));
        any_work = true;
        continue;
      }
      any_work = true;
      const Job job = held[deployment];
      if (steps_left[deployment]-- > 0) {
        StatusOr<JobState> state = JobState::kRunning;
        switch (rng.NextUint64(3)) {
          case 0:
            state = service.ReportProgress(
                job.id, static_cast<int>(rng.NextUint64(100)), job.attempt);
            break;
          case 1: {
            std::vector<std::string> lines;
            for (uint64_t i = 0, n = 1 + rng.NextUint64(3); i < n; ++i) {
              lines.push_back("line " + std::to_string(i));
            }
            EXPECT_TRUE(service.AppendLog(job.id, lines).ok());
            break;
          }
          default:
            state = service.Heartbeat(job.id, job.attempt);
            break;
        }
        EXPECT_TRUE(state.ok()) << state.status();
        if (!aborted_once && failed_once && uploaded_once) {
          aborted_once = true;
          EXPECT_TRUE(service.AbortJob(job.id).ok());
          state = service.ReportProgress(job.id, 50, job.attempt);
        }
        if (!state.ok() || *state != JobState::kRunning) held.erase(deployment);
        continue;
      }
      const std::string key = AttemptKey(job);
      if (!failed_once) {
        failed_once = true;
        EXPECT_TRUE(service.FailJob(job.id, "boom", key).ok());
        EXPECT_TRUE(service.FailJob(job.id, "boom", key).ok());
      } else {
        json::Json data = json::Json::MakeObject();
        data.Set("throughput", static_cast<double>(rng.NextUint64(1000)));
        EXPECT_TRUE(service.UploadResult(job.id, data, "", key).ok());
        if (!uploaded_once) {
          uploaded_once = true;
          EXPECT_TRUE(service.UploadResult(job.id, data, "", key).ok());
        }
      }
      held.erase(deployment);
    }
    if (!any_work) break;
  }
  EXPECT_TRUE(failed_once && uploaded_once && aborted_once);
  return deployments;
}

// Every cross-row invariant a request's atomic commit guarantees.
void AuditPrefix(model::MetaDb* db, ControlService* service,
                 const ReconcileReport& report, size_t k) {
  SCOPED_TRACE("prefix " + std::to_string(k));
  for (const auto& [action, count] : report.actions) {
    EXPECT_EQ(action, "grace_lease") << count;
  }
  for (const Job& job : db->jobs().All()) {
    const std::vector<model::Result> results =
        db->results().FindBy("job_id", json::Json(job.id));
    if (job.state == JobState::kRunning) {
      for (const model::Result& result : results) {
        EXPECT_NE(result.idempotency_key, AttemptKey(job)) << job.id;
      }
    }
    if (job.state == JobState::kScheduled) {
      EXPECT_TRUE(job.deployment_id.empty()) << job.id;
      EXPECT_EQ(job.progress_percent, 0) << job.id;
      EXPECT_EQ(job.started_at, 0) << job.id;
      EXPECT_EQ(job.finished_at, 0) << job.id;
      EXPECT_EQ(job.last_heartbeat_at, 0) << job.id;
    }
    auto last = StateOfLastEvent(service, job.id);
    ASSERT_TRUE(last.ok()) << last.status();
    EXPECT_EQ(*last, job.state) << job.id;
  }
  for (const model::Result& result : db->results().All()) {
    auto job = db->jobs().Get(result.job_id);
    ASSERT_TRUE(job.ok()) << "result " << result.id << " has no job";
    EXPECT_EQ(job->state, JobState::kFinished) << job->id;
  }
  for (const model::JobEvent& event : db->job_events().All()) {
    EXPECT_TRUE(db->jobs().Exists(event.job_id)) << "event " << event.id;
  }
  for (const model::Evaluation& evaluation : db->evaluations().All()) {
    EXPECT_GT(db->jobs().Count({{"evaluation_id", evaluation.id}}), 0u)
        << evaluation.id;
  }
}

// Lets the grace lease run out, then drives every job that is not aborted
// to finished; each must end with one result and one finished transition.
void FinishPrefix(model::MetaDb* db, ControlService* service,
                  SimulatedClock* clock,
                  const std::vector<std::string>& deployments, size_t k) {
  SCOPED_TRACE("finish from prefix " + std::to_string(k));
  clock->AdvanceMs(kHeartbeatTimeoutMs + 1);
  service->CheckHeartbeats();
  for (int round = 0; round < 100; ++round) {
    bool open = false;
    for (const Job& job : db->jobs().All()) {
      if (job.state == JobState::kFailed) {
        ASSERT_TRUE(service->RescheduleJob(job.id).ok());
      }
      open = open || (job.state != JobState::kFinished &&
                      job.state != JobState::kAborted);
    }
    if (!open) break;
    for (const std::string& deployment : deployments) {
      if (!db->deployments().Exists(deployment)) continue;
      auto poll = service->PollJob(deployment);
      ASSERT_TRUE(poll.ok()) << poll.status();
      if (!poll->has_value()) continue;
      const Job& job = **poll;
      ASSERT_TRUE(service
                      ->UploadResult(job.id, json::Json::MakeObject(), "",
                                     AttemptKey(job))
                      .ok());
    }
  }
  for (const Job& job : db->jobs().All()) {
    const size_t results =
        db->results().FindBy("job_id", json::Json(job.id)).size();
    int finished_events = 0;
    for (const model::JobEvent& event : service->JobEvents(job.id)) {
      if (event.kind == "state" &&
          event.message.find("-> finished") != std::string::npos) {
        ++finished_events;
      }
    }
    if (job.state == JobState::kAborted) {
      EXPECT_EQ(results, 0u) << job.id;
      EXPECT_EQ(finished_events, 0) << job.id;
      continue;
    }
    EXPECT_EQ(job.state, JobState::kFinished) << job.id;
    EXPECT_EQ(results, 1u) << job.id;
    EXPECT_EQ(finished_events, 1) << job.id;
  }
}

TEST(WalPrefixTest, EveryPrefixNeedsOnlyTheGraceLeaseAndFinishes) {
  const uint64_t seed = CrashSeed();
  SCOPED_TRACE("CHRONOS_CRASH_SEED=" + std::to_string(seed));
  // Hundreds of restarts; their transition log lines would bury a failure.
  Logger::Get()->set_stderr_enabled(false);
  TempDir source("wal-prefix-source");
  SimulatedClock clock(1000000);
  std::vector<std::string> deployments;
  {
    auto db = model::MetaDb::Open(source.path(), FastStoreOptions());
    ASSERT_TRUE(db.ok()) << db.status();
    deployments = RunScenario(db->get(), &clock, seed);
  }
  if (HasFailure()) return;
  auto records = store::Wal::Replay(source.path() + "/wal.log");
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_GE(records->size(), 200u);
  RecordProperty("prefixes", static_cast<int>(records->size()) + 1);

  for (size_t k = 0; k <= records->size(); ++k) {
    TempDir dir("wal-prefix");
    {
      auto wal = store::Wal::Open(dir.path() + "/wal.log");
      ASSERT_TRUE(wal.ok()) << wal.status();
      for (size_t i = 0; i < k; ++i) {
        ASSERT_TRUE((*wal)->Append((*records)[i], /*sync=*/false).ok());
      }
    }
    auto db = model::MetaDb::Open(dir.path(), FastStoreOptions());
    ASSERT_TRUE(db.ok()) << "prefix " << k << ": " << db.status();
    SimulatedClock restart_clock(clock.NowMs());
    ControlService service(db->get(), &restart_clock, ServiceOptions());
    ReconcileReport report = service.ReconcileOnStartup();
    AuditPrefix(db->get(), &service, report, k);
    FinishPrefix(db->get(), &service, &restart_clock, deployments, k);
    if (HasFailure()) return;  // The first failing prefix tells the story.
  }
}

}  // namespace
}  // namespace chronos::control
