// Concurrency stress tests. Deliberately heavier on threads than the rest of
// the suite; they are the workload scripts/check.sh runs under ASan and TSan
// to validate the lock discipline that the Clang thread-safety annotations
// (src/common/thread_annotations.h) assert statically.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "control/control_service.h"
#include "control/heartbeat_monitor.h"
#include "obs/metrics_registry.h"

namespace chronos {
namespace {

using chronos::file::TempDir;
using control::ControlService;
using control::ControlServiceOptions;

// --- Locking primitives ---

TEST(MutexTest, CountingUnderContention) {
  Mutex mu;
  int64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIncrements);
}

TEST(MutexTest, SharedMutexReadersSeeConsistentPairs) {
  SharedMutex mu;
  int64_t a = 0, b = 0;  // Invariant: a == b under the lock.
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        ReaderMutexLock lock(mu);
        if (a != b) torn.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 5000; ++i) {
    WriterMutexLock lock(mu);
    ++a;
    ++b;
  }
  stop.store(true);
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(a, 5000);
  EXPECT_EQ(b, 5000);
}

TEST(CondVarTest, NotifyWakesWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
}

TEST(CondVarTest, WaitForMsTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_FALSE(cv.WaitForMs(mu, 10));  // Nobody notifies: timeout.
}

// --- Logger under concurrent sinks and writers ---

TEST(LoggerConcurrencyTest, SinksAndLevelChangesRaceLogging) {
  Logger::Get()->set_stderr_enabled(false);
  CaptureLogSink capture;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < 200; ++i) {
        CHRONOS_LOG(kInfo, "stress") << "thread " << t << " line " << i;
      }
    });
  }
  std::thread toggler([] {
    for (int i = 0; i < 100; ++i) {
      Logger::Get()->set_min_level(i % 2 == 0 ? LogLevel::kDebug
                                              : LogLevel::kInfo);
    }
    Logger::Get()->set_min_level(LogLevel::kInfo);
  });
  for (auto& thread : writers) thread.join();
  toggler.join();
  EXPECT_EQ(capture.Drain().size(), 4u * 200u);
}

// --- Metrics registry: parallel family registration ---

TEST(MetricsRegistryConcurrencyTest, ParallelRegistrationYieldsOneFamily) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<obs::Counter*> handles(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Same family from every thread, plus a per-thread one.
      handles[t] = registry.GetCounter("stress_shared_total", "shared");
      registry.GetCounter("stress_thread_" + std::to_string(t) + "_total");
      handles[t]->Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[t], handles[0]) << "registration must dedupe";
  }
  EXPECT_EQ(handles[0]->value(), static_cast<uint64_t>(kThreads));
  EXPECT_EQ(registry.family_count(), static_cast<size_t>(kThreads) + 1);
  // Rendering while counters tick must be safe too.
  std::thread bumper([&] {
    for (int i = 0; i < 500; ++i) handles[0]->Increment();
  });
  for (int i = 0; i < 20; ++i) {
    EXPECT_NE(registry.RenderPrometheus().find("stress_shared_total"),
              std::string::npos);
  }
  bumper.join();
}

// --- ControlService: concurrent claim / heartbeat / abort ---

class ControlConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = model::MetaDb::Open(dir_.path());
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = std::move(db).value();
    options_.heartbeat_timeout_ms = 1000;
    options_.max_attempts = 2;
    service_ =
        std::make_unique<ControlService>(db_.get(), &clock_, options_);
    auto admin =
        service_->CreateUser("admin", "secret", model::UserRole::kAdmin);
    ASSERT_TRUE(admin.ok()) << admin.status();

    model::System system;
    system.name = "MokkaDB";
    model::ParameterDef threads;
    threads.name = "threads";
    threads.type = model::ParameterType::kInterval;
    threads.min = 1;
    threads.max = 64;
    system.parameters.push_back(threads);
    auto registered = service_->RegisterSystem(system);
    ASSERT_TRUE(registered.ok()) << registered.status();
    system_id_ = registered->id;

    auto project = service_->CreateProject("stress", "", admin->id);
    ASSERT_TRUE(project.ok());
    model::ParameterSetting sweep;
    sweep.name = "threads";
    for (int i = 1; i <= 8; ++i) sweep.sweep.push_back(json::Json(i));
    auto experiment = service_->CreateExperiment(
        project->id, admin->id, system_id_, "stress", "", {sweep});
    ASSERT_TRUE(experiment.ok()) << experiment.status();
    experiment_id_ = experiment->id;
    auto evaluation = service_->CreateEvaluation(experiment->id, "run");
    ASSERT_TRUE(evaluation.ok()) << evaluation.status();
    evaluation_id_ = evaluation->id;
  }

  std::string AddDeployment(int index) {
    model::Deployment deployment;
    deployment.system_id = system_id_;
    deployment.name = "dep" + std::to_string(index);
    deployment.endpoint = "127.0.0.1:" + std::to_string(10000 + index);
    auto created = service_->CreateDeployment(deployment);
    EXPECT_TRUE(created.ok());
    return created->id;
  }

  TempDir dir_;
  SimulatedClock clock_{1000000};
  ControlServiceOptions options_;
  std::unique_ptr<model::MetaDb> db_;
  std::unique_ptr<ControlService> service_;
  std::string system_id_;
  std::string experiment_id_;
  std::string evaluation_id_;
};

TEST_F(ControlConcurrencyTest, ConcurrentPollsNeverDoubleClaim) {
  constexpr int kAgents = 4;
  std::vector<std::string> deployments;
  for (int i = 0; i < kAgents; ++i) deployments.push_back(AddDeployment(i));

  Mutex mu;
  std::vector<std::string> claimed;
  std::vector<std::thread> agents;
  for (int t = 0; t < kAgents; ++t) {
    agents.emplace_back([&, t] {
      // Each agent claims, heartbeats, and completes jobs until none remain.
      for (;;) {
        auto poll = service_->PollJob(deployments[t]);
        ASSERT_TRUE(poll.ok()) << poll.status();
        if (!poll->has_value()) return;
        const std::string job_id = (**poll).id;
        {
          MutexLock lock(mu);
          claimed.push_back(job_id);
        }
        auto beat = service_->Heartbeat(job_id);
        EXPECT_TRUE(beat.ok()) << beat.status();
        EXPECT_TRUE(service_->ReportProgress(job_id, 50).ok());
        EXPECT_TRUE(
            service_->UploadResult(job_id, json::Json::MakeObject(), "").ok());
      }
    });
  }
  for (auto& thread : agents) thread.join();

  // All 8 jobs ran, each claimed exactly once.
  std::set<std::string> unique(claimed.begin(), claimed.end());
  EXPECT_EQ(claimed.size(), 8u);
  EXPECT_EQ(unique.size(), 8u);
  auto jobs = service_->ListJobs(evaluation_id_);
  for (const auto& job : jobs) {
    EXPECT_EQ(job.state, model::JobState::kFinished) << job.id;
  }
}

// Each request commits as one batch, so a reader never sees part of one: a
// job with a result row is never still running (the reader reads results
// first, then the job), and a listed evaluation always has its jobs.
TEST_F(ControlConcurrencyTest, ReadersNeverSeeHalfARequest) {
  constexpr int kFinishers = 2;
  constexpr int kEvaluationsPerFinisher = 25;
  std::vector<std::string> deployments;
  for (int i = 0; i < kFinishers; ++i) deployments.push_back(AddDeployment(i));

  std::atomic<bool> done{false};
  std::atomic<int> running_with_result{0};
  std::atomic<int> empty_evaluations{0};
  std::atomic<int> reads{0};
  std::thread reader([&] {
    // A job seen finished stays finished; only new results need a look.
    std::set<std::string> checked;
    while (!done.load()) {
      for (const model::Result& result : db_->results().All()) {
        if (checked.count(result.id) > 0) continue;
        auto job = service_->GetJob(result.job_id);
        if (job.ok() && job->state == model::JobState::kRunning) {
          running_with_result.fetch_add(1);
        }
        checked.insert(result.id);
      }
      for (const model::Evaluation& evaluation :
           service_->ListEvaluations(experiment_id_)) {
        auto summary = service_->Summarize(evaluation.id);
        if (summary.ok() && summary->total_jobs == 0) {
          empty_evaluations.fetch_add(1);
        }
      }
      reads.fetch_add(1);
    }
  });
  std::vector<std::thread> finishers;
  for (int t = 0; t < kFinishers; ++t) {
    finishers.emplace_back([&, t] {
      for (int e = 0; e < kEvaluationsPerFinisher; ++e) {
        auto created = service_->CreateEvaluation(experiment_id_, "more");
        ASSERT_TRUE(created.ok()) << created.status();
        for (;;) {
          auto poll = service_->PollJob(deployments[t]);
          ASSERT_TRUE(poll.ok()) << poll.status();
          if (!poll->has_value()) break;
          const model::Job& job = **poll;
          EXPECT_TRUE(service_
                          ->UploadResult(job.id, json::Json::MakeObject(), "",
                                         job.id + "#1")
                          .ok());
        }
      }
    });
  }
  for (auto& thread : finishers) thread.join();
  done.store(true);
  reader.join();
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(running_with_result.load(), 0);
  EXPECT_EQ(empty_evaluations.load(), 0);
  EXPECT_EQ(db_->results().Count(),
            8u + kFinishers * kEvaluationsPerFinisher * 8u);
}

TEST_F(ControlConcurrencyTest, AbortRacesHeartbeatAndProgress) {
  std::string deployment = AddDeployment(0);
  auto poll = service_->PollJob(deployment);
  ASSERT_TRUE(poll.ok());
  ASSERT_TRUE(poll->has_value());
  const std::string job_id = (**poll).id;

  std::atomic<bool> stop{false};
  std::thread agent([&] {
    // The agent hammers heartbeat/progress; once it observes the abort
    // through either call, it stops — exactly the production protocol.
    while (!stop.load()) {
      auto state = service_->Heartbeat(job_id);
      if (state.ok() && *state == model::JobState::kAborted) return;
      auto after_progress = service_->ReportProgress(job_id, 10);
      if (after_progress.ok() &&
          *after_progress == model::JobState::kAborted) {
        return;
      }
    }
  });
  EXPECT_TRUE(service_->AbortJob(job_id).ok());
  stop.store(true);  // Backstop; the agent normally exits via the state.
  agent.join();
  auto job = service_->GetJob(job_id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, model::JobState::kAborted);
}

TEST_F(ControlConcurrencyTest, HeartbeatMonitorRacesAgents) {
  constexpr int kAgents = 2;
  std::vector<std::string> deployments;
  for (int i = 0; i < kAgents; ++i) deployments.push_back(AddDeployment(i));

  control::HeartbeatMonitor monitor(service_.get(), /*interval_ms=*/1);
  monitor.Start();
  std::vector<std::thread> agents;
  for (int t = 0; t < kAgents; ++t) {
    agents.emplace_back([&, t] {
      for (;;) {
        auto poll = service_->PollJob(deployments[t]);
        ASSERT_TRUE(poll.ok()) << poll.status();
        if (!poll->has_value()) return;
        const std::string job_id = (**poll).id;
        EXPECT_TRUE(service_->Heartbeat(job_id).ok());
        EXPECT_TRUE(
            service_->UploadResult(job_id, json::Json::MakeObject(), "").ok());
      }
    });
  }
  for (auto& thread : agents) thread.join();
  monitor.Stop();
  EXPECT_GE(monitor.sweeps(), 1);
  // The simulated clock never advanced, so no heartbeat ever went stale.
  EXPECT_EQ(monitor.jobs_failed(), 0);
  monitor.Start();  // Restart after Stop is supported.
  monitor.Stop();
}

// The v2 poll bundles the experiment's text from a version-checked cache
// while another thread keeps toggling the experiment's archived flag. A poll
// that begins after a toggle returned must see that toggle or a later one,
// and no job may be claimed twice.
TEST_F(ControlConcurrencyTest, PollBundleSeesEveryReturnedToggle) {
  constexpr int kAgents = 4;
  ASSERT_TRUE(
      service_->CreateEvaluation(experiment_id_, "more", /*repetitions=*/10)
          .ok());
  const size_t total_jobs = 8 + 10 * 8;
  std::vector<std::string> deployments;
  for (int i = 0; i < kAgents; ++i) deployments.push_back(AddDeployment(i));

  // Toggle k sets archived = (k is odd); `started` and `returned` hold the
  // number of the last toggle begun and finished.
  std::atomic<int> started{0};
  std::atomic<int> returned{0};
  // Polls whose whole span saw no toggle in flight, so exactly one state was
  // current; only those pin the archived flag.
  std::atomic<int> checked{0};
  std::atomic<int> stale{0};
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    for (int k = 1; !stop.load(); ++k) {
      started.store(k);
      EXPECT_TRUE(
          service_->SetExperimentArchived(experiment_id_, k % 2 == 1).ok());
      returned.store(k);
      // Let at least one poll begin and end after this toggle, so every
      // run checks some; the other agents keep racing the next toggle.
      const int seen = checked.load();
      while (!stop.load() && checked.load() == seen) std::this_thread::yield();
    }
  });

  Mutex mu;
  std::vector<std::string> claimed;
  std::vector<std::thread> agents;
  for (int t = 0; t < kAgents; ++t) {
    agents.emplace_back([&, t] {
      for (;;) {
        const int returned_before = returned.load();
        auto poll = service_->PollJob(deployments[t]);
        ASSERT_TRUE(poll.ok()) << poll.status();
        if (!poll->has_value()) return;
        const model::Job& job = **poll;
        auto text = service_->ExperimentText(job.experiment_id);
        const int started_after = started.load();
        ASSERT_TRUE(text.ok()) << text.status();
        auto experiment = json::Parse(**text);
        ASSERT_TRUE(experiment.ok());
        if (started_after == returned_before) {
          const bool expected = returned_before % 2 == 1;
          if (experiment->at("archived").as_bool() != expected) {
            stale.fetch_add(1);
          }
          checked.fetch_add(1);
        }
        {
          MutexLock lock(mu);
          claimed.push_back(job.id);
        }
        EXPECT_TRUE(
            service_->UploadResult(job.id, json::Json::MakeObject(), "").ok());
      }
    });
  }
  for (auto& thread : agents) thread.join();
  stop.store(true);
  toggler.join();

  EXPECT_GT(checked.load(), 0);
  EXPECT_EQ(stale.load(), 0);
  std::set<std::string> unique(claimed.begin(), claimed.end());
  EXPECT_EQ(claimed.size(), total_jobs);
  EXPECT_EQ(unique.size(), total_jobs);
}

}  // namespace
}  // namespace chronos
