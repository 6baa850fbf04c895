#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/uuid.h"
#include "model/entities.h"
#include "model/job_state.h"
#include "model/parameter_space.h"
#include "model/repository.h"
#include "obs/metrics_registry.h"

namespace chronos::model {
namespace {

using chronos::file::TempDir;

// --- Job state machine ---

TEST(JobStateTest, NamesRoundTrip) {
  for (JobState state :
       {JobState::kScheduled, JobState::kRunning, JobState::kFinished,
        JobState::kAborted, JobState::kFailed}) {
    auto parsed = ParseJobState(JobStateName(state));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, state);
  }
  EXPECT_FALSE(ParseJobState("bogus").ok());
}

TEST(JobStateTest, PaperTransitionTable) {
  // scheduled -> running | aborted
  EXPECT_TRUE(IsValidTransition(JobState::kScheduled, JobState::kRunning));
  EXPECT_TRUE(IsValidTransition(JobState::kScheduled, JobState::kAborted));
  EXPECT_FALSE(IsValidTransition(JobState::kScheduled, JobState::kFinished));
  EXPECT_FALSE(IsValidTransition(JobState::kScheduled, JobState::kFailed));
  // running -> finished | failed | aborted
  EXPECT_TRUE(IsValidTransition(JobState::kRunning, JobState::kFinished));
  EXPECT_TRUE(IsValidTransition(JobState::kRunning, JobState::kFailed));
  EXPECT_TRUE(IsValidTransition(JobState::kRunning, JobState::kAborted));
  EXPECT_FALSE(IsValidTransition(JobState::kRunning, JobState::kScheduled));
  // failed -> scheduled (the reschedule path from the paper)
  EXPECT_TRUE(IsValidTransition(JobState::kFailed, JobState::kScheduled));
  EXPECT_FALSE(IsValidTransition(JobState::kFailed, JobState::kRunning));
  // finished / aborted are terminal.
  for (JobState to : {JobState::kScheduled, JobState::kRunning,
                      JobState::kFinished, JobState::kAborted,
                      JobState::kFailed}) {
    EXPECT_FALSE(IsValidTransition(JobState::kFinished, to));
    EXPECT_FALSE(IsValidTransition(JobState::kAborted, to));
  }
}

TEST(JobStateTest, ExhaustiveTransitionMatrix) {
  // Every one of the 25 (from, to) edges, legal and illegal, against the
  // paper's lifecycle; CheckTransition must agree with IsValidTransition on
  // all of them.
  const std::vector<std::pair<JobState, JobState>> legal = {
      {JobState::kScheduled, JobState::kRunning},
      {JobState::kScheduled, JobState::kAborted},
      {JobState::kRunning, JobState::kFinished},
      {JobState::kRunning, JobState::kFailed},
      {JobState::kRunning, JobState::kAborted},
      {JobState::kFailed, JobState::kScheduled},
  };
  const JobState all[] = {JobState::kScheduled, JobState::kRunning,
                          JobState::kFinished, JobState::kAborted,
                          JobState::kFailed};
  for (JobState from : all) {
    for (JobState to : all) {
      bool expected = false;
      for (const auto& edge : legal) {
        if (edge.first == from && edge.second == to) expected = true;
      }
      EXPECT_EQ(IsValidTransition(from, to), expected)
          << JobStateName(from) << " -> " << JobStateName(to);
      Status checked = CheckTransition(from, to);
      EXPECT_EQ(checked.ok(), expected)
          << JobStateName(from) << " -> " << JobStateName(to);
      if (!expected) {
        // Illegal edges fail with a precondition error naming both states.
        EXPECT_TRUE(checked.IsFailedPrecondition());
        EXPECT_NE(checked.message().find(JobStateName(from)),
                  std::string::npos);
        EXPECT_NE(checked.message().find(JobStateName(to)),
                  std::string::npos);
      }
    }
  }
  // No state may transition to itself (retries must be explicit edges).
  for (JobState state : all) {
    EXPECT_FALSE(IsValidTransition(state, state)) << JobStateName(state);
  }
}

TEST(JobStateTest, TerminalStates) {
  EXPECT_FALSE(IsTerminal(JobState::kScheduled));
  EXPECT_FALSE(IsTerminal(JobState::kRunning));
  EXPECT_TRUE(IsTerminal(JobState::kFinished));
  EXPECT_TRUE(IsTerminal(JobState::kAborted));
  EXPECT_TRUE(IsTerminal(JobState::kFailed));
}

TEST(JobStateTest, CheckTransitionMessage) {
  Status status = CheckTransition(JobState::kFinished, JobState::kRunning);
  EXPECT_TRUE(status.IsFailedPrecondition());
  EXPECT_NE(status.message().find("finished"), std::string::npos);
}

// --- Parameter space ---

ParameterSetting Fixed(const std::string& name, json::Json value) {
  ParameterSetting setting;
  setting.name = name;
  setting.fixed = std::move(value);
  return setting;
}

ParameterSetting Swept(const std::string& name,
                       std::vector<json::Json> values) {
  ParameterSetting setting;
  setting.name = name;
  setting.sweep = std::move(values);
  return setting;
}

TEST(ParameterSpaceTest, EmptySettingsYieldOneJob) {
  auto assignments = ExpandParameterSpace({});
  ASSERT_TRUE(assignments.ok());
  EXPECT_EQ(assignments->size(), 1u);
  EXPECT_TRUE((*assignments)[0].empty());
}

TEST(ParameterSpaceTest, FixedOnlyYieldsOneJob) {
  auto assignments = ExpandParameterSpace(
      {Fixed("engine", json::Json("btree")), Fixed("threads", json::Json(8))});
  ASSERT_TRUE(assignments.ok());
  ASSERT_EQ(assignments->size(), 1u);
  EXPECT_EQ((*assignments)[0].at("engine").as_string(), "btree");
  EXPECT_EQ((*assignments)[0].at("threads").as_int(), 8);
}

TEST(ParameterSpaceTest, CartesianProduct) {
  // The paper's example: two storage engines x several thread counts.
  auto assignments = ExpandParameterSpace(
      {Swept("engine", {json::Json("wiredtiger"), json::Json("mmapv1")}),
       Swept("threads", {json::Json(1), json::Json(2), json::Json(4)})});
  ASSERT_TRUE(assignments.ok());
  ASSERT_EQ(assignments->size(), 6u);
  // Deterministic order: first setting is the slow axis.
  EXPECT_EQ((*assignments)[0].at("engine").as_string(), "wiredtiger");
  EXPECT_EQ((*assignments)[0].at("threads").as_int(), 1);
  EXPECT_EQ((*assignments)[2].at("engine").as_string(), "wiredtiger");
  EXPECT_EQ((*assignments)[2].at("threads").as_int(), 4);
  EXPECT_EQ((*assignments)[5].at("engine").as_string(), "mmapv1");
  EXPECT_EQ((*assignments)[5].at("threads").as_int(), 4);
}

TEST(ParameterSpaceTest, MixedFixedAndSwept) {
  auto assignments = ExpandParameterSpace(
      {Fixed("records", json::Json(1000)),
       Swept("threads", {json::Json(1), json::Json(2)})});
  ASSERT_TRUE(assignments.ok());
  ASSERT_EQ(assignments->size(), 2u);
  for (const auto& assignment : *assignments) {
    EXPECT_EQ(assignment.at("records").as_int(), 1000);
  }
}

TEST(ParameterSpaceTest, SizeMatchesExpansion) {
  std::vector<ParameterSetting> settings = {
      Swept("a", {json::Json(1), json::Json(2)}),
      Swept("b", {json::Json(1), json::Json(2), json::Json(3)}),
      Fixed("c", json::Json(0))};
  EXPECT_EQ(ParameterSpaceSize(settings), 6u);
  EXPECT_EQ(ExpandParameterSpace(settings)->size(), 6u);
}

TEST(ParameterSpaceTest, ExplosionGuard) {
  std::vector<ParameterSetting> settings;
  std::vector<json::Json> values;
  for (int i = 0; i < 101; ++i) values.emplace_back(i);
  for (int i = 0; i < 4; ++i) {
    settings.push_back(Swept("p" + std::to_string(i), values));
  }
  // 101^4 > 1e6.
  auto assignments = ExpandParameterSpace(settings);
  EXPECT_FALSE(assignments.ok());
  EXPECT_EQ(assignments.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParameterSpaceTest, ExpandIntervalIntegral) {
  auto values = ExpandInterval(1, 9, 2);
  ASSERT_EQ(values.size(), 5u);
  EXPECT_TRUE(values[0].is_int());
  EXPECT_EQ(values[4].as_int(), 9);
}

TEST(ParameterSpaceTest, ExpandIntervalFractional) {
  auto values = ExpandInterval(0.5, 1.5, 0.25);
  ASSERT_EQ(values.size(), 5u);
  EXPECT_TRUE(values[0].is_double());
  EXPECT_DOUBLE_EQ(values[4].as_double(), 1.5);
}

TEST(ParameterSpaceTest, ExpandIntervalDegenerate) {
  EXPECT_TRUE(ExpandInterval(5, 1, 1).empty());
  EXPECT_TRUE(ExpandInterval(1, 5, 0).empty());
  EXPECT_EQ(ExpandInterval(3, 3, 1).size(), 1u);
}

TEST(ParameterSpaceTest, ValidateBooleanType) {
  ParameterDef def;
  def.name = "sync";
  def.type = ParameterType::kBoolean;
  EXPECT_TRUE(ValidateSetting(def, Fixed("sync", json::Json(true))).ok());
  EXPECT_FALSE(ValidateSetting(def, Fixed("sync", json::Json(1))).ok());
  EXPECT_FALSE(ValidateSetting(def, Fixed("other", json::Json(true))).ok());
}

TEST(ParameterSpaceTest, ValidateIntervalBounds) {
  ParameterDef def;
  def.name = "threads";
  def.type = ParameterType::kInterval;
  def.min = 1;
  def.max = 32;
  EXPECT_TRUE(ValidateSetting(def, Fixed("threads", json::Json(8))).ok());
  EXPECT_FALSE(ValidateSetting(def, Fixed("threads", json::Json(64))).ok());
  EXPECT_FALSE(
      ValidateSetting(def, Fixed("threads", json::Json("eight"))).ok());
  EXPECT_TRUE(
      ValidateSetting(def, Swept("threads", {json::Json(1), json::Json(32)}))
          .ok());
  EXPECT_FALSE(
      ValidateSetting(def, Swept("threads", {json::Json(1), json::Json(33)}))
          .ok());
}

TEST(ParameterSpaceTest, ValidateCheckboxOptions) {
  ParameterDef def;
  def.name = "engine";
  def.type = ParameterType::kCheckbox;
  def.options = {json::Json("wiredtiger"), json::Json("mmapv1")};
  EXPECT_TRUE(
      ValidateSetting(def, Fixed("engine", json::Json("mmapv1"))).ok());
  EXPECT_FALSE(
      ValidateSetting(def, Fixed("engine", json::Json("rocksdb"))).ok());
}

TEST(ParameterSpaceTest, SettingJsonRoundTrip) {
  ParameterSetting setting = Swept("threads", {json::Json(1), json::Json(2)});
  auto parsed = ParameterSetting::FromJson(setting.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name, "threads");
  ASSERT_EQ(parsed->sweep.size(), 2u);
  EXPECT_EQ(parsed->sweep[1].as_int(), 2);
}

TEST(ParameterSpaceTest, DefJsonRoundTrip) {
  ParameterDef def;
  def.name = "threads";
  def.type = ParameterType::kInterval;
  def.description = "client threads";
  def.default_value = json::Json(4);
  def.min = 1;
  def.max = 32;
  def.step = 1;
  auto parsed = ParameterDef::FromJson(def.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, ParameterType::kInterval);
  EXPECT_EQ(parsed->max, 32);
  EXPECT_EQ(parsed->default_value.as_int(), 4);
}

// Property: expansion size always equals the product of sweep sizes.
class ExpansionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExpansionPropertyTest, CardinalityMatches) {
  int seed = GetParam();
  std::vector<ParameterSetting> settings;
  uint64_t expected = 1;
  for (int i = 0; i < (seed % 4) + 1; ++i) {
    int n = (seed * (i + 3)) % 5 + 1;
    std::vector<json::Json> values;
    for (int v = 0; v < n; ++v) values.emplace_back(v);
    settings.push_back(Swept("p" + std::to_string(i), values));
    expected *= static_cast<uint64_t>(n);
  }
  auto assignments = ExpandParameterSpace(settings);
  ASSERT_TRUE(assignments.ok());
  EXPECT_EQ(assignments->size(), expected);
  // Every assignment must bind every parameter exactly once.
  for (const auto& assignment : *assignments) {
    EXPECT_EQ(assignment.size(), settings.size());
  }
  // All assignments distinct.
  std::set<std::string> seen;
  for (const auto& assignment : *assignments) {
    seen.insert(AssignmentToJson(assignment).Dump());
  }
  EXPECT_EQ(seen.size(), assignments->size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpansionPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 7, 11, 13));

// --- Entity JSON codecs ---

TEST(EntitiesTest, UserRoundTrip) {
  User user;
  user.id = GenerateUuid();
  user.username = "marco";
  user.password_hash = "abc123";
  user.salt = "s";
  user.role = UserRole::kAdmin;
  user.created_at = 1234;
  auto parsed = User::FromJson(user.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->username, "marco");
  EXPECT_EQ(parsed->role, UserRole::kAdmin);
  EXPECT_EQ(parsed->created_at, 1234);
}

TEST(EntitiesTest, ProjectMembership) {
  Project project;
  project.id = "p1";
  project.name = "mongo-eval";
  project.owner_id = "u1";
  project.member_ids = {"u1", "u2"};
  EXPECT_TRUE(project.HasMember("u1"));
  EXPECT_TRUE(project.HasMember("u2"));
  EXPECT_FALSE(project.HasMember("u3"));
  auto parsed = Project::FromJson(project.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->member_ids.size(), 2u);
}

TEST(EntitiesTest, SystemWithParametersAndDiagrams) {
  System system;
  system.id = "s1";
  system.name = "MokkaDB";
  ParameterDef threads;
  threads.name = "threads";
  threads.type = ParameterType::kInterval;
  threads.min = 1;
  threads.max = 32;
  system.parameters.push_back(threads);
  DiagramDef diagram;
  diagram.name = "Throughput by threads";
  diagram.type = DiagramType::kLine;
  diagram.x_field = "threads";
  diagram.y_field = "throughput";
  diagram.group_by = "engine";
  system.diagrams.push_back(diagram);

  auto parsed = System::FromJson(system.ToJson());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->parameters.size(), 1u);
  EXPECT_EQ(parsed->parameters[0].type, ParameterType::kInterval);
  ASSERT_EQ(parsed->diagrams.size(), 1u);
  EXPECT_EQ(parsed->diagrams[0].group_by, "engine");
  EXPECT_NE(parsed->FindParameter("threads"), nullptr);
  EXPECT_EQ(parsed->FindParameter("zzz"), nullptr);
}

TEST(EntitiesTest, JobRoundTripWithParameters) {
  Job job;
  job.id = "j1";
  job.evaluation_id = "e1";
  job.experiment_id = "x1";
  job.system_id = "s1";
  job.state = JobState::kRunning;
  job.parameters["engine"] = json::Json("mmapv1");
  job.parameters["threads"] = json::Json(16);
  job.progress_percent = 55;
  job.attempt = 2;
  auto parsed = Job::FromJson(job.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->state, JobState::kRunning);
  EXPECT_EQ(parsed->parameters.at("threads").as_int(), 16);
  EXPECT_EQ(parsed->progress_percent, 55);
  EXPECT_EQ(parsed->attempt, 2);
}

TEST(EntitiesTest, ResultRoundTrip) {
  Result result;
  result.id = "r1";
  result.job_id = "j1";
  result.data = json::Json::MakeObject();
  result.data.Set("throughput", 1234.5);
  result.zip_base64 = "UEsDBA==";
  auto parsed = Result::FromJson(result.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->data.at("throughput").as_double(), 1234.5);
  EXPECT_EQ(parsed->zip_base64, "UEsDBA==");
}

TEST(EntitiesTest, ExperimentRoundTrip) {
  Experiment experiment;
  experiment.id = "x1";
  experiment.project_id = "p1";
  experiment.system_id = "s1";
  experiment.name = "engine comparison";
  ParameterSetting setting;
  setting.name = "threads";
  setting.sweep = {json::Json(1), json::Json(2)};
  experiment.settings.push_back(setting);
  auto parsed = Experiment::FromJson(experiment.ToJson());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->settings.size(), 1u);
  EXPECT_TRUE(parsed->settings[0].IsSwept());
}

TEST(EntitiesTest, FromJsonRejectsMissingFields) {
  json::Json incomplete = json::Json::MakeObject();
  incomplete.Set("name", "x");  // No id.
  EXPECT_FALSE(Project::FromJson(incomplete).ok());
  EXPECT_FALSE(User::FromJson(incomplete).ok());
  EXPECT_FALSE(Job::FromJson(incomplete).ok());
}

// --- Repositories / MetaDb ---

TEST(MetaDbTest, CrudThroughRepositories) {
  TempDir dir;
  auto db = MetaDb::Open(dir.path());
  ASSERT_TRUE(db.ok());

  Project project;
  project.id = GenerateUuid();
  project.name = "proj";
  project.owner_id = "u1";
  ASSERT_TRUE((*db)->projects().Insert(project).ok());
  EXPECT_TRUE((*db)->projects().Exists(project.id));
  EXPECT_EQ((*db)->projects().Count(), 1u);

  auto fetched = (*db)->projects().Get(project.id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->name, "proj");

  fetched->name = "renamed";
  ASSERT_TRUE((*db)->projects().Update(*fetched).ok());
  EXPECT_EQ((*db)->projects().Get(project.id)->name, "renamed");

  ASSERT_TRUE((*db)->projects().Delete(project.id).ok());
  EXPECT_FALSE((*db)->projects().Exists(project.id));
}

TEST(MetaDbTest, FindByForeignKey) {
  TempDir dir;
  auto db = MetaDb::Open(dir.path());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 3; ++i) {
    Job job;
    job.id = "job-" + std::to_string(i);
    job.evaluation_id = i < 2 ? "eval-a" : "eval-b";
    ASSERT_TRUE((*db)->jobs().Insert(job).ok());
  }
  auto jobs = (*db)->jobs().FindBy("evaluation_id", json::Json("eval-a"));
  EXPECT_EQ(jobs.size(), 2u);
}

TEST(MetaDbTest, BadRowsAreCountedNotSilentlySkipped) {
  TempDir dir;
  auto db = MetaDb::Open(dir.path());
  ASSERT_TRUE(db.ok());
  obs::Counter* bad_rows = obs::MetricsRegistry::Get()->GetCounter(
      "chronos_store_bad_rows_total", "", {{"table", "jobs"}});
  const uint64_t before = bad_rows->value();
  Job good;
  good.id = "job-good";
  good.evaluation_id = "eval-a";
  ASSERT_TRUE((*db)->jobs().Insert(good).ok());
  // A row no Job can be built from (no evaluation_id, no state).
  json::Json bad = json::Json::MakeObject();
  bad.Set("system_id", "s");
  ASSERT_TRUE((*db)->table_store()->Insert("jobs", "job-bad", bad).ok());

  EXPECT_EQ((*db)->jobs().All().size(), 1u);
  EXPECT_EQ(bad_rows->value(), before + 1);
  EXPECT_EQ((*db)->jobs().FindBy("system_id", json::Json("s")).size(), 0u);
  EXPECT_EQ(bad_rows->value(), before + 2);
}

TEST(MetaDbTest, PersistsAcrossReopen) {
  TempDir dir;
  std::string user_id = GenerateUuid();
  {
    auto db = MetaDb::Open(dir.path());
    ASSERT_TRUE(db.ok());
    User user;
    user.id = user_id;
    user.username = "heiko";
    ASSERT_TRUE((*db)->users().Insert(user).ok());
  }
  auto db = MetaDb::Open(dir.path());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->users().Get(user_id)->username, "heiko");
}

TEST(MetaDbTest, OptimisticUpdateDetectsRace) {
  TempDir dir;
  auto db = MetaDb::Open(dir.path());
  Job job;
  job.id = "j1";
  job.evaluation_id = "e1";
  ASSERT_TRUE((*db)->jobs().Insert(job).ok());

  auto snapshot = (*db)->jobs().GetWithVersion("j1");
  ASSERT_TRUE(snapshot.ok());
  auto [entity, version] = *snapshot;

  // Another writer slips in.
  entity.progress_percent = 10;
  ASSERT_TRUE((*db)->jobs().Update(entity).ok());

  // The stale write must be rejected.
  entity.progress_percent = 99;
  EXPECT_TRUE((*db)->jobs()
                  .UpdateIfVersion(entity, version)
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace chronos::model
