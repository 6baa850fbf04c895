#include "control/control_service.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/logging.h"
#include "common/retry.h"
#include "common/uuid.h"
#include "fault/failpoint.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"

namespace chronos::control {

using model::Job;
using model::JobState;

namespace {

// Store-level home of control-plane lifecycle state (not an entity table):
// row "lifecycle" holds the one-shot clean-shutdown marker that lets the
// next boot skip reconciliation scans.
constexpr char kControlMetaTable[] = "control_meta";
constexpr char kLifecycleRowId[] = "lifecycle";

constexpr JobState kAllJobStates[] = {
    JobState::kScheduled, JobState::kRunning, JobState::kFinished,
    JobState::kAborted, JobState::kFailed};

// The jobs of one evaluation in one state; served by the
// (evaluation_id, state) index.
store::Filter JobFilter(const std::string& evaluation_id, JobState state) {
  return {{"evaluation_id", evaluation_id},
          {"state", model::JobStateName(state)}};
}

// Six-digit zero-padded job sequence, so lexicographic id order equals
// creation order within an evaluation.
std::string PadSequence(int sequence) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%06d", sequence);
  return buf;
}

// Scheduler metrics (process-wide; handles cached in local statics).

obs::Counter* JobsScheduledTotal() {
  static obs::Counter* counter = obs::MetricsRegistry::Get()->GetCounter(
      "chronos_jobs_scheduled_total",
      "Jobs entering the scheduled state (incl. reschedules)");
  return counter;
}

obs::Gauge* JobQueueDepth() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Get()->GetGauge(
      "chronos_jobs_queue_depth", "Jobs currently waiting in scheduled state");
  return gauge;
}

// Bookkeeping shared by every observed state change: queue-depth gauge,
// per-transition counters, and an operator-facing log line that carries the
// request's trace ids.
void ObserveTransition(const std::string& job_id, JobState from,
                       JobState to) {
  auto* registry = obs::MetricsRegistry::Get();
  if (from == JobState::kScheduled) JobQueueDepth()->Add(-1);
  switch (to) {
    case JobState::kScheduled:
      JobQueueDepth()->Add(1);
      JobsScheduledTotal()->Increment();
      break;
    case JobState::kRunning: {
      static obs::Counter* claimed = registry->GetCounter(
          "chronos_jobs_claimed_total", "Jobs claimed by agents");
      claimed->Increment();
      break;
    }
    case JobState::kFinished: {
      static obs::Counter* finished = registry->GetCounter(
          "chronos_jobs_finished_total", "Jobs finished with a result");
      finished->Increment();
      break;
    }
    case JobState::kFailed: {
      static obs::Counter* failed = registry->GetCounter(
          "chronos_jobs_failed_total", "Jobs transitioned to failed");
      failed->Increment();
      break;
    }
    case JobState::kAborted: {
      static obs::Counter* aborted = registry->GetCounter(
          "chronos_jobs_aborted_total", "Jobs aborted by users");
      aborted->Increment();
      break;
    }
  }
  CHRONOS_LOG(kInfo, "control.job")
      << job_id << ": " << model::JobStateName(from) << " -> "
      << model::JobStateName(to);
}

// A rescheduled job starts its next attempt with no executor residue, like
// a freshly created one.
void ResetForNextAttempt(Job* job) {
  job->attempt += 1;
  job->deployment_id.clear();
  job->progress_percent = 0;
  job->failure_reason.clear();
  job->started_at = 0;
  job->finished_at = 0;
  job->last_heartbeat_at = 0;
}

// Lookups of ControlService's entity text cache, by table and result ("hit"
// or "miss").
obs::Counter* EntityCacheCounter(const std::string& table,
                                 const char* result) {
  return obs::MetricsRegistry::Get()->GetCounter(
      "chronos_entity_cache_total",
      "Entity text cache lookups of the v2 poll bundle, by table and result",
      {{"table", table}, {"result", result}});
}

// Tallies one reconciliation action locally and in the process-wide
// chronos_reconciliation_total{action=...} counter.
void CountReconciliation(ReconcileReport* report, const std::string& action) {
  report->actions[action]++;
  obs::MetricsRegistry::Get()
      ->GetCounter("chronos_reconciliation_total",
                   "Startup reconciliation actions, per action",
                   {{"action", action}})
      ->Increment();
}

}  // namespace

int ReconcileReport::total() const {
  int sum = 0;
  for (const auto& [action, count] : actions) sum += count;
  return sum;
}

json::Json ReconcileReport::ToJson() const {
  json::Json out = json::Json::MakeObject();
  out.Set("clean_shutdown", clean_shutdown);
  json::Json by_action = json::Json::MakeObject();
  for (const auto& [action, count] : actions) {
    by_action.Set(action, static_cast<int64_t>(count));
  }
  out.Set("actions", std::move(by_action));
  out.Set("total", static_cast<int64_t>(total()));
  return out;
}

json::Json EvaluationSummary::ToJson() const {
  json::Json out = json::Json::MakeObject();
  out.Set("evaluation", evaluation.ToJson());
  json::Json counts = json::Json::MakeObject();
  for (const auto& [state, count] : state_counts) {
    counts.Set(std::string(model::JobStateName(state)),
               static_cast<int64_t>(count));
  }
  out.Set("state_counts", std::move(counts));
  out.Set("total_jobs", static_cast<int64_t>(total_jobs));
  out.Set("overall_progress_percent",
          static_cast<int64_t>(overall_progress_percent));
  return out;
}

ControlService::ControlService(model::MetaDb* db, Clock* clock,
                               ControlServiceOptions options)
    : db_(db), clock_(clock), options_(options), sessions_(clock) {
  // Resume the event sequence past anything already persisted.
  event_seq_.store(
      db_->table_store()->MaxInt(db_->job_events().table(), "seq") + 1);
}

// --- Users & sessions ---

StatusOr<model::User> ControlService::CreateUser(const std::string& username,
                                                 const std::string& password,
                                                 model::UserRole role) {
  if (username.empty()) {
    return Status::InvalidArgument("username must not be empty");
  }
  if (password.size() < 4) {
    return Status::InvalidArgument("password too short");
  }
  if (!db_->users().FindBy("username", json::Json(username)).empty()) {
    return Status::AlreadyExists("username taken: " + username);
  }
  model::User user;
  user.id = GenerateUuid();
  user.username = username;
  user.salt = GenerateSalt();
  user.password_hash = HashPassword(password, user.salt);
  user.role = role;
  user.created_at = clock_->NowMs();
  CHRONOS_RETURN_IF_ERROR(db_->users().Insert(user));
  return user;
}

StatusOr<std::string> ControlService::Login(const std::string& username,
                                            const std::string& password) {
  auto users = db_->users().FindBy("username", json::Json(username));
  if (users.empty()) {
    return Status::Unauthenticated("unknown user or wrong password");
  }
  model::User& user = users[0];
  if (!VerifyPassword(password, user.salt, user.password_hash)) {
    return Status::Unauthenticated("unknown user or wrong password");
  }
  return sessions_.CreateSession(std::move(user));
}

Status ControlService::Logout(const std::string& token) {
  return sessions_.Invalidate(token);
}

StatusOr<model::User> ControlService::Authenticate(const std::string& token) {
  return sessions_.Resolve(token);
}

std::vector<model::User> ControlService::ListUsers() {
  return db_->users().All();
}

// --- Projects ---

StatusOr<model::Project> ControlService::CreateProject(
    const std::string& name, const std::string& description,
    const std::string& owner_id) {
  if (name.empty()) return Status::InvalidArgument("project name empty");
  if (!db_->users().Exists(owner_id)) {
    return Status::NotFound("owner not found: " + owner_id);
  }
  model::Project project;
  project.id = GenerateUuid();
  project.name = name;
  project.description = description;
  project.owner_id = owner_id;
  project.member_ids = {owner_id};
  project.created_at = clock_->NowMs();
  CHRONOS_RETURN_IF_ERROR(db_->projects().Insert(project));
  return project;
}

StatusOr<model::Project> ControlService::GetProject(
    const std::string& project_id, const std::string& user_id) {
  CHRONOS_ASSIGN_OR_RETURN(model::Project project,
                           db_->projects().Get(project_id));
  // Admins see everything; members see their projects.
  auto user = db_->users().Get(user_id);
  bool is_admin = user.ok() && user->role == model::UserRole::kAdmin;
  if (!is_admin && !project.HasMember(user_id)) {
    return Status::PermissionDenied("not a member of project " + project_id);
  }
  return project;
}

std::vector<model::Project> ControlService::ListProjects(
    const std::string& user_id) {
  auto user = db_->users().Get(user_id);
  bool is_admin = user.ok() && user->role == model::UserRole::kAdmin;
  std::vector<model::Project> visible;
  for (model::Project& project : db_->projects().All()) {
    if (is_admin || project.HasMember(user_id)) {
      visible.push_back(std::move(project));
    }
  }
  return visible;
}

Status ControlService::AddProjectMember(const std::string& project_id,
                                        const std::string& acting_user_id,
                                        const std::string& new_member_id) {
  CHRONOS_ASSIGN_OR_RETURN(model::Project project,
                           GetProject(project_id, acting_user_id));
  if (!db_->users().Exists(new_member_id)) {
    return Status::NotFound("user not found: " + new_member_id);
  }
  if (project.HasMember(new_member_id)) {
    return Status::AlreadyExists("already a member");
  }
  project.member_ids.push_back(new_member_id);
  return db_->projects().Update(project);
}

Status ControlService::SetProjectArchived(const std::string& project_id,
                                          const std::string& user_id,
                                          bool archived) {
  CHRONOS_ASSIGN_OR_RETURN(model::Project project,
                           GetProject(project_id, user_id));
  project.archived = archived;
  return db_->projects().Update(project);
}

// --- Systems & deployments ---

StatusOr<model::System> ControlService::RegisterSystem(model::System system) {
  if (system.name.empty()) {
    return Status::InvalidArgument("system name empty");
  }
  if (system.id.empty()) system.id = GenerateUuid();
  CHRONOS_RETURN_IF_ERROR(db_->systems().Insert(system));
  return system;
}

StatusOr<model::System> ControlService::GetSystem(
    const std::string& system_id) {
  return db_->systems().Get(system_id);
}

std::vector<model::System> ControlService::ListSystems() {
  return db_->systems().All();
}

Status ControlService::UpdateSystem(const model::System& system) {
  return db_->systems().Update(system);
}

StatusOr<model::Deployment> ControlService::CreateDeployment(
    model::Deployment deployment) {
  if (!db_->systems().Exists(deployment.system_id)) {
    return Status::NotFound("system not found: " + deployment.system_id);
  }
  if (deployment.id.empty()) deployment.id = GenerateUuid();
  CHRONOS_RETURN_IF_ERROR(db_->deployments().Insert(deployment));
  return deployment;
}

std::vector<model::Deployment> ControlService::ListDeployments(
    const std::string& system_id) {
  if (system_id.empty()) return db_->deployments().All();
  return db_->deployments().FindBy("system_id", json::Json(system_id));
}

Status ControlService::SetDeploymentActive(const std::string& deployment_id,
                                           bool active) {
  CHRONOS_ASSIGN_OR_RETURN(model::Deployment deployment,
                           db_->deployments().Get(deployment_id));
  deployment.active = active;
  return db_->deployments().Update(deployment);
}

Status ControlService::DeleteDeployment(const std::string& deployment_id) {
  return db_->deployments().Delete(deployment_id);
}

// --- Experiments ---

StatusOr<model::Experiment> ControlService::CreateExperiment(
    const std::string& project_id, const std::string& user_id,
    const std::string& system_id, const std::string& name,
    const std::string& description,
    std::vector<model::ParameterSetting> settings) {
  CHRONOS_ASSIGN_OR_RETURN(model::Project project,
                           GetProject(project_id, user_id));
  if (project.archived) {
    return Status::FailedPrecondition("project is archived");
  }
  CHRONOS_ASSIGN_OR_RETURN(model::System system, GetSystem(system_id));
  // Validate every setting against the system's parameter declarations.
  for (const model::ParameterSetting& setting : settings) {
    const model::ParameterDef* def = system.FindParameter(setting.name);
    if (def == nullptr) {
      return Status::InvalidArgument("system '" + system.name +
                                     "' declares no parameter '" +
                                     setting.name + "'");
    }
    CHRONOS_RETURN_IF_ERROR(model::ValidateSetting(*def, setting));
  }
  model::Experiment experiment;
  experiment.id = GenerateUuid();
  experiment.project_id = project_id;
  experiment.system_id = system_id;
  experiment.name = name;
  experiment.description = description;
  experiment.settings = std::move(settings);
  experiment.created_at = clock_->NowMs();
  CHRONOS_RETURN_IF_ERROR(db_->experiments().Insert(experiment));
  return experiment;
}

StatusOr<model::Experiment> ControlService::GetExperiment(
    const std::string& experiment_id) {
  return db_->experiments().Get(experiment_id);
}

std::vector<model::Experiment> ControlService::ListExperiments(
    const std::string& project_id) {
  return db_->experiments().FindBy("project_id", json::Json(project_id));
}

Status ControlService::SetExperimentArchived(const std::string& experiment_id,
                                             bool archived) {
  CHRONOS_ASSIGN_OR_RETURN(model::Experiment experiment,
                           db_->experiments().Get(experiment_id));
  experiment.archived = archived;
  return db_->experiments().Update(experiment);
}

// --- Evaluations & jobs ---

StatusOr<model::Evaluation> ControlService::CreateEvaluation(
    const std::string& experiment_id, const std::string& name,
    int repetitions) {
  if (repetitions < 1 || repetitions > 1000) {
    return Status::InvalidArgument("repetitions out of range [1, 1000]");
  }
  CHRONOS_ASSIGN_OR_RETURN(model::Experiment experiment,
                           GetExperiment(experiment_id));
  if (experiment.archived) {
    return Status::FailedPrecondition("experiment is archived");
  }
  // Bound the job count before anything is expanded or staged: the
  // space's own cap does not see repetitions.
  const uint64_t space = model::ParameterSpaceSize(experiment.settings);
  if (space > model::kMaxJobs / static_cast<uint64_t>(repetitions)) {
    return Status::ResourceExhausted(
        "evaluation expands to " + std::to_string(space) + " x " +
        std::to_string(repetitions) + " jobs (limit " +
        std::to_string(model::kMaxJobs) + ")");
  }
  CHRONOS_ASSIGN_OR_RETURN(
      std::vector<model::ParameterAssignment> assignments,
      model::ExpandParameterSpace(experiment.settings));

  model::Evaluation evaluation;
  evaluation.id = GenerateUuid();
  evaluation.experiment_id = experiment_id;
  evaluation.name = name.empty() ? experiment.name + " run" : name;
  evaluation.created_at = clock_->NowMs();
  // The evaluation, its jobs and their events commit as one batch: no
  // reader or restart ever sees an evaluation without its jobs.
  store::WriteBatch batch;
  batch.Insert(db_->evaluations().table(), evaluation.id, evaluation.ToJson());
  int sequence = 0;
  for (const model::ParameterAssignment& assignment : assignments) {
    for (int r = 0; r < repetitions; ++r) {
      Job job;
      // Sequence-prefixed ids keep Scan order == creation order.
      job.id = evaluation.id + "-" + PadSequence(sequence++);
      job.evaluation_id = evaluation.id;
      job.experiment_id = experiment_id;
      job.system_id = experiment.system_id;
      job.state = JobState::kScheduled;
      job.parameters = assignment;
      job.created_at = clock_->NowMs();
      batch.Insert(db_->jobs().table(), job.id, job.ToJson());
      StageEvent(&batch, job.id, "state", "job created (scheduled)");
    }
  }
  CHRONOS_RETURN_IF_ERROR(db_->table_store()->Commit(std::move(batch)));
  JobsScheduledTotal()->Increment(sequence);
  JobQueueDepth()->Add(sequence);
  return evaluation;
}

StatusOr<model::Evaluation> ControlService::GetEvaluation(
    const std::string& evaluation_id) {
  return db_->evaluations().Get(evaluation_id);
}

std::vector<model::Evaluation> ControlService::ListEvaluations(
    const std::string& experiment_id) {
  return db_->evaluations().FindBy("experiment_id",
                                   json::Json(experiment_id));
}

StatusOr<EvaluationSummary> ControlService::Summarize(
    const std::string& evaluation_id) {
  EvaluationSummary summary;
  CHRONOS_ASSIGN_OR_RETURN(summary.evaluation, GetEvaluation(evaluation_id));
  std::vector<store::Filter> by_state;
  for (JobState state : kAllJobStates) {
    by_state.push_back(JobFilter(evaluation_id, state));
  }
  // One snapshot for every state, so the counts add up to the evaluation's
  // job count even while jobs change state.
  std::vector<size_t> counts = db_->jobs().CountEach(by_state);
  int progress_sum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const JobState state = kAllJobStates[i];
    const int count = static_cast<int>(counts[i]);
    if (count == 0) continue;
    summary.state_counts[state] = count;
    summary.total_jobs += count;
    // Finished jobs count as 100%. Scheduled ones are 0% by construction:
    // CreateEvaluation and RescheduleJob both zero it.
    // Only the rest carry a progress worth reading.
    if (state == JobState::kFinished) {
      progress_sum += 100 * count;
    } else if (state != JobState::kScheduled) {
      for (const Job& job : ListJobs(evaluation_id, state)) {
        progress_sum += job.progress_percent;
      }
    }
  }
  summary.overall_progress_percent =
      summary.total_jobs == 0 ? 0 : progress_sum / summary.total_jobs;
  return summary;
}

StatusOr<Job> ControlService::GetJob(const std::string& job_id) {
  return db_->jobs().Get(job_id);
}

std::vector<Job> ControlService::ListJobs(
    const std::string& evaluation_id, std::optional<JobState> state) {
  // Both filters are served by the (evaluation_id, state) index, whose
  // entries are in id order.
  if (state.has_value()) {
    return db_->jobs().Find(JobFilter(evaluation_id, *state));
  }
  return db_->jobs().FindBy("evaluation_id", json::Json(evaluation_id));
}

Status ControlService::EditJob(const std::string& job_id,
                               const std::function<Status(JobEdit*)>& plan,
                               Job* committed) {
  // Optimistic retry loop around the read-plan-commit. Under contention
  // (many agents claiming from one evaluation) bare spinning makes every
  // loser re-collide; a short capped backoff between attempts spreads the
  // re-reads out. The policy runs on the service clock, so tests on
  // SimulatedClock stay wall-clock free.
  RetryPolicy policy;
  policy.max_attempts = 16;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 16;
  policy.clock = clock_;
  Backoff backoff(policy);
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0) backoff.SleepNext();
    CHRONOS_ASSIGN_OR_RETURN(auto snapshot,
                             db_->jobs().GetWithVersion(job_id));
    JobEdit edit;
    edit.job = std::move(snapshot.first);
    CHRONOS_RETURN_IF_ERROR(plan(&edit));
    if (!edit.write) return Status::Ok();
    edit.batch.Update(db_->jobs().table(), job_id, edit.job.ToJson(),
                      snapshot.second);
    Status status = db_->table_store()->Commit(std::move(edit.batch));
    if (status.ok()) {
      for (const auto& [from, to] : edit.transitions) {
        ObserveTransition(job_id, from, to);
      }
      if (committed != nullptr) *committed = std::move(edit.job);
      return Status::Ok();
    }
    if (!status.IsFailedPrecondition()) return status;
    // Lost the race; back off, re-read and re-plan.
  }
  return Status::Aborted("job transition contention on " + job_id);
}

Status ControlService::TransitionJob(
    const std::string& job_id, JobState to,
    const std::function<void(Job*)>& mutate, Job* committed) {
  return EditJob(
      job_id,
      [&](JobEdit* edit) {
        CHRONOS_RETURN_IF_ERROR(Advance(edit, to));
        if (mutate) mutate(&edit->job);
        return Status::Ok();
      },
      committed);
}

Status ControlService::Advance(JobEdit* edit, JobState to) {
  const JobState from = edit->job.state;
  CHRONOS_RETURN_IF_ERROR(model::CheckTransition(from, to));
  StageEvent(&edit->batch, edit->job.id, "state",
             std::string(model::JobStateName(from)) + " -> " +
                 std::string(model::JobStateName(to)));
  edit->transitions.emplace_back(from, to);
  edit->job.state = to;
  return Status::Ok();
}

Status ControlService::AbortJob(const std::string& job_id) {
  TimestampMs now = clock_->NowMs();
  return TransitionJob(job_id, JobState::kAborted, [now](Job* job) {
    job->finished_at = now;
  });
}

Status ControlService::RescheduleJob(const std::string& job_id) {
  return TransitionJob(job_id, JobState::kScheduled, ResetForNextAttempt);
}

// --- Agent-facing dispatch ---

StatusOr<std::optional<Job>> ControlService::PollJob(
    const std::string& deployment_id) {
  obs::Span span("control.claim");
  span.SetAttribute("deployment_id", deployment_id);
  // Draining: stop handing out new work, but answer the poll normally so
  // agents idle instead of erroring out.
  if (draining_.load(std::memory_order_relaxed)) return std::optional<Job>();
  CHRONOS_ASSIGN_OR_RETURN(model::Deployment deployment,
                           db_->deployments().Get(deployment_id));
  if (!deployment.active) {
    return Status::FailedPrecondition("deployment is inactive");
  }
  // One job at a time per deployment.
  const store::Filter running = {
      {"deployment_id", deployment_id},
      {"state", model::JobStateName(JobState::kRunning)}};
  if (db_->jobs().Count(running) > 0) return std::optional<Job>();

  // Oldest scheduled job for this system: the (system_id, state) index
  // yields candidates in (created_at, id) order, so a rescheduled job (which
  // keeps its created_at) goes first and ties follow the evaluation
  // sequence embedded in the id.
  const store::Filter scheduled = {
      {"system_id", deployment.system_id},
      {"state", model::JobStateName(JobState::kScheduled)}};
  TimestampMs now = clock_->NowMs();
  // The claiming poll's trace id (the agent's cycle root, installed at HTTP
  // ingress) is stamped onto the job so GET /jobs/{id}/trace can find it.
  const std::string claim_trace_id = CurrentTraceIds().trace_id;
  // Candidates another claimer won (or aborted) under us; skipped on the
  // next read of the index head.
  std::set<std::string> lost;
  for (;;) {
    std::vector<Job> head = db_->jobs().Find(scheduled, lost.size() + 1);
    auto candidate =
        std::find_if(head.begin(), head.end(),
                     [&](const Job& job) { return lost.count(job.id) == 0; });
    if (candidate == head.end()) return std::optional<Job>();
    Job claimed;
    Status status = TransitionJob(
        candidate->id, JobState::kRunning,
        [&](Job* job) {
          job->deployment_id = deployment_id;
          job->started_at = now;
          job->last_heartbeat_at = now;
          job->trace_id = claim_trace_id;
        },
        &claimed);
    if (status.ok()) {
      // Crash seam: the claim is durable but the agent never hears about
      // it. Recovery must re-run the job via the heartbeat timeout, not
      // lose it or hand it out twice.
      CHRONOS_RETURN_IF_ERROR(fault::Inject("control.claim.committed"));
      span.SetAttribute("job_id", claimed.id);
      return std::optional<Job>(std::move(claimed));
    }
    lost.insert(candidate->id);
  }
}

StatusOr<std::shared_ptr<const std::string>> ControlService::ExperimentText(
    const std::string& experiment_id) {
  return EntityText(db_->experiments(), experiment_id);
}

StatusOr<std::shared_ptr<const std::string>> ControlService::SystemText(
    const std::string& system_id) {
  return EntityText(db_->systems(), system_id);
}

template <typename T>
StatusOr<std::shared_ptr<const std::string>> ControlService::EntityText(
    const model::Repository<T>& repository, const std::string& id) {
  // One instantiation per entity type, and each type lives in one table.
  static obs::Counter* const hits =
      EntityCacheCounter(repository.table(), "hit");
  static obs::Counter* const misses =
      EntityCacheCounter(repository.table(), "miss");
  const std::string& table = repository.table();
  const int64_t version = db_->table_store()->Version(table, id);
  if (version < 0) {
    return Status::NotFound("row not found: " + table + "/" + id);
  }
  std::pair<std::string, std::string> key(table, id);
  {
    MutexLock lock(text_cache_mu_);
    auto it = text_cache_.find(key);
    if (it != text_cache_.end() && it->second.version == version) {
      hits->Increment();
      return it->second.text;
    }
  }
  misses->Increment();
  // File the text under the version it was read at, never the one probed
  // above: an update committed in between must not leave the old text
  // behind under the new version.
  CHRONOS_ASSIGN_OR_RETURN(auto snapshot, repository.GetWithVersion(id));
  auto text =
      std::make_shared<const std::string>(snapshot.first.ToJson().Dump());
  MutexLock lock(text_cache_mu_);
  auto it = text_cache_.find(key);
  if (it != text_cache_.end()) {
    // A racing miss may already have filed a later version; keep that one.
    if (it->second.version >= snapshot.second) return text;
    text_cache_bytes_ -= it->second.text->size();
    text_cache_.erase(it);
  }
  if (text->size() > kTextCacheBudgetBytes) return text;
  if (text_cache_bytes_ + text->size() > kTextCacheBudgetBytes) {
    text_cache_.clear();
    text_cache_bytes_ = 0;
  }
  text_cache_bytes_ += text->size();
  text_cache_.emplace(std::move(key), TextEntry{snapshot.second, text});
  return text;
}

StatusOr<JobState> ControlService::ReportProgress(const std::string& job_id,
                                                  int percent, int attempt) {
  percent = std::clamp(percent, 0, 100);
  JobState observed = JobState::kRunning;
  CHRONOS_RETURN_IF_ERROR(EditJob(job_id, [&](JobEdit* edit) {
    Job& job = edit->job;
    if (attempt > 0 && job.attempt != attempt) {
      // A post from a superseded attempt must not touch the live one;
      // kAborted tells the stale sender to stop.
      observed = JobState::kAborted;
      edit->write = false;
      return Status::Ok();
    }
    observed = job.state;
    if (job.state != JobState::kRunning) {
      // Not an error: the agent learns the job was aborted/failed meanwhile.
      edit->write = false;
      return Status::Ok();
    }
    job.progress_percent = percent;
    job.last_heartbeat_at = clock_->NowMs();
    StageEvent(&edit->batch, job_id, "progress",
               std::to_string(percent) + "%");
    return Status::Ok();
  }));
  return observed;
}

StatusOr<JobState> ControlService::Heartbeat(const std::string& job_id,
                                             int attempt) {
  CHRONOS_ASSIGN_OR_RETURN(auto snapshot, db_->jobs().GetWithVersion(job_id));
  auto [job, version] = snapshot;
  if (attempt > 0 && job.attempt != attempt) return JobState::kAborted;
  if (job.state != JobState::kRunning) return job.state;
  job.last_heartbeat_at = clock_->NowMs();
  db_->jobs().UpdateIfVersion(job, version).IgnoreError();  // Racy loss is harmless.
  return JobState::kRunning;
}

Status ControlService::AppendLog(const std::string& job_id,
                                 const std::vector<std::string>& lines) {
  if (!db_->jobs().Exists(job_id)) {
    return Status::NotFound("job not found: " + job_id);
  }
  store::WriteBatch batch;
  for (const std::string& line : lines) StageEvent(&batch, job_id, "log", line);
  return db_->table_store()->Commit(std::move(batch));
}

size_t ControlService::ImportSpans(const json::Json& spans) {
  if (!spans.is_array()) return 0;
  static obs::Counter* imported_total =
      obs::MetricsRegistry::Get()->GetCounter(
          "chronos_spans_imported_total",
          "Agent-side spans ingested from piggybacked posts");
  obs::SpanCollector* collector = obs::SpanCollector::Get();
  size_t imported = 0;
  for (const json::Json& value : spans.as_array()) {
    auto record = obs::SpanFromJson(value);
    if (!record.ok()) continue;  // Garbage from a peer is dropped, not fatal.
    // Shipping is at-least-once (the agent's cursor only advances on a
    // successful post), so replays are expected; keep the first copy.
    if (collector->Contains(record->trace_id, record->span_id)) continue;
    collector->Record(*std::move(record));
    ++imported;
  }
  imported_total->Increment(imported);
  return imported;
}

Status ControlService::UploadResult(const std::string& job_id,
                                    json::Json data,
                                    const std::string& zip_base64,
                                    const std::string& idempotency_key) {
  obs::Span span("control.upload_result");
  span.SetAttribute("job_id", job_id);
  if (!idempotency_key.empty()) {
    // Replay detection. The result row commits in the same batch as the
    // finished transition, so a row with this key means an earlier delivery
    // was fully applied (the job may have moved on since); acknowledge
    // without acting.
    for (const model::Result& existing :
         db_->results().FindBy("job_id", json::Json(job_id))) {
      if (existing.idempotency_key == idempotency_key) return Status::Ok();
    }
  }
  model::Result result;
  result.id = GenerateUuid();
  result.job_id = job_id;
  result.data = std::move(data);
  result.zip_base64 = zip_base64;
  result.idempotency_key = idempotency_key;
  result.uploaded_at = clock_->NowMs();
  return EditJob(job_id, [&](JobEdit* edit) {
    if (edit->job.state != JobState::kRunning) {
      return Status::FailedPrecondition(
          "result upload for job in state " +
          std::string(model::JobStateName(edit->job.state)));
    }
    CHRONOS_RETURN_IF_ERROR(Advance(edit, JobState::kFinished));
    edit->job.finished_at = result.uploaded_at;
    edit->job.progress_percent = 100;
    edit->job.terminal_key = idempotency_key;
    edit->batch.Insert(db_->results().table(), result.id, result.ToJson());
    return Status::Ok();
  });
}

Status ControlService::FailJob(const std::string& job_id,
                               const std::string& reason,
                               const std::string& idempotency_key) {
  obs::Span span("control.fail_job");
  span.SetAttribute("job_id", job_id);
  span.SetAttribute("reason", reason);
  if (!idempotency_key.empty()) {
    CHRONOS_ASSIGN_OR_RETURN(Job job, GetJob(job_id));
    if (job.terminal_key == idempotency_key) {
      // Replay of an already-applied failure. The job may have been
      // rescheduled (or even re-claimed) since; acting again would fail the
      // NEXT attempt and burn its budget, so just acknowledge.
      return Status::Ok();
    }
  }
  TimestampMs now = clock_->NowMs();
  // The failure and, while attempts remain, the reschedule are one write of
  // the job row in its final state, committed with both transitions'
  // events.
  return EditJob(job_id, [&](JobEdit* edit) {
    CHRONOS_RETURN_IF_ERROR(Advance(edit, JobState::kFailed));
    Job& job = edit->job;
    job.failure_reason = reason;
    job.finished_at = now;
    if (!idempotency_key.empty()) job.terminal_key = idempotency_key;
    if (options_.auto_reschedule && job.attempt < options_.max_attempts) {
      CHRONOS_RETURN_IF_ERROR(Advance(edit, JobState::kScheduled));
      ResetForNextAttempt(&job);
      StageEvent(&edit->batch, job_id, "note",
                 "auto-rescheduled after failure: " + reason);
    }
    return Status::Ok();
  });
}

// --- Job detail views ---

std::vector<model::JobEvent> ControlService::JobEvents(
    const std::string& job_id) {
  // The job_events index orders each job's events by seq.
  return db_->job_events().FindBy("job_id", json::Json(job_id));
}

std::string ControlService::JobLog(const std::string& job_id) {
  std::string log;
  for (const model::JobEvent& event : JobEvents(job_id)) {
    if (event.kind == "log") {
      log += event.message;
      log += '\n';
    }
  }
  return log;
}

StatusOr<model::Result> ControlService::GetResult(const std::string& job_id) {
  auto results = db_->results().FindBy("job_id", json::Json(job_id));
  if (results.empty()) {
    return Status::NotFound("no result for job " + job_id);
  }
  return results[0];
}

// --- Failure handling ---

int ControlService::CheckHeartbeats() {
  TimestampMs now = clock_->NowMs();
  TimestampMs cutoff = now - options_.heartbeat_timeout_ms;
  int failed = 0;
  for (const Job& job : db_->jobs().Find(
           {{"state", model::JobStateName(JobState::kRunning)}})) {
    if (job.last_heartbeat_at >= cutoff) continue;
    Status status =
        FailJob(job.id, "heartbeat timeout (agent presumed dead)");
    if (status.ok()) ++failed;
  }
  return failed;
}

// --- Lifecycle (crash consistency & graceful drain) ---

ReconcileReport ControlService::ReconcileOnStartup() {
  obs::Span span("control.reconcile");
  ReconcileReport report;
  auto marker = db_->table_store()->Get(kControlMetaTable, kLifecycleRowId);
  if (marker.ok() && marker->GetBoolOr("clean_shutdown", false)) {
    // The previous incarnation shut down cleanly, so nothing can be
    // half-done: skip every scan. The marker is consumed (one-shot) so a
    // later crash is not masked by a stale flag.
    report.clean_shutdown = true;
    ConsumeCleanShutdownMarker();
    reconcile_report_ = report;
    CHRONOS_LOG(kInfo, "control.lifecycle")
        << "clean shutdown detected; reconciliation skipped";
    return report;
  }
  ConsumeCleanShutdownMarker();
  TimestampMs now = clock_->NowMs();

  // Running jobs: their agent sessions were in memory and died with the
  // process. Grant each a grace lease: stamp the heartbeat so the monitor
  // gives the (possibly still alive) agent one full timeout before failing
  // and rescheduling through the attempt budget.
  for (const Job& job : db_->jobs().Find(
           {{"state", model::JobStateName(JobState::kRunning)}})) {
    Status status = EditJob(job.id, [&](JobEdit* edit) {
      edit->job.last_heartbeat_at = now;
      StageEvent(&edit->batch, job.id, "note",
                 "startup reconciliation: grace lease (agent session lost "
                 "in restart)");
      return Status::Ok();
    });
    if (status.ok()) CountReconciliation(&report, "grace_lease");
  }

  reconcile_report_ = report;
  CHRONOS_LOG(kInfo, "control.lifecycle")
      << "startup reconciliation: " << report.total() << " action(s)";
  return report;
}

void ControlService::BeginDrain() {
  if (draining_.exchange(true)) return;  // Idempotent.
  CHRONOS_LOG(kInfo, "control.lifecycle")
      << "drain requested: no new jobs will be handed out";
  std::function<void()> callback;
  {
    MutexLock lock(drain_mu_);
    callback = drain_callback_;
  }
  if (callback) callback();
}

void ControlService::SetDrainCallback(std::function<void()> callback) {
  MutexLock lock(drain_mu_);
  drain_callback_ = std::move(callback);
}

Status ControlService::MarkCleanShutdown() {
  json::Json row = json::Json::MakeObject();
  row.Set("clean_shutdown", true);
  row.Set("shutdown_at", clock_->NowMs());
  CHRONOS_RETURN_IF_ERROR(
      db_->table_store()->Upsert(kControlMetaTable, kLifecycleRowId, row));
  // Fold the marker (and everything else) into a fresh snapshot; the next
  // boot reads it without replaying a WAL.
  return db_->table_store()->Checkpoint();
}

void ControlService::ConsumeCleanShutdownMarker() {
  store::TableStore* store = db_->table_store();
  auto marker = store->Get(kControlMetaTable, kLifecycleRowId);
  if (!marker.ok() || !marker->GetBoolOr("clean_shutdown", false)) return;
  json::Json row = json::Json::MakeObject();
  row.Set("clean_shutdown", false);
  row.Set("consumed_at", clock_->NowMs());
  store->Upsert(kControlMetaTable, kLifecycleRowId, row).IgnoreError();
}

// --- Analysis ---

StatusOr<std::vector<analysis::JobResult>> ControlService::CollectResults(
    const std::string& evaluation_id) {
  CHRONOS_RETURN_IF_ERROR(GetEvaluation(evaluation_id).status());
  std::vector<analysis::JobResult> results;
  for (const Job& job : ListJobs(evaluation_id, JobState::kFinished)) {
    auto result = GetResult(job.id);
    if (!result.ok()) continue;
    analysis::JobResult entry;
    entry.parameters = job.parameters;
    entry.data = result->data;
    results.push_back(std::move(entry));
  }
  return results;
}

StatusOr<std::vector<analysis::DiagramData>>
ControlService::EvaluationDiagrams(const std::string& evaluation_id) {
  CHRONOS_ASSIGN_OR_RETURN(model::Evaluation evaluation,
                           GetEvaluation(evaluation_id));
  CHRONOS_ASSIGN_OR_RETURN(model::Experiment experiment,
                           GetExperiment(evaluation.experiment_id));
  CHRONOS_ASSIGN_OR_RETURN(model::System system,
                           GetSystem(experiment.system_id));
  CHRONOS_ASSIGN_OR_RETURN(std::vector<analysis::JobResult> results,
                           CollectResults(evaluation_id));
  std::vector<analysis::DiagramData> diagrams;
  for (const model::DiagramDef& def : system.diagrams) {
    auto diagram = analysis::BuildDiagram(def, results);
    if (diagram.ok()) diagrams.push_back(std::move(diagram).value());
  }
  return diagrams;
}

void ControlService::StageEvent(store::WriteBatch* batch,
                                const std::string& job_id,
                                const std::string& kind,
                                const std::string& message) {
  model::JobEvent event;
  event.id = GenerateUuid();
  event.job_id = job_id;
  event.seq = event_seq_.fetch_add(1);
  event.timestamp_ms = clock_->NowMs();
  event.kind = kind;
  event.message = message;
  batch->Insert(db_->job_events().table(), event.id, event.ToJson());
}

}  // namespace chronos::control
