#ifndef CHRONOS_CONTROL_CONTROL_SERVICE_H_
#define CHRONOS_CONTROL_CONTROL_SERVICE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagrams.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "control/auth.h"
#include "model/repository.h"

namespace chronos::control {

struct ControlServiceOptions {
  // A running job whose agent misses heartbeats for this long is failed
  // (requirement iii: automated failure handling).
  int64_t heartbeat_timeout_ms = 30000;
  // Failed jobs are automatically rescheduled until this many attempts.
  int max_attempts = 3;
  bool auto_reschedule = true;
};

// What startup reconciliation did, keyed by action name (only
// "grace_lease" today). After a clean shutdown the fast path applies:
// `clean_shutdown` is true and `actions` is empty.
struct ReconcileReport {
  bool clean_shutdown = false;
  std::map<std::string, int> actions;

  int total() const;
  json::Json ToJson() const;
};

// Per-evaluation state tallies for monitoring views.
struct EvaluationSummary {
  model::Evaluation evaluation;
  std::map<model::JobState, int> state_counts;
  int total_jobs = 0;
  int overall_progress_percent = 0;  // Mean progress over jobs.

  json::Json ToJson() const;
};

// The business layer of Chronos Control: everything the web UI and the REST
// API expose, over the durable MetaDb. Thread-safe (serialization is
// delegated to the store's optimistic versioning where races matter).
class ControlService {
 public:
  ControlService(model::MetaDb* db, Clock* clock = SystemClock::Get(),
                 ControlServiceOptions options = {});

  // --- Users & sessions ---

  StatusOr<model::User> CreateUser(const std::string& username,
                                   const std::string& password,
                                   model::UserRole role);
  StatusOr<std::string> Login(const std::string& username,
                              const std::string& password);
  Status Logout(const std::string& token);
  StatusOr<model::User> Authenticate(const std::string& token);
  std::vector<model::User> ListUsers();

  // --- Projects (access checks at project level, per the paper) ---

  StatusOr<model::Project> CreateProject(const std::string& name,
                                         const std::string& description,
                                         const std::string& owner_id);
  StatusOr<model::Project> GetProject(const std::string& project_id,
                                      const std::string& user_id);
  std::vector<model::Project> ListProjects(const std::string& user_id);
  Status AddProjectMember(const std::string& project_id,
                          const std::string& acting_user_id,
                          const std::string& new_member_id);
  Status SetProjectArchived(const std::string& project_id,
                            const std::string& user_id, bool archived);

  // --- Systems & deployments ---

  StatusOr<model::System> RegisterSystem(model::System system);
  StatusOr<model::System> GetSystem(const std::string& system_id);
  std::vector<model::System> ListSystems();
  Status UpdateSystem(const model::System& system);

  StatusOr<model::Deployment> CreateDeployment(model::Deployment deployment);
  std::vector<model::Deployment> ListDeployments(
      const std::string& system_id = "");
  Status SetDeploymentActive(const std::string& deployment_id, bool active);
  Status DeleteDeployment(const std::string& deployment_id);

  // --- Experiments ---

  StatusOr<model::Experiment> CreateExperiment(
      const std::string& project_id, const std::string& user_id,
      const std::string& system_id, const std::string& name,
      const std::string& description,
      std::vector<model::ParameterSetting> settings);
  StatusOr<model::Experiment> GetExperiment(const std::string& experiment_id);
  std::vector<model::Experiment> ListExperiments(
      const std::string& project_id);
  Status SetExperimentArchived(const std::string& experiment_id,
                               bool archived);

  // --- Evaluations & jobs ---

  // Expands the experiment's parameter space into one job per assignment.
  // `repetitions` > 1 creates that many jobs per assignment ("certain
  // evaluations need to be repeated multiple times", §3); the analysis
  // averages repeated points.
  StatusOr<model::Evaluation> CreateEvaluation(
      const std::string& experiment_id, const std::string& name,
      int repetitions = 1);
  StatusOr<model::Evaluation> GetEvaluation(const std::string& evaluation_id);
  std::vector<model::Evaluation> ListEvaluations(
      const std::string& experiment_id);
  StatusOr<EvaluationSummary> Summarize(const std::string& evaluation_id);

  StatusOr<model::Job> GetJob(const std::string& job_id);
  std::vector<model::Job> ListJobs(const std::string& evaluation_id,
                                   std::optional<model::JobState> state = {});
  // User actions from the job page: abort scheduled/running, reschedule
  // failed.
  Status AbortJob(const std::string& job_id);
  Status RescheduleJob(const std::string& job_id);

  // --- Agent-facing dispatch ---

  // Hands the oldest scheduled job matching the deployment's system to the
  // calling agent, transitioning it to running. Returns nullopt when no
  // work is available, the service is draining, or the deployment is already
  // busy. Safe under concurrent polls (optimistic versioning; losers retry
  // internally).
  StatusOr<std::optional<model::Job>> PollJob(
      const std::string& deployment_id);

  // The experiment's and the system's ToJson().Dump() text, as the v2 poll
  // bundles them with a claimed job; NotFound if the row is absent. Served
  // from a cache (see EntityText), so a claim costs the same at any sweep
  // size.
  StatusOr<std::shared_ptr<const std::string>> ExperimentText(
      const std::string& experiment_id);
  StatusOr<std::shared_ptr<const std::string>> SystemText(
      const std::string& system_id);

  // Progress/heartbeat/log from the running agent. The returned state lets
  // the agent observe aborts. `attempt` (0 = not supplied, for old agents)
  // guards against posts from a superseded attempt touching the current one:
  // a mismatch returns kAborted without mutating the job, which tells the
  // stale sender to stop.
  StatusOr<model::JobState> ReportProgress(const std::string& job_id,
                                           int percent, int attempt = 0);
  StatusOr<model::JobState> Heartbeat(const std::string& job_id,
                                      int attempt = 0);
  Status AppendLog(const std::string& job_id,
                   const std::vector<std::string>& lines);

  // Ingests a "spans" array an agent piggybacked on a poll/heartbeat/result
  // post into the process-wide SpanCollector, deduplicating replays (the
  // agent ships at-least-once). Returns the number of new spans kept.
  // Malformed entries are skipped.
  size_t ImportSpans(const json::Json& spans);

  // Terminal reports. `idempotency_key` ("<job_id>#<attempt>", empty = no
  // replay protection) makes retries safe: a second delivery of the same
  // terminal report — including across a Control restart — is recognized and
  // acknowledged without re-applying the transition (or re-triggering the
  // failure reschedule).
  Status UploadResult(const std::string& job_id, json::Json data,
                      const std::string& zip_base64,
                      const std::string& idempotency_key = "");
  Status FailJob(const std::string& job_id, const std::string& reason,
                 const std::string& idempotency_key = "");

  // --- Job detail views ---

  std::vector<model::JobEvent> JobEvents(const std::string& job_id);
  std::string JobLog(const std::string& job_id);
  StatusOr<model::Result> GetResult(const std::string& job_id);

  // --- Failure handling (requirement iii) ---

  // Fails running jobs with stale heartbeats; auto-reschedules while
  // attempts remain. Returns the number of jobs failed. Called periodically
  // by HeartbeatMonitor and directly by tests.
  int CheckHeartbeats();

  // --- Lifecycle (crash consistency & graceful drain) ---

  // Runs after a boot's MetaDb replay. After a clean shutdown (see
  // MarkCleanShutdown) the marker short-circuits all scans and the report
  // shows zero actions. The marker is one-shot: it is consumed here so the
  // next boot only sees it if the intervening shutdown was clean too.
  //
  // On a dirty boot the only action is grace_lease: every running job's
  // agent session died with the process, but the agent itself may still be
  // working, so last_heartbeat_at is stamped now and the heartbeat monitor
  // grants one full timeout before failing + rescheduling through the
  // normal attempt budget. Nothing else needs repair: each request commits
  // as one batch (see EditJob), so a crash leaves no half-applied request
  // behind. Each lease is logged and counted in chronos_reconciliation_total.
  ReconcileReport ReconcileOnStartup();

  // Report of the reconciliation this instance ran at startup.
  const ReconcileReport& reconcile_report() const { return reconcile_report_; }

  // Stops handing out work: PollJob returns "no job" from now on. In-flight
  // uploads/heartbeats still apply, so agents can finish what they hold.
  // Invokes the drain callback (once) so the hosting process can begin its
  // orderly shutdown.
  void BeginDrain();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  // Called by BeginDrain exactly once; the server main wires this to its
  // shutdown notification.
  void SetDrainCallback(std::function<void()> callback);

  // Writes the clean-shutdown marker and checkpoints the store (snapshot +
  // empty WAL + fsync). Call after the HTTP server has stopped; the next
  // boot's ReconcileOnStartup takes the zero-action fast path.
  Status MarkCleanShutdown();

  // --- Analysis ---

  StatusOr<std::vector<analysis::JobResult>> CollectResults(
      const std::string& evaluation_id);
  // Builds every diagram declared by the experiment's system over the
  // evaluation's finished jobs.
  StatusOr<std::vector<analysis::DiagramData>> EvaluationDiagrams(
      const std::string& evaluation_id);

  model::MetaDb* db() { return db_; }
  SessionManager* sessions() { return &sessions_; }
  Clock* clock() { return clock_; }
  const ControlServiceOptions& options() const { return options_; }

 private:
  // One request's change to a job, built by an EditJob plan: the job as
  // read (mutated in place), the transitions it takes and the rows that
  // commit with it.
  struct JobEdit {
    model::Job job;
    // Cleared by a plan that finds nothing to write.
    bool write = true;
    std::vector<std::pair<model::JobState, model::JobState>> transitions;
    store::WriteBatch batch;
  };

  // Read-plan-commit of one job with optimistic retry: `plan` sees the
  // freshly read job, changes it and stages the rows that go with it; the
  // job row and those rows commit as one batch. A lost version race backs
  // off, re-reads and re-plans. ObserveTransition runs once it committed.
  // Once it committed, `committed` (if set) receives the job as written.
  Status EditJob(const std::string& job_id,
                 const std::function<Status(JobEdit*)>& plan,
                 model::Job* committed = nullptr);
  // EditJob with a plan that takes one checked transition to `to`; `mutate`
  // may adjust more fields after the state is set.
  Status TransitionJob(const std::string& job_id, model::JobState to,
                       const std::function<void(model::Job*)>& mutate,
                       model::Job* committed = nullptr);
  // Checks and applies `to` on the edit's job and stages its "state" event.
  Status Advance(JobEdit* edit, model::JobState to);
  // Stages one job event in `batch`.
  void StageEvent(store::WriteBatch* batch, const std::string& job_id,
                  const std::string& kind, const std::string& message);
  // Clears the one-shot clean-shutdown marker if present (no write if absent).
  void ConsumeCleanShutdownMarker();

  // One row's serialised text, valid for exactly one row _version.
  struct TextEntry {
    int64_t version;
    std::shared_ptr<const std::string> text;
  };
  // The text cache's byte budget: an insert that would go over it clears
  // the cache first, and a text larger than the whole budget is served
  // without being cached.
  static constexpr size_t kTextCacheBudgetBytes = 16 << 20;

  // Row `id` of `repository` as ToJson().Dump() text. Entries are keyed by
  // (table, id) and each is valid for exactly one _version: a lookup probes
  // the row's committed version (one map lookup, no row copied) and reads
  // and renders the row only when the entry holds another version. That is
  // sound because an id's _version never restarts: no code path deletes
  // experiments or systems. Counted in chronos_entity_cache_total.
  template <typename T>
  StatusOr<std::shared_ptr<const std::string>> EntityText(
      const model::Repository<T>& repository, const std::string& id);

  model::MetaDb* db_;
  Clock* clock_;
  ControlServiceOptions options_;
  SessionManager sessions_;
  // Next event sequence number; seeded past any persisted events on
  // construction so ordering survives control-server restarts.
  std::atomic<int64_t> event_seq_;
  std::atomic<bool> draining_{false};
  Mutex text_cache_mu_;
  std::map<std::pair<std::string, std::string>, TextEntry> text_cache_
      CHRONOS_GUARDED_BY(text_cache_mu_);
  size_t text_cache_bytes_ CHRONOS_GUARDED_BY(text_cache_mu_) = 0;
  Mutex drain_mu_;
  std::function<void()> drain_callback_ CHRONOS_GUARDED_BY(drain_mu_);
  ReconcileReport reconcile_report_;
};

}  // namespace chronos::control

#endif  // CHRONOS_CONTROL_CONTROL_SERVICE_H_
