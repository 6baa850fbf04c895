#include "generate.h"

#include <cstdio>
#include <memory>

#include "archive/zip.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/uuid.h"
#include "control/control_service.h"
#include "model/repository.h"

namespace ctlbench {

using chronos::Status;
using chronos::StatusOr;
namespace json = chronos::json;
namespace model = chronos::model;

namespace {

// History jobs carry a small bundle, like dispatch_deep's live jobs.
constexpr size_t kHistoryResultBytes = 256;

chronos::Rng JobRng(uint64_t seed, int64_t index) {
  return chronos::Rng(seed * 0x9E3779B97F4A7C15ull +
                      static_cast<uint64_t>(index) + 1);
}

model::ParameterSetting IndexSweep(int first, int count) {
  model::ParameterSetting setting;
  setting.name = "index";
  for (int i = 0; i < count; ++i) {
    setting.sweep.push_back(json::Json(static_cast<int64_t>(first + i)));
  }
  return setting;
}

}  // namespace

std::vector<std::string> JobLogLines(uint64_t seed, int64_t index) {
  chronos::Rng rng = JobRng(seed, index);
  int count = static_cast<int>(rng.NextInt64(2, 6));
  std::vector<std::string> lines;
  for (int i = 0; i < count; ++i) {
    lines.push_back("phase " + std::to_string(i) + ": " +
                    std::to_string(rng.NextInt64(1000, 999999)) +
                    " ops, checksum " +
                    chronos::strings::PadNumber(rng.NextUint64(1000000), 6));
  }
  return lines;
}

double JobThroughput(uint64_t seed, int64_t index) {
  return static_cast<double>(JobRng(seed ^ 0x7EA, index).NextInt64(1, 99999));
}

std::string JobResultFile(uint64_t seed, int64_t index, size_t bytes) {
  chronos::Rng rng = JobRng(seed ^ 0x5EED, index);
  std::string out = "op,latency_us,value\n";
  char line[64];
  for (uint64_t op = 0; out.size() < bytes; ++op) {
    std::snprintf(line, sizeof(line), "%llu,%lld,%016llx\n",
                  static_cast<unsigned long long>(op),
                  static_cast<long long>(rng.NextInt64(50, 20000)),
                  static_cast<unsigned long long>(rng.NextUint64()));
    out += line;
  }
  out.resize(bytes);
  return out;
}

StatusOr<GeneratedStore> GenerateStore(const std::string& dir,
                                       const StoreShape& shape,
                                       uint64_t seed) {
  if (chronos::file::Exists(dir)) {
    return Status::AlreadyExists("generated store exists: " + dir);
  }
  // Bulk generation skips per-commit fsync and intermediate checkpoints;
  // the clean shutdown below makes the final state durable in one
  // checkpoint.
  chronos::store::TableStoreOptions options;
  options.sync_writes = false;
  options.checkpoint_wal_bytes = 0;
  CHRONOS_ASSIGN_OR_RETURN(std::unique_ptr<model::MetaDb> db,
                           model::MetaDb::Open(dir, options));
  GeneratedStore out;
  model::User user;
  model::Project project;
  model::System system;
  {
    chronos::control::ControlService service(db.get());
    CHRONOS_ASSIGN_OR_RETURN(
        user,
        service.CreateUser(out.user, out.password, model::UserRole::kAdmin));
    CHRONOS_ASSIGN_OR_RETURN(
        project,
        service.CreateProject("ctlbench", "seeded benchmark store", user.id));
    system.name = "synthetic";
    model::ParameterDef index;
    index.name = "index";
    index.type = model::ParameterType::kInterval;
    index.min = -1e9;
    index.max = 1e9;
    system.parameters.push_back(index);
    CHRONOS_ASSIGN_OR_RETURN(system, service.RegisterSystem(system));
    for (int i = 0; i <= shape.load_deployments; ++i) {
      model::Deployment deployment;
      deployment.system_id = system.id;
      deployment.name = "slot-" + std::to_string(i);
      CHRONOS_ASSIGN_OR_RETURN(deployment,
                               service.CreateDeployment(deployment));
      if (i < shape.load_deployments) {
        out.load_deployment_ids.push_back(deployment.id);
      } else {
        out.probe_deployment_id = deployment.id;
      }
    }
  }

  // Finished history, written row by row through the model repositories in
  // the shape a real run leaves behind: the job, its result and its events
  // (created, claimed, progress, log lines, finished). Claiming thousands of
  // jobs through PollJob would cost seconds of full-table scans per run.
  // History indexes are negative, which keeps their content apart from the
  // backlog's.
  chronos::Rng sample_rng(seed);
  const int history_total =
      shape.history_evaluations * shape.history_jobs_per_evaluation;
  const double sample_share = history_total == 0 ? 0.0 : 64.0 / history_total;
  const chronos::TimestampMs now = chronos::SystemClock::Get()->NowMs();
  int64_t event_seq = 0;
  auto add_event = [&](const std::string& job_id, const std::string& kind,
                       const std::string& message) {
    model::JobEvent event;
    event.id = chronos::GenerateUuid();
    event.job_id = job_id;
    event.seq = ++event_seq;
    event.timestamp_ms = now;
    event.kind = kind;
    event.message = message;
    return db->job_events().Insert(event);
  };
  int history_index = 0;
  for (int e = 0; e < shape.history_evaluations; ++e) {
    model::Experiment experiment;
    experiment.id = chronos::GenerateUuid();
    experiment.project_id = project.id;
    experiment.system_id = system.id;
    experiment.name = "history-" + std::to_string(e);
    experiment.settings = {IndexSweep(-history_total + history_index,
                                      shape.history_jobs_per_evaluation)};
    experiment.created_at = now;
    CHRONOS_RETURN_IF_ERROR(db->experiments().Insert(experiment));
    model::Evaluation evaluation;
    evaluation.id = chronos::GenerateUuid();
    evaluation.experiment_id = experiment.id;
    evaluation.name = experiment.name + " run";
    evaluation.created_at = now;
    CHRONOS_RETURN_IF_ERROR(db->evaluations().Insert(evaluation));
    for (int j = 0; j < shape.history_jobs_per_evaluation; ++j) {
      const int64_t job_index = -history_total + history_index;
      model::Job job;
      job.id = evaluation.id + "-" + chronos::strings::PadNumber(j, 6);
      job.evaluation_id = evaluation.id;
      job.experiment_id = experiment.id;
      job.system_id = system.id;
      job.deployment_id = out.load_deployment_ids[j % shape.load_deployments];
      job.state = model::JobState::kFinished;
      job.parameters["index"] = json::Json(job_index);
      job.progress_percent = 100;
      job.terminal_key = job.id + "#1";
      job.created_at = job.started_at = job.finished_at =
          job.last_heartbeat_at = now;
      CHRONOS_RETURN_IF_ERROR(db->jobs().Insert(job));

      std::vector<std::string> lines = JobLogLines(seed, job_index);
      lines.insert(lines.begin(), "agent picked up job (attempt 1)");
      CHRONOS_RETURN_IF_ERROR(
          add_event(job.id, "state", "job created (scheduled)"));
      CHRONOS_RETURN_IF_ERROR(
          add_event(job.id, "state", "scheduled -> running"));
      CHRONOS_RETURN_IF_ERROR(add_event(job.id, "progress", "50%"));
      for (const std::string& line : lines) {
        CHRONOS_RETURN_IF_ERROR(add_event(job.id, "log", line));
      }
      CHRONOS_RETURN_IF_ERROR(
          add_event(job.id, "state", "running -> finished"));

      model::Result result;
      result.id = chronos::GenerateUuid();
      result.job_id = job.id;
      result.data = json::Json::MakeObject();
      result.data.Set("throughput", JobThroughput(seed, job_index));
      result.data.Set("parameters", model::AssignmentToJson(job.parameters));
      result.zip_base64 = chronos::strings::Base64Encode(
          chronos::archive::ZipFiles(
              {{"result.json", result.data.DumpPretty()},
               {"output.csv",
                JobResultFile(seed, job_index, kHistoryResultBytes)}}));
      result.idempotency_key = job.terminal_key;
      result.uploaded_at = now;
      CHRONOS_RETURN_IF_ERROR(db->results().Insert(result));
      if (sample_rng.NextDouble() < sample_share) {
        out.history_sample_events[job.id] = 4 + lines.size();
      }
      ++history_index;
    }
  }

  // The backlog goes through the service, which resumes its event sequence
  // past the history's.
  chronos::control::ControlService service(db.get());
  CHRONOS_ASSIGN_OR_RETURN(
      model::Experiment backlog_experiment,
      service.CreateExperiment(project.id, user.id, system.id, "backlog", "",
                               {IndexSweep(0, shape.backlog_jobs)}));
  CHRONOS_ASSIGN_OR_RETURN(
      model::Evaluation backlog,
      service.CreateEvaluation(backlog_experiment.id, "backlog"));
  out.backlog_evaluation_id = backlog.id;
  out.backlog_jobs = shape.backlog_jobs;
  out.total_jobs = static_cast<size_t>(history_total + shape.backlog_jobs);

  // Marker + checkpoint: the next boot takes the zero-action path.
  CHRONOS_RETURN_IF_ERROR(service.MarkCleanShutdown());
  return out;
}

}  // namespace ctlbench
