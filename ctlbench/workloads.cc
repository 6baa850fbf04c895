#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "agent/agent.h"
#include "archive/zip.h"
#include "common/clock.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/strings.h"
#include "control_process.h"
#include "generate.h"
#include "model/repository.h"
#include "net/http.h"
#include "pacer.h"
#include "readers.h"
#include "tracer.h"

namespace ctlbench {

using chronos::Status;
using chronos::StatusOr;
namespace json = chronos::json;
namespace model = chronos::model;

namespace {

// setup_s is the median of this many boots, each on a fresh copy.
constexpr int kBoots = 5;
// Jobs finished before the first job chunk opens.
constexpr size_t kWarmupJobs = 100;
// The measured part of a run alternates job chunks and read chunks, this
// many of each: a slow spell of the shared host then falls on part of the
// samples of each metric rather than on all of them.
constexpr int kRounds = 4;
// The job window is counted in finished jobs, so every run claims the same
// slice of the backlog whatever the host's speed; each job chunk closes at
// its share of the count. `cap_ms` bounds warm-up plus every job chunk;
// reaching it fails the run.
struct JobWindow {
  size_t jobs;
  int64_t cap_ms;
};
constexpr int64_t kWindowCapMs = 120000;
constexpr int64_t kPollMs = 2;
constexpr int kStopGraceMs = 15000;
// Finished jobs whose stored result is read back and compared.
constexpr int kResultSample = 24;
// Threads sharing the read schedule, so one slow read does not hold back
// the next one due.
constexpr int kReaderThreads = 4;

struct Route {
  const char* key;      // Per-layer metric name: control.<key>_ms.
  const char* pattern;  // The router's route label in /metrics.
  bool agent;           // Agent protocol (true) or a UI/CLI read.
};

constexpr Route kRoutes[] = {
    {"poll", "/api/v2/agent/poll", true},
    {"progress", "/api/v2/agent/jobs/{id}/progress", true},
    {"log", "/api/v2/agent/jobs/{id}/log", true},
    {"heartbeat", "/api/v2/agent/jobs/{id}/heartbeat", true},
    {"result", "/api/v2/agent/jobs/{id}/result", true},
    {"eval_summary", "/api/v2/evaluations/{id}", false},
    {"eval_jobs", "/api/v2/evaluations/{id}/jobs", false},
    {"job", "/api/v2/jobs/{id}", false},
    {"job_events", "/api/v2/jobs/{id}/events", false},
    {"status", "/api/v2/status", false},
};

// The read mix, one entry per kind, drawn uniformly.
enum ReadKind {
  kEvalSummary,
  kEvalJobs,
  kJob,
  kJobEvents,
  kStatus,
  kReadKinds
};

// Sizes and rates of one workload. Each run has a closed-loop job window
// and an open-loop read phase, interleaved in kRounds chunks each, so every
// end-to-end metric is measured on each workload.
struct Spec {
  StoreShape shape;
  bool agents = false;       // ChronosAgents rather than REST clients.
  size_t result_bytes = 0;   // Result file each job attaches.
  size_t window_jobs = 0;    // Jobs in the job window (at least 1,000,
                             // for a p99 with ten samples beyond it).
  double read_rate = 0;      // Reads/s over all reader threads.
};

std::optional<Spec> SpecFor(const std::string& workload) {
  Spec spec;
  if (workload == "dispatch_deep") {
    // A run finishes about 1,310 of the 2,800 backlog jobs, whose WAL
    // (about 5.6 KB a job) stays under the 16 MB checkpoint threshold. Two
    // clients already keep Control's claim path busy; more only add
    // runnable threads on a 4-core host.
    spec.shape = {20, 100, 2800, 2};
    spec.result_bytes = 256;
    spec.window_jobs = 1200;
    spec.read_rate = 48;
  } else if (workload == "sweep_agents") {
    // One sweep larger than a run (about 1,320 jobs); about 8 KB of WAL a
    // job, so no run reaches a checkpoint either.
    spec.shape = {0, 0, 1600, 4};
    spec.agents = true;
    spec.result_bytes = 2 * 1024;
    spec.window_jobs = 1200;
    spec.read_rate = 48;
  } else {
    return std::nullopt;
  }
  return spec;
}

uint64_t NowNanos() { return chronos::SystemClock::Get()->MonotonicNanos(); }

double Ms(uint64_t nanos) { return static_cast<double>(nanos) / 1e6; }

std::string BacklogJobId(const GeneratedStore& store, uint64_t sequence) {
  return store.backlog_evaluation_id + "-" +
         chronos::strings::PadNumber(sequence, 6);
}

// fsyncs every file and directory under `dir`. Left dirty, the kernel
// writes generated and copied stores back some 30 s later, in the middle of
// a measured window, where that I/O queues ahead of Control's WAL fsyncs.
Status SyncTree(const std::string& dir) {
  std::error_code error;
  for (std::filesystem::recursive_directory_iterator it(dir, error), end;
       !error && it != end; it.increment(error)) {
    const std::string path = it->path().string();
    CHRONOS_RETURN_IF_ERROR(it->is_directory()
                                ? chronos::file::SyncDir(path)
                                : chronos::file::SyncFile(path));
  }
  if (error) {
    return Status::IoError("listing " + dir + ": " + error.message());
  }
  return chronos::file::SyncDir(dir);
}

StatusOr<std::string> CopyStore(const std::string& from,
                                const std::string& to) {
  std::error_code error;
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                        error);
  if (error) {
    return Status::IoError("copying " + from + " to " + to + ": " +
                           error.message());
  }
  CHRONOS_RETURN_IF_ERROR(SyncTree(to));
  return to;
}

StatusOr<MetricsText> Scrape(int port) {
  chronos::net::HttpClient http("127.0.0.1", port);
  CHRONOS_ASSIGN_OR_RETURN(chronos::net::HttpResponse response,
                           http.Get("/metrics"));
  if (response.status_code != 200) {
    return Status::Unavailable("GET /metrics: HTTP " +
                               std::to_string(response.status_code));
  }
  return MetricsText::Parse(response.body);
}

// A boot must find the clean-shutdown marker and repair nothing.
Status CheckBootStatus(int port) {
  chronos::net::HttpClient http("127.0.0.1", port);
  CHRONOS_ASSIGN_OR_RETURN(chronos::net::HttpResponse response,
                           http.Get("/api/v1/status"));
  CHRONOS_ASSIGN_OR_RETURN(json::Json status, json::Parse(response.body));
  const json::Json& reconciliation = status.at("reconciliation");
  if (response.status_code != 200 ||
      reconciliation.GetIntOr("total", -1) != 0) {
    return Status::Internal("boot reconciled: " + response.body);
  }
  return Status::Ok();
}

struct Expected {
  double throughput = 0;
  size_t file_hash = 0;
};

// Per-agent-thread state the handler fills in during RunOnce().
struct AgentCycle {
  uint64_t trace = 0;
  uint64_t root = 0;
  uint64_t handler_own_nanos = 0;
  std::string job_id;
};

// Control's /metrics before and after each chunk of one kind.
using Snapshots = std::vector<std::pair<MetricsText, MetricsText>>;

// A counter's change summed over `chunks`.
double SumDeltas(const Snapshots& chunks, const std::string& name,
                 const std::string& label, const std::string& value) {
  double sum = 0;
  for (const auto& [before, after] : chunks) {
    sum += after.Sum(name, label, value) - before.Sum(name, label, value);
  }
  return sum;
}

// Drives one booted Control process through the workload's job window and
// read phase, and checks what it returns.
class LoadRun {
 public:
  LoadRun(const RunOptions& options, const Spec& spec,
          const GeneratedStore& store, const ControlProcess& server,
          Tracer* tracer)
      : options_(options),
        spec_(spec),
        store_(store),
        port_(server.port()),
        token_(server.token()),
        pid_(server.pid()),
        tracer_(*tracer) {
    for (const auto& [job_id, events] : store.history_sample_events) {
      history_sample_.push_back(job_id);
    }
  }

  // Runs warm-up, then kRounds of a job chunk followed by a read chunk,
  // then audits. Problems land in problems(); only a broken harness returns
  // an error.
  Status Execute(const JobWindow& window);

  // The benchmark's own spans that started inside the measured phases.
  std::map<std::string, SpanTotals> WindowSpans() const {
    return tracer_.TotalsByName(measure_start_, measure_end_);
  }
  // A counter's change summed over the job chunks, or over every chunk.
  double JobDelta(const std::string& name, const std::string& label = "",
                  const std::string& value = "") const {
    return SumDeltas(job_chunks_, name, label, value);
  }
  double AllDelta(const std::string& name, const std::string& label = "",
                  const std::string& value = "") const {
    return JobDelta(name, label, value) +
           SumDeltas(read_chunks_, name, label, value);
  }

  // Seconds the job chunks took to reach their counts, summed.
  double window_seconds() const { return job_seconds_; }
  // Jobs finished inside the job chunks: the window's jobs, the few in
  // flight at each chunk's close and the probe.
  double window_finished() const {
    return static_cast<double>(window_finished_.load());
  }
  // Control's CPU over the job chunks (each until its last job finished)
  // and over the read chunks, in ms.
  double job_cpu_ms() const { return job_cpu_s_ * 1e3; }
  double read_cpu_ms() const { return read_cpu_s_ * 1e3; }
  // Each job chunk's jobs/s, in order.
  const std::vector<double>& chunk_rates() const { return chunk_rates_; }
  long peak_rss_kb() const { return peak_rss_kb_; }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

  // Samples gathered inside the job window and the read phase.
  std::vector<double> overheads_ms() const {
    chronos::MutexLock lock(mu_);
    return overheads_ms_;
  }
  std::vector<double> reads_ms() const {
    chronos::MutexLock lock(mu_);
    return reads_ms_;
  }
  std::vector<double> lateness_ms() const {
    chronos::MutexLock lock(mu_);
    return lateness_ms_;
  }
  std::vector<std::string> problems() const {
    chronos::MutexLock lock(mu_);
    return problems_;
  }

 private:
  std::unique_ptr<chronos::net::HttpClient> NewClient() const {
    auto http = std::make_unique<chronos::net::HttpClient>("127.0.0.1", port_);
    http->SetDefaultHeader("X-Session", token_);
    return http;
  }

  void Problem(const std::string& what) {
    chronos::MutexLock lock(mu_);
    if (problems_.size() < 20) problems_.push_back(what);
  }
  void Fail(const std::string& what) {
    failed_.fetch_add(1);
    Problem(what);
  }

  void Claim(const std::string& job_id, const std::string& client) {
    chronos::MutexLock lock(mu_);
    auto [it, fresh] = claimed_.emplace(job_id, client);
    if (!fresh && problems_.size() < 20) {
      problems_.push_back("job " + job_id + " handed to " + it->second +
                          " and " + client);
    }
  }
  void Expect(const std::string& job_id, Expected expected) {
    chronos::MutexLock lock(mu_);
    expected_[job_id] = expected;
  }

  // Counts a finished job. Inside a job chunk, `sampled` ones are the
  // window's samples; the one that reaches the chunk's count closes it.
  void JobDone(uint64_t done_nanos, double overhead_ms, bool sampled);
  // Starts one job cycle on a writer thread; false (after a short sleep)
  // while the stream is paused. A true return must be matched by
  // busy_.fetch_sub(1) once the job is counted.
  bool EnterJob();
  // Pauses the job stream and waits until no job is in flight.
  void PauseJobs(uint64_t deadline);
  // Resumes the stream until the window holds `target` samples, then
  // pauses it; reads /metrics and CPU around it while nothing is in flight.
  Status JobChunk(int round, size_t target, uint64_t deadline);
  // Reads fall due at the workload's rate for `nanos`, the stream paused.
  Status ReadChunk(int round, uint64_t nanos);

  // One request; records a net.<route> span under `parent`.
  StatusOr<json::Json> Call(chronos::net::HttpClient* http, bool post,
                            const std::string& path, const std::string& body,
                            const char* route, int expect_code,
                            uint64_t trace, uint64_t parent);

  // The four requests ChronosAgent sends per job (poll, progress, one log
  // batch, result), each on its own connection; `heartbeat` adds one.
  // False when the poll found no scheduled job.
  StatusOr<bool> RestJob(chronos::net::HttpClient* http,
                         const std::string& deployment_id,
                         const std::string& client, bool heartbeat,
                         uint64_t* done_nanos, double* overhead_ms);
  Status Read(chronos::net::HttpClient* http, ReadKind kind,
              const std::string& job_id, uint64_t trace, uint64_t parent);
  Status AgentHandler(chronos::agent::JobContext* context, AgentCycle* cycle,
                      const std::string& client);

  void ClosedWriter(int index);
  void AgentLoop(int index);
  void Reader(int index, Pacer* pacer, uint64_t stop_nanos);
  // One REST job with a heartbeat in the first job chunk, so the
  // heartbeat route has samples: the load's jobs end well inside the
  // agents' 2 s heartbeat interval.
  void Probe();
  // Sleeps in short steps until `done` holds, the job stream stops for
  // good, or `deadline` passes (a problem).
  void AwaitJobs(const std::function<bool()>& done, uint64_t deadline,
                 const std::string& what);
  void Audit();

  const RunOptions& options_;
  const Spec& spec_;
  const GeneratedStore& store_;
  const int port_;
  const std::string token_;
  const int pid_;
  Tracer& tracer_;
  std::vector<std::string> history_sample_;

  // The stream: stopped for good, paused between job chunks, jobs in
  // flight, and whether finished jobs count towards the window.
  std::atomic<bool> stop_jobs_{false};
  std::atomic<bool> paused_{false};
  std::atomic<int> busy_{0};
  std::atomic<bool> counting_{false};
  std::atomic<uint64_t> finished_{0};
  std::atomic<uint64_t> window_finished_{0};
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};

  // Owned by the thread running Execute().
  uint64_t measure_start_ = 0;
  uint64_t measure_end_ = 0;
  Snapshots job_chunks_;
  Snapshots read_chunks_;
  double job_seconds_ = 0;
  double job_cpu_s_ = 0;
  double read_cpu_s_ = 0;
  std::vector<double> chunk_rates_;
  long peak_rss_kb_ = 0;

  mutable chronos::Mutex mu_;
  // Whether the open job chunk still takes samples, its count, and when
  // the sample that reached the count finished.
  bool sampling_ CHRONOS_GUARDED_BY(mu_) = false;
  size_t chunk_target_ CHRONOS_GUARDED_BY(mu_) = 0;
  uint64_t chunk_end_ CHRONOS_GUARDED_BY(mu_) = 0;
  std::vector<double> overheads_ms_ CHRONOS_GUARDED_BY(mu_);
  std::vector<double> reads_ms_ CHRONOS_GUARDED_BY(mu_);
  std::vector<double> lateness_ms_ CHRONOS_GUARDED_BY(mu_);
  std::map<std::string, std::string> claimed_ CHRONOS_GUARDED_BY(mu_);
  std::map<std::string, Expected> expected_ CHRONOS_GUARDED_BY(mu_);
  std::vector<std::string> problems_ CHRONOS_GUARDED_BY(mu_);
};

void LoadRun::JobDone(uint64_t done_nanos, double overhead_ms, bool sampled) {
  finished_.fetch_add(1);
  if (!counting_.load()) return;
  window_finished_.fetch_add(1);
  if (!sampled) return;
  chronos::MutexLock lock(mu_);
  if (!sampling_) return;
  overheads_ms_.push_back(overhead_ms);
  if (overheads_ms_.size() == chunk_target_) {
    chunk_end_ = done_nanos;
    sampling_ = false;
    paused_.store(true);
  }
}

bool LoadRun::EnterJob() {
  // Counted busy before the pause is checked, so PauseJobs either sees
  // this job or this thread sees the pause.
  busy_.fetch_add(1);
  if (!paused_.load()) return true;
  busy_.fetch_sub(1);
  chronos::SystemClock::Get()->SleepMs(kPollMs);
  return false;
}

void LoadRun::PauseJobs(uint64_t deadline) {
  paused_.store(true);
  while (busy_.load() > 0) {
    if (NowNanos() >= deadline) {
      Problem("jobs still in flight at the job phase's time bound");
      return;
    }
    chronos::SystemClock::Get()->SleepMs(kPollMs);
  }
}

StatusOr<json::Json> LoadRun::Call(chronos::net::HttpClient* http, bool post,
                                   const std::string& path,
                                   const std::string& body, const char* route,
                                   int expect_code, uint64_t trace,
                                   uint64_t parent) {
  uint64_t start = NowNanos();
  auto response = post ? http->Post(path, body) : http->Get(path);
  tracer_.Record(trace, tracer_.NewId(), parent, std::string("net.") + route,
                 start, NowNanos());
  CHRONOS_RETURN_IF_ERROR(response.status());
  if (response->status_code != expect_code) {
    return Status::Internal(path + ": HTTP " +
                            std::to_string(response->status_code) + " " +
                            response->body.substr(0, 200));
  }
  if (response->body.empty()) return json::Json::MakeObject();
  return json::Parse(response->body);
}

StatusOr<bool> LoadRun::RestJob(chronos::net::HttpClient* http,
                                const std::string& deployment_id,
                                const std::string& client, bool heartbeat,
                                uint64_t* done_nanos, double* overhead_ms) {
  const uint64_t trace = tracer_.NewId();
  const uint64_t root = tracer_.NewId();
  const uint64_t start = NowNanos();
  json::Json poll_body = json::Json::MakeObject();
  poll_body.Set("deployment_id", deployment_id);
  CHRONOS_ASSIGN_OR_RETURN(
      json::Json poll, Call(http, true, "/api/v2/agent/poll", poll_body.Dump(),
                            "poll", 200, trace, root));
  if (poll.at("job").is_null()) return false;
  CHRONOS_ASSIGN_OR_RETURN(model::Job job,
                           model::Job::FromJson(poll.at("job")));
  Claim(job.id, client);
  auto index_param = job.parameters.find("index");
  if (index_param == job.parameters.end()) {
    return Status::Internal("job " + job.id + " has no index parameter");
  }
  const int64_t index = index_param->second.as_int();
  const std::string base = "/api/v2/agent/jobs/" + job.id;

  json::Json progress = json::Json::MakeObject();
  progress.Set("percent", static_cast<int64_t>(50));
  progress.Set("attempt", static_cast<int64_t>(job.attempt));
  CHRONOS_ASSIGN_OR_RETURN(
      json::Json state, Call(http, true, base + "/progress", progress.Dump(),
                             "progress", 200, trace, root));
  if (state.GetStringOr("state", "") != "running") {
    return Status::Aborted("job " + job.id + " not running after progress");
  }
  if (heartbeat) {
    json::Json beat = json::Json::MakeObject();
    beat.Set("attempt", static_cast<int64_t>(job.attempt));
    CHRONOS_RETURN_IF_ERROR(Call(http, true, base + "/heartbeat", beat.Dump(),
                                 "heartbeat", 200, trace, root)
                                .status());
  }
  json::Json lines = json::Json::MakeArray();
  lines.Append("agent picked up job (attempt " + std::to_string(job.attempt) +
               ")");
  for (const std::string& line : JobLogLines(options_.seed, index)) {
    lines.Append(line);
  }
  json::Json log = json::Json::MakeObject();
  log.Set("lines", std::move(lines));
  CHRONOS_RETURN_IF_ERROR(
      Call(http, true, base + "/log", log.Dump(), "log", 200, trace, root)
          .status());

  // The handler's own work: the result document and its bundle.
  const uint64_t handler_start = NowNanos();
  Expected expected{JobThroughput(options_.seed, index), 0};
  std::string file = JobResultFile(options_.seed, index, spec_.result_bytes);
  expected.file_hash = std::hash<std::string>{}(file);
  json::Json data = json::Json::MakeObject();
  data.Set("throughput", expected.throughput);
  data.Set("parameters", model::AssignmentToJson(job.parameters));
  std::string zip = chronos::archive::ZipFiles(
      {{"result.json", data.DumpPretty()}, {"output.csv", std::move(file)}});
  json::Json result = json::Json::MakeObject();
  result.Set("data", std::move(data));
  result.Set("zip_base64", chronos::strings::Base64Encode(zip));
  result.Set("idempotency_key", job.id + "#" + std::to_string(job.attempt));
  std::string result_body = result.Dump();
  const uint64_t handler_end = NowNanos();
  tracer_.Record(trace, tracer_.NewId(), root, "handler", handler_start,
                 handler_end);
  Expect(job.id, expected);

  CHRONOS_RETURN_IF_ERROR(Call(http, true, base + "/result", result_body,
                               "result", 201, trace, root)
                              .status());
  *done_nanos = NowNanos();
  tracer_.Record(trace, root, 0, "agent.cycle", start, *done_nanos, job.id);
  *overhead_ms = Ms(*done_nanos - start - (handler_end - handler_start));
  return true;
}

Status LoadRun::Read(chronos::net::HttpClient* http, ReadKind kind,
                     const std::string& job_id, uint64_t trace,
                     uint64_t parent) {
  const std::string evaluation =
      "/api/v2/evaluations/" + store_.backlog_evaluation_id;
  switch (kind) {
    case kEvalSummary: {
      CHRONOS_ASSIGN_OR_RETURN(
          json::Json summary, Call(http, false, evaluation, "",
                                   "eval_summary", 200, trace, parent));
      int64_t total = summary.GetIntOr("total_jobs", -1);
      int64_t counted = 0;
      for (const auto& entry : summary.at("state_counts").as_object()) {
        counted += entry.second.as_int();
      }
      if (total != store_.backlog_jobs || counted != total) {
        return Status::Internal("evaluation summary counts " +
                                std::to_string(counted) + "/" +
                                std::to_string(total));
      }
      return Status::Ok();
    }
    case kEvalJobs: {
      CHRONOS_ASSIGN_OR_RETURN(
          json::Json jobs, Call(http, false, evaluation + "/jobs?state=running",
                                "", "eval_jobs", 200, trace, parent));
      if (!jobs.is_array() ||
          jobs.size() > spec_.shape.load_deployments + 1u) {
        return Status::Internal("running list of " +
                                std::to_string(jobs.size()) + " jobs");
      }
      for (const json::Json& job : jobs.as_array()) {
        if (job.GetStringOr("state", "") != "running" ||
            job.GetStringOr("evaluation_id", "") !=
                store_.backlog_evaluation_id) {
          return Status::Internal("running list holds " + job.Dump());
        }
      }
      return Status::Ok();
    }
    case kJob: {
      CHRONOS_ASSIGN_OR_RETURN(
          json::Json job, Call(http, false, "/api/v2/jobs/" + job_id, "",
                               "job", 200, trace, parent));
      if (job.GetStringOr("id", "") != job_id) {
        return Status::Internal("GET /jobs/" + job_id +
                                " returned another job");
      }
      return Status::Ok();
    }
    case kJobEvents: {
      CHRONOS_ASSIGN_OR_RETURN(
          json::Json events,
          Call(http, false, "/api/v2/jobs/" + job_id + "/events", "",
               "job_events", 200, trace, parent));
      auto known = store_.history_sample_events.find(job_id);
      size_t want = known == store_.history_sample_events.end() ? 0
                                                                : known->second;
      if (!events.is_array() || events.size() == 0 ||
          (want > 0 && events.size() != want)) {
        return Status::Internal("job " + job_id + " has " +
                                std::to_string(events.size()) + " events, " +
                                std::to_string(want) + " expected");
      }
      int64_t last_seq = -1;
      for (const json::Json& event : events.as_array()) {
        int64_t seq = event.GetIntOr("seq", -1);
        if (seq <= last_seq) return Status::Internal("events out of order");
        last_seq = seq;
      }
      return Status::Ok();
    }
    case kStatus: {
      CHRONOS_ASSIGN_OR_RETURN(
          json::Json status, Call(http, false, "/api/v2/status", "", "status",
                                  200, trace, parent));
      if (status.GetIntOr("jobs", -1) !=
              static_cast<int64_t>(store_.total_jobs) ||
          status.at("reconciliation").GetIntOr("total", -1) != 0) {
        return Status::Internal("status disagrees: " + status.Dump());
      }
      return Status::Ok();
    }
    case kReadKinds:
      break;
  }
  return Status::InvalidArgument("unknown read kind");
}

void LoadRun::ClosedWriter(int index) {
  auto http = NewClient();
  const std::string client = "rest-" + std::to_string(index);
  while (!stop_jobs_.load()) {
    if (!EnterJob()) continue;
    attempted_.fetch_add(1);
    uint64_t done = 0;
    double overhead = 0;
    auto ran = RestJob(http.get(), store_.load_deployment_ids[index], client,
                       false, &done, &overhead);
    if (!ran.ok()) {
      Fail(client + ": " + ran.status().ToString());
    } else if (!*ran) {
      Problem("the backlog ran dry before the window closed");
      stop_jobs_.store(true);
    } else {
      JobDone(done, overhead, true);
    }
    busy_.fetch_sub(1);
  }
}

Status LoadRun::AgentHandler(chronos::agent::JobContext* context,
                             AgentCycle* cycle, const std::string& client) {
  const uint64_t start = NowNanos();
  const uint64_t span = tracer_.NewId();
  const int64_t index = context->ParamInt("index", -1);
  cycle->job_id = context->job().id;
  Claim(cycle->job_id, client);
  for (const std::string& line : JobLogLines(options_.seed, index)) {
    context->Log(line);
  }
  // SetProgress is a call into the toolkit, so it counts as overhead.
  const uint64_t progress_start = NowNanos();
  bool running = context->SetProgress(50);
  const uint64_t progress_end = NowNanos();
  tracer_.Record(cycle->trace, tracer_.NewId(), span, "net.progress",
                 progress_start, progress_end);
  if (!running) return Status::Aborted("job no longer running");
  Expected expected{JobThroughput(options_.seed, index), 0};
  std::string file = JobResultFile(options_.seed, index, spec_.result_bytes);
  expected.file_hash = std::hash<std::string>{}(file);
  context->AddResultFile("output.csv", std::move(file));
  context->SetResultField("throughput", json::Json(expected.throughput));
  Expect(cycle->job_id, expected);
  const uint64_t end = NowNanos();
  cycle->handler_own_nanos = (end - start) - (progress_end - progress_start);
  tracer_.Record(cycle->trace, span, cycle->root, "handler", start, end);
  return Status::Ok();
}

void LoadRun::AgentLoop(int index) {
  const std::string client = "agent-" + std::to_string(index);
  chronos::agent::AgentOptions agent_options;  // Library defaults otherwise.
  agent_options.control_port = port_;
  agent_options.username = store_.user;
  agent_options.password = store_.password;
  agent_options.deployment_id = store_.load_deployment_ids[index];
  chronos::agent::ChronosAgent agent(agent_options);
  AgentCycle cycle;
  agent.SetHandler(
      [this, &cycle, &client](chronos::agent::JobContext* context) {
        return AgentHandler(context, &cycle, client);
      });
  attempted_.fetch_add(1);
  Status connected = agent.Connect();
  if (!connected.ok()) {
    Fail(client + " login: " + connected.ToString());
    return;
  }
  while (!stop_jobs_.load()) {
    if (!EnterJob()) continue;
    attempted_.fetch_add(1);
    cycle = AgentCycle{tracer_.NewId(), tracer_.NewId(), 0, ""};
    const uint64_t start = NowNanos();
    auto ran = agent.RunOnce();
    const uint64_t done = NowNanos();
    tracer_.Record(cycle.trace, cycle.root, 0, "agent.run_once", start, done,
                   cycle.job_id);
    if (ran.ok() && !*ran) {
      Problem("the sweep ran dry before the window closed");
      stop_jobs_.store(true);
    } else if (!ran.ok() || cycle.job_id.empty()) {
      Fail(client + ": " + (ran.ok() ? std::string("handler never ran")
                                     : ran.status().ToString()));
    } else {
      JobDone(done, Ms(done - start - cycle.handler_own_nanos), true);
    }
    busy_.fetch_sub(1);
  }
}

void LoadRun::Reader(int index, Pacer* pacer, uint64_t stop_nanos) {
  auto http = NewClient();
  chronos::Rng rng(options_.seed * 1000003 + static_cast<uint64_t>(index));
  while (auto due = pacer->NextDue(stop_nanos)) {
    const uint64_t sent = NowNanos();
    auto kind = static_cast<ReadKind>(rng.NextUint64(kReadKinds));
    std::string job_id =
        history_sample_.empty()
            ? BacklogJobId(store_, rng.NextUint64(store_.backlog_jobs))
            : history_sample_[rng.NextUint64(history_sample_.size())];
    attempted_.fetch_add(1);
    const uint64_t trace = tracer_.NewId();
    const uint64_t root = tracer_.NewId();
    Status status = Read(http.get(), kind, job_id, trace, root);
    const uint64_t done = NowNanos();
    tracer_.Record(trace, root, 0, "bench.read", *due, done);
    if (!status.ok()) {
      Fail("read: " + status.ToString());
      continue;
    }
    chronos::MutexLock lock(mu_);
    reads_ms_.push_back(Ms(done - *due));
    lateness_ms_.push_back(Ms(Pacer::Lateness(*due, sent)));
  }
}

void LoadRun::Probe() {
  auto http = NewClient();
  attempted_.fetch_add(1);
  uint64_t done = 0;
  double overhead = 0;
  auto ran = RestJob(http.get(), store_.probe_deployment_id, "probe", true,
                     &done, &overhead);
  if (!ran.ok() || !*ran) {
    Fail("probe job: " +
         (ran.ok() ? std::string("no job") : ran.status().ToString()));
    return;
  }
  JobDone(done, overhead, false);
}

void LoadRun::AwaitJobs(const std::function<bool()>& done, uint64_t deadline,
                        const std::string& what) {
  while (!done() && !stop_jobs_.load()) {
    if (NowNanos() >= deadline) {
      Problem(what + ": only " + std::to_string(finished_.load()) +
              " jobs finished before the job phase's time bound");
      return;
    }
    chronos::SystemClock::Get()->SleepMs(kPollMs);
  }
}

Status LoadRun::Execute(const JobWindow& window) {
  const uint64_t deadline =
      NowNanos() + static_cast<uint64_t>(window.cap_ms) * 1000000;
  std::vector<std::thread> writers;
  for (int i = 0; i < spec_.shape.load_deployments; ++i) {
    if (spec_.agents) {
      writers.emplace_back([this, i] { AgentLoop(i); });
    } else {
      writers.emplace_back([this, i] { ClosedWriter(i); });
    }
  }
  AwaitJobs([this] { return finished_.load() >= kWarmupJobs; }, deadline,
            "warm-up");
  PauseJobs(deadline);

  const uint64_t read_nanos =
      static_cast<uint64_t>(options_.seconds) * 1000000000ull / kRounds;
  Status status = Status::Ok();
  for (int round = 0; round < kRounds && status.ok() && !stop_jobs_.load();
       ++round) {
    status = JobChunk(round, window.jobs * (round + 1) / kRounds, deadline);
    if (status.ok()) status = ReadChunk(round, read_nanos);
  }
  stop_jobs_.store(true);
  for (std::thread& thread : writers) thread.join();
  CHRONOS_RETURN_IF_ERROR(status);
  CHRONOS_ASSIGN_OR_RETURN(peak_rss_kb_, ReadVmHwmKb(pid_));
  Audit();
  return Status::Ok();
}

Status LoadRun::JobChunk(int round, size_t target, uint64_t deadline) {
  CHRONOS_ASSIGN_OR_RETURN(MetricsText before, Scrape(port_));
  CHRONOS_ASSIGN_OR_RETURN(double cpu_before, ReadCpuSeconds(pid_));
  const uint64_t start = NowNanos();
  if (measure_start_ == 0) measure_start_ = start;
  size_t samples_before = 0;
  {
    chronos::MutexLock lock(mu_);
    samples_before = overheads_ms_.size();
    chunk_target_ = target;
    sampling_ = true;
  }
  counting_.store(true);
  paused_.store(false);
  // After the scrape, so the probe's requests fall inside the deltas.
  std::thread probe;
  if (round == 0) probe = std::thread([this] { Probe(); });
  AwaitJobs(
      [this] {
        chronos::MutexLock lock(mu_);
        return !sampling_;
      },
      deadline, "job window");
  PauseJobs(deadline);
  if (probe.joinable()) probe.join();
  counting_.store(false);
  // CPU before the scrape, so no scrape's CPU lands in a chunk.
  CHRONOS_ASSIGN_OR_RETURN(double cpu_after, ReadCpuSeconds(pid_));
  CHRONOS_ASSIGN_OR_RETURN(MetricsText after, Scrape(port_));
  job_chunks_.emplace_back(std::move(before), std::move(after));
  job_cpu_s_ += cpu_after - cpu_before;
  chronos::MutexLock lock(mu_);
  if (sampling_) {
    // Stopped early (a problem is recorded); no more samples.
    sampling_ = false;
    return Status::Ok();
  }
  const double seconds = Ms(chunk_end_ - start) / 1e3;
  job_seconds_ += seconds;
  chunk_rates_.push_back(
      static_cast<double>(overheads_ms_.size() - samples_before) / seconds);
  return Status::Ok();
}

Status LoadRun::ReadChunk(int round, uint64_t nanos) {
  CHRONOS_ASSIGN_OR_RETURN(MetricsText before, Scrape(port_));
  CHRONOS_ASSIGN_OR_RETURN(double cpu_before, ReadCpuSeconds(pid_));
  const uint64_t start = NowNanos();
  Pacer pacer(chronos::SystemClock::Get(), spec_.read_rate, start);
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaderThreads; ++i) {
    readers.emplace_back([this, round, i, start, nanos, &pacer] {
      Reader(round * kReaderThreads + i, &pacer, start + nanos);
    });
  }
  for (std::thread& thread : readers) thread.join();
  measure_end_ = NowNanos();
  CHRONOS_ASSIGN_OR_RETURN(double cpu_after, ReadCpuSeconds(pid_));
  CHRONOS_ASSIGN_OR_RETURN(MetricsText after, Scrape(port_));
  read_chunks_.emplace_back(std::move(before), std::move(after));
  read_cpu_s_ += cpu_after - cpu_before;
  return Status::Ok();
}

void LoadRun::Audit() {
  auto http = NewClient();
  std::map<std::string, std::string> claimed;
  std::map<std::string, Expected> expected;
  {
    chronos::MutexLock lock(mu_);
    claimed = claimed_;
    expected = expected_;
  }

  // Every claimed backlog job finished exactly once; every other one is
  // still scheduled.
  auto jobs = Call(http.get(), false,
                   "/api/v2/evaluations/" + store_.backlog_evaluation_id +
                       "/jobs",
                   "", "audit", 200, 0, 0);
  if (!jobs.ok()) {
    Problem("audit list: " + jobs.status().ToString());
    return;
  }
  size_t finished = 0;
  for (const json::Json& job : jobs->as_array()) {
    const std::string id = job.GetStringOr("id", "");
    const std::string state = job.GetStringOr("state", "");
    const bool was_claimed = claimed.count(id) > 0;
    if (was_claimed && state == "finished" && job.GetIntOr("attempt", 0) == 1) {
      ++finished;
    } else if (was_claimed || state != "scheduled") {
      Problem("job " + id + " ended " + state +
              (was_claimed ? " after a claim" : " without a claim"));
    }
  }
  auto counters = Scrape(port_);
  if (!counters.ok()) {
    Problem("audit scrape: " + counters.status().ToString());
    return;
  }
  const double claims = counters->Sum("chronos_jobs_claimed_total");
  const double finishes = counters->Sum("chronos_jobs_finished_total");
  if (finished != claimed.size() || claims != claimed.size() ||
      finishes != claimed.size()) {
    Problem("claims " + std::to_string(claims) + ", finishes " +
            std::to_string(finishes) + ", finished rows " +
            std::to_string(finished) + ", client claims " +
            std::to_string(claimed.size()));
  }

  // A seeded sample of results reads back as uploaded.
  std::vector<std::string> ids;
  for (const auto& [id, client] : claimed) ids.push_back(id);
  chronos::Rng rng(options_.seed ^ 0xA0D17);
  for (int i = 0; i < kResultSample && !ids.empty(); ++i) {
    const std::string& id = ids[rng.NextUint64(ids.size())];
    auto row = Call(http.get(), false, "/api/v2/jobs/" + id + "/result", "",
                    "audit", 200, 0, 0);
    std::string zip;
    if (!row.ok() ||
        !chronos::strings::Base64Decode(row->GetStringOr("zip_base64", ""),
                                        &zip)) {
      Problem("result of " + id + " unreadable");
      continue;
    }
    auto files = chronos::archive::UnzipFiles(zip);
    const Expected& want = expected[id];
    if (!files.ok() || files->count("output.csv") == 0 ||
        std::hash<std::string>{}(files->at("output.csv")) != want.file_hash ||
        row->at("data").GetDoubleOr("throughput", -1) != want.throughput) {
      Problem("result of " + id + " differs from the upload");
    }
  }
}

// Server-side mean latency (ms) of one route across every chunk.
double RouteMeanMs(const LoadRun& run, const char* pattern) {
  double calls =
      run.AllDelta("chronos_http_request_latency_us_count", "route", pattern);
  double micros =
      run.AllDelta("chronos_http_request_latency_us_sum", "route", pattern);
  return calls > 0 ? micros / calls / 1e3 : 0.0;
}

// A counter's change over the job chunks, per job finished in them.
double PerWindowJob(const LoadRun& run, const std::string& name) {
  return run.window_finished() > 0
             ? run.JobDelta(name) / run.window_finished()
             : 0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n == 0 ? 0 : n % 2 ? values[n / 2]
                            : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Reports a percentile through the ten-beyond rule; a missing one marks the
// run incorrect (the workload is sized so that it never is).
double RequiredPercentile(const std::vector<double>& values, double q,
                          const std::string& name, RunOutcome* outcome) {
  std::optional<double> value = Percentile(values, q);
  if (value.has_value()) return *value;
  outcome->problems.push_back(name + ": " + std::to_string(values.size()) +
                              " samples are too few");
  return values.empty() ? 0 : *std::max_element(values.begin(), values.end());
}

// End-to-end metrics of one pass. With an `outcome`, a percentile without
// enough samples marks the run incorrect; without one it is left out (the
// short passes of a traced run).
std::vector<Metric> EndToEnd(const LoadRun& run, double setup_s,
                             RunOutcome* outcome) {
  std::vector<double> overheads = run.overheads_ms();
  std::vector<double> reads = run.reads_ms();
  const double window_s = run.window_seconds();
  std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"jobs_per_s",
       window_s > 0 ? static_cast<double>(overheads.size()) / window_s : 0,
       "jobs/s"},
  };
  auto percentile = [&](const std::vector<double>& values, double q,
                        const std::string& name) {
    if (outcome != nullptr) {
      metrics.push_back(
          {name, RequiredPercentile(values, q, name, outcome), "ms"});
    } else if (std::optional<double> value = Percentile(values, q)) {
      metrics.push_back({name, *value, "ms"});
    }
  };
  percentile(overheads, 0.50, "job_overhead_p50_ms");
  percentile(overheads, 0.99, "job_overhead_p99_ms");
  percentile(reads, 0.50, "read_p50_ms");
  percentile(reads, 0.99, "read_p99_ms");
  metrics.push_back(
      {"control_cpu_ms_per_job",
       run.window_finished() > 0 ? run.job_cpu_ms() / run.window_finished()
                                 : 0,
       "ms"});
  metrics.push_back(
      {"control_cpu_ms_per_read",
       reads.empty() ? 0
                     : run.read_cpu_ms() / static_cast<double>(reads.size()),
       "ms"});
  metrics.push_back({"control_peak_rss_mb",
                     static_cast<double>(run.peak_rss_kb()) / 1024.0, "MB"});
  return metrics;
}

std::vector<Metric> PerLayer(const LoadRun& run, double store_open_ms,
                             RunOutcome* outcome) {
  std::vector<Metric> metrics;
  const double jobs = run.window_finished();
  const double per_job = jobs > 0 ? 1.0 / jobs : 0;

  double agent_requests = 0;
  double agent_server_ms = 0;
  for (const Route& route : kRoutes) {
    metrics.push_back({std::string("control.") + route.key + "_ms",
                       RouteMeanMs(run, route.pattern), "ms"});
    if (!route.agent) continue;
    double calls = run.JobDelta("chronos_http_request_latency_us_count",
                                "route", route.pattern);
    agent_requests += calls;
    agent_server_ms += calls * RouteMeanMs(run, route.pattern);
  }
  metrics.push_back({"control.requests_per_job",
                     PerWindowJob(run, "chronos_http_requests_total"),
                     "count"});

  // Client-side time of the calls the benchmark makes itself, against the
  // server's own time for the same routes.
  std::map<std::string, SpanTotals> spans = run.WindowSpans();
  double wire_ms = 0;
  double wire_calls = 0;
  for (const Route& route : kRoutes) {
    auto it = spans.find(std::string("net.") + route.key);
    if (it == spans.end()) continue;
    wire_ms += Ms(it->second.nanos) -
               static_cast<double>(it->second.count) *
                   RouteMeanMs(run, route.pattern);
    wire_calls += static_cast<double>(it->second.count);
  }
  metrics.push_back(
      {"net.wire_ms", wire_calls > 0 ? wire_ms / wire_calls : 0, "ms"});

  // Job cycle time outside Control: cycles minus handler minus the server
  // time of the agent routes, per job.
  const SpanTotals& cycles =
      spans[spans.count("agent.run_once") ? "agent.run_once" : "agent.cycle"];
  const double outside_ms =
      (Ms(cycles.nanos) - Ms(spans["handler"].nanos)) /
          std::max<double>(1, static_cast<double>(cycles.count)) -
      agent_server_ms * per_job;
  metrics.push_back({"agent.outside_control_ms", outside_ms, "ms"});
  metrics.push_back({"agent.posts_per_job", agent_requests * per_job, "count"});

  metrics.push_back({"store.wal_appends_per_job",
                     PerWindowJob(run, "chronos_wal_appends_total"), "count"});
  metrics.push_back({"store.wal_bytes_per_job",
                     PerWindowJob(run, "chronos_wal_bytes_total"), "bytes"});
  metrics.push_back({"store.open_ms", store_open_ms, "ms"});
  metrics.push_back({"obs.spans_imported_per_job",
                     PerWindowJob(run, "chronos_spans_imported_total"),
                     "count"});
  metrics.push_back({"obs.spans_dropped_per_job",
                     PerWindowJob(run, "chronos_spans_dropped_total"),
                     "count"});
  metrics.push_back({"pacer.late_p99_ms",
                     RequiredPercentile(run.lateness_ms(), 0.99,
                                        "pacer.late_p99_ms", outcome),
                     "ms"});
  return metrics;
}

// Traced minus untraced end-to-end numbers of two back-to-back passes on
// the same seed. setup_s is left out: both passes share the same boots.
void ReportTracingOverhead(const RunOptions& options,
                           const std::vector<Metric>& untraced,
                           const std::vector<Metric>& traced) {
  json::Json overhead = json::Json::MakeObject();
  for (const Metric& metric : traced) {
    auto base = std::find_if(
        untraced.begin(), untraced.end(),
        [&metric](const Metric& other) { return other.name == metric.name; });
    if (metric.name == "setup_s" || base == untraced.end()) continue;
    overhead.Set(metric.name, metric.value - base->value);
    std::cerr << "tracing overhead " << metric.name << ": " << metric.value
              << " traced vs " << base->value << " untraced\n";
  }
  chronos::file::WriteFile(
      options.out_dir + "/tracing-overhead-" + options.workload + ".json",
      overhead.DumpPretty())
      .IgnoreError();
}

// Boots Control on a fresh copy of the generated store; a boot that
// reconciles anything is a problem.
StatusOr<std::unique_ptr<ControlProcess>> Boot(const RunOptions& options,
                                               const GeneratedStore& store,
                                               const std::string& pristine,
                                               const std::string& data_dir,
                                               Tracer* tracer,
                                               double* boot_s,
                                               RunOutcome* outcome) {
  CHRONOS_RETURN_IF_ERROR(CopyStore(pristine, data_dir).status());
  uint64_t start = NowNanos();
  CHRONOS_ASSIGN_OR_RETURN(
      std::unique_ptr<ControlProcess> server,
      ControlProcess::Start(options.server_binary, data_dir, store.user,
                            store.password, boot_s));
  tracer->Record(tracer->NewId(), tracer->NewId(), 0, "control.boot", start,
                 NowNanos());
  Status clean = CheckBootStatus(server->port());
  if (!clean.ok()) outcome->problems.push_back(clean.ToString());
  return server;
}

// Measures one pass on `server`, then stops it.
StatusOr<std::unique_ptr<LoadRun>> MeasurePass(
    const RunOptions& options, const Spec& spec, const GeneratedStore& store,
    std::unique_ptr<ControlProcess> server, Tracer* tracer,
    const JobWindow& window, RunOutcome* outcome) {
  auto run = std::make_unique<LoadRun>(options, spec, store, *server, tracer);
  Status executed = run->Execute(window);
  Status stopped = server->Stop(kStopGraceMs);
  server.reset();
  CHRONOS_RETURN_IF_ERROR(executed);
  if (!stopped.ok()) outcome->problems.push_back(stopped.ToString());
  outcome->attempted += run->attempted();
  outcome->failed += run->failed();
  for (const std::string& problem : run->problems()) {
    outcome->problems.push_back(problem);
  }
  std::vector<double> lateness = run->lateness_ms();
  std::cerr << "job window " << run->window_seconds() << " s (chunks at";
  for (double rate : run->chunk_rates()) std::cerr << " " << rate;
  std::cerr << " jobs/s), reads "
            << run->reads_ms().size() << ", generator lateness p50 "
            << Percentile(lateness, 0.5).value_or(-1) << " ms, max "
            << (lateness.empty() ? 0.0
                                 : *std::max_element(lateness.begin(),
                                                     lateness.end()))
            << " ms\n";
  return run;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return SpecFor(name).has_value();
}

StatusOr<RunOutcome> RunWorkload(const RunOptions& options) {
  std::optional<Spec> spec = SpecFor(options.workload);
  if (!spec.has_value()) {
    return Status::InvalidArgument("unknown workload " + options.workload);
  }
  // The in-process agents log every job at INFO; keep warnings only.
  chronos::Logger::Get()->set_min_level(chronos::LogLevel::kWarning);

  const std::string run_dir = options.out_dir + "/run-" + options.workload +
                              "-" + std::to_string(getpid());
  CHRONOS_RETURN_IF_ERROR(chronos::file::RemoveAll(run_dir));
  CHRONOS_RETURN_IF_ERROR(chronos::file::MakeDirs(run_dir));
  const std::string pristine = run_dir + "/pristine";

  uint64_t generate_start = NowNanos();
  CHRONOS_ASSIGN_OR_RETURN(GeneratedStore store,
                           GenerateStore(pristine, spec->shape, options.seed));
  CHRONOS_RETURN_IF_ERROR(SyncTree(pristine));
  std::cerr << "generated " << store.total_jobs << " jobs in "
            << Ms(NowNanos() - generate_start) / 1e3 << " s\n";

  RunOutcome outcome;
  Tracer tracer(true);
  Tracer untraced(false);
  std::vector<double> boots;
  std::unique_ptr<ControlProcess> server;
  for (int boot = 0; boot < kBoots; ++boot) {
    if (server != nullptr) {
      Status stopped = server->Stop(kStopGraceMs);
      if (!stopped.ok()) outcome.problems.push_back(stopped.ToString());
    }
    double boot_s = 0;
    CHRONOS_ASSIGN_OR_RETURN(
        server, Boot(options, store, pristine,
                     run_dir + "/boot-" + std::to_string(boot),
                     options.trace ? &tracer : &untraced, &boot_s, &outcome));
    boots.push_back(boot_s);
  }
  const double setup_s = Median(boots);

  if (!options.trace) {
    CHRONOS_ASSIGN_OR_RETURN(
        std::unique_ptr<LoadRun> run,
        MeasurePass(options, *spec, store, std::move(server), &untraced,
                    {spec->window_jobs, kWindowCapMs}, &outcome));
    outcome.metrics = EndToEnd(*run, setup_s, &outcome);
  } else {
    CHRONOS_ASSIGN_OR_RETURN(std::string copy,
                             CopyStore(pristine, run_dir + "/open"));
    uint64_t start = NowNanos();
    auto db = model::MetaDb::Open(copy);
    uint64_t end = NowNanos();
    if (!db.ok()) return db.status();
    const double store_open_ms = Ms(end - start);
    tracer.Record(tracer.NewId(), tracer.NewId(), 0, "store.open", start,
                  end);

    // An untraced pass and a traced one, back to back on the same inputs,
    // give the tracing overhead. Each has half the job window, to stay
    // inside the same time; their job p99s go unreported.
    const JobWindow traced_window = {spec->window_jobs / 2, kWindowCapMs / 2};
    CHRONOS_ASSIGN_OR_RETURN(
        std::unique_ptr<LoadRun> plain,
        MeasurePass(options, *spec, store, std::move(server), &untraced,
                    traced_window, &outcome));
    double boot_s = 0;
    CHRONOS_ASSIGN_OR_RETURN(server, Boot(options, store, pristine,
                                          run_dir + "/traced", &tracer,
                                          &boot_s, &outcome));
    CHRONOS_ASSIGN_OR_RETURN(
        std::unique_ptr<LoadRun> run,
        MeasurePass(options, *spec, store, std::move(server), &tracer,
                    traced_window, &outcome));
    outcome.metrics = PerLayer(*run, store_open_ms, &outcome);
    ReportTracingOverhead(options, EndToEnd(*plain, setup_s, nullptr),
                          EndToEnd(*run, setup_s, nullptr));
    chronos::file::WriteFile(
        options.out_dir + "/trace-" + options.workload + ".json",
        tracer.RenderChrome())
        .IgnoreError();
  }
  outcome.correct = outcome.problems.empty() && outcome.failed == 0;
  if (outcome.correct) {
    chronos::file::RemoveAll(run_dir).IgnoreError();
  }
  return outcome;
}

}  // namespace ctlbench
