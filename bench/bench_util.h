#ifndef CHRONOS_BENCH_BENCH_UTIL_H_
#define CHRONOS_BENCH_BENCH_UTIL_H_

// Shared harness for the experiment-reproduction benches (EXPERIMENTS.md):
// an in-process Chronos Control plus N live MokkaDB deployments, the same
// topology the paper demos, minus the browser.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "agent/agent.h"
#include "clients/mokka_client.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "control/rest_api.h"
#include "sue/mokkadb/wire.h"

namespace chronos::bench {

// Simulated storage latency used by the SuE-facing experiments (see
// DESIGN.md "Substitutions": stands in for mongod's disk work so locking
// granularity, not host core count, decides the concurrency shape).
constexpr int64_t kReadIoUs = 200;
constexpr int64_t kWriteIoUs = 800;

class Toolkit {
 public:
  Toolkit() : workdir_("chronos-bench") {
    Logger::Get()->set_min_level(LogLevel::kError);
    Logger::Get()->set_stderr_enabled(false);
    store::TableStoreOptions store_options;
    store_options.sync_writes = false;  // Benchmarks measure the SuE.
    auto db = model::MetaDb::Open(workdir_.path() + "/meta", store_options);
    db_ = std::move(db).value();
    service_ = std::make_unique<control::ControlService>(db_.get());
    auto admin =
        service_->CreateUser("admin", "secret", model::UserRole::kAdmin);
    admin_id_ = admin->id;
    auto server = control::ControlServer::Start(service_.get(), 0);
    server_ = std::move(server).value();
  }

  ~Toolkit() {
    for (auto& chronos_agent : agents_) chronos_agent->Stop();
    server_->Stop();
  }

  control::ControlService* service() { return service_.get(); }
  int port() const { return server_->port(); }
  const std::string& admin_id() const { return admin_id_; }

  // Registers the MokkaDB system with the demo parameter/diagram set.
  std::string RegisterMokkaSystem() {
    model::System system;
    system.name = "MokkaDB";
    for (const char* name : {"engine", "ratio", "distribution", "workload"}) {
      model::ParameterDef def;
      def.name = name;
      def.type = model::ParameterType::kValue;
      system.parameters.push_back(def);
    }
    for (const char* name :
         {"threads", "records", "operations", "warmup_ops", "io_read_us",
          "io_write_us", "field_count", "field_length"}) {
      model::ParameterDef def;
      def.name = name;
      def.type = model::ParameterType::kInterval;
      def.min = 0;
      def.max = 100000000;
      system.parameters.push_back(def);
    }
    model::DiagramDef line;
    line.name = "Throughput by client threads";
    line.type = model::DiagramType::kLine;
    line.x_field = "threads";
    line.y_field = "throughput";
    line.group_by = "engine";
    system.diagrams.push_back(line);
    auto registered = service_->RegisterSystem(system);
    system_id_ = registered->id;
    return system_id_;
  }

  // Registers a system with no parameters (for synthetic-work benches).
  std::string RegisterNullSystem(const std::string& name) {
    model::System system;
    system.name = name;
    model::ParameterDef def;
    def.name = "index";
    def.type = model::ParameterType::kValue;
    system.parameters.push_back(def);
    auto registered = service_->RegisterSystem(system);
    system_id_ = registered->id;
    return system_id_;
  }

  // Starts `n` MokkaDB wire servers and registers them as deployments.
  void StartMokkaDeployments(int n) {
    for (int i = 0; i < n; ++i) {
      databases_.push_back(std::make_unique<mokka::Database>());
      auto wire = mokka::StartWireServer(databases_.back().get(), 0);
      model::Deployment deployment;
      deployment.system_id = system_id_;
      deployment.name = "mokka-" + std::to_string(i);
      deployment.endpoint = (*wire)->endpoint();
      auto created = service_->CreateDeployment(deployment);
      deployment_ids_.push_back(created->id);
      endpoints_.push_back((*wire)->endpoint());
      wires_.push_back(std::move(wire).value());
    }
  }

  // Registers `n` deployments with no backing server (synthetic handlers).
  void AddBareDeployments(int n) {
    for (int i = 0; i < n; ++i) {
      model::Deployment deployment;
      deployment.system_id = system_id_;
      deployment.name = "slot-" + std::to_string(i);
      auto created = service_->CreateDeployment(deployment);
      deployment_ids_.push_back(created->id);
      endpoints_.push_back("");
    }
  }

  // Starts one agent per deployment with the given handler (async).
  void StartAgents(const agent::EvaluationHandler& handler,
                   bool mokka_handler = false) {
    for (size_t i = 0; i < deployment_ids_.size(); ++i) {
      agent::AgentOptions options;
      options.control_port = port();
      options.username = "admin";
      options.password = "secret";
      options.deployment_id = deployment_ids_[i];
      options.poll_interval_ms = 20;
      auto chronos_agent = std::make_unique<agent::ChronosAgent>(options);
      chronos_agent->SetHandler(
          mokka_handler ? clients::MakeMokkaEvaluationHandler(endpoints_[i])
                        : handler);
      if (!chronos_agent->Connect().ok()) std::abort();
      chronos_agent->StartAsync();
      agents_.push_back(std::move(chronos_agent));
    }
  }

  void StopAgents() {
    for (auto& chronos_agent : agents_) chronos_agent->Stop();
    agents_.clear();
  }

  // Blocks until every job of the evaluation is terminal; returns the
  // makespan in milliseconds.
  double AwaitEvaluation(const std::string& evaluation_id,
                         int64_t timeout_ms = 600000) {
    uint64_t start = SystemClock::Get()->MonotonicNanos();
    while (true) {
      auto summary = service_->Summarize(evaluation_id);
      int terminal = summary->state_counts[model::JobState::kFinished] +
                     summary->state_counts[model::JobState::kFailed] +
                     summary->state_counts[model::JobState::kAborted];
      if (terminal == summary->total_jobs) break;
      if (static_cast<int64_t>(
              (SystemClock::Get()->MonotonicNanos() - start) / 1000000) >
          timeout_ms) {
        std::fprintf(stderr, "evaluation timed out\n");
        break;
      }
      SystemClock::Get()->SleepMs(20);
    }
    return static_cast<double>(SystemClock::Get()->MonotonicNanos() - start) /
           1e6;
  }

  const std::vector<std::string>& deployment_ids() const {
    return deployment_ids_;
  }
  const std::vector<std::string>& endpoints() const { return endpoints_; }
  const std::string& system_id() const { return system_id_; }

 private:
  file::TempDir workdir_;
  std::unique_ptr<model::MetaDb> db_;
  std::unique_ptr<control::ControlService> service_;
  std::unique_ptr<control::ControlServer> server_;
  std::string admin_id_, system_id_;
  std::vector<std::unique_ptr<mokka::Database>> databases_;
  std::vector<std::unique_ptr<net::ConnectionServer>> wires_;
  std::vector<std::unique_ptr<agent::ChronosAgent>> agents_;
  std::vector<std::string> deployment_ids_;
  std::vector<std::string> endpoints_;
};

inline model::ParameterSetting FixedSetting(const std::string& name,
                                            json::Json value) {
  model::ParameterSetting setting;
  setting.name = name;
  setting.fixed = std::move(value);
  return setting;
}

inline model::ParameterSetting SweepSetting(const std::string& name,
                                            std::vector<json::Json> values) {
  model::ParameterSetting setting;
  setting.name = name;
  setting.sweep = std::move(values);
  return setting;
}

inline void PrintHeader(const std::string& id, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

}  // namespace chronos::bench

#endif  // CHRONOS_BENCH_BENCH_UTIL_H_
