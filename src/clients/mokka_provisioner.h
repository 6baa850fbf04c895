#ifndef CHRONOS_CLIENTS_MOKKA_PROVISIONER_H_
#define CHRONOS_CLIENTS_MOKKA_PROVISIONER_H_

#include <map>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "control/provisioner.h"
#include "sue/mokkadb/wire.h"

namespace chronos::clients {

// Reference DeploymentProvisioner: launches MokkaDB instances in-process
// (the "on-premise cluster" of a single machine). Spec options:
//   {"default_engine": "btree"|"mmap"}   — database default engine.
class LocalMokkaProvisioner : public control::DeploymentProvisioner {
 public:
  LocalMokkaProvisioner() = default;

  std::string_view name() const override { return "local-mokka"; }

  StatusOr<Instance> Launch(const json::Json& spec) override;
  Status Terminate(const std::string& handle) override;

  size_t running_count() const;

 private:
  struct Running {
    std::unique_ptr<mokka::Database> database;
    // Declared last: destroyed (stopped) before the database it serves.
    std::unique_ptr<net::ConnectionServer> server;
  };

  mutable Mutex mu_;
  std::map<std::string, Running> running_ CHRONOS_GUARDED_BY(mu_);
  int next_handle_ CHRONOS_GUARDED_BY(mu_) = 1;
};

}  // namespace chronos::clients

#endif  // CHRONOS_CLIENTS_MOKKA_PROVISIONER_H_
