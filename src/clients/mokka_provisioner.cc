#include "clients/mokka_provisioner.h"

namespace chronos::clients {

StatusOr<control::DeploymentProvisioner::Instance>
LocalMokkaProvisioner::Launch(const json::Json& spec) {
  std::string engine = spec.GetStringOr("default_engine", "btree");
  auto database = std::make_unique<mokka::Database>(engine);
  CHRONOS_ASSIGN_OR_RETURN(std::unique_ptr<net::ConnectionServer> server,
                           mokka::StartWireServer(database.get(), 0));
  Instance instance;
  instance.endpoint = server->endpoint();
  MutexLock lock(mu_);
  instance.handle = "mokka-" + std::to_string(next_handle_++);
  running_[instance.handle] =
      Running{std::move(database), std::move(server)};
  return instance;
}

Status LocalMokkaProvisioner::Terminate(const std::string& handle) {
  MutexLock lock(mu_);
  auto it = running_.find(handle);
  if (it == running_.end()) {
    return Status::NotFound("no running instance: " + handle);
  }
  running_.erase(it);  // Stops the server, then closes the database.
  return Status::Ok();
}

size_t LocalMokkaProvisioner::running_count() const {
  MutexLock lock(mu_);
  return running_.size();
}

}  // namespace chronos::clients
