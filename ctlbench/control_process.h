#ifndef CTLBENCH_CONTROL_PROCESS_H_
#define CTLBENCH_CONTROL_PROCESS_H_

// chronos_control_server run as its own process with production defaults
// (fsync per commit, 16 MB checkpoints, 2 s heartbeat sweep). Its log goes
// to a file: the server writes a line per job transition.

#include <sys/types.h>

#include <memory>
#include <string>

#include "common/statusor.h"

namespace ctlbench {

class ControlProcess {
 public:
  // Execs `binary` on `data_dir` and waits until `user` can log in. The
  // server's log and port file sit beside the directory.
  // `boot_seconds` receives the time from exec to that first login.
  static chronos::StatusOr<std::unique_ptr<ControlProcess>> Start(
      const std::string& binary, const std::string& data_dir,
      const std::string& user, const std::string& password,
      double* boot_seconds);

  // Kills without waiting for a graceful exit if Stop() was never called.
  ~ControlProcess();

  ControlProcess(const ControlProcess&) = delete;
  ControlProcess& operator=(const ControlProcess&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  const std::string& token() const { return token_; }

  // SIGTERM, then SIGKILL if the process outlives `grace_ms`. Ok only when
  // the server exited 0 on its own within the grace period.
  chronos::Status Stop(int grace_ms);

 private:
  explicit ControlProcess(pid_t pid) : pid_(pid) {}

  // Reaps the child if it has exited; true once it has.
  bool Reap(int* exit_status);

  pid_t pid_;
  int port_ = 0;
  std::string token_;
  bool reaped_ = false;
};

}  // namespace ctlbench

#endif  // CTLBENCH_CONTROL_PROCESS_H_
