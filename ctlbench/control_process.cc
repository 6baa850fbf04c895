#include "control_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/file_util.h"
#include "common/strings.h"
#include "json/json.h"
#include "net/http.h"

namespace ctlbench {

using chronos::Status;
using chronos::StatusOr;

namespace {

constexpr int64_t kBootTimeoutMs = 60000;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

StatusOr<std::unique_ptr<ControlProcess>> ControlProcess::Start(
    const std::string& binary, const std::string& data_dir,
    const std::string& user, const std::string& password,
    double* boot_seconds) {
  const std::string port_file = data_dir + ".port";
  const std::string log_file = data_dir + ".log";
  std::vector<std::string> args = {binary, "--data-dir", data_dir,
                                   "--port", "0", "--port-file", port_file};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  chronos::Clock* clock = chronos::SystemClock::Get();
  const uint64_t exec_nanos = clock->MonotonicNanos();
  pid_t pid = fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The server dies with
    // the benchmark even if the benchmark itself is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    int log_fd = open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int null_fd = open("/dev/null", O_RDONLY);
    if (log_fd < 0 || null_fd < 0) _exit(127);
    dup2(null_fd, STDIN_FILENO);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  std::unique_ptr<ControlProcess> process(new ControlProcess(pid));

  auto elapsed_ms = [&] {
    return static_cast<int64_t>((clock->MonotonicNanos() - exec_nanos) /
                                1000000);
  };
  // The server writes the port file once it listens.
  int64_t port = 0;
  while (true) {
    int exit_status = 0;
    if (process->Reap(&exit_status)) {
      return Status::Unavailable("control server exited during boot (status " +
                                 std::to_string(exit_status) + "), see " +
                                 log_file);
    }
    auto text = chronos::file::ReadFile(port_file);
    if (text.ok() && chronos::strings::EndsWith(*text, "\n") &&
        chronos::strings::ParseInt64(chronos::strings::Trim(*text), &port)) {
      break;
    }
    if (elapsed_ms() > kBootTimeoutMs) {
      return Status::DeadlineExceeded("control server never listened");
    }
    SleepMs(1);
  }
  process->port_ = static_cast<int>(port);

  chronos::json::Json body = chronos::json::Json::MakeObject();
  body.Set("username", user);
  body.Set("password", password);
  chronos::net::HttpClient http("127.0.0.1", process->port_);
  while (true) {
    auto response = http.Post("/api/v1/auth/login", body.Dump());
    if (response.ok() && response->status_code == 200) {
      auto parsed = chronos::json::Parse(response->body);
      if (parsed.ok()) process->token_ = parsed->GetStringOr("token", "");
      if (process->token_.empty()) {
        return Status::Unauthenticated("login returned no token");
      }
      break;
    }
    if (response.ok() && response->status_code != 503) {
      return Status::Unauthenticated("login refused: HTTP " +
                                     std::to_string(response->status_code));
    }
    if (elapsed_ms() > kBootTimeoutMs) {
      return Status::DeadlineExceeded("control server never accepted login");
    }
    SleepMs(1);
  }
  *boot_seconds =
      static_cast<double>(clock->MonotonicNanos() - exec_nanos) / 1e9;
  return process;
}

ControlProcess::~ControlProcess() {
  if (reaped_) return;
  kill(pid_, SIGKILL);
  int exit_status = 0;
  waitpid(pid_, &exit_status, 0);
}

bool ControlProcess::Reap(int* exit_status) {
  if (reaped_) return true;
  int status = 0;
  pid_t done = waitpid(pid_, &status, WNOHANG);
  if (done != pid_) return false;
  reaped_ = true;
  *exit_status = WIFEXITED(status) ? WEXITSTATUS(status)
                                   : 128 + WTERMSIG(status);
  return true;
}

Status ControlProcess::Stop(int grace_ms) {
  int exit_status = 0;
  if (Reap(&exit_status)) {
    return Status::Internal("control server died early (status " +
                            std::to_string(exit_status) + ")");
  }
  kill(pid_, SIGTERM);
  chronos::Clock* clock = chronos::SystemClock::Get();
  const uint64_t deadline =
      clock->MonotonicNanos() + static_cast<uint64_t>(grace_ms) * 1000000;
  while (clock->MonotonicNanos() < deadline) {
    if (Reap(&exit_status)) {
      if (exit_status == 0) return Status::Ok();
      return Status::Internal("control server exited with status " +
                              std::to_string(exit_status));
    }
    SleepMs(1);
  }
  kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
  reaped_ = true;
  return Status::DeadlineExceeded("control server outlived SIGTERM by " +
                                  std::to_string(grace_ms) +
                                  " ms; killed");
}

}  // namespace ctlbench
