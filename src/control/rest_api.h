#ifndef CHRONOS_CONTROL_REST_API_H_
#define CHRONOS_CONTROL_REST_API_H_

#include <memory>
#include <string>

#include "control/control_service.h"
#include "control/heartbeat_monitor.h"
#include "control/provisioner.h"
#include "net/http.h"
#include "net/router.h"

namespace chronos::control {

// Mounts the versioned REST API onto a router. Both versions are served
// simultaneously ("the API is versioned. This allows new clients to use the
// newly developed features while other clients still use older versions"):
//
//   /api/v1/... — the stable contract (single-job agent poll).
//   /api/v2/... — adds one-round-trip agent polls that bundle the job with
//                 its experiment and system, and a batch log endpoint.
//
// Every route except /api/*/status, /api/*/auth/login and the metrics
// exposition (/metrics and /api/*/metrics) requires a valid X-Session token.
//
// When `monitor` is non-null, /api/*/status additionally reports the
// reliability sweep activity (heartbeat_sweeps, heartbeat_jobs_failed).
void MountRestApi(net::Router* router, ControlService* service,
                  HeartbeatMonitor* monitor = nullptr);

// Mounts the v2-only infrastructure-provisioning endpoints (§5 future work:
// automatic SuE set-up). Admin-only:
//   GET  /api/v2/provisioners
//   POST /api/v2/deployments/provision  {provisioner, system_id, name, spec}
//   POST /api/v2/deployments/{id}/teardown
void MountProvisioningApi(net::Router* router, ControlService* service,
                          ProvisioningManager* manager);

// A fully assembled Chronos Control server: HTTP listener + REST API +
// heartbeat monitor.
class ControlServer {
 public:
  ~ControlServer();

  ControlServer(const ControlServer&) = delete;
  ControlServer& operator=(const ControlServer&) = delete;

  // Serves `service` (not owned) on 127.0.0.1:port (0 = ephemeral). If
  // `provisioning` is non-null (not owned), the v2 provisioning endpoints
  // are mounted too.
  static StatusOr<std::unique_ptr<ControlServer>> Start(
      ControlService* service, int port, int64_t monitor_interval_ms = 2000,
      ProvisioningManager* provisioning = nullptr);

  // Same, with full heartbeat-monitor options (jittered sweep schedule).
  static StatusOr<std::unique_ptr<ControlServer>> Start(
      ControlService* service, int port,
      HeartbeatMonitorOptions monitor_options,
      ProvisioningManager* provisioning = nullptr);

  int port() const { return http_->port(); }
  void Stop();

 private:
  ControlServer(ControlService* service);

  std::unique_ptr<net::Router> router_;
  std::unique_ptr<net::ConnectionServer> http_;
  std::unique_ptr<HeartbeatMonitor> monitor_;
};

}  // namespace chronos::control

#endif  // CHRONOS_CONTROL_REST_API_H_
