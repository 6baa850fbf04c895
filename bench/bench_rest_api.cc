// E6 — Fig. 1: the REST API is the narrow waist between agents and Chronos
// Control. Measures request throughput and latency of the hot agent
// endpoints under 1 and 4 concurrent clients.
//
// Expectation: thousands of requests/second for the cheap endpoints; the
// agent-side traffic of even large evaluation fleets (one progress ping per
// second per job) is far below this ceiling.
//
// A second table claims jobs through the v2 poll, whose reply bundles the
// experiment (with its whole parameter sweep) and the system. Control's time
// per claim from a 100,000-value sweep must be at most twice its time from a
// 1,000-value sweep; otherwise the run prints DIVERGES and exits non-zero.

#include <algorithm>
#include <thread>

#include "bench/bench_util.h"

using namespace chronos;

namespace {

struct Endpoint {
  const char* label;
  std::function<bool(net::HttpClient*)> call;
};

double MeasureRps(int port, const std::string& token,
                  const Endpoint& endpoint, int clients, int requests_each,
                  double* mean_latency_us) {
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  uint64_t start = SystemClock::Get()->MonotonicNanos();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::HttpClient client("127.0.0.1", port);
      client.SetDefaultHeader("X-Session", token);
      for (int i = 0; i < requests_each; ++i) {
        if (!endpoint.call(&client)) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  double seconds =
      static_cast<double>(SystemClock::Get()->MonotonicNanos() - start) / 1e9;
  int total = clients * requests_each;
  *mean_latency_us = seconds * 1e6 * clients / total;
  if (failures.load() > 0) {
    std::fprintf(stderr, "%d failed requests on %s\n", failures.load(),
                 endpoint.label);
  }
  return static_cast<double>(total) / seconds;
}

// One evaluation to claim from through POST /api/v2/agent/poll: its
// experiment sweeps `size` values, on its own system and deployment.
struct ClaimSweep {
  int size = 0;
  std::string evaluation_id;
  net::HttpRequest poll;
  std::vector<double> http_us;     // Over a fresh TCP connection.
  std::vector<double> control_us;  // Dispatched in-process: no socket.
};

ClaimSweep MakeClaimSweep(bench::Toolkit* toolkit, const std::string& session,
                          int size) {
  control::ControlService* service = toolkit->service();
  toolkit->RegisterNullSystem("claims-" + std::to_string(size));
  toolkit->AddBareDeployments(1);
  auto project = service->CreateProject("claims", "", toolkit->admin_id());
  model::ParameterSetting sweep;
  sweep.name = "index";
  for (int i = 0; i < size; ++i) sweep.sweep.push_back(json::Json(i));
  auto experiment =
      service->CreateExperiment(project->id, toolkit->admin_id(),
                                toolkit->system_id(), "sweep", "", {sweep});
  auto evaluation = service->CreateEvaluation(experiment->id, "claims");
  if (!evaluation.ok()) std::abort();
  ClaimSweep claims;
  claims.size = size;
  claims.evaluation_id = evaluation->id;
  claims.poll.method = "POST";
  claims.poll.path = "/api/v2/agent/poll";
  claims.poll.headers.Set("X-Session", session);
  claims.poll.body = "{\"deployment_id\":\"" +
                     toolkit->deployment_ids().back() + "\"}";
  return claims;
}

// Claims one job from `sweep`, over HTTP or through `router`, records the
// latency and finishes the job in-process so that the next poll claims
// again.
void Claim(control::ControlService* service, net::HttpClient* client,
           const net::Router& router, bool over_http, ClaimSweep* sweep) {
  uint64_t start = SystemClock::Get()->MonotonicNanos();
  int status = 0;
  if (over_http) {
    auto response = client->Post(sweep->poll.path, sweep->poll.body);
    status = response.ok() ? response->status_code : 0;
  } else {
    status = router.Dispatch(sweep->poll).status_code;
  }
  (over_http ? sweep->http_us : sweep->control_us)
      .push_back(
          static_cast<double>(SystemClock::Get()->MonotonicNanos() - start) /
          1e3);
  auto running =
      service->ListJobs(sweep->evaluation_id, model::JobState::kRunning);
  if (status != 200 || running.size() != 1 ||
      !service->UploadResult(running[0].id, json::Json::MakeObject(), "")
           .ok()) {
    std::fprintf(stderr, "a claim from the %d-value sweep failed\n",
                 sweep->size);
    std::abort();
  }
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main() {
  bench::PrintHeader("E6", "REST API throughput (hot agent endpoints)");

  bench::Toolkit toolkit;
  toolkit.RegisterNullSystem("S");
  toolkit.AddBareDeployments(1);

  // A running job for the progress endpoint.
  auto project = toolkit.service()->CreateProject("p", "",
                                                  toolkit.admin_id());
  auto experiment = toolkit.service()->CreateExperiment(
      project->id, toolkit.admin_id(), toolkit.system_id(), "x", "",
      {bench::FixedSetting("index", json::Json(1))});
  auto evaluation = toolkit.service()->CreateEvaluation(experiment->id, "r");
  auto job = toolkit.service()->PollJob(toolkit.deployment_ids()[0]);
  std::string job_id = (*job)->id;

  auto token = toolkit.service()->Login("admin", "secret");
  std::string session = *token;

  std::string poll_body =
      "{\"deployment_id\":\"" + toolkit.deployment_ids()[0] + "\"}";
  const Endpoint endpoints[] = {
      {"GET /status (public)",
       [](net::HttpClient* client) {
         auto response = client->Get("/api/v1/status");
         return response.ok() && response->status_code == 200;
       }},
      {"GET /jobs/{id} (authd read)",
       [&job_id](net::HttpClient* client) {
         auto response = client->Get("/api/v1/jobs/" + job_id);
         return response.ok() && response->status_code == 200;
       }},
      {"POST /agent/poll (empty queue)",
       [&poll_body](net::HttpClient* client) {
         auto response = client->Post("/api/v1/agent/poll", poll_body);
         return response.ok() && response->status_code == 200;
       }},
      {"POST /agent/jobs/{id}/progress",
       [&job_id](net::HttpClient* client) {
         auto response = client->Post(
             "/api/v1/agent/jobs/" + job_id + "/progress",
             "{\"percent\":50}");
         return response.ok() && response->status_code == 200;
       }},
      {"POST /agent/jobs/{id}/log (1 line)",
       [&job_id](net::HttpClient* client) {
         auto response =
             client->Post("/api/v1/agent/jobs/" + job_id + "/log",
                          "{\"lines\":[\"benchmark log line\"]}");
         return response.ok() && response->status_code == 200;
       }},
  };

  std::printf("%-36s  %8s  %12s  %14s\n", "endpoint", "clients", "req_per_s",
              "mean_lat_us");
  for (const Endpoint& endpoint : endpoints) {
    for (int clients : {1, 4}) {
      double latency_us = 0;
      double rps = MeasureRps(toolkit.port(), session, endpoint, clients,
                              /*requests_each=*/400, &latency_us);
      std::printf("%-36s  %8d  %12.0f  %14.1f\n", endpoint.label, clients,
                  rps, latency_us);
    }
  }
  std::printf("\nnote: every request opens a fresh TCP connection "
              "(Connection: close), matching one-shot agent calls.\n");

  // The reply carries the whole sweep (the bytes on the wire are part of
  // the API), so the HTTP column grows with the sweep by the transfer alone;
  // the verdict is on what Control spends per claim.
  std::printf("\n%-34s  %12s  %12s  %15s\n",
              "v2 claim (POST /api/v2/agent/poll)", "sweep_values",
              "p50_http_us", "p50_control_us");
  ClaimSweep small = MakeClaimSweep(&toolkit, session, 1000);
  ClaimSweep large = MakeClaimSweep(&toolkit, session, 100000);
  net::HttpClient client("127.0.0.1", toolkit.port());
  client.SetDefaultHeader("X-Session", session);
  net::Router router;
  control::MountRestApi(&router, toolkit.service());
  // Interleaved, so that drift in the host's load hits both sweeps alike.
  constexpr int kClaims = 100;
  for (int i = 0; i < 4 * kClaims; ++i) {
    Claim(toolkit.service(), &client, router, /*over_http=*/i / 2 % 2 == 0,
          i % 2 == 0 ? &small : &large);
  }
  for (const ClaimSweep* sweep : {&small, &large}) {
    std::printf("%-34s  %12d  %12.1f  %15.1f\n", "", sweep->size,
                Median(sweep->http_us), Median(sweep->control_us));
  }
  const double ratio = Median(large.control_us) / Median(small.control_us);
  const bool holds = ratio <= 2.0;
  std::printf("\nflat claim (Control's time per claim from the 100k sweep "
              "within 2x of the 1k one, %.2fx; over HTTP %.2fx): shape %s\n",
              ratio, Median(large.http_us) / Median(small.http_us),
              holds ? "HOLDS" : "DIVERGES");
  return holds ? 0 : 1;
}
