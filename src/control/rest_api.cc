#include "control/rest_api.h"

#include "analysis/diagrams.h"
#include "common/strings.h"
#include "control/archiver.h"
#include "control/web_ui.h"
#include "fault/failpoint.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"

namespace chronos::control {

namespace {

using net::HttpRequest;
using net::HttpResponse;

template <typename T>
json::Json EntitiesToJson(const std::vector<T>& entities) {
  json::Json array = json::Json::MakeArray();
  for (const T& entity : entities) array.Append(entity.ToJson());
  return array;
}

// Wraps a handler with session authentication; the resolved user is passed
// through.
net::HttpHandler WithAuth(
    ControlService* service,
    std::function<HttpResponse(const HttpRequest&, const model::User&)>
        handler) {
  return [service, handler = std::move(handler)](const HttpRequest& request) {
    std::string token = request.headers.Get("X-Session");
    if (token.empty()) {
      return HttpResponse::Error(401, "missing X-Session header");
    }
    auto user = service->Authenticate(token);
    if (!user.ok()) return HttpResponse::FromStatus(user.status());
    return handler(request, *user);
  };
}

HttpResponse RequireAdmin(const model::User& user) {
  if (user.role != model::UserRole::kAdmin) {
    return HttpResponse::Error(403, "admin role required");
  }
  return HttpResponse();  // 200 sentinel, body unused.
}

// Prometheus text exposition of the process-wide registry. Unauthenticated
// like /status: scrapers and operators need it without a session.
// Renders a trace's spans, either as the native span-list JSON or — with
// ?format=chrome — as a Chrome trace_event file loadable in chrome://tracing
// or https://ui.perfetto.dev.
HttpResponse TraceResponse(const HttpRequest& request,
                           const std::string& trace_id,
                           const std::string& job_id) {
  std::vector<obs::SpanRecord> spans =
      obs::SpanCollector::Get()->ForTrace(trace_id);
  if (spans.empty()) {
    return HttpResponse::Error(404,
                               "no spans recorded for trace " + trace_id);
  }
  auto params = request.QueryParams();
  if (params.count("format") > 0 && params.at("format") == "chrome") {
    HttpResponse response;
    response.status_code = 200;
    response.headers.Set("Content-Type", "application/json");
    response.body = obs::RenderChromeTrace(spans);
    return response;
  }
  json::Json out = json::Json::MakeObject();
  out.Set("trace_id", trace_id);
  if (!job_id.empty()) out.Set("job_id", job_id);
  out.Set("spans", obs::SpansToJson(spans));
  return HttpResponse::Json(out);
}

HttpResponse MetricsExposition(const HttpRequest&) {
  HttpResponse response;
  response.status_code = 200;
  response.headers.Set("Content-Type",
                       "text/plain; version=0.0.4; charset=utf-8");
  response.body = obs::MetricsRegistry::Get()->RenderPrometheus();
  return response;
}

// Shared route set; `version` selects contract details (v2 additions).
void MountVersion(net::Router* router, ControlService* service,
                  HeartbeatMonitor* monitor, int version) {
  const std::string base = "/api/v" + std::to_string(version);

  // --- Unauthenticated ---

  router->Get(base + "/status",
              [service, monitor, version](const HttpRequest&) {
    json::Json body = json::Json::MakeObject();
    body.Set("service", "chronos-control");
    body.Set("api_version", static_cast<int64_t>(version));
    body.Set("users", service->db()->users().Count());
    body.Set("projects", service->db()->projects().Count());
    body.Set("systems", service->db()->systems().Count());
    body.Set("jobs", service->db()->jobs().Count());
    if (monitor != nullptr) {
      // Reliability activity at a glance, no metrics scrape needed.
      body.Set("heartbeat_sweeps", monitor->sweeps());
      body.Set("heartbeat_jobs_failed", monitor->jobs_failed());
    }
    // Lifecycle: whether the instance is draining, and what startup
    // reconciliation had to repair (empty actions after a clean shutdown).
    body.Set("draining", service->draining());
    body.Set("reconciliation", service->reconcile_report().ToJson());
    // Span collector health: volume since boot plus distinct traces
    // currently resident in the ring.
    obs::SpanCollector* collector = obs::SpanCollector::Get();
    json::Json spans = json::Json::MakeObject();
    spans.Set("recorded", static_cast<int64_t>(collector->recorded()));
    spans.Set("dropped", static_cast<int64_t>(collector->dropped()));
    spans.Set("active_traces",
              static_cast<int64_t>(collector->active_traces()));
    body.Set("spans", std::move(spans));
    // Health of the HTTP server(s) in this process; Control runs one.
    net::ConnectionStats stats = net::ConnectionServer::StatsFor("http");
    json::Json connections = json::Json::MakeObject();
    connections.Set("live", stats.live);
    connections.Set("shed", stats.shed);
    connections.Set("accept_errors", stats.accept_errors);
    body.Set("connections", std::move(connections));
    return HttpResponse::Json(body);
  });

  router->Get(base + "/metrics", MetricsExposition);

  router->Post(base + "/auth/login", [service](const HttpRequest& request) {
    auto body = request.JsonBody();
    if (!body.ok()) return HttpResponse::FromStatus(body.status());
    auto token = service->Login(body->GetStringOr("username", ""),
                                body->GetStringOr("password", ""));
    if (!token.ok()) return HttpResponse::FromStatus(token.status());
    json::Json out = json::Json::MakeObject();
    out.Set("token", *token);
    return HttpResponse::Json(out);
  });

  // --- Sessions / users ---

  router->Post(base + "/auth/logout",
               WithAuth(service, [service](const HttpRequest& request,
                                           const model::User&) {
                 service->Logout(request.headers.Get("X-Session")).IgnoreError();
                 return HttpResponse::Json(json::Json::MakeObject());
               }));

  router->Get(base + "/whoami",
              WithAuth(service, [](const HttpRequest&,
                                   const model::User& user) {
                json::Json out = user.ToJson();
                // Never leak credentials material.
                out.as_object_mutable().erase("password_hash");
                out.as_object_mutable().erase("salt");
                return HttpResponse::Json(out);
              }));

  router->Post(
      base + "/users",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User& user) {
        HttpResponse guard = RequireAdmin(user);
        if (guard.status_code != 200) return guard;
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        auto role = model::ParseUserRole(body->GetStringOr("role", "member"));
        if (!role.ok()) return HttpResponse::FromStatus(role.status());
        auto created = service->CreateUser(body->GetStringOr("username", ""),
                                           body->GetStringOr("password", ""),
                                           *role);
        if (!created.ok()) return HttpResponse::FromStatus(created.status());
        json::Json out = created->ToJson();
        out.as_object_mutable().erase("password_hash");
        out.as_object_mutable().erase("salt");
        return HttpResponse::Json(out, 201);
      }));

  router->Get(base + "/users",
              WithAuth(service, [service](const HttpRequest&,
                                          const model::User& user) {
                HttpResponse guard = RequireAdmin(user);
                if (guard.status_code != 200) return guard;
                json::Json array = json::Json::MakeArray();
                for (const model::User& listed : service->ListUsers()) {
                  json::Json entry = listed.ToJson();
                  entry.as_object_mutable().erase("password_hash");
                  entry.as_object_mutable().erase("salt");
                  array.Append(std::move(entry));
                }
                return HttpResponse::Json(array);
              }));

  // --- Admin: fault injection ---
  //
  // Runtime control over the process-wide failpoint registry (DESIGN.md
  // §10). Admin-only: arming a failpoint is an operational act on par with
  // user management.

  router->Get(base + "/admin/failpoints",
              WithAuth(service, [](const HttpRequest&,
                                   const model::User& user) {
                HttpResponse guard = RequireAdmin(user);
                if (guard.status_code != 200) return guard;
                json::Json array = json::Json::MakeArray();
                for (const fault::PointInfo& info :
                     fault::FailPointRegistry::Get()->List()) {
                  json::Json entry = json::Json::MakeObject();
                  entry.Set("point", info.point);
                  entry.Set("spec", info.spec.ToString());
                  entry.Set("evaluations",
                            static_cast<int64_t>(info.evaluations));
                  entry.Set("triggers", static_cast<int64_t>(info.triggers));
                  array.Append(std::move(entry));
                }
                json::Json out = json::Json::MakeObject();
                out.Set("failpoints", std::move(array));
                return HttpResponse::Json(out);
              }));

  router->Post(
      base + "/admin/failpoints",
      WithAuth(service, [](const HttpRequest& request,
                           const model::User& user) {
        HttpResponse guard = RequireAdmin(user);
        if (guard.status_code != 200) return guard;
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        std::string point = body->GetStringOr("point", "");
        std::string spec = body->GetStringOr("spec", "");
        if (point.empty()) {
          return HttpResponse::Error(400, "missing 'point'");
        }
        fault::FailPointRegistry* registry = fault::FailPointRegistry::Get();
        json::Json out = json::Json::MakeObject();
        out.Set("point", point);
        if (spec == "clear") {
          registry->Clear(point);
          out.Set("spec", "cleared");
          return HttpResponse::Json(out);
        }
        Status status = registry->SetFromString(point, spec);
        if (!status.ok()) return HttpResponse::FromStatus(status);
        // Echo the canonical spec so callers see what was parsed.
        for (const fault::PointInfo& info : registry->List()) {
          if (info.point == point) out.Set("spec", info.spec.ToString());
        }
        return HttpResponse::Json(out);
      }));

  // --- Admin: lifecycle ---

  // Graceful drain: stop handing out jobs and ask the hosting process to
  // begin its orderly shutdown (finish in-flight requests, checkpoint,
  // exit 0). Admin-only; `chronosctl drain` calls this.
  router->Post(base + "/admin/drain",
               WithAuth(service, [service](const HttpRequest&,
                                           const model::User& user) {
                 HttpResponse guard = RequireAdmin(user);
                 if (guard.status_code != 200) return guard;
                 service->BeginDrain();
                 json::Json out = json::Json::MakeObject();
                 out.Set("draining", true);
                 return HttpResponse::Json(out);
               }));

  // --- Projects ---

  router->Post(
      base + "/projects",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User& user) {
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        auto created = service->CreateProject(
            body->GetStringOr("name", ""),
            body->GetStringOr("description", ""), user.id);
        if (!created.ok()) return HttpResponse::FromStatus(created.status());
        return HttpResponse::Json(created->ToJson(), 201);
      }));

  router->Get(base + "/projects",
              WithAuth(service, [service](const HttpRequest&,
                                          const model::User& user) {
                return HttpResponse::Json(
                    EntitiesToJson(service->ListProjects(user.id)));
              }));

  router->Get(base + "/projects/{id}",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User& user) {
                auto project = service->GetProject(
                    request.path_params.at("id"), user.id);
                if (!project.ok()) {
                  return HttpResponse::FromStatus(project.status());
                }
                return HttpResponse::Json(project->ToJson());
              }));

  router->Post(
      base + "/projects/{id}/members",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User& user) {
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        Status status = service->AddProjectMember(
            request.path_params.at("id"), user.id,
            body->GetStringOr("user_id", ""));
        if (!status.ok()) return HttpResponse::FromStatus(status);
        return HttpResponse::Json(json::Json::MakeObject());
      }));

  router->Post(base + "/projects/{id}/archive",
               WithAuth(service, [service](const HttpRequest& request,
                                           const model::User& user) {
                 Status status = service->SetProjectArchived(
                     request.path_params.at("id"), user.id, true);
                 if (!status.ok()) return HttpResponse::FromStatus(status);
                 return HttpResponse::Json(json::Json::MakeObject());
               }));

  router->Get(base + "/projects/{id}/export",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User& user) {
                auto archive = BuildProjectArchive(
                    service, request.path_params.at("id"), user.id);
                if (!archive.ok()) {
                  return HttpResponse::FromStatus(archive.status());
                }
                HttpResponse response;
                response.status_code = 200;
                response.headers.Set("Content-Type", "application/zip");
                response.body = std::move(archive).value();
                return response;
              }));

  // --- Systems ---

  router->Post(
      base + "/systems",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User& user) {
        HttpResponse guard = RequireAdmin(user);
        if (guard.status_code != 200) return guard;
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        if (!body->Has("id")) body->Set("id", std::string(""));
        // Accept systems without parameters/diagrams blocks.
        if (!body->Has("parameters")) body->Set("parameters", json::Array{});
        if (!body->Has("diagrams")) body->Set("diagrams", json::Array{});
        if (body->at("id").as_string().empty()) {
          body->Set("id", std::string("pending"));
        }
        auto system = model::System::FromJson(*body);
        if (!system.ok()) return HttpResponse::FromStatus(system.status());
        if (system->id == "pending") system->id.clear();
        auto created = service->RegisterSystem(std::move(system).value());
        if (!created.ok()) return HttpResponse::FromStatus(created.status());
        return HttpResponse::Json(created->ToJson(), 201);
      }));

  router->Get(base + "/systems",
              WithAuth(service, [service](const HttpRequest&,
                                          const model::User&) {
                return HttpResponse::Json(
                    EntitiesToJson(service->ListSystems()));
              }));

  router->Get(base + "/systems/{id}",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                auto system = service->GetSystem(request.path_params.at("id"));
                if (!system.ok()) {
                  return HttpResponse::FromStatus(system.status());
                }
                return HttpResponse::Json(system->ToJson());
              }));

  // --- Deployments ---

  router->Post(
      base + "/deployments",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User&) {
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        model::Deployment deployment;
        deployment.system_id = body->GetStringOr("system_id", "");
        deployment.name = body->GetStringOr("name", "");
        deployment.environment = body->GetStringOr("environment", "");
        deployment.version = body->GetStringOr("version", "");
        deployment.endpoint = body->GetStringOr("endpoint", "");
        deployment.active = body->GetBoolOr("active", true);
        auto created = service->CreateDeployment(std::move(deployment));
        if (!created.ok()) return HttpResponse::FromStatus(created.status());
        return HttpResponse::Json(created->ToJson(), 201);
      }));

  router->Get(base + "/deployments",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                auto params = request.QueryParams();
                std::string system_id = params.count("system_id") > 0
                                            ? params.at("system_id")
                                            : "";
                return HttpResponse::Json(
                    EntitiesToJson(service->ListDeployments(system_id)));
              }));

  router->Delete(base + "/deployments/{id}",
                 WithAuth(service, [service](const HttpRequest& request,
                                             const model::User&) {
                   Status status = service->DeleteDeployment(
                       request.path_params.at("id"));
                   if (!status.ok()) return HttpResponse::FromStatus(status);
                   return HttpResponse::Json(json::Json::MakeObject());
                 }));

  // --- Experiments ---

  router->Post(
      base + "/experiments",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User& user) {
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        std::vector<model::ParameterSetting> settings;
        for (const json::Json& setting_json :
             body->at("settings").as_array()) {
          auto setting = model::ParameterSetting::FromJson(setting_json);
          if (!setting.ok()) {
            return HttpResponse::FromStatus(setting.status());
          }
          settings.push_back(std::move(setting).value());
        }
        auto created = service->CreateExperiment(
            body->GetStringOr("project_id", ""), user.id,
            body->GetStringOr("system_id", ""), body->GetStringOr("name", ""),
            body->GetStringOr("description", ""), std::move(settings));
        if (!created.ok()) return HttpResponse::FromStatus(created.status());
        return HttpResponse::Json(created->ToJson(), 201);
      }));

  router->Get(base + "/experiments",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                auto params = request.QueryParams();
                std::string project_id = params.count("project_id") > 0
                                             ? params.at("project_id")
                                             : "";
                return HttpResponse::Json(
                    EntitiesToJson(service->ListExperiments(project_id)));
              }));

  router->Get(base + "/experiments/{id}",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                auto experiment =
                    service->GetExperiment(request.path_params.at("id"));
                if (!experiment.ok()) {
                  return HttpResponse::FromStatus(experiment.status());
                }
                return HttpResponse::Json(experiment->ToJson());
              }));

  router->Get(base + "/experiments/{id}/evaluations",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                return HttpResponse::Json(EntitiesToJson(
                    service->ListEvaluations(request.path_params.at("id"))));
              }));

  // --- Evaluations ---

  router->Post(
      base + "/evaluations",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User&) {
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        auto created = service->CreateEvaluation(
            body->GetStringOr("experiment_id", ""),
            body->GetStringOr("name", ""),
            static_cast<int>(body->GetIntOr("repetitions", 1)));
        if (!created.ok()) return HttpResponse::FromStatus(created.status());
        auto summary = service->Summarize(created->id);
        return HttpResponse::Json(
            summary.ok() ? summary->ToJson() : created->ToJson(), 201);
      }));

  router->Get(base + "/evaluations/{id}",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                auto summary =
                    service->Summarize(request.path_params.at("id"));
                if (!summary.ok()) {
                  return HttpResponse::FromStatus(summary.status());
                }
                return HttpResponse::Json(summary->ToJson());
              }));

  router->Get(
      base + "/evaluations/{id}/jobs",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User&) {
        auto params = request.QueryParams();
        std::optional<model::JobState> state;
        if (params.count("state") > 0) {
          auto parsed = model::ParseJobState(params.at("state"));
          if (!parsed.ok()) return HttpResponse::FromStatus(parsed.status());
          state = *parsed;
        }
        return HttpResponse::Json(EntitiesToJson(
            service->ListJobs(request.path_params.at("id"), state)));
      }));

  router->Get(base + "/evaluations/{id}/results",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                auto results =
                    service->CollectResults(request.path_params.at("id"));
                if (!results.ok()) {
                  return HttpResponse::FromStatus(results.status());
                }
                json::Json array = json::Json::MakeArray();
                for (const analysis::JobResult& result : *results) {
                  json::Json entry = json::Json::MakeObject();
                  entry.Set("parameters",
                            model::AssignmentToJson(result.parameters));
                  entry.Set("data", result.data);
                  array.Append(std::move(entry));
                }
                return HttpResponse::Json(array);
              }));

  router->Get(
      base + "/evaluations/{id}/diagrams",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User&) {
        auto diagrams =
            service->EvaluationDiagrams(request.path_params.at("id"));
        if (!diagrams.ok()) {
          return HttpResponse::FromStatus(diagrams.status());
        }
        json::Json array = json::Json::MakeArray();
        for (const analysis::DiagramData& diagram : *diagrams) {
          array.Append(diagram.ToJson());
        }
        return HttpResponse::Json(array);
      }));

  router->Get(
      base + "/evaluations/{id}/report",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User&) {
        const std::string& evaluation_id = request.path_params.at("id");
        auto diagrams = service->EvaluationDiagrams(evaluation_id);
        if (!diagrams.ok()) {
          return HttpResponse::FromStatus(diagrams.status());
        }
        auto evaluation = service->GetEvaluation(evaluation_id);
        std::string title = evaluation.ok() ? evaluation->name : "Evaluation";
        return HttpResponse::Ok(
            analysis::RenderHtmlReport(title, *diagrams), "text/html");
      }));

  // --- Jobs ---

  router->Get(base + "/jobs/{id}",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                auto job = service->GetJob(request.path_params.at("id"));
                if (!job.ok()) return HttpResponse::FromStatus(job.status());
                return HttpResponse::Json(job->ToJson());
              }));

  router->Post(base + "/jobs/{id}/abort",
               WithAuth(service, [service](const HttpRequest& request,
                                           const model::User&) {
                 Status status =
                     service->AbortJob(request.path_params.at("id"));
                 if (!status.ok()) return HttpResponse::FromStatus(status);
                 return HttpResponse::Json(json::Json::MakeObject());
               }));

  router->Post(base + "/jobs/{id}/reschedule",
               WithAuth(service, [service](const HttpRequest& request,
                                           const model::User&) {
                 Status status =
                     service->RescheduleJob(request.path_params.at("id"));
                 if (!status.ok()) return HttpResponse::FromStatus(status);
                 return HttpResponse::Json(json::Json::MakeObject());
               }));

  router->Get(base + "/jobs/{id}/events",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                return HttpResponse::Json(EntitiesToJson(
                    service->JobEvents(request.path_params.at("id"))));
              }));

  router->Get(base + "/jobs/{id}/log",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                return HttpResponse::Ok(
                    service->JobLog(request.path_params.at("id")));
              }));

  router->Get(base + "/jobs/{id}/result",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                auto result =
                    service->GetResult(request.path_params.at("id"));
                if (!result.ok()) {
                  return HttpResponse::FromStatus(result.status());
                }
                return HttpResponse::Json(result->ToJson());
              }));

  // --- Traces ---

  // The trace stitched for one job: its trace_id is stamped at claim time
  // and agent-side spans arrive piggybacked on agent posts, so this shows
  // both halves of the distributed timeline.
  router->Get(base + "/jobs/{id}/trace",
              WithAuth(service, [service](const HttpRequest& request,
                                          const model::User&) {
                const std::string& job_id = request.path_params.at("id");
                auto job = service->GetJob(job_id);
                if (!job.ok()) return HttpResponse::FromStatus(job.status());
                if (job->trace_id.empty()) {
                  return HttpResponse::Error(
                      404, "job " + job_id + " has no recorded trace");
                }
                return TraceResponse(request, job->trace_id, job_id);
              }));

  router->Get(base + "/traces/{trace_id}",
              WithAuth(service, [](const HttpRequest& request,
                                   const model::User&) {
                return TraceResponse(
                    request, request.path_params.at("trace_id"), "");
              }));

  // --- Agent endpoints ---

  router->Post(
      base + "/agent/poll",
      WithAuth(service, [service, version](const HttpRequest& request,
                                           const model::User&) {
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        // Agents piggyback locally recorded spans on their posts.
        if (body->Has("spans")) service->ImportSpans(body->at("spans"));
        auto job = service->PollJob(body->GetStringOr("deployment_id", ""));
        if (!job.ok()) return HttpResponse::FromStatus(job.status());
        json::Json out = json::Json::MakeObject();
        if (!job->has_value()) {
          out.Set("job", nullptr);
          return HttpResponse::Json(out);
        }
        if (version < 2) {
          out.Set("job", (*job)->ToJson());
          return HttpResponse::Json(out);
        }
        // v2: bundle the experiment and system so the agent needs no
        // follow-up round trips. Their texts come from the service's cache
        // and are spliced in Json::Dump's key order ("experiment", "job",
        // "system"), so the bytes equal dumping the three as one object. A
        // failed lookup omits its key.
        auto experiment = service->ExperimentText((*job)->experiment_id);
        auto system = service->SystemText((*job)->system_id);
        HttpResponse response;
        response.status_code = 200;
        response.headers.Set("Content-Type", "application/json");
        const std::string job_text = (*job)->ToJson().Dump();
        std::string& text = response.body;
        text.reserve(job_text.size() + 32 +
                     (experiment.ok() ? (*experiment)->size() : 0) +
                     (system.ok() ? (*system)->size() : 0));
        text += '{';
        if (experiment.ok()) {
          text += "\"experiment\":";
          text += **experiment;
          text += ',';
        }
        text += "\"job\":";
        text += job_text;
        if (system.ok()) {
          text += ",\"system\":";
          text += **system;
        }
        text += '}';
        return response;
      }));

  router->Post(
      base + "/agent/jobs/{id}/progress",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User&) {
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        auto state = service->ReportProgress(
            request.path_params.at("id"),
            static_cast<int>(body->GetIntOr("percent", 0)),
            static_cast<int>(body->GetIntOr("attempt", 0)));
        if (!state.ok()) return HttpResponse::FromStatus(state.status());
        json::Json out = json::Json::MakeObject();
        out.Set("state", std::string(model::JobStateName(*state)));
        return HttpResponse::Json(out);
      }));

  router->Post(base + "/agent/jobs/{id}/heartbeat",
               WithAuth(service, [service](const HttpRequest& request,
                                           const model::User&) {
                 // Body is optional for backward compatibility.
                 auto body = request.JsonBody();
                 if (body.ok() && body->Has("spans")) {
                   service->ImportSpans(body->at("spans"));
                 }
                 int attempt = body.ok()
                                   ? static_cast<int>(
                                         body->GetIntOr("attempt", 0))
                                   : 0;
                 auto state =
                     service->Heartbeat(request.path_params.at("id"), attempt);
                 if (!state.ok()) {
                   return HttpResponse::FromStatus(state.status());
                 }
                 json::Json out = json::Json::MakeObject();
                 out.Set("state", std::string(model::JobStateName(*state)));
                 return HttpResponse::Json(out);
               }));

  router->Post(
      base + "/agent/jobs/{id}/log",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User&) {
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        std::vector<std::string> lines;
        for (const json::Json& line : body->at("lines").as_array()) {
          lines.push_back(line.as_string());
        }
        Status status =
            service->AppendLog(request.path_params.at("id"), lines);
        if (!status.ok()) return HttpResponse::FromStatus(status);
        return HttpResponse::Json(json::Json::MakeObject());
      }));

  router->Post(
      base + "/agent/jobs/{id}/result",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User&) {
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        if (body->Has("spans")) service->ImportSpans(body->at("spans"));
        Status status = service->UploadResult(
            request.path_params.at("id"), body->at("data"),
            body->GetStringOr("zip_base64", ""),
            body->GetStringOr("idempotency_key", ""));
        if (!status.ok()) return HttpResponse::FromStatus(status);
        return HttpResponse::Json(json::Json::MakeObject(), 201);
      }));

  router->Post(
      base + "/agent/jobs/{id}/fail",
      WithAuth(service, [service](const HttpRequest& request,
                                  const model::User&) {
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        if (body->Has("spans")) service->ImportSpans(body->at("spans"));
        Status status = service->FailJob(
            request.path_params.at("id"), body->GetStringOr("reason", ""),
            body->GetStringOr("idempotency_key", ""));
        if (!status.ok()) return HttpResponse::FromStatus(status);
        return HttpResponse::Json(json::Json::MakeObject());
      }));
}

}  // namespace

void MountRestApi(net::Router* router, ControlService* service,
                  HeartbeatMonitor* monitor) {
  MountVersion(router, service, monitor, 1);
  MountVersion(router, service, monitor, 2);
  // Conventional scrape path for Prometheus-style collectors.
  router->Get("/metrics", MetricsExposition);
}

void MountProvisioningApi(net::Router* router, ControlService* service,
                          ProvisioningManager* manager) {
  router->Get("/api/v2/provisioners",
              WithAuth(service, [manager](const HttpRequest&,
                                          const model::User&) {
                json::Json out = json::Json::MakeObject();
                json::Json names = json::Json::MakeArray();
                for (const std::string& name : manager->ProvisionerNames()) {
                  names.Append(name);
                }
                out.Set("provisioners", std::move(names));
                out.Set("active_deployments", manager->active_count());
                return HttpResponse::Json(out);
              }));

  router->Post(
      "/api/v2/deployments/provision",
      WithAuth(service, [manager](const HttpRequest& request,
                                  const model::User& user) {
        HttpResponse guard = RequireAdmin(user);
        if (guard.status_code != 200) return guard;
        auto body = request.JsonBody();
        if (!body.ok()) return HttpResponse::FromStatus(body.status());
        auto deployment = manager->ProvisionDeployment(
            body->GetStringOr("provisioner", ""),
            body->GetStringOr("system_id", ""),
            body->GetStringOr("name", ""), body->at("spec"));
        if (!deployment.ok()) {
          return HttpResponse::FromStatus(deployment.status());
        }
        return HttpResponse::Json(deployment->ToJson(), 201);
      }));

  router->Post(
      "/api/v2/deployments/{id}/teardown",
      WithAuth(service, [manager](const HttpRequest& request,
                                  const model::User& user) {
        HttpResponse guard = RequireAdmin(user);
        if (guard.status_code != 200) return guard;
        Status status =
            manager->TeardownDeployment(request.path_params.at("id"));
        if (!status.ok()) return HttpResponse::FromStatus(status);
        return HttpResponse::Json(json::Json::MakeObject());
      }));
}

ControlServer::ControlServer(ControlService*)
    : router_(std::make_unique<net::Router>()) {}

ControlServer::~ControlServer() { Stop(); }

StatusOr<std::unique_ptr<ControlServer>> ControlServer::Start(
    ControlService* service, int port, int64_t monitor_interval_ms,
    ProvisioningManager* provisioning) {
  return Start(service, port,
               HeartbeatMonitorOptions{monitor_interval_ms, 0.0, 0},
               provisioning);
}

StatusOr<std::unique_ptr<ControlServer>> ControlServer::Start(
    ControlService* service, int port, HeartbeatMonitorOptions monitor_options,
    ProvisioningManager* provisioning) {
  std::unique_ptr<ControlServer> server(new ControlServer(service));
  // Create (but don't start) the monitor first so /status can report it.
  server->monitor_ =
      std::make_unique<HeartbeatMonitor>(service, monitor_options);
  MountRestApi(server->router_.get(), service, server->monitor_.get());
  MountWebUi(server->router_.get(), service);
  if (provisioning != nullptr) {
    MountProvisioningApi(server->router_.get(), service, provisioning);
  }
  net::Router* router = server->router_.get();
  CHRONOS_ASSIGN_OR_RETURN(
      server->http_,
      net::StartHttpServer(port, [router](const HttpRequest& request) {
        return router->Dispatch(request);
      }));
  server->monitor_->Start();
  return server;
}

void ControlServer::Stop() {
  if (monitor_ != nullptr) monitor_->Stop();
  if (http_ != nullptr) http_->Stop();
}

}  // namespace chronos::control
