#include "model/parameter_space.h"

#include <cmath>

namespace chronos::model {

std::string_view ParameterTypeName(ParameterType type) {
  switch (type) {
    case ParameterType::kBoolean:
      return "boolean";
    case ParameterType::kValue:
      return "value";
    case ParameterType::kCheckbox:
      return "checkbox";
    case ParameterType::kInterval:
      return "interval";
    case ParameterType::kRatio:
      return "ratio";
  }
  return "?";
}

StatusOr<ParameterType> ParseParameterType(std::string_view name) {
  if (name == "boolean") return ParameterType::kBoolean;
  if (name == "value") return ParameterType::kValue;
  if (name == "checkbox") return ParameterType::kCheckbox;
  if (name == "interval") return ParameterType::kInterval;
  if (name == "ratio") return ParameterType::kRatio;
  return Status::InvalidArgument("unknown parameter type: " +
                                 std::string(name));
}

json::Json ParameterDef::ToJson() const {
  json::Json out = json::Json::MakeObject();
  out.Set("name", name);
  out.Set("type", std::string(ParameterTypeName(type)));
  out.Set("description", description);
  out.Set("default", default_value);
  json::Json opts = json::Json::MakeArray();
  for (const json::Json& option : options) opts.Append(option);
  out.Set("options", std::move(opts));
  out.Set("min", min);
  out.Set("max", max);
  out.Set("step", step);
  return out;
}

StatusOr<ParameterDef> ParameterDef::FromJson(const json::Json& value) {
  ParameterDef def;
  CHRONOS_ASSIGN_OR_RETURN(def.name, value.GetString("name"));
  CHRONOS_ASSIGN_OR_RETURN(std::string type_name, value.GetString("type"));
  CHRONOS_ASSIGN_OR_RETURN(def.type, ParseParameterType(type_name));
  def.description = value.GetStringOr("description", "");
  def.default_value = value.at("default");
  for (const json::Json& option : value.at("options").as_array()) {
    def.options.push_back(option);
  }
  def.min = value.GetDoubleOr("min", 0);
  def.max = value.GetDoubleOr("max", 0);
  def.step = value.GetDoubleOr("step", 1);
  return def;
}

json::Json ParameterSetting::ToJson() const {
  json::Json out = json::Json::MakeObject();
  out.Set("name", name);
  out.Set("fixed", fixed);
  json::Json sweep_json = json::Json::MakeArray();
  for (const json::Json& v : sweep) sweep_json.Append(v);
  out.Set("sweep", std::move(sweep_json));
  return out;
}

StatusOr<ParameterSetting> ParameterSetting::FromJson(
    const json::Json& value) {
  ParameterSetting setting;
  CHRONOS_ASSIGN_OR_RETURN(setting.name, value.GetString("name"));
  setting.fixed = value.at("fixed");
  for (const json::Json& v : value.at("sweep").as_array()) {
    setting.sweep.push_back(v);
  }
  return setting;
}

namespace {

Status CheckValueAgainstType(const ParameterDef& def, const json::Json& v) {
  switch (def.type) {
    case ParameterType::kBoolean:
      if (!v.is_bool()) {
        return Status::InvalidArgument("parameter '" + def.name +
                                       "' expects a boolean");
      }
      return Status::Ok();
    case ParameterType::kInterval: {
      if (!v.is_number()) {
        return Status::InvalidArgument("parameter '" + def.name +
                                       "' expects a number");
      }
      double d = v.as_double();
      if (d < def.min || d > def.max) {
        return Status::InvalidArgument(
            "parameter '" + def.name + "' out of interval [" +
            std::to_string(def.min) + ", " + std::to_string(def.max) + "]");
      }
      return Status::Ok();
    }
    case ParameterType::kCheckbox:
    case ParameterType::kRatio: {
      if (def.options.empty()) return Status::Ok();
      for (const json::Json& option : def.options) {
        if (option == v) return Status::Ok();
      }
      return Status::InvalidArgument("parameter '" + def.name +
                                     "' value not among declared options");
    }
    case ParameterType::kValue:
      return Status::Ok();
  }
  return Status::Ok();
}

}  // namespace

Status ValidateSetting(const ParameterDef& def, const ParameterSetting& s) {
  if (def.name != s.name) {
    return Status::InvalidArgument("setting/definition name mismatch: " +
                                   def.name + " vs " + s.name);
  }
  if (s.IsSwept()) {
    for (const json::Json& v : s.sweep) {
      CHRONOS_RETURN_IF_ERROR(CheckValueAgainstType(def, v));
    }
    return Status::Ok();
  }
  return CheckValueAgainstType(def, s.fixed);
}

std::vector<json::Json> ExpandInterval(double min, double max, double step) {
  std::vector<json::Json> values;
  if (step <= 0 || max < min) return values;
  // Integral intervals stay integral so job parameters print cleanly.
  bool integral = std::floor(min) == min && std::floor(step) == step;
  for (double v = min; v <= max + 1e-9; v += step) {
    if (integral) {
      values.emplace_back(static_cast<int64_t>(std::llround(v)));
    } else {
      values.emplace_back(v);
    }
  }
  return values;
}

StatusOr<std::vector<ParameterAssignment>> ExpandParameterSpace(
    const std::vector<ParameterSetting>& settings) {
  // Guard against combinatorial explosion before allocating.
  uint64_t total = ParameterSpaceSize(settings);
  if (total > kMaxJobs) {
    return Status::ResourceExhausted(
        "parameter space expands to " + std::to_string(total) +
        " jobs (limit " + std::to_string(kMaxJobs) + ")");
  }

  std::vector<ParameterAssignment> assignments;
  assignments.emplace_back();  // Start with one empty assignment.
  for (const ParameterSetting& setting : settings) {
    if (!setting.IsSwept()) {
      for (ParameterAssignment& assignment : assignments) {
        assignment[setting.name] = setting.fixed;
      }
      continue;
    }
    std::vector<ParameterAssignment> expanded;
    expanded.reserve(assignments.size() * setting.sweep.size());
    for (const ParameterAssignment& assignment : assignments) {
      for (const json::Json& v : setting.sweep) {
        ParameterAssignment next = assignment;
        next[setting.name] = v;
        expanded.push_back(std::move(next));
      }
    }
    assignments = std::move(expanded);
  }
  return assignments;
}

uint64_t ParameterSpaceSize(const std::vector<ParameterSetting>& settings) {
  uint64_t total = 1;
  for (const ParameterSetting& setting : settings) {
    if (setting.IsSwept()) {
      total *= static_cast<uint64_t>(setting.sweep.size());
      if (total > (1ull << 40)) return total;  // Saturating enough.
    }
  }
  return total;
}

json::Json AssignmentToJson(const ParameterAssignment& assignment) {
  json::Json out = json::Json::MakeObject();
  for (const auto& [name, value] : assignment) out.Set(name, value);
  return out;
}

StatusOr<ParameterAssignment> AssignmentFromJson(const json::Json& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("assignment must be an object");
  }
  ParameterAssignment assignment;
  for (const auto& [name, v] : value.as_object()) assignment[name] = v;
  return assignment;
}

}  // namespace chronos::model
