#ifndef CHRONOS_MODEL_PARAMETER_SPACE_H_
#define CHRONOS_MODEL_PARAMETER_SPACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "json/json.h"

namespace chronos::model {

// Parameter types supported by the Chronos web UI (§2.2): "Parameter types
// include Boolean, check box, and value types as well intervals and ratios."
enum class ParameterType {
  kBoolean,   // true/false; a sweep covers both.
  kValue,     // Free-form scalar with an optional list of candidate values.
  kCheckbox,  // Subset selection over declared options; sweep = one job per
              // selected option.
  kInterval,  // Numeric range [min, max] with step; sweep = each point.
  kRatio,     // e.g. read/update mixes; values like "95:5".
};

std::string_view ParameterTypeName(ParameterType type);
StatusOr<ParameterType> ParseParameterType(std::string_view name);

// How a system declares one of its parameters (stored with the System).
struct ParameterDef {
  std::string name;
  ParameterType type = ParameterType::kValue;
  std::string description;
  json::Json default_value;
  // Candidate options for kValue/kCheckbox/kRatio.
  std::vector<json::Json> options;
  // Bounds for kInterval.
  double min = 0;
  double max = 0;
  double step = 1;

  json::Json ToJson() const;
  static StatusOr<ParameterDef> FromJson(const json::Json& value);
};

// How an experiment pins or sweeps one parameter.
struct ParameterSetting {
  std::string name;
  // If `sweep` is empty the parameter is fixed to `fixed`; otherwise one job
  // is generated per sweep element (cartesian with the other swept params).
  json::Json fixed;
  std::vector<json::Json> sweep;

  bool IsSwept() const { return !sweep.empty(); }

  json::Json ToJson() const;
  static StatusOr<ParameterSetting> FromJson(const json::Json& value);
};

// One concrete assignment of every parameter (the job's configuration).
using ParameterAssignment = std::map<std::string, json::Json>;

// Validates a setting against its declaration (type conformance, interval
// bounds, checkbox options membership).
Status ValidateSetting(const ParameterDef& def, const ParameterSetting& s);

// Builds the sweep values for an interval definition: min, min+step, ... max.
std::vector<json::Json> ExpandInterval(double min, double max, double step);

// Most jobs one evaluation may expand to, repetitions included.
inline constexpr uint64_t kMaxJobs = 1000000;

// Expands experiment settings into the full cartesian product of concrete
// assignments — "the thorough evaluation of a complete evaluation space".
// Unswept parameters contribute their fixed value to every assignment.
// Order is deterministic: settings in the given order, sweep values in the
// given order, last setting varying fastest.
StatusOr<std::vector<ParameterAssignment>> ExpandParameterSpace(
    const std::vector<ParameterSetting>& settings);

// Total number of jobs ExpandParameterSpace would produce.
uint64_t ParameterSpaceSize(const std::vector<ParameterSetting>& settings);

json::Json AssignmentToJson(const ParameterAssignment& assignment);
StatusOr<ParameterAssignment> AssignmentFromJson(const json::Json& value);

}  // namespace chronos::model

#endif  // CHRONOS_MODEL_PARAMETER_SPACE_H_
