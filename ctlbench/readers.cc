#include "readers.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "common/file_util.h"
#include "common/strings.h"

namespace ctlbench {

using chronos::Status;
using chronos::StatusOr;

namespace {

// Parses `{k="v",...}` starting at text[*pos] == '{'; leaves *pos after '}'.
Status ParseLabels(std::string_view text, size_t* pos,
                   std::map<std::string, std::string>* labels) {
  size_t i = *pos + 1;
  while (i < text.size() && text[i] != '}') {
    size_t eq = text.find('=', i);
    if (eq == std::string_view::npos || eq + 1 >= text.size() ||
        text[eq + 1] != '"') {
      return Status::InvalidArgument("bad label in: " + std::string(text));
    }
    std::string key(text.substr(i, eq - i));
    std::string value;
    size_t j = eq + 2;
    for (; j < text.size() && text[j] != '"'; ++j) {
      if (text[j] == '\\' && j + 1 < text.size()) {
        ++j;
        value += text[j] == 'n' ? '\n' : text[j];
      } else {
        value += text[j];
      }
    }
    if (j >= text.size()) {
      return Status::InvalidArgument("unterminated label value");
    }
    (*labels)[key] = std::move(value);
    i = j + 1;
    if (i < text.size() && text[i] == ',') ++i;
  }
  if (i >= text.size()) return Status::InvalidArgument("unterminated labels");
  *pos = i + 1;
  return Status::Ok();
}

// The whitespace-separated fields of /proc/<pid>/stat after the command
// name, which is parenthesised and may itself hold spaces and parentheses.
std::vector<std::string> StatFieldsAfterComm(std::string_view stat) {
  size_t close = stat.rfind(')');
  std::vector<std::string> fields;
  if (close == std::string_view::npos) return fields;
  for (const std::string& field :
       chronos::strings::Split(stat.substr(close + 1), ' ')) {
    std::string_view trimmed = chronos::strings::Trim(field);
    if (!trimmed.empty()) fields.emplace_back(trimmed);
  }
  return fields;
}

}  // namespace

StatusOr<MetricsText> MetricsText::Parse(std::string_view text) {
  MetricsText out;
  for (const std::string& raw : chronos::strings::Split(text, '\n')) {
    std::string_view line = chronos::strings::Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    Sample sample;
    size_t pos = line.find_first_of("{ ");
    if (pos == std::string_view::npos) {
      return Status::InvalidArgument("sample without value: " +
                                     std::string(line));
    }
    sample.name = std::string(line.substr(0, pos));
    if (line[pos] == '{') {
      CHRONOS_RETURN_IF_ERROR(ParseLabels(line, &pos, &sample.labels));
    }
    std::string_view rest = chronos::strings::Trim(line.substr(pos));
    // An optional timestamp may follow the value.
    std::string_view number = rest.substr(0, rest.find(' '));
    if (!chronos::strings::ParseDouble(number, &sample.value)) {
      return Status::InvalidArgument("bad sample value: " +
                                     std::string(line));
    }
    out.samples_.push_back(std::move(sample));
  }
  return out;
}

double MetricsText::Sum(const std::string& name, const std::string& label,
                        const std::string& value) const {
  double sum = 0;
  for (const Sample& sample : samples_) {
    if (sample.name != name) continue;
    if (!label.empty()) {
      auto it = sample.labels.find(label);
      if (it == sample.labels.end() || it->second != value) continue;
    }
    sum += sample.value;
  }
  return sum;
}

StatusOr<double> ParseProcStatCpuSeconds(std::string_view stat,
                                         long ticks_per_second) {
  // After the command name: state(0) ppid pgrp session tty_nr tpgid flags
  // minflt cminflt majflt cmajflt utime(11) stime(12).
  std::vector<std::string> fields = StatFieldsAfterComm(stat);
  int64_t utime = 0;
  int64_t stime = 0;
  if (fields.size() < 13 || ticks_per_second <= 0 ||
      !chronos::strings::ParseInt64(fields[11], &utime) ||
      !chronos::strings::ParseInt64(fields[12], &stime)) {
    return Status::InvalidArgument("malformed /proc stat line");
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(ticks_per_second);
}

StatusOr<long> ParseVmHwmKb(std::string_view status) {
  for (const std::string& line : chronos::strings::Split(status, '\n')) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::string_view rest = chronos::strings::Trim(
        std::string_view(line).substr(6));
    int64_t kb = 0;
    if (!chronos::strings::ParseInt64(rest.substr(0, rest.find(' ')), &kb)) {
      return Status::InvalidArgument("malformed VmHWM line: " + line);
    }
    return static_cast<long>(kb);
  }
  return Status::NotFound("no VmHWM line");
}

StatusOr<double> ReadCpuSeconds(int pid) {
  CHRONOS_ASSIGN_OR_RETURN(
      std::string text,
      chronos::file::ReadFile("/proc/" + std::to_string(pid) + "/stat"));
  return ParseProcStatCpuSeconds(text, sysconf(_SC_CLK_TCK));
}

StatusOr<long> ReadVmHwmKb(int pid) {
  CHRONOS_ASSIGN_OR_RETURN(
      std::string text,
      chronos::file::ReadFile("/proc/" + std::to_string(pid) + "/status"));
  return ParseVmHwmKb(text);
}

std::optional<double> Percentile(std::vector<double> values, double q) {
  if (values.empty() || q <= 0 || q >= 1) return std::nullopt;
  size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

}  // namespace ctlbench
