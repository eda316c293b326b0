#include "sim/trace.h"

#include <cstdio>
#include <fstream>

#include "common/durable_file.h"
#include "common/strings.h"

namespace rfidcep::sim {

using events::Observation;

std::string TraceToCsv(const std::vector<Observation>& stream) {
  std::string out = "# rfidcep-trace v1\n";
  for (const Observation& obs : stream) {
    out += obs.reader;
    out += ',';
    out += obs.object;
    out += ',';
    out += std::to_string(obs.timestamp);
    out += '\n';
  }
  return out;
}

Result<std::vector<Observation>> TraceFromCsv(std::string_view csv) {
  std::vector<Observation> out;
  size_t line_number = 0;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t end = csv.find('\n', start);
    if (end == std::string_view::npos) end = csv.size();
    std::string_view line = StripWhitespace(csv.substr(start, end - start));
    start = end + 1;
    ++line_number;
    if (line.empty() || line.front() == '#') {
      if (end == csv.size()) break;
      continue;
    }
    std::vector<std::string> fields = Split(line, ',');
    if (fields.size() != 3) {
      return Status::ParseError("trace line " + std::to_string(line_number) +
                                ": expected reader,object,timestamp");
    }
    Observation obs;
    obs.reader = fields[0];
    obs.object = fields[1];
    char* parse_end = nullptr;
    obs.timestamp = std::strtoll(fields[2].c_str(), &parse_end, 10);
    if (parse_end == nullptr || *parse_end != '\0') {
      return Status::ParseError("trace line " + std::to_string(line_number) +
                                ": bad timestamp '" + fields[2] + "'");
    }
    out.push_back(std::move(obs));
    if (end == csv.size()) break;
  }
  return out;
}

Status WriteTraceFile(const std::string& path,
                      const std::vector<Observation>& stream) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  file << TraceToCsv(stream);
  return file.good() ? Status::Ok()
                     : Status::Internal("write to '" + path + "' failed");
}

Result<std::vector<Observation>> ReadTraceFile(const std::string& path) {
  std::string text;
  RFIDCEP_RETURN_IF_ERROR(common::ReadFile(path, &text));
  return TraceFromCsv(text);
}

}  // namespace rfidcep::sim
