// Serving benchmark CLI (run through servebench/run.py, which builds it):
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <chrome trace path>]
//
// Prints the host annotation, gate results and every metric by name and
// unit, then as the last line one JSON object: the end-to-end metrics with
// --trace 0, the per-layer table with --trace 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "harness.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\nworkloads:",
               argv0);
  for (const servebench::WorkloadSpec& spec : servebench::Workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// A finite number in [0, 2^53], so every cast of it below is exact.
bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out) && *out >= 0.0 &&
         *out <= 9007199254740992.0;
}

}  // namespace

int main(int argc, char** argv) {
  const servebench::WorkloadSpec* spec = nullptr;
  servebench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    double number = 0.0;
    if (flag == "--workload") {
      spec = servebench::FindWorkload(value);
      if (spec == nullptr) return Usage(argv[0]);
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (!ParseNumber(value, &number)) {
      return Usage(argv[0]);
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds" && number > 0.0 && number <= 3600.0) {
      options.open_loop_seconds = number;
      have_seconds = true;
    } else if (flag == "--trace" && (number == 0.0 || number == 1.0)) {
      options.trace = number == 1.0;
      have_trace = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || spec == nullptr || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage(argv[0]);
  }

  const servebench::RunReport report = servebench::RunWorkload(*spec, options);
  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  std::printf("end-to-end:\n");
  for (const servebench::Metric& m : report.end_to_end) {
    std::printf("  %s/%-40s %14.6g %s\n", spec->name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("per-layer%s:\n",
              options.trace ? "" : " (stage.* and obs.* need --trace 1)");
  for (const servebench::Metric& m : report.per_layer) {
    std::printf("  %s/%-40s %14.6g %s\n", spec->name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n", servebench::ResultJson(report, options.trace).c_str());
  return 0;
}
