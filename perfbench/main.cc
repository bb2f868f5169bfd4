// nsc_perfbench: runs one benchmark workload and prints its report as
// the last line of stdout (see perfbench/README.md).
//
//   nsc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <path>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the Chrome trace to --trace-out when given). Exit code 0
// when the run finished (its report says whether it was correct), 2 on
// bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload_common.h"

namespace nsc {
namespace perfbench {

bool RunWorkload(const RunOptions& options, Report* report) {
  if (options.workload == "train-nscaching") {
    RunTrainNSCaching(options, report);
  } else if (options.workload == "train-bernoulli-hogwild") {
    RunTrainBernoulliHogwild(options, report);
  } else if (options.workload == "serve-mixed-while-training") {
    RunServeMixed(options, report);
  } else {
    return false;
  }
  return true;
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "nsc_perfbench: %s\nusage: nsc_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  Report report;
  if (!RunWorkload(options, &report)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (report.attempted() == 0) report.Flag("no operation attempted");
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace nsc

int main(int argc, char** argv) { return nsc::perfbench::Main(argc, argv); }
