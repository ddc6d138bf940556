// perfbench: the repo benchmark binary (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// The last stdout line is the run's JSON result. Exit code 0 means the run
// completed (its `correct` field says whether every gate passed); 1 means
// it could not run, 2 a usage error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload resnet18_closed|mlp_open_swap|"
               "dst_train --seed N --seconds S --trace 0|1 [--trace-dir D]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--trace-dir") {
        opt.trace_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 60.0)) {
    return usage("--seconds must be in (0, 60]");
  }
  try {
    perfbench::Report report;
    if (opt.workload == "resnet18_closed") {
      perfbench::run_resnet18_closed(opt, report);
    } else if (opt.workload == "mlp_open_swap") {
      perfbench::run_mlp_open_swap(opt, report);
    } else if (opt.workload == "dst_train") {
      perfbench::run_dst_train(opt, report);
    } else {
      return usage("unknown workload '" + opt.workload + "'");
    }
    report.print_result();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}
