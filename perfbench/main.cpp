// The end-to-end benchmark program (see README.md in this directory).
//
//   perfbench --workload campaign|large_dag --seed N --seconds S
//             --trace 0|1 [--tiny] [--spans-out FILE]
//
// Prints one line per correctness check and a few notes, then, as the
// last line, the result JSON. Exits 1 when a check failed, 2 on bad usage.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  perfbench::Options opt;
  const auto usage = [] {
    std::cerr << "usage: perfbench --workload campaign|large_dag "
                 "--seed N --seconds S --trace 0|1 [--tiny] "
                 "[--spans-out FILE]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans-out") {
      opt.spans_out = argv[++i];
    } else {
      return usage();
    }
  }

  perfbench::Report report;
  try {
    if (opt.workload == "campaign") {
      perfbench::run_campaign(opt, report);
    } else if (opt.workload == "large_dag") {
      perfbench::run_large_dag(opt, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << report.json() << std::endl;
  return report.correct() ? 0 : 1;
}
