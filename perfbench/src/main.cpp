// perfbench: runs one benchmark workload and prints one JSON object with
// its metrics, counts, result digest and failures.  perfbench/run.py builds
// this binary, calls it and formats the result; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--serve-bin PATH]

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "perfbench.hpp"
#include "util/json.hpp"

namespace {

constexpr int kMaxPoolWidth = 4;

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_report(const perfbench::Options& options,
                  const perfbench::Report& report) {
  using routesim::json_escape;
  std::string out = "{\"workload\":\"" + json_escape(options.workload) +
                    "\",\"seed\":" + std::to_string(options.seed) +
                    ",\"trace\":" + (options.trace ? "1" : "0") +
                    ",\"pool_width\":" + std::to_string(options.pool_width) +
                    ",\"nproc\":" + std::to_string(available_cpus()) +
                    ",\"attempted\":" + std::to_string(report.attempted) +
                    ",\"failed\":" + std::to_string(report.failed) +
                    ",\"digest\":\"" + report.digest + "\",\"failures\":[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + json_escape(report.failures[i]) + '"';
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, metric] = report.metrics[i];
    if (i > 0) out += ',';
    out += '"' + json_escape(name) + "\":{\"value\":" + number(metric.value) +
           ",\"unit\":\"" + json_escape(metric.unit) +
           "\",\"samples\":" + std::to_string(metric.samples) + '}';
  }
  out += "}}";
  std::cout << out << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench --workload paper_cells|fault_topology_grid|serve_mix\n"
               "                 --seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "                 [--serve-bin PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--serve-bin") {
      options.serve_bin = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.work_dir.empty() || options.seconds <= 0.0) {
    return usage();
  }
  options.pool_width = std::min(kMaxPoolWidth, available_cpus());
  std::filesystem::create_directories(options.work_dir);

  perfbench::Report report;
  try {
    if (options.workload == "paper_cells" ||
        options.workload == "fault_topology_grid") {
      perfbench::run_sim_workload(options, report);
    } else if (options.workload == "serve_mix") {
      if (options.serve_bin.empty()) return usage();
      perfbench::run_serve_mix(options, report);
    } else {
      return usage();
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    report.fail(error.what());
  }
  report.attempted = std::max(report.attempted, report.failed);
  print_report(options, report);
  return report.failed == 0 ? 0 : 1;
}
