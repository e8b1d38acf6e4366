#pragma once
/// \file perfbench.hpp
/// \brief Declarations shared by the benchmark program's translation units:
///        run options, the report every workload fills, timing helpers,
///        the result digest and the computed hop-event count.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"

namespace routesim::obs {
class TraceSession;
}

namespace perfbench {

/// Command-line options of one benchmark run (see main.cpp).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch directory for stores, traces, sockets
  std::string serve_bin;  ///< path of the routesim_serve daemon
  int pool_width = 1;     ///< engine pool width (fixed, <= nproc)
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one run reports: metrics in insertion order, operation counts, the
/// result digest and every correctness failure.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::string digest;
  std::vector<std::pair<std::string, Metric>> metrics;

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  void fail(const std::string& why);
};

// ------------------------------------------------------------------ timing

[[nodiscard]] double now_s();
/// CPU time of this process (all threads), user + system.
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

// ------------------------------------------------------------- scenarios

/// Parses "scheme key=value ..." into a Scenario.
[[nodiscard]] routesim::Scenario parse_scenario(const std::string& text);

/// A scenario seed derived from the workload seed and an item index.
[[nodiscard]] std::uint64_t item_seed(std::uint64_t seed, std::uint64_t index);

/// Every RunResult field in hexfloat, in declaration order.
[[nodiscard]] std::string result_text(const routesim::RunResult& result);

/// FNV-1a accumulator rendered as 16 hex digits.
class Digest {
 public:
  void add(const std::string& text);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Packets delivered in the measurement window over all replications:
/// throughput x window length x replications (a computed count).
[[nodiscard]] double computed_deliveries(const routesim::Scenario& resolved,
                                         const routesim::RunResult& result);
/// Hop-events (arc service completions) in the measurement window:
/// computed_deliveries x mean_hops.
[[nodiscard]] double computed_hop_events(const routesim::Scenario& resolved,
                                         const routesim::RunResult& result);

// ------------------------------------------------------------------ spans

/// Engine span totals of one traced campaign (durations in seconds).
struct SpanSummary {
  double campaign_s = 0.0;     ///< campaign.run
  double compile_s = 0.0;      ///< campaign.compile
  double replication_s = 0.0;  ///< sum of replication spans
  double tail_idle_s = 0.0;    ///< mean per worker: campaign end - last replication end
  double assemble_s = 0.0;     ///< sum of cell.assemble
  double flush_s = 0.0;        ///< sum of sink.flush
  std::size_t replications = 0;
};

/// Reads the engine's spans back from the session's trace-event JSON.
/// Returns false when the JSON does not parse.
[[nodiscard]] bool summarize_spans(const routesim::obs::TraceSession& session,
                                   int pool_width, SpanSummary* out);

// --------------------------------------------------------------- workloads

void run_sim_workload(const Options& options, Report& report);
void run_serve_mix(const Options& options, Report& report);
/// Per-module probes: each times calls into one src/ module from outside.
void run_probes(const Options& options, Report& report);

}  // namespace perfbench
