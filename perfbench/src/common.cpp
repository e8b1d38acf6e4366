// Shared helpers of the benchmark program: the report, clocks, scenario
// parsing, the result digest, the computed hop-event count and the engine
// span summary.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
  metrics.push_back({name, Metric{value, unit, samples}});
}

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 32) failures.push_back(why);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

routesim::Scenario parse_scenario(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  for (std::string token; in >> token;) tokens.push_back(token);
  return routesim::Scenario::parse(tokens);
}

std::uint64_t item_seed(std::uint64_t seed, std::uint64_t index) {
  return (routesim::derive_stream(seed, index) >> 33) + 1;
}

namespace {

void append_hex(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a,", value);
  out += buffer;
}

void append_interval(std::string& out, const routesim::ConfidenceInterval& ci) {
  append_hex(out, ci.mean);
  append_hex(out, ci.half_width);
  append_hex(out, ci.confidence);
}

}  // namespace

std::string result_text(const routesim::RunResult& result) {
  std::string out;
  append_interval(out, result.delay);
  append_interval(out, result.population);
  append_interval(out, result.throughput);
  append_hex(out, result.mean_hops);
  append_hex(out, result.max_little_error);
  append_hex(out, result.mean_final_backlog);
  out += result.has_bounds ? "B," : "-,";
  append_hex(out, result.lower_bound);
  append_hex(out, result.upper_bound);
  for (const auto& [name, interval] : result.extras) {
    out += name;
    out += ':';
    append_interval(out, interval);
  }
  append_hex(out, result.rho);
  return out;
}

void Digest::add(const std::string& text) {
  for (const char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ull;
  }
  state_ ^= 0xff;  // record separator
  state_ *= 0x100000001b3ull;
}

std::string Digest::hex() const {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

double computed_deliveries(const routesim::Scenario& resolved,
                           const routesim::RunResult& result) {
  const routesim::Window window = resolved.resolved_window();
  return result.throughput.mean * (window.horizon - window.warmup) *
         static_cast<double>(resolved.plan.replications);
}

double computed_hop_events(const routesim::Scenario& resolved,
                           const routesim::RunResult& result) {
  double hops = result.mean_hops;
  if (resolved.scheme.rfind("network_q", 0) == 0) {
    // Network Q reports no per-packet hop count: a packet that enters it
    // visits one server per differing bit, d*p / P[enter] on average.
    const double p = resolved.effective_p();
    hops = resolved.d * p / (1.0 - std::pow(1.0 - p, resolved.d));
  }
  return computed_deliveries(resolved, result) * hops;
}

bool summarize_spans(const routesim::obs::TraceSession& session, int pool_width,
                     SpanSummary* out) {
  routesim::json::Value root;
  if (!routesim::json::parse(session.to_json(), &root)) return false;
  const routesim::json::Value* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) return false;

  *out = SpanSummary{};
  std::map<int, std::vector<std::pair<std::string, double>>> open;  // per tid
  std::map<int, double> last_replication_end;
  double campaign_end = 0.0;
  for (const routesim::json::Value& event : events->array) {
    const auto* name = event.find("name");
    const auto* ph = event.find("ph");
    const auto* ts = event.find("ts");
    const auto* tid = event.find("tid");
    if (name == nullptr || ph == nullptr || ts == nullptr || tid == nullptr) {
      return false;
    }
    const int thread = static_cast<int>(tid->number);
    const double t = ts->number * 1e-6;
    auto& stack = open[thread];
    if (ph->string == "B") {
      stack.emplace_back(name->string, t);
      continue;
    }
    if (ph->string != "E" || stack.empty()) continue;
    const auto [span, start] = stack.back();
    stack.pop_back();
    const double duration = t - start;
    if (span == "campaign.run") {
      out->campaign_s += duration;
      campaign_end = std::max(campaign_end, t);
    } else if (span == "campaign.compile") {
      out->compile_s += duration;
    } else if (span == "replication") {
      out->replication_s += duration;
      ++out->replications;
      last_replication_end[thread] = std::max(last_replication_end[thread], t);
    } else if (span == "cell.assemble") {
      out->assemble_s += duration;
    } else if (span == "sink.flush") {
      out->flush_s += duration;
    }
  }
  // Workers that ran no replication idle for the whole campaign.
  double idle = 0.0;
  for (const auto& [thread, end] : last_replication_end) idle += campaign_end - end;
  const int silent = pool_width - static_cast<int>(last_replication_end.size());
  if (silent > 0) idle += silent * out->campaign_s;
  out->tail_idle_s = idle / std::max(1, pool_width);
  return true;
}

}  // namespace perfbench
