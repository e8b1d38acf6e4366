#include "core/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/campaign.hpp"
#include "core/registry.hpp"
#include "des/kernel_backend.hpp"
#include "fault/fault_model.hpp"
#include "topology/ring.hpp"
#include "topology/topology.hpp"
#include "util/assert.hpp"
#include "workload/permutation.hpp"
#include "workload/trace.hpp"

namespace routesim {

Window Window::for_load(int d, double rho, double length) {
  RS_EXPECTS(d >= 1);
  RS_EXPECTS(rho >= 0.0 && rho < 1.0);
  RS_EXPECTS(length > 0.0);
  const double slack = 1.0 - rho;
  const double warmup = 50.0 + 10.0 * static_cast<double>(d) + 5.0 / (slack * slack);
  return Window{warmup, warmup + length};
}

namespace {

/// mask_pmf is validated against 2^d when it is *set*, but d can change
/// afterwards (another --set d=, a d sweep); re-check at every use so the
/// mismatch surfaces as a ScenarioError, not an internal contract failure.
void check_mask_pmf_matches_d(const std::vector<double>& mask_pmf, int d) {
  const auto expected = std::size_t{1} << d;
  if (mask_pmf.size() != expected) {
    throw ScenarioError("mask_pmf has " + std::to_string(mask_pmf.size()) +
                        " entries but d=" + std::to_string(d) + " needs 2^d = " +
                        std::to_string(expected) +
                        " (d changed after mask_pmf was set?)");
  }
}

}  // namespace

double Scenario::rho() const {
  if (rho_target.has_value()) return resolved().rho();
  const auto* info = SchemeRegistry::instance().find(scheme);
  if (info != nullptr && info->load_factor) return info->load_factor(*this);
  return default_rho();
}

Scenario Scenario::resolved() const {
  if (!rho_target.has_value()) return *this;
  Scenario out = *this;
  out.rho_target.reset();
  // Every load factor is linear in lambda, so probe it at lambda = 1 and
  // solve; this stays correct for any registry load-factor rule.
  Scenario probe = out;
  probe.lambda = 1.0;
  const double per_unit_lambda = probe.rho();
  if (per_unit_lambda <= 0.0) {
    throw ScenarioError(
        "cannot resolve rho=" + std::to_string(*rho_target) +
        " while the load factor is zero (p=0 or a degenerate workload?)");
  }
  out.lambda = *rho_target / per_unit_lambda;
  return out;
}

double Scenario::default_rho() const {
  if (uses_generic_topology()) {
    const auto topo = compiled_topology();
    if (workload == "permutation") {
      const auto table = permutation_table();
      if (table.size() != topo->num_nodes()) {
        throw ScenarioError(
            "workload=permutation needs a topology with 2^d nodes; topology=" +
            topology + " has " + std::to_string(topo->num_nodes()) +
            " (permutation families index 2^d sources)");
      }
      return lambda * static_cast<double>(
                          topology_greedy_congestion(*topo, table).max_load);
    }
    // The stability condition of the uniform-destination experiment:
    // lambda times the heaviest per-arc utilisation per unit rate.
    return lambda * topo->uniform_load_per_lambda();
  }
  if (workload == "permutation") {
    // Every packet of source x follows the fixed greedy path to pi(x), so
    // the heaviest arc carries lambda * max_load — the exact utilisation
    // for hypercube_greedy and a worst-case proxy for the other schemes.
    const auto table = permutation_table();
    return lambda * static_cast<double>(
                        hypercube_greedy_congestion(d, table).max_load);
  }
  if (workload == "general" && !mask_pmf.empty()) {
    check_mask_pmf_matches_d(mask_pmf, d);
    return bounds::load_factor_general(mask_pmf, d, lambda);
  }
  return lambda * effective_p();
}

DestinationDistribution Scenario::make_destinations() const {
  if (workload == "uniform") return DestinationDistribution::uniform(d);
  if (workload == "bit_flip" || workload == "trace") {
    return DestinationDistribution::bit_flip(d, p);
  }
  if (workload == "general") {
    if (mask_pmf.empty()) {
      throw ScenarioError("workload 'general' requires a mask_pmf (2^d entries)");
    }
    check_mask_pmf_matches_d(mask_pmf, d);
    return DestinationDistribution::general(d, mask_pmf);
  }
  if (workload == "permutation") {
    // Placeholder law: per-source destinations come from the fixed table
    // (permutation_table()), which schemes consume through the packet
    // kernel's fixed-destination mode.
    return DestinationDistribution::uniform(d);
  }
  throw ScenarioError("unknown workload '" + workload +
                      "' (known: bit_flip, uniform, general, trace, "
                      "permutation)");
}

std::vector<NodeId> Scenario::permutation_table() const {
  if (workload != "permutation") {
    throw ScenarioError("permutation_table() requires workload=permutation "
                        "(current workload: '" + workload + "')");
  }
  try {
    return Permutation::by_name(permutation, d, hotspot_frac, plan.base_seed)
        .table();
  } catch (const std::invalid_argument& error) {
    throw ScenarioError(error.what());
  }
}

std::shared_ptr<const std::vector<NodeId>> Scenario::shared_permutation_table()
    const {
  if (workload != "permutation") return nullptr;
  return std::make_shared<const std::vector<NodeId>>(permutation_table());
}

std::shared_ptr<const PacketTrace> Scenario::shared_trace() const {
  if (trace_file.empty()) return nullptr;
  if (workload != "trace") {
    throw ScenarioError("trace_file requires workload=trace (current "
                        "workload: '" + workload + "')");
  }
  try {
    return std::make_shared<const PacketTrace>(load_trace_jsonl(trace_file, d));
  } catch (const std::invalid_argument& error) {
    throw ScenarioError(error.what());
  } catch (const std::runtime_error& error) {
    throw ScenarioError(error.what());
  }
}

FaultPolicy Scenario::resolved_fault_policy(
    std::initializer_list<FaultPolicy> supported) const {
  if (!faults_active()) return FaultPolicy::kNone;
  if (supported.size() == 0) {
    throw ScenarioError("scheme '" + scheme +
                        "' does not support fault injection (clear fault_rate,"
                        " node_fault_rate, fault_mtbf, fault_mttr, storm_rate"
                        " and storm_duration)");
  }
  if ((fault_mtbf > 0.0) != (fault_mttr > 0.0)) {
    throw ScenarioError(
        "dynamic faults need both fault_mtbf and fault_mttr > 0 (got mtbf=" +
        std::to_string(fault_mtbf) + ", mttr=" + std::to_string(fault_mttr) +
        ")");
  }
  if ((storm_rate > 0.0) != (storm_duration > 0.0)) {
    throw ScenarioError(
        "fault storms need both storm_rate and storm_duration > 0 (got "
        "storm_rate=" + fmt_shortest(storm_rate) + ", storm_duration=" +
        fmt_shortest(storm_duration) + ") — did you mean to also set " +
        (storm_rate > 0.0 ? "storm_duration" : "storm_rate") + "?");
  }
  FaultPolicy policy = FaultPolicy::kNone;
  try {
    policy = parse_fault_policy(fault_policy);
  } catch (const std::invalid_argument& error) {
    throw ScenarioError(error.what());
  }
  for (const FaultPolicy candidate : supported) {
    if (candidate == policy) return policy;
  }
  std::string names;
  for (const FaultPolicy candidate : supported) {
    if (!names.empty()) names += ", ";
    names += fault_policy_name(candidate);
  }
  throw ScenarioError("fault_policy '" + fault_policy +
                      "' is not supported by scheme '" + scheme +
                      "' (supported: " + names + ")");
}

KernelBackend Scenario::resolved_backend(
    std::initializer_list<KernelBackend> supported) const {
  KernelBackend parsed = KernelBackend::kScalar;
  try {
    parsed = parse_kernel_backend(backend);
  } catch (const std::invalid_argument& error) {
    throw ScenarioError(error.what());
  }
  // The scalar kernel is every scheme's oracle; only alternatives need to be
  // in the scheme's supported list.
  if (parsed == KernelBackend::kScalar) return parsed;
  for (const KernelBackend candidate : supported) {
    if (candidate == parsed) return parsed;
  }
  std::string names = "scalar";
  for (const KernelBackend candidate : supported) {
    if (candidate == KernelBackend::kScalar) continue;
    names += ", ";
    names += kernel_backend_name(candidate);
  }
  throw ScenarioError("scheme '" + scheme + "' does not support backend '" +
                      backend + "' (supported: " + names + ")");
}

Window Scenario::resolved_window() const {
  if (!window.is_auto()) {
    if (window.warmup < 0.0 || window.horizon < window.warmup) {
      throw ScenarioError("window horizon must be >= warmup >= 0 (got warmup=" +
                          std::to_string(window.warmup) + ", horizon=" +
                          std::to_string(window.horizon) + ")");
    }
    return window;
  }
  const double load = rho();
  if (load >= 1.0) {
    throw ScenarioError(
        "the automatic window needs rho < 1 (got rho = " + std::to_string(load) +
        "); set warmup/horizon explicitly for unstable runs");
  }
  // Warmup scales with the network diameter; for the generic topologies
  // that can exceed d (a 2^d-node ring has diameter 2^(d-1)).
  int effective_d = d;
  if (uses_generic_topology()) {
    effective_d = std::max(effective_d, compiled_topology()->diameter());
  }
  return Window::for_load(effective_d, load, measure);
}

std::string Scenario::resolved_topology(
    std::initializer_list<const char*> supported) const {
  RS_EXPECTS(supported.size() > 0);
  if (topology == "native") return *supported.begin();
  for (const char* candidate : supported) {
    if (topology == candidate) return topology;
  }
  std::string names;
  for (const char* candidate : supported) {
    if (!names.empty()) names += ", ";
    names += candidate;
  }
  throw ScenarioError("scheme '" + scheme + "' does not support topology '" +
                      topology + "' (supported: native, " + names + ")");
}

TopologySpec Scenario::topology_spec() const {
  TopologySpec spec;
  spec.name = topology == "native" ? "hypercube" : topology;
  spec.d = d;
  spec.ring_chords = ring_chords;
  spec.torus_dims = torus_dims;
  return spec;
}

std::shared_ptr<const Topology> Scenario::compiled_topology() const {
  try {
    return make_topology(topology_spec());
  } catch (const std::invalid_argument& error) {
    throw ScenarioError(error.what());
  }
}

namespace {

double parse_double(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &pos);
  } catch (const std::exception&) {
    throw ScenarioError("bad value '" + value + "' for key '" + key + "'");
  }
  if (pos != value.size()) {
    throw ScenarioError("bad value '" + value + "' for key '" + key + "'");
  }
  return parsed;
}

int parse_int(const std::string& key, const std::string& value) {
  const double parsed = parse_double(key, value);
  const int rounded = static_cast<int>(std::lround(parsed));
  if (static_cast<double>(rounded) != parsed) {
    throw ScenarioError("key '" + key + "' needs an integer, got '" + value + "'");
  }
  return rounded;
}

/// Levenshtein edit distance, for did-you-mean suggestions on unknown keys.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution = diagonal + (a[i - 1] != b[j - 1] ? 1 : 0);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

}  // namespace

void Scenario::set(const std::string& key, const std::string& value) {
  if (key == "d") {
    d = parse_int(key, value);
  } else if (key == "topology") {
    const auto& families = topology_names();
    const bool known =
        value == "native" ||
        std::find(families.begin(), families.end(), value) != families.end();
    if (!known) {
      std::vector<std::string> candidates = families;
      candidates.insert(candidates.begin(), "native");
      std::string suggestions;
      std::size_t best = 4;  // suggest only close matches
      for (const auto& candidate : candidates) {
        best = std::min(best, edit_distance(value, candidate));
      }
      for (const auto& candidate : candidates) {
        if (edit_distance(value, candidate) == best) {
          suggestions += suggestions.empty() ? candidate : ", " + candidate;
        }
      }
      std::string message = "unknown topology '" + value + "'";
      if (!suggestions.empty()) {
        message += " — did you mean: " + suggestions + "?";
      }
      message += " (known:";
      for (const auto& candidate : candidates) message += ' ' + candidate;
      message += ')';
      throw ScenarioError(message);
    }
    topology = value;
  } else if (key == "ring_chords") {
    // Format check now; the strides are re-validated against n = 2^d at
    // scenario-compile time, when d is final.  Parsing against the widest
    // supported ring keeps format errors (garbage, duplicates, stride < 2)
    // immediate.
    try {
      (void)parse_ring_chords(value, /*d=*/14);
    } catch (const std::invalid_argument& error) {
      throw ScenarioError(error.what());
    }
    ring_chords = value;
  } else if (key == "torus_dims") {
    try {
      (void)parse_torus_dims(value);
    } catch (const std::invalid_argument& error) {
      throw ScenarioError(error.what());
    }
    torus_dims = value;
  } else if (key == "lambda") {
    lambda = parse_double(key, value);
    rho_target.reset();  // an explicit lambda overrides any pending target
  } else if (key == "rho") {
    const double target = parse_double(key, value);
    if (target < 0.0) {
      throw ScenarioError("rho must be >= 0, got '" + value + "'");
    }
    // Deferred: resolved() solves target -> lambda once every other knob
    // (p, workload, d, scheme) is final, so `--set rho=0.6 --set p=0.7`
    // and the reverse order agree.
    rho_target = target;
  } else if (key == "p") {
    p = parse_double(key, value);
  } else if (key == "tau") {
    tau = parse_double(key, value);
  } else if (key == "discipline") {
    if (value == "fifo") {
      discipline = Discipline::kFifo;
    } else if (value == "ps") {
      discipline = Discipline::kPs;
    } else {
      throw ScenarioError("discipline must be 'fifo' or 'ps', got '" + value + "'");
    }
  } else if (key == "workload") {
    workload = value;
  } else if (key == "permutation") {
    // Validate the family name immediately (the table itself is built at
    // scenario-compile time, when d is final).
    try {
      (void)Permutation::summary(value);
    } catch (const std::invalid_argument& error) {
      throw ScenarioError(error.what());
    }
    permutation = value;
  } else if (key == "hotspot_frac") {
    const double parsed = parse_double(key, value);
    if (!(parsed >= 0.0 && parsed <= 1.0)) {
      throw ScenarioError("hotspot_frac must be in [0, 1], got '" + value + "'");
    }
    hotspot_frac = parsed;
  } else if (key == "fanout") {
    fanout = parse_int(key, value);
  } else if (key == "unicast_baseline") {
    unicast_baseline = parse_int(key, value) != 0;
  } else if (key == "buffers") {
    buffer_capacity = static_cast<std::uint32_t>(parse_int(key, value));
  } else if (key == "warmup") {
    window.warmup = parse_double(key, value);
  } else if (key == "horizon") {
    window.horizon = parse_double(key, value);
  } else if (key == "measure") {
    measure = parse_double(key, value);
  } else if (key == "reps") {
    plan.replications = parse_int(key, value);
  } else if (key == "seed") {
    // Full 64-bit parse: going through a double would corrupt seeds above
    // 2^53 and silently wrap negatives.
    std::size_t pos = 0;
    try {
      if (value.find('-') != std::string::npos) throw std::invalid_argument("");
      plan.base_seed = std::stoull(value, &pos);
    } catch (const std::exception&) {
      throw ScenarioError("bad value '" + value + "' for key 'seed'");
    }
    if (pos != value.size()) {
      throw ScenarioError("bad value '" + value + "' for key 'seed'");
    }
  } else if (key == "threads") {
    plan.threads = parse_int(key, value);
  } else if (key == "backend") {
    try {
      (void)parse_kernel_backend(value);
    } catch (const std::invalid_argument& error) {
      throw ScenarioError(error.what());
    }
    backend = value;
  } else if (key == "fault_rate") {
    fault_rate = parse_double(key, value);
    if (fault_rate < 0.0 || fault_rate > 1.0) {
      throw ScenarioError("fault_rate must be in [0, 1], got '" + value + "'");
    }
  } else if (key == "node_fault_rate") {
    node_fault_rate = parse_double(key, value);
    if (node_fault_rate < 0.0 || node_fault_rate > 1.0) {
      throw ScenarioError("node_fault_rate must be in [0, 1], got '" + value +
                          "'");
    }
  } else if (key == "fault_mtbf") {
    fault_mtbf = parse_double(key, value);
    if (fault_mtbf < 0.0) throw ScenarioError("fault_mtbf must be >= 0");
  } else if (key == "fault_mttr") {
    fault_mttr = parse_double(key, value);
    if (fault_mttr < 0.0) throw ScenarioError("fault_mttr must be >= 0");
  } else if (key == "storm_rate") {
    storm_rate = parse_double(key, value);
    if (!(storm_rate >= 0.0) || !std::isfinite(storm_rate)) {
      throw ScenarioError("storm_rate must be finite and >= 0, got '" + value +
                          "'");
    }
  } else if (key == "storm_radius") {
    storm_radius = parse_int(key, value);
    if (storm_radius < 0) throw ScenarioError("storm_radius must be >= 0");
  } else if (key == "storm_duration") {
    storm_duration = parse_double(key, value);
    if (!(storm_duration >= 0.0) || !std::isfinite(storm_duration)) {
      throw ScenarioError("storm_duration must be finite and >= 0, got '" +
                          value + "'");
    }
  } else if (key == "trace_file") {
    // The textual scenario form is space-delimited, so a path with
    // whitespace could never round-trip; reject it up front.
    for (const char c : value) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        throw ScenarioError("trace_file path cannot contain whitespace, got '" +
                            value + "'");
      }
    }
    trace_file = value;
  } else if (key == "fault_policy") {
    try {
      (void)parse_fault_policy(value);
    } catch (const std::invalid_argument& error) {
      throw ScenarioError(error.what());
    }
    fault_policy = value;
  } else if (key == "ttl") {
    ttl = parse_int(key, value);
    if (ttl < 0) throw ScenarioError("ttl must be >= 0");
  } else if (key == "mask_pmf") {
    // Inline comma/whitespace-separated list, or @path to read the same
    // format from a file.  Needs 2^d entries: set d (and workload=general)
    // before mask_pmf.
    std::string text = value;
    if (!value.empty() && value.front() == '@') {
      std::ifstream file(value.substr(1));
      if (!file) {
        throw ScenarioError("cannot open mask_pmf file '" + value.substr(1) +
                            "'");
      }
      std::ostringstream contents;
      contents << file.rdbuf();
      text = contents.str();
    }
    for (char& c : text) {
      if (c == ',') c = ' ';
    }
    std::istringstream in(text);
    std::vector<double> pmf;
    double entry = 0.0;
    while (in >> entry) pmf.push_back(entry);
    if (!in.eof()) {
      throw ScenarioError("mask_pmf has a non-numeric entry (entry " +
                          std::to_string(pmf.size() + 1) + ")");
    }
    const auto expected = std::size_t{1} << d;
    if (pmf.size() != expected) {
      throw ScenarioError("mask_pmf needs 2^d = " + std::to_string(expected) +
                          " entries for d=" + std::to_string(d) + ", got " +
                          std::to_string(pmf.size()) +
                          " (set d before mask_pmf)");
    }
    double sum = 0.0;
    for (const double probability : pmf) {
      if (!std::isfinite(probability) || probability < 0.0) {
        throw ScenarioError("mask_pmf entries must be finite and >= 0");
      }
      sum += probability;
    }
    if (sum <= 0.0) throw ScenarioError("mask_pmf must have a positive sum");
    // Normalise, but only when the sum is meaningfully off 1: dividing an
    // already-normalised pmf by its 1-plus-rounding sum would perturb the
    // entries by an ulp on every parse and break the exact textual round
    // trip (to_key_values() emits the stored values exactly).
    if (std::abs(sum - 1.0) > 1e-9) {
      for (double& probability : pmf) probability /= sum;
    }
    mask_pmf = std::move(pmf);
  } else {
    const auto& known = known_set_keys();
    std::string suggestions;
    std::size_t best = 4;  // suggest only close matches
    for (const auto& candidate : known) {
      best = std::min(best, edit_distance(key, candidate));
    }
    for (const auto& candidate : known) {
      if (edit_distance(key, candidate) == best) {
        suggestions += suggestions.empty() ? candidate : ", " + candidate;
      }
    }
    std::string message = "unknown scenario key '" + key + "'";
    if (!suggestions.empty()) message += " — did you mean: " + suggestions + "?";
    message += " (known:";
    for (const auto& candidate : known) message += ' ' + candidate;
    message += ')';
    throw ScenarioError(message);
  }
}

const std::vector<std::string>& Scenario::known_set_keys() {
  static const std::vector<std::string> keys{
      "d",          "topology",       "ring_chords", "torus_dims",
      "lambda",     "rho",            "p",
      "tau",        "discipline",     "workload",   "trace_file",
      "mask_pmf",
      "permutation", "hotspot_frac",
      "fanout",     "unicast_baseline", "buffers",
      "fault_rate", "node_fault_rate", "fault_mtbf", "fault_mttr",
      "storm_rate", "storm_radius",   "storm_duration",
      "fault_policy", "ttl",
      "warmup",     "horizon",        "measure",    "reps",
      "seed",       "threads",        "backend"};
  return keys;
}

namespace {

/// The one list of every non-derived field in textual order: calls
/// `emit(key, value)` once per pair.  `value` may view scratch storage
/// that is valid only during that call.
template <class Emit>
void for_each_key_value(const Scenario& s, Emit&& emit) {
  char number[kShortestChars];
  const auto real = [&](double value) {
    return std::string_view(
        number, static_cast<std::size_t>(shortest_chars(number, value) - number));
  };
  const auto integer = [&](auto value) {
    return std::string_view(
        number, static_cast<std::size_t>(
                    std::to_chars(number, number + sizeof number, value).ptr - number));
  };
  emit("d", integer(s.d));
  emit("topology", s.topology);
  // After topology, before the load keys; omitted when empty (like
  // mask_pmf) so plain-ring and non-ring scenarios stay uncluttered.
  if (!s.ring_chords.empty()) emit("ring_chords", s.ring_chords);
  emit("torus_dims", s.torus_dims);
  emit("lambda", real(s.lambda));
  // After lambda, so parse() replays set("lambda") (clearing any stale
  // target) before set("rho") re-arms the deferred target — the pair
  // round-trips exactly.
  if (s.rho_target.has_value()) emit("rho", real(*s.rho_target));
  emit("p", real(s.p));
  emit("tau", real(s.tau));
  emit("discipline", s.discipline == Discipline::kPs ? "ps" : "fifo");
  emit("workload", s.workload);
  // Right after workload (the key it refines); omitted when empty so
  // generated-trace and non-trace scenarios stay uncluttered.
  if (!s.trace_file.empty()) emit("trace_file", s.trace_file);
  if (!s.mask_pmf.empty()) {
    // Inline CSV form; the entries are already normalised, so the round
    // trip through set() is exact.
    std::string csv;
    for (const double probability : s.mask_pmf) {
      if (!csv.empty()) csv += ',';
      append_shortest(csv, probability);
    }
    emit("mask_pmf", csv);
  }
  emit("permutation", s.permutation);
  emit("hotspot_frac", real(s.hotspot_frac));
  emit("fanout", integer(s.fanout));
  emit("unicast_baseline", s.unicast_baseline ? "1" : "0");
  emit("buffers", integer(s.buffer_capacity));
  emit("fault_rate", real(s.fault_rate));
  emit("node_fault_rate", real(s.node_fault_rate));
  emit("fault_mtbf", real(s.fault_mtbf));
  emit("fault_mttr", real(s.fault_mttr));
  emit("storm_rate", real(s.storm_rate));
  emit("storm_radius", integer(s.storm_radius));
  emit("storm_duration", real(s.storm_duration));
  emit("fault_policy", s.fault_policy);
  emit("ttl", integer(s.ttl));
  emit("warmup", real(s.window.warmup));
  emit("horizon", real(s.window.horizon));
  emit("measure", real(s.measure));
  emit("reps", integer(s.plan.replications));
  emit("seed", integer(s.plan.base_seed));
  emit("threads", integer(s.plan.threads));
  emit("backend", s.backend);
}

}  // namespace

std::vector<std::pair<std::string, std::string>> Scenario::to_key_values() const {
  std::vector<std::pair<std::string, std::string>> pairs;
  for_each_key_value(*this, [&](std::string_view key, std::string_view value) {
    pairs.emplace_back(key, value);
  });
  return pairs;
}

std::string Scenario::to_string() const {
  std::string out;
  out.reserve(512);
  out += scheme;
  for_each_key_value(*this, [&](std::string_view key, std::string_view value) {
    out += ' ';
    out += key;
    out += '=';
    out += value;
  });
  return out;
}

Scenario Scenario::parse(const std::vector<std::string>& args) {
  if (args.empty()) throw ScenarioError("empty scenario: expected a scheme name");
  Scenario scenario;
  scenario.scheme = args.front();
  if (scenario.scheme.find('=') != std::string::npos) {
    throw ScenarioError("first scenario token must be the scheme name, got '" +
                        scenario.scheme + "'");
  }
  for (std::size_t i = 1; i < args.size(); ++i) {
    const auto eq = args[i].find('=');
    if (eq == std::string::npos) {
      throw ScenarioError("expected key=value, got '" + args[i] + "'");
    }
    scenario.set(args[i].substr(0, eq), args[i].substr(eq + 1));
  }
  return scenario;
}

Scenario Scenario::parse_text(std::string_view text) {
  std::vector<std::string> tokens;
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  for (std::size_t i = 0; i < text.size();) {
    if (is_space(text[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    tokens.emplace_back(text.substr(start, i - start));
  }
  if (tokens.empty()) throw ScenarioError("empty scenario string");
  return parse(tokens);
}

const ConfidenceInterval* RunResult::extra(const std::string& name) const {
  for (const auto& [key, interval] : extras) {
    if (key == name) return &interval;
  }
  return nullptr;
}

bool RunResult::within_bracket(double slack) const {
  if (!has_bounds) return true;
  return delay.mean >= lower_bound - delay.half_width - slack &&
         delay.mean <= upper_bound + delay.half_width + slack;
}

RunResult run(const Scenario& scenario) {
  // A one-cell campaign: same compile -> replicate -> intervals -> bounds
  // pipeline, now scheduled by the shared engine (core/campaign.hpp).
  return Engine().run_one(scenario);
}

SweepSpec SweepSpec::parse(const std::string& text) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw ScenarioError("sweep must look like key=start:stop[:step], got '" +
                        text + "'");
  }
  SweepSpec spec;
  spec.key = text.substr(0, eq);
  const std::string range = text.substr(eq + 1);
  const auto colon1 = range.find(':');
  if (colon1 == std::string::npos) {
    throw ScenarioError("sweep range needs start:stop, got '" + range + "'");
  }
  spec.start = parse_double(spec.key, range.substr(0, colon1));
  const auto colon2 = range.find(':', colon1 + 1);
  if (colon2 == std::string::npos) {
    spec.stop = parse_double(spec.key, range.substr(colon1 + 1));
  } else {
    spec.stop = parse_double(spec.key, range.substr(colon1 + 1, colon2 - colon1 - 1));
    spec.step = parse_double(spec.key, range.substr(colon2 + 1));
  }
  // Non-finite endpoints would otherwise fail *silently*: a NaN start or
  // step makes every loop comparison false (an empty sweep), and an
  // infinite step never advances past stop (an endless one).
  if (!std::isfinite(spec.start) || !std::isfinite(spec.stop) ||
      !std::isfinite(spec.step)) {
    throw ScenarioError("sweep start/stop/step must be finite, got '" + text +
                        "'");
  }
  if (spec.step <= 0.0) throw ScenarioError("sweep step must be positive");
  if (spec.stop < spec.start) {
    throw ScenarioError("sweep stop must be >= start");
  }
  return spec;
}

std::vector<double> SweepSpec::values() const {
  // Same validation as parse(), for directly-constructed specs: a bad spec
  // must throw, never degenerate into an empty or endless sweep.
  if (!std::isfinite(start) || !std::isfinite(stop) || !std::isfinite(step)) {
    throw ScenarioError("sweep start/stop/step must be finite");
  }
  if (step <= 0.0) throw ScenarioError("sweep step must be positive");
  if (stop < start) throw ScenarioError("sweep stop must be >= start");
  // Generate by index (start + i*step), not accumulation, so later points
  // carry no summed rounding error; include stop within a half-step
  // tolerance and clamp any overshoot onto it.  Bound the count while it is
  // still a double: a tiny step over a wide range makes it inf or too large
  // for the integer cast, and a merely huge one would allocate that many
  // values.
  const double last_index = std::floor((stop - start) / step + 0.5);
  if (!(last_index < static_cast<double>(kMaxPoints))) {
    throw ScenarioError("sweep '" + key + "' has more than " +
                        std::to_string(kMaxPoints) +
                        " points (the per-axis cap); use a larger step");
  }
  const auto last = static_cast<long long>(last_index);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(last) + 1);
  for (long long i = 0; i <= last; ++i) {
    out.push_back(std::min(start + static_cast<double>(i) * step, stop));
  }
  return out;
}

const std::vector<std::string>& SweepSpec::known_keys() {
  static const std::vector<std::string> keys{
      "rho",  "lambda",  "p",    "tau",        "d",
      "fanout", "measure", "reps", "seed",
      "fault_rate", "node_fault_rate", "storm_rate"};
  return keys;
}

void apply_sweep_value(Scenario& scenario, const std::string& key, double value) {
  if (key == "d" || key == "fanout" || key == "reps" || key == "seed") {
    // Bound the double before rounding: std::llround of a value outside
    // long long's range is unspecified (x86 gives INT64_MIN).  Seeds are
    // unsigned 64-bit, so they get that range instead.
    const bool seed = key == "seed";
    const bool in_range = seed ? value > -0.5 && value < 0x1p64
                               : value > -0x1p63 && value < 0x1p63;
    if (!in_range) {
      throw ScenarioError("bad value '" + fmt_shortest(value) + "' for key '" + key +
                          "': outside the integer range");
    }
    scenario.set(key, seed ? std::to_string(static_cast<std::uint64_t>(std::round(value)))
                           : std::to_string(std::llround(value)));
  } else {
    scenario.set(key, fmt_shortest(value));
  }
}

}  // namespace routesim
