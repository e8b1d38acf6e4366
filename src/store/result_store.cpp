#include "store/result_store.hpp"

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/number_codec.hpp"

namespace routesim {

namespace {

/// Exact-round-trip number emission: fmt_shortest form for finite values
/// (parse_decimal reads it back bit-identically), string literals for the
/// values JSON cannot spell.
void append_exact_number(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "\"nan\"";
  } else if (std::isinf(value)) {
    out += value > 0 ? "\"inf\"" : "\"-inf\"";
  } else {
    append_shortest(out, value);
  }
}

void append_exact_interval(std::string& out, const char* name,
                           const ConfidenceInterval& interval) {
  out += '"';
  out += name;
  out += "_mean\":";
  append_exact_number(out, interval.mean);
  out += ",\"";
  out += name;
  out += "_half_width\":";
  append_exact_number(out, interval.half_width);
}

/// One store record line (no newline) into `out`.
void append_store_record(std::string& out, const std::string& key,
                         std::string_view scenario_text, const RunResult& result) {
  out += "{\"v\":";
  append_integer(out, kResultStoreVersion);
  out += ",\"key\":\"";
  append_json_escaped(out, key);
  out += "\",\"scenario\":\"";
  append_json_escaped(out, scenario_text);
  out += "\",\"result\":";
  append_result_json(out, result);
  out += '}';
}

/// Reads one double back: a JSON number, one of the non-finite string
/// spellings, or null (the campaign sink's lossy non-finite form).
bool read_double(const json::Value* value, double* out) {
  if (value == nullptr) return false;
  if (value->is_number()) {
    *out = value->number;
    return true;
  }
  if (value->is_null()) {
    *out = std::nan("");
    return true;
  }
  if (value->is_string()) {
    if (value->string == "nan") {
      *out = std::nan("");
      return true;
    }
    if (value->string == "inf") {
      *out = std::numeric_limits<double>::infinity();
      return true;
    }
    if (value->string == "-inf") {
      *out = -std::numeric_limits<double>::infinity();
      return true;
    }
  }
  return false;
}

bool read_interval(const json::Value& object, const std::string& name,
                   ConfidenceInterval* out) {
  return read_double(object.find(name + "_mean"), &out->mean) &&
         read_double(object.find(name + "_half_width"), &out->half_width);
}

/// "scheme key=value ..." -> Scenario; false on malformed text.
bool scenario_from_text(std::string_view text, Scenario* out) {
  try {
    *out = Scenario::parse_text(text);
  } catch (const ScenarioError&) {
    return false;
  }
  return true;
}

/// A cursor over one line that accepts only the bytes append_store_record()
/// writes.  Every read returns false on any other byte.
class RecordReader {
 public:
  explicit RecordReader(std::string_view line) : line_(line) {}

  [[nodiscard]] bool at_end() const { return pos_ == line_.size(); }

  bool literal(std::string_view text) {
    if (line_.compare(pos_, text.size(), text) != 0) return false;
    pos_ += text.size();
    return true;
  }

  /// The rest of a string whose opening quote was already read.  A string
  /// with no backslash or control byte is its own bytes, so the view points
  /// into the line.
  bool string_tail(std::string_view* out) {
    const std::size_t end = line_.find('"', pos_);
    if (end == std::string_view::npos) return false;
    // Branch-free over the span, so the compiler can vectorise the check.
    bool plain = true;
    for (std::size_t i = pos_; i < end; ++i) {
      const auto c = static_cast<unsigned char>(line_[i]);
      plain &= (c >= 0x20) & (c != '\\');
    }
    if (!plain) return false;
    *out = line_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return true;
  }

  /// One append_exact_number() emission.
  bool number(double* out) {
    if (pos_ < line_.size() && line_[pos_] == '"') {
      if (literal("\"nan\"")) {
        *out = std::nan("");
      } else if (literal("\"inf\"")) {
        *out = std::numeric_limits<double>::infinity();
      } else if (literal("\"-inf\"")) {
        *out = -std::numeric_limits<double>::infinity();
      } else {
        return false;
      }
      return true;
    }
    const std::size_t start = pos_;
    if (json::scan_number(line_, &pos_) != nullptr) return false;
    *out = parse_decimal(line_.substr(start, pos_ - start));
    return true;
  }

  /// `"name":` followed by a number.
  bool member(std::string_view name_and_colon, double* out) {
    return literal(name_and_colon) && number(out);
  }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
};

/// append_result_json()'s object, member for member.
bool read_result(RecordReader& in, RunResult* out) {
  RunResult result;
  if (!in.member("{\"rho\":", &result.rho) ||
      !in.member(",\"delay_mean\":", &result.delay.mean) ||
      !in.member(",\"delay_half_width\":", &result.delay.half_width) ||
      !in.member(",\"population_mean\":", &result.population.mean) ||
      !in.member(",\"population_half_width\":", &result.population.half_width) ||
      !in.member(",\"throughput_mean\":", &result.throughput.mean) ||
      !in.member(",\"throughput_half_width\":", &result.throughput.half_width) ||
      !in.member(",\"mean_hops\":", &result.mean_hops) ||
      !in.member(",\"max_little_error\":", &result.max_little_error) ||
      !in.member(",\"mean_final_backlog\":", &result.mean_final_backlog)) {
    return false;
  }
  if (in.literal(",\"has_bounds\":true")) {
    result.has_bounds = true;
  } else if (!in.literal(",\"has_bounds\":false")) {
    return false;
  }
  if (!in.member(",\"lower_bound\":", &result.lower_bound) ||
      !in.member(",\"upper_bound\":", &result.upper_bound) ||
      !in.literal(",\"extras\":{")) {
    return false;
  }
  if (!in.literal("}")) {
    do {
      std::string_view name;
      ConfidenceInterval interval;
      if (!in.literal("\"") || !in.string_tail(&name) ||
          !in.member(":{\"mean\":", &interval.mean) ||
          !in.member(",\"half_width\":", &interval.half_width) ||
          !in.literal("}")) {
        return false;
      }
      result.extras.emplace_back(name, interval);
    } while (in.literal(","));
    if (!in.literal("}")) return false;
  }
  if (!in.literal("}")) return false;
  *out = std::move(result);
  return true;
}

}  // namespace

void append_result_json(std::string& out, const RunResult& result) {
  out += "{\"rho\":";
  append_exact_number(out, result.rho);
  out += ',';
  append_exact_interval(out, "delay", result.delay);
  out += ',';
  append_exact_interval(out, "population", result.population);
  out += ',';
  append_exact_interval(out, "throughput", result.throughput);
  out += ",\"mean_hops\":";
  append_exact_number(out, result.mean_hops);
  out += ",\"max_little_error\":";
  append_exact_number(out, result.max_little_error);
  out += ",\"mean_final_backlog\":";
  append_exact_number(out, result.mean_final_backlog);
  out += result.has_bounds ? ",\"has_bounds\":true" : ",\"has_bounds\":false";
  out += ",\"lower_bound\":";
  append_exact_number(out, result.lower_bound);
  out += ",\"upper_bound\":";
  append_exact_number(out, result.upper_bound);
  out += ",\"extras\":{";
  for (std::size_t i = 0; i < result.extras.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    append_json_escaped(out, result.extras[i].first);
    out += "\":{\"mean\":";
    append_exact_number(out, result.extras[i].second.mean);
    out += ",\"half_width\":";
    append_exact_number(out, result.extras[i].second.half_width);
    out += '}';
  }
  out += "}}";
}

std::string result_to_json(const RunResult& result) {
  std::string out;
  out.reserve(512);
  append_result_json(out, result);
  return out;
}

bool result_from_json(const json::Value& value, RunResult* out) {
  if (!value.is_object()) return false;
  RunResult result;
  if (!read_interval(value, "delay", &result.delay) ||
      !read_interval(value, "population", &result.population) ||
      !read_interval(value, "throughput", &result.throughput)) {
    return false;
  }
  if (!read_double(value.find("rho"), &result.rho) ||
      !read_double(value.find("mean_hops"), &result.mean_hops) ||
      !read_double(value.find("max_little_error"), &result.max_little_error) ||
      !read_double(value.find("mean_final_backlog"),
                   &result.mean_final_backlog)) {
    return false;
  }
  if (const json::Value* bounds = value.find("has_bounds");
      bounds != nullptr && bounds->is_bool()) {
    result.has_bounds = bounds->boolean;
  }
  if (result.has_bounds) {
    if (!read_double(value.find("lower_bound"), &result.lower_bound) ||
        !read_double(value.find("upper_bound"), &result.upper_bound)) {
      return false;
    }
  } else {
    // Store records always carry the fields; sink lines omit them when
    // has_bounds is false.  Absent reads back as the default 0.
    read_double(value.find("lower_bound"), &result.lower_bound);
    read_double(value.find("upper_bound"), &result.upper_bound);
  }
  if (const json::Value* extras = value.find("extras"); extras != nullptr) {
    if (!extras->is_object()) return false;
    for (const auto& [name, entry] : extras->object) {
      ConfidenceInterval interval;
      if (!read_double(entry.find("mean"), &interval.mean) ||
          !read_double(entry.find("half_width"), &interval.half_width)) {
        return false;
      }
      result.extras.emplace_back(name, interval);
    }
  }
  *out = std::move(result);
  return true;
}

bool read_store_record(std::string_view line, StoreRecordView* out) {
  RecordReader in(line);
  double version = 0.0;
  if (!in.member("{\"v\":", &version) || version != kResultStoreVersion ||
      !in.literal(",\"key\":\"") || !in.string_tail(&out->key) ||
      out->key.empty() || !in.literal(",\"scenario\":\"") ||
      !in.string_tail(&out->scenario) || !in.literal(",\"result\":") ||
      !read_result(in, &out->result) || !in.literal("}")) {
    return false;
  }
  return in.at_end();
}

std::string store_record_json(const std::string& key, const Scenario& scenario,
                              const RunResult& result) {
  std::string out;
  out.reserve(2 * key.size() + 512);
  append_store_record(out, key, scenario.to_string(), result);
  return out;
}

// ------------------------------------------------------------------- store

ResultStore::ResultStore(std::string path) : path_(std::move(path)) {
  load_existing();
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    error_ = "cannot open result store '" + path_ + "' for append";
    return;
  }
  if (tail_unterminated_) {
    // The file ends mid-line (a kill between write and newline).  Start
    // appends on a fresh line — otherwise the next record would merge
    // into the damaged fragment and take it down with itself on reload.
    std::fputc('\n', file_);
    std::fflush(file_);
    ::fsync(fileno(file_));
  }
}

ResultStore::~ResultStore() {
  if (file_ != nullptr) std::fclose(file_);
}

bool ResultStore::upsert(std::string_view key, std::string_view scenario_text,
                         RunResult&& result) {
  const auto [it, inserted] = index_.try_emplace(std::string(key));
  Entry& entry = it->second;
  entry.scenario_is_key = scenario_text == key;
  entry.scenario_text.assign(entry.scenario_is_key ? std::string_view() : scenario_text);
  entry.result = std::move(result);
  if (inserted) order_.push_back(&*it);
  return inserted;
}

void ResultStore::load_record(std::string_view key, std::string_view scenario_text,
                              RunResult&& result) {
  if (!upsert(key, scenario_text, std::move(result))) {
    ++stats_.duplicate_keys;  // append-only history: last record wins
  }
  ++stats_.records_loaded;
}

bool ResultStore::apply_record(const json::Value& record) {
  if (!record.is_object()) return false;
  const json::Value* version = record.find("v");
  const json::Value* key = record.find("key");
  const json::Value* result_value = record.find("result");
  if (version == nullptr || !version->is_number() || key == nullptr ||
      !key->is_string() || key->string.empty() || result_value == nullptr) {
    return false;
  }
  // Compared as doubles: casting an arbitrary JSON number ("v":1e300) to
  // int is undefined behaviour.
  if (version->number != kResultStoreVersion) {
    ++stats_.skipped_version;
    return true;  // a well-formed record we must not interpret — not garbage
  }
  RunResult result;
  if (!result_from_json(*result_value, &result)) return false;
  const json::Value* scenario = record.find("scenario");
  load_record(key->string,
              scenario != nullptr && scenario->is_string() ? scenario->string
                                                           : std::string_view(),
              std::move(result));
  return true;
}

void ResultStore::load_existing() {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // no file yet: an empty store
  // Line by line: memory stays at the index plus one line, never a second
  // copy of the whole file.
  StoreRecordView direct;
  for (std::string line; std::getline(in, line);) {
    // getline stops at the file's end without a '\n' only on the last line.
    const bool has_newline = !in.eof();
    if (!has_newline) tail_unterminated_ = true;

    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    // The writer's own lines take the direct reader; any other spelling
    // goes through the general JSON path, which also classifies garbage
    // and version skips.
    if (read_store_record(line, &direct)) {
      load_record(direct.key, direct.scenario, std::move(direct.result));
      continue;
    }
    json::Value record;
    const bool parsed = json::parse(line, &record) && apply_record(record);
    if (!parsed) {
      // A cut final record (kill mid-append, no newline written) is the
      // expected crash shape; anything else is interleaved garbage.
      if (!has_newline) {
        stats_.truncated_tail = true;
      } else {
        ++stats_.skipped_garbage;
      }
    }
  }
}

ResultStore::LoadStats ResultStore::load_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

namespace {

/// Process-wide store telemetry (obs/metrics.hpp), resolved once.
struct StoreMetrics {
  obs::Counter& fetch_hits;
  obs::Counter& fetch_misses;
  obs::Counter& persists;

  static StoreMetrics& get() {
    auto& registry = obs::global_metrics();
    static StoreMetrics metrics{
        registry.counter("routesim_store_fetch_hits_total"),
        registry.counter("routesim_store_fetch_misses_total"),
        registry.counter("routesim_store_persist_total")};
    return metrics;
  }
};

}  // namespace

bool ResultStore::fetch(const std::string& key, RunResult* out) {
  RS_EXPECTS(out != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    StoreMetrics::get().fetch_misses.add();
    return false;
  }
  ++hits_;
  StoreMetrics::get().fetch_hits.add();
  *out = it->second.result;
  return true;
}

void ResultStore::persist(const std::string& key, const Scenario& scenario,
                          const RunResult& result) {
  StoreMetrics::get().persists.add();
  const std::string scenario_text = scenario.to_string();
  std::string line;
  line.reserve(key.size() + scenario_text.size() + 512);
  append_store_record(line, key, scenario_text, result);
  line += '\n';
  std::lock_guard<std::mutex> lock(mutex_);
  upsert(key, scenario_text, RunResult(result));
  if (file_ == nullptr) return;  // unopenable store: in-memory tier only
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  // Flush-per-record durability: after this returns, the record survives
  // a kill; a kill *during* it leaves at worst a truncated tail the
  // loader drops.
  ::fsync(fileno(file_));
}

void ResultStore::put(const Scenario& scenario, const RunResult& result) {
  const Scenario resolved = scenario.resolved();
  persist(ResultCache::key(resolved), resolved, result);
}

bool ResultStore::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.find(key) != index_.end();
}

std::size_t ResultStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

std::vector<std::string> ResultStore::keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(order_.size());
  for (const Index::value_type* node : order_) keys.push_back(node->first);
  return keys;
}

std::uint64_t ResultStore::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t ResultStore::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

bool ResultStore::compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string content;
  for (const auto* node : order_) {
    const auto& [key, entry] = *node;
    append_store_record(content, key,
                        entry.scenario_is_key ? key : entry.scenario_text,
                        entry.result);
    content += '\n';
  }
  if (!write_file_atomic(path_, content)) return false;
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    error_ = "cannot reopen result store '" + path_ + "' after compaction";
    return false;
  }
  stats_.duplicate_keys = 0;
  stats_.skipped_garbage = 0;
  stats_.skipped_version = 0;
  stats_.truncated_tail = false;
  return true;
}

// ------------------------------------------------------------------ replay

std::size_t replay_results(
    const std::string& path,
    const std::function<void(const std::string& key, const Scenario& scenario,
                             const RunResult& result)>& consume) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::size_t consumed = 0;
  StoreRecordView direct;
  for (std::string line; std::getline(in, line);) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (read_store_record(line, &direct)) {
      Scenario scenario;
      if (scenario_from_text(direct.scenario, &scenario)) {
        consume(std::string(direct.key), scenario, direct.result);
        ++consumed;
      }
      continue;
    }
    json::Value record;
    if (!json::parse(line, &record) || !record.is_object()) continue;

    // Store record: {"v":..,"key":..,"scenario":..,"result":{...}}.
    if (const json::Value* result_value = record.find("result");
        result_value != nullptr) {
      const json::Value* version = record.find("v");
      const json::Value* key = record.find("key");
      const json::Value* scenario_text = record.find("scenario");
      if (version == nullptr || !version->is_number() ||
          version->number != kResultStoreVersion ||
          key == nullptr || !key->is_string() || scenario_text == nullptr ||
          !scenario_text->is_string()) {
        continue;
      }
      RunResult result;
      Scenario scenario;
      if (!result_from_json(*result_value, &result) ||
          !scenario_from_text(scenario_text->string, &scenario)) {
        continue;
      }
      consume(key->string, scenario, result);
      ++consumed;
      continue;
    }

    // Campaign sink line: the same metric fields at top level plus the
    // resolved scenario one-liner; the key is re-derived from it.
    const json::Value* scenario_text = record.find("scenario");
    if (scenario_text == nullptr || !scenario_text->is_string()) continue;
    Scenario scenario;
    RunResult result;
    if (!scenario_from_text(scenario_text->string, &scenario) ||
        !result_from_json(record, &result)) {
      continue;
    }
    const Scenario resolved = scenario.resolved();
    consume(ResultCache::key(resolved), resolved, result);
    ++consumed;
  }
  return consumed;
}

}  // namespace routesim
