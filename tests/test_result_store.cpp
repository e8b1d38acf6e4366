// Persistent result store tests: exact round-trip serialisation (finite
// and non-finite doubles), restart survival, the crash-consistency
// contract (truncated tail, interleaved garbage, duplicate keys,
// version mismatch), compaction, replay_results over both on-disk
// formats (store records and campaign --jsonl sink lines), and a seeded
// mutation fuzz of the direct record reader against the general JSON path.

#include "store/result_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "util/json.hpp"

namespace routesim {
namespace {

/// A fresh path under the test temp dir (removed up-front so reruns in a
/// persistent temp dir start clean).
std::string temp_store(const std::string& name) {
  const std::string path = ::testing::TempDir() + "result_store_" + name;
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

/// A synthetic result exercising every field, including values JSON
/// cannot spell (NaN/Inf) and a fraction with no finite decimal form.
RunResult sample_result() {
  RunResult result;
  result.rho = 0.6;
  result.delay = {1.0 / 3.0, 0.015625};
  result.population = {12.75, std::nan("")};
  result.throughput = {std::numeric_limits<double>::infinity(), 0.0};
  result.mean_hops = 2.0000000000000004;  // off-by-one-ulp survives
  result.max_little_error = 1e-9;
  result.mean_final_backlog = -std::numeric_limits<double>::infinity();
  result.has_bounds = true;
  result.lower_bound = 3.0625;
  result.upper_bound = 3.75;
  result.extras.emplace_back("delivery_ratio", ConfidenceInterval{1.0, 0.0});
  result.extras.emplace_back("delay_p99", ConfidenceInterval{6.851, 0.25});
  return result;
}

Scenario sample_scenario(std::uint64_t seed = 7) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 4;
  scenario.set("rho", "0.5");
  scenario.measure = 100.0;
  scenario.plan = {2, seed, 0};
  return scenario.resolved();
}

TEST(ResultJson, RoundTripsBitIdentically) {
  const RunResult original = sample_result();
  const std::string text = result_to_json(original);

  json::Value value;
  ASSERT_TRUE(json::parse(text, &value));
  RunResult restored;
  ASSERT_TRUE(result_from_json(value, &restored));

  // Bit-identity is byte-identity of the canonical serialisation —
  // including the NaN/Inf spellings a plain double compare cannot check.
  EXPECT_EQ(result_to_json(restored), text);
  EXPECT_TRUE(std::isnan(restored.population.half_width));
  EXPECT_TRUE(std::isinf(restored.throughput.mean));
  EXPECT_EQ(restored.mean_hops, original.mean_hops);
  ASSERT_EQ(restored.extras.size(), 2u);
  EXPECT_EQ(restored.extras[1].first, "delay_p99");
}

TEST(ResultJson, AcceptsSinkStyleNullAsNaN) {
  json::Value value;
  ASSERT_TRUE(json::parse(
      R"({"rho":0.5,"delay_mean":null,"delay_half_width":0.1,)"
      R"("population_mean":1,"population_half_width":0,)"
      R"("throughput_mean":2,"throughput_half_width":0,)"
      R"("mean_hops":2,"max_little_error":0,"mean_final_backlog":0,)"
      R"("has_bounds":false})",
      &value));
  RunResult restored;
  ASSERT_TRUE(result_from_json(value, &restored));
  EXPECT_TRUE(std::isnan(restored.delay.mean));
  EXPECT_FALSE(restored.has_bounds);
}

TEST(ResultJson, RejectsMissingCoreMetrics) {
  json::Value value;
  ASSERT_TRUE(json::parse(R"({"rho":0.5,"delay_mean":1})", &value));
  RunResult restored;
  EXPECT_FALSE(result_from_json(value, &restored));
}

TEST(ResultStore, SurvivesRestartBitIdentically) {
  const std::string path = temp_store("restart.jsonl");
  const RunResult result = sample_result();
  const Scenario scenario = sample_scenario();
  const std::string key = ResultCache::key(scenario);

  {
    ResultStore store(path);
    ASSERT_TRUE(store.ok()) << store.error();
    EXPECT_EQ(store.size(), 0u);
    store.put(scenario, result);
    store.put(sample_scenario(8), result);
    EXPECT_EQ(store.size(), 2u);
  }  // closed: everything must already be on disk

  ResultStore reopened(path);
  ASSERT_TRUE(reopened.ok()) << reopened.error();
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.load_stats().records_loaded, 2u);
  EXPECT_EQ(reopened.load_stats().duplicate_keys, 0u);

  RunResult fetched;
  ASSERT_TRUE(reopened.fetch(key, &fetched));
  EXPECT_EQ(result_to_json(fetched), result_to_json(result));
  EXPECT_EQ(reopened.hits(), 1u);
  EXPECT_FALSE(reopened.fetch("no such key", &fetched));
  EXPECT_EQ(reopened.misses(), 1u);

  // First-seen key order is the file order.
  const std::vector<std::string> keys = reopened.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], key);
}

TEST(ResultStore, DropsTruncatedFinalRecord) {
  const std::string path = temp_store("truncated.jsonl");
  {
    ResultStore store(path);
    store.put(sample_scenario(1), sample_result());
    store.put(sample_scenario(2), sample_result());
  }
  // Kill mid-append: the last record is cut before its newline.
  std::string content = read_file(path);
  ASSERT_GT(content.size(), 40u);
  content.resize(content.size() - 40);
  write_file(path, content);

  ResultStore store(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.load_stats().truncated_tail);
  EXPECT_EQ(store.load_stats().skipped_garbage, 0u);

  // The store stays writable after the repair: opening terminated the
  // damaged fragment, so the next append starts on a fresh line instead
  // of merging into it.  A reload sees both surviving records, with the
  // fragment reclassified as one (terminated) garbage line.
  store.put(sample_scenario(3), sample_result());
  ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_FALSE(reloaded.load_stats().truncated_tail);
  EXPECT_EQ(reloaded.load_stats().skipped_garbage, 1u);
}

TEST(ResultStore, SkipsInterleavedGarbageLines) {
  const std::string path = temp_store("garbage.jsonl");
  const std::string record =
      store_record_json(ResultCache::key(sample_scenario()), sample_scenario(),
                        sample_result());
  write_file(path, record + "\nthis is not json\n{\"also\":\"not a record\"}\n" +
                       store_record_json("other key", sample_scenario(9),
                                         sample_result()) +
                       "\n");
  ResultStore store(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.load_stats().skipped_garbage, 2u);
  EXPECT_FALSE(store.load_stats().truncated_tail);
}

TEST(ResultStore, DuplicateKeysResolveLastWins) {
  const std::string path = temp_store("dup.jsonl");
  const Scenario scenario = sample_scenario();
  const std::string key = ResultCache::key(scenario);
  RunResult first = sample_result();
  RunResult second = sample_result();
  second.delay.mean = 99.5;

  {
    ResultStore store(path);
    store.persist(key, scenario, first);
    store.persist(key, scenario, second);
    EXPECT_EQ(store.size(), 1u);
  }
  ResultStore store(path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.load_stats().duplicate_keys, 1u);
  RunResult fetched;
  ASSERT_TRUE(store.fetch(key, &fetched));
  EXPECT_DOUBLE_EQ(fetched.delay.mean, 99.5);
}

TEST(ResultStore, SkipsVersionMismatchedRecords) {
  const std::string path = temp_store("version.jsonl");
  std::string future = store_record_json("future key", sample_scenario(),
                                         sample_result());
  // {"v":1,... -> {"v":999,...
  future.replace(future.find("\"v\":1") + 4, 1, "999");
  write_file(path, future + "\n" +
                       store_record_json("current key", sample_scenario(),
                                         sample_result()) +
                       "\n");
  ResultStore store(path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.load_stats().skipped_version, 1u);
  // A version mismatch is a well-formed record we must not interpret —
  // not garbage.
  EXPECT_EQ(store.load_stats().skipped_garbage, 0u);
  EXPECT_TRUE(store.contains("current key"));
  EXPECT_FALSE(store.contains("future key"));
}

TEST(ResultStore, HostileVersionNumbersAreSkippedNotCast) {
  // Versions outside int's range (or not integral) once reached a
  // double-to-int cast, which is undefined behaviour; they are simply not
  // the current version.
  for (const std::string version :
       {"1e300", "-1e300", "2147483648", "4294967297", "1.5", "-0.5"}) {
    const std::string path = temp_store("hostile_version.jsonl");
    std::string hostile = store_record_json("hostile key", sample_scenario(),
                                            sample_result());
    hostile.replace(hostile.find("\"v\":1") + 4, 1, version);
    write_file(path, hostile + "\n" +
                         store_record_json("current key", sample_scenario(),
                                           sample_result()) +
                         "\n");
    {
      ResultStore store(path);
      EXPECT_EQ(store.size(), 1u) << version;
      EXPECT_EQ(store.load_stats().skipped_version, 1u) << version;
      EXPECT_EQ(store.load_stats().skipped_garbage, 0u) << version;
      EXPECT_FALSE(store.contains("hostile key")) << version;
    }
    std::vector<std::string> replayed;
    EXPECT_EQ(replay_results(path,
                             [&](const std::string& key, const Scenario&,
                                 const RunResult&) { replayed.push_back(key); }),
              1u)
        << version;
    EXPECT_EQ(replayed, std::vector<std::string>{"current key"}) << version;
  }
  // The current version spelled as a non-integer literal is still current.
  const std::string path = temp_store("version_spelling.jsonl");
  std::string spelled = store_record_json("key", sample_scenario(), sample_result());
  spelled.replace(spelled.find("\"v\":1") + 4, 1, "1.0e0");
  write_file(path, spelled + "\n");
  ResultStore store(path);
  EXPECT_TRUE(store.contains("key"));
}

TEST(ResultStore, CompactFoldsHistoryToOneRecordPerKey) {
  const std::string path = temp_store("compact.jsonl");
  ResultStore store(path);
  RunResult result = sample_result();
  for (int round = 0; round < 3; ++round) {
    result.delay.mean = static_cast<double>(round);
    store.persist("key a", sample_scenario(1), result);
    store.persist("key b", sample_scenario(2), result);
  }
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.compact());

  // Exactly one line per key on disk, current values, still appendable.
  const std::string content = read_file(path);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 2);
  store.persist("key c", sample_scenario(3), result);

  ResultStore reloaded(path);
  EXPECT_EQ(reloaded.size(), 3u);
  EXPECT_EQ(reloaded.load_stats().duplicate_keys, 0u);
  RunResult fetched;
  ASSERT_TRUE(reloaded.fetch("key a", &fetched));
  EXPECT_DOUBLE_EQ(fetched.delay.mean, 2.0);  // last write won, then survived
}

TEST(ResultStore, UnopenablePathDegradesToInMemoryTier) {
  ResultStore store("/no/such/directory/store.jsonl");
  EXPECT_FALSE(store.ok());
  EXPECT_FALSE(store.error().empty());
  // Still a working in-memory map: persist/fetch function, nothing durable.
  store.persist("key", sample_scenario(), sample_result());
  RunResult fetched;
  EXPECT_TRUE(store.fetch("key", &fetched));
}

// ------------------------------------------------------------------ replay

TEST(ReplayResults, ReadsStoreRecordsInFileOrder) {
  const std::string path = temp_store("replay_store.jsonl");
  {
    ResultStore store(path);
    store.put(sample_scenario(1), sample_result());
    store.put(sample_scenario(2), sample_result());
  }
  std::vector<std::string> keys;
  const std::size_t consumed = replay_results(
      path, [&](const std::string& key, const Scenario& scenario,
                const RunResult& result) {
        keys.push_back(key);
        EXPECT_EQ(ResultCache::key(scenario), key);
        EXPECT_EQ(result_to_json(result), result_to_json(sample_result()));
      });
  EXPECT_EQ(consumed, 2u);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], ResultCache::key(sample_scenario(1)));
  EXPECT_EQ(keys[1], ResultCache::key(sample_scenario(2)));
}

TEST(ReplayResults, ReadsCampaignSinkLinesAndRederivesKeys) {
  const std::string path = temp_store("replay_sink.jsonl");
  CellResult cell;
  cell.index = 0;
  cell.label = "cell a";
  cell.scenario = sample_scenario(5);
  cell.result = sample_result();
  cell.result.population.half_width = 0.5;  // finite: sink JSON is lossless
  cell.result.throughput.mean = 2.25;
  cell.result.mean_final_backlog = 0.0;
  write_file(path, JsonlSink::to_json("replay", cell) + "\nnot json\n");

  std::size_t consumed = 0;
  replay_results(path, [&](const std::string& key, const Scenario&,
                           const RunResult& result) {
    EXPECT_EQ(key, ResultCache::key(cell.scenario));
    EXPECT_EQ(result_to_json(result), result_to_json(cell.result));
    ++consumed;
  });
  EXPECT_EQ(consumed, 1u);
}

TEST(ReplayResults, MissingFileConsumesNothing) {
  std::size_t consumed = 0;
  EXPECT_EQ(replay_results(temp_store("never_written.jsonl"),
                           [&](const std::string&, const Scenario&,
                               const RunResult&) { ++consumed; }),
            0u);
  EXPECT_EQ(consumed, 0u);
}

// ------------------------------------------------- direct record reader

TEST(StoreRecordReader, ReadsTheWritersLineWithoutTheDom) {
  const Scenario scenario = sample_scenario();
  const std::string key = ResultCache::key(scenario);
  const std::string line = store_record_json(key, scenario, sample_result());
  StoreRecordView view;
  ASSERT_TRUE(read_store_record(line, &view));
  EXPECT_EQ(view.key, key);
  EXPECT_EQ(view.scenario, scenario.to_string());
  EXPECT_EQ(result_to_json(view.result), result_to_json(sample_result()));

  // Other spellings of the same record are left to the general path.
  std::string spaced = line;
  spaced.insert(1, " ");
  EXPECT_FALSE(read_store_record(spaced, &view));
  EXPECT_FALSE(read_store_record(store_record_json("", scenario, sample_result()), &view));
  EXPECT_FALSE(read_store_record(
      store_record_json("a \"quoted\" key", scenario, sample_result()), &view));
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

/// Every double of `a` and `b` bit for bit, extras in order.
void expect_same_result(const RunResult& a, const RunResult& b, const std::string& where) {
  const auto fields = [](const RunResult& r) {
    return std::vector<double>{r.rho,
                               r.delay.mean,
                               r.delay.half_width,
                               r.population.mean,
                               r.population.half_width,
                               r.throughput.mean,
                               r.throughput.half_width,
                               r.mean_hops,
                               r.max_little_error,
                               r.mean_final_backlog,
                               r.lower_bound,
                               r.upper_bound};
  };
  const std::vector<double> fa = fields(a);
  const std::vector<double> fb = fields(b);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(bits(fa[i]), bits(fb[i])) << "field " << i << " of " << where;
  }
  EXPECT_EQ(a.has_bounds, b.has_bounds) << where;
  ASSERT_EQ(a.extras.size(), b.extras.size()) << where;
  for (std::size_t i = 0; i < a.extras.size(); ++i) {
    EXPECT_EQ(a.extras[i].first, b.extras[i].first) << where;
    EXPECT_EQ(bits(a.extras[i].second.mean), bits(b.extras[i].second.mean)) << where;
    EXPECT_EQ(bits(a.extras[i].second.half_width),
              bits(b.extras[i].second.half_width))
        << where;
  }
}

/// The doubles the writer has to spell: NaN, +-inf, +-0, subnormals, any
/// finite bit pattern and plain decimals.
double fuzz_double(std::mt19937_64& rng) {
  switch (rng() % 9) {
    case 0: return std::nan("");
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return 0.0;
    case 4: return -0.0;
    case 5:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng() % 100000 + 1) * (rng() % 2 == 0 ? 1.0 : -1.0);
    case 6: {
      double value = 0.0;
      do {
        const std::uint64_t pattern = rng();
        std::memcpy(&value, &pattern, sizeof value);
      } while (!std::isfinite(value));
      return value;
    }
    case 7: return static_cast<double>(static_cast<std::int64_t>(rng() % 2001) - 1000) / 8.0;
    default: return std::uniform_real_distribution<double>(0.0, 100.0)(rng);
  }
}

/// Text that sometimes needs escapes (quote, backslash, control bytes)
/// and sometimes holds bytes that do not ('/', DEL, UTF-8).
std::string fuzz_text(std::mt19937_64& rng, const std::string& base) {
  static const std::vector<std::string> specials = {
      "\"", "\\", "\n", "\t", std::string(1, '\x01'), "\x1f", "/", "\x7f", "\xc3\xa9", ","};
  std::string text = base;
  if (rng() % 3 == 0) {
    text.insert(rng() % (text.size() + 1), specials[rng() % specials.size()]);
  }
  return text;
}

RunResult fuzz_result(std::mt19937_64& rng) {
  RunResult result;
  result.rho = fuzz_double(rng);
  result.delay = {fuzz_double(rng), fuzz_double(rng)};
  result.population = {fuzz_double(rng), fuzz_double(rng)};
  result.throughput = {fuzz_double(rng), fuzz_double(rng)};
  result.mean_hops = fuzz_double(rng);
  result.max_little_error = fuzz_double(rng);
  result.mean_final_backlog = fuzz_double(rng);
  result.has_bounds = rng() % 2 == 0;
  result.lower_bound = fuzz_double(rng);
  result.upper_bound = fuzz_double(rng);
  const std::size_t extras = rng() % 9;
  for (std::size_t i = 0; i < extras; ++i) {
    result.extras.emplace_back(fuzz_text(rng, "extra_" + std::to_string(rng() % 4)),
                               ConfidenceInterval{fuzz_double(rng), fuzz_double(rng)});
  }
  return result;
}

/// The writer's record line, spelled out here so a test can give it any
/// key and scenario text (store_record_json() takes a Scenario).
std::string writer_line(const std::string& key, const std::string& scenario,
                        const RunResult& result) {
  return "{\"v\":1,\"key\":\"" + json_escape(key) + "\",\"scenario\":\"" +
         json_escape(scenario) + "\",\"result\":" + result_to_json(result) + '}';
}

TEST(StoreRecordReader, WriterLineMatchesTheStoresWriter) {
  const Scenario scenario = sample_scenario();
  const std::string key = ResultCache::key(scenario);
  EXPECT_EQ(writer_line(key, scenario.to_string(), sample_result()),
            store_record_json(key, scenario, sample_result()));
}

constexpr int kRecordVariants = 12;  ///< fuzz_record variants 8.. are the writer's line

/// A store record line in the writer's member order, or in another order
/// or with duplicated members, all of which the general path reads.
std::string fuzz_record(int variant, const std::string& key, const std::string& scenario,
                        const RunResult& result) {
  const std::string k = "\"key\":\"" + json_escape(key) + '"';
  const std::string s = "\"scenario\":\"" + json_escape(scenario) + '"';
  std::string r = result_to_json(result);
  switch (variant) {
    case 0: return "{" + k + ",\"v\":1," + s + ",\"result\":" + r + '}';
    case 1: return "{\"v\":1," + s + ',' + k + ",\"result\":" + r + '}';
    case 2: return "{\"result\":" + r + ",\"v\":1," + k + ',' + s + '}';
    case 3: {  // "rho" moved to the end of the result object
      const std::size_t comma = r.find(',');
      r = '{' + r.substr(comma + 1, r.size() - comma - 2) + ',' + r.substr(1, comma - 1) + '}';
      return "{\"v\":1," + k + ',' + s + ",\"result\":" + r + '}';
    }
    case 4: return "{\"v\":1,\"v\":1," + k + ',' + s + ",\"result\":" + r + '}';
    case 5: return "{\"v\":1,\"key\":\"shadowed\"," + k + ',' + s + ",\"result\":" + r + '}';
    case 6: return "{\"v\":1," + k + ',' + s + ",\"result\":{\"rho\":7," + r.substr(1) + '}';
    case 7: return "{\"v\":1," + k + ',' + s + ",\"result\":" + r + ",\"result\":" + r + '}';
    default: return writer_line(key, scenario, result);
  }
}

/// Seeded byte-level damage: a flipped byte, a truncation, inserted
/// whitespace, a byte appended after the record, or another version.
std::string fuzz_mutate(std::mt19937_64& rng, std::string line) {
  if (line.empty()) return line;
  const std::size_t at = rng() % line.size();
  switch (rng() % 5) {
    case 0:
      line[at] = static_cast<char>(rng() % 2 == 0 ? line[at] ^ (1 << (rng() % 8))
                                                   : static_cast<char>(rng() % 256));
      break;
    case 1: line.resize(at); break;
    case 2: line.insert(at, 1, " \t\r"[rng() % 3]); break;
    case 3: line += " }x,"[rng() % 4]; break;
    default: {
      static const std::vector<std::string> versions = {
          "0", "2", "999", "1.0", "1e0", "-1", "1e300", "\"1\"", "true", "null", "01"};
      if (const std::size_t v = line.find("\"v\":1"); v != std::string::npos) {
        line.replace(v + 4, 1, versions[rng() % versions.size()]);
      }
    }
  }
  return line;
}

/// The general path's reading of one line: json::parse + result_from_json
/// under the store's record rules.
bool dom_read(const std::string& line, std::string* key, std::string* scenario,
              RunResult* result) {
  json::Value record;
  if (!json::parse(line, &record) || !record.is_object()) return false;
  const json::Value* version = record.find("v");
  const json::Value* key_value = record.find("key");
  const json::Value* result_value = record.find("result");
  if (version == nullptr || !version->is_number() ||
      version->number != kResultStoreVersion || key_value == nullptr ||
      !key_value->is_string() || result_value == nullptr ||
      !result_from_json(*result_value, result)) {
    return false;
  }
  *key = key_value->string;
  const json::Value* scenario_value = record.find("scenario");
  *scenario = scenario_value != nullptr && scenario_value->is_string()
                  ? scenario_value->string
                  : std::string();
  return true;
}

TEST(StoreRecordReader, DeclinesOrAgreesWithTheGeneralPathUnderMutation) {
  std::mt19937_64 rng(20261020);
  std::size_t canonical = 0;
  std::size_t accepted = 0;
  std::size_t declined = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::string key =
        trial % 97 == 0 ? std::string()  // the general path takes "", the store does not
                        : fuzz_text(rng, "hypercube_greedy d=" + std::to_string(trial % 13) +
                                             " rho=0.5 seed=" + std::to_string(trial));
    const std::string scenario = rng() % 2 == 0 ? key : fuzz_text(rng, "scenario text");
    const RunResult result = fuzz_result(rng);
    const int variant = static_cast<int>(rng() % kRecordVariants);
    std::string line = fuzz_record(variant, key, scenario, result);
    const int mutations = static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m) line = fuzz_mutate(rng, line);

    StoreRecordView direct;
    const bool read = read_store_record(line, &direct);
    std::string dom_key;
    std::string dom_scenario;
    RunResult dom_result;
    const bool dom = dom_read(line, &dom_key, &dom_scenario, &dom_result);
    const std::string where = "trial " + std::to_string(trial) + ": " + line;
    bool plain = !key.empty() && json_escape(key) == key && json_escape(scenario) == scenario;
    for (const auto& extra : result.extras) plain = plain && json_escape(extra.first) == extra.first;
    if (variant >= 8 && mutations == 0 && plain) {
      // The writer's own line with nothing escaped: the direct reader must
      // take it.
      ++canonical;
      EXPECT_TRUE(read) << where;
    }
    if (!read) {
      ++declined;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(dom) << "direct reader accepted a line the general path rejects: "
                     << where;
    EXPECT_EQ(direct.key, dom_key) << where;
    EXPECT_FALSE(direct.key.empty()) << where;
    EXPECT_EQ(direct.scenario, dom_scenario) << where;
    expect_same_result(direct.result, dom_result, where);
  }
  // Not vacuous: both outcomes happen, and so does the writer's own line.
  EXPECT_GT(canonical, 400u);
  EXPECT_GT(accepted, canonical + 40);  // damaged lines that stay valid
  EXPECT_GT(declined, 5000u);
}

/// The store load as the general path alone does it: the reference the
/// direct reader must not change.
struct ReferenceLoad {
  ResultStore::LoadStats stats;
  std::vector<std::string> keys;
  std::map<std::string, std::pair<std::string, RunResult>> entries;
};

ReferenceLoad reference_load(const std::string& content) {
  ReferenceLoad out;
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t newline = content.find('\n', start);
    const bool has_newline = newline != std::string::npos;
    const std::string line =
        content.substr(start, (has_newline ? newline : content.size()) - start);
    start = has_newline ? newline + 1 : content.size();
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    json::Value record;
    bool applied = false;
    if (json::parse(line, &record) && record.is_object()) {
      const json::Value* version = record.find("v");
      const json::Value* key = record.find("key");
      const json::Value* result_value = record.find("result");
      if (version != nullptr && version->is_number() && key != nullptr &&
          key->is_string() && !key->string.empty() && result_value != nullptr) {
        if (version->number != kResultStoreVersion) {
          ++out.stats.skipped_version;
          applied = true;
        } else if (RunResult result; result_from_json(*result_value, &result)) {
          const json::Value* scenario = record.find("scenario");
          auto [it, inserted] = out.entries.insert_or_assign(
              key->string,
              std::make_pair(scenario != nullptr && scenario->is_string()
                                 ? scenario->string
                                 : std::string(),
                             result));
          if (inserted) {
            out.keys.push_back(key->string);
          } else {
            ++out.stats.duplicate_keys;
          }
          ++out.stats.records_loaded;
          applied = true;
        }
      }
    }
    if (!applied) {
      if (has_newline) {
        ++out.stats.skipped_garbage;
      } else {
        out.stats.truncated_tail = true;
      }
    }
  }
  return out;
}

TEST(StoreRecordReader, WholeFileLoadMatchesTheGeneralPathAlone) {
  std::mt19937_64 rng(7);
  for (int file = 0; file < 24; ++file) {
    // A small key pool, so last-wins duplicates are common.
    std::vector<std::string> pool;
    for (int i = 0; i < 12; ++i) {
      const Scenario scenario = sample_scenario(static_cast<std::uint64_t>(file * 100 + i));
      pool.push_back(i % 4 == 3 ? fuzz_text(rng, "odd key " + std::to_string(i))
                                : ResultCache::key(scenario));
    }
    pool.push_back("");  // never a store key: garbage on either path
    std::string content;
    const int lines = 40 + static_cast<int>(rng() % 40);
    for (int i = 0; i < lines; ++i) {
      const std::string& key = pool[rng() % pool.size()];
      const std::string scenario = rng() % 4 == 0 ? fuzz_text(rng, "other text") : key;
      const int variant = static_cast<int>(rng() % (2 * kRecordVariants));
      std::string line = fuzz_record(variant, key, scenario, fuzz_result(rng));
      if (rng() % 4 == 0) line = fuzz_mutate(rng, line);
      if (rng() % 10 == 0) line = "not a record";
      content += line;
      content += '\n';
    }
    if (file % 3 == 0) {
      // A cut final record with no newline: the truncated-tail rule.
      const std::string last = writer_line(pool[0], pool[0], fuzz_result(rng));
      content += last.substr(0, rng() % last.size());
    }

    const std::string path = temp_store("fuzz_load.jsonl");
    write_file(path, content);
    const ReferenceLoad expected = reference_load(content);
    ResultStore store(path);
    ASSERT_TRUE(store.ok());
    const ResultStore::LoadStats stats = store.load_stats();
    const std::string where = "file " + std::to_string(file);
    EXPECT_EQ(stats.records_loaded, expected.stats.records_loaded) << where;
    EXPECT_EQ(stats.duplicate_keys, expected.stats.duplicate_keys) << where;
    EXPECT_EQ(stats.skipped_garbage, expected.stats.skipped_garbage) << where;
    EXPECT_EQ(stats.skipped_version, expected.stats.skipped_version) << where;
    EXPECT_EQ(stats.truncated_tail, expected.stats.truncated_tail) << where;
    ASSERT_EQ(store.keys(), expected.keys) << where;

    std::string compacted;
    for (const std::string& key : expected.keys) {
      const auto& [scenario, result] = expected.entries.at(key);
      RunResult fetched;
      ASSERT_TRUE(store.fetch(key, &fetched)) << where;
      expect_same_result(fetched, result, where + " key " + key);
      compacted += writer_line(key, scenario, result) + '\n';
    }
    // compact() writes one writer-format line per key, first-seen order,
    // with each entry's own scenario text.
    ASSERT_TRUE(store.compact()) << where;
    EXPECT_EQ(read_file(path), compacted) << where;
  }
}

}  // namespace
}  // namespace routesim
