#pragma once
/// \file result_store.hpp
/// \brief The persistent result tier: a disk-backed, append-only store of
///        finished `RunResult`s keyed by the canonical threads-normalized
///        resolved-scenario string, surviving restarts and mid-write kills.
///
/// The Campaign engine's `ResultCache` dies with the process, so every
/// long sweep started cold and a killed campaign lost all finished cells.
/// `ResultStore` is the durable tier behind it: one JSONL file of
/// self-contained records
///
///   {"v":1,"key":"<canonical scenario>","scenario":"<resolved form>",
///    "result":{...exact round-trip RunResult...}}
///
/// appended (and fsync'd) per finished cell, with an in-memory index
/// rebuilt on open.  The loader is crash-tolerant by construction:
///   - a truncated final record (kill between write and newline) is
///     dropped, everything before it stays valid;
///   - an interleaved garbage line is skipped and counted;
///   - duplicate keys resolve last-wins (an append-only file never
///     rewrites history — compact() folds it);
///   - records whose "v" field is not kResultStoreVersion are skipped, so a
///     future format change cannot be misread as data.
/// Lines the store wrote itself take read_store_record(), which builds no
/// DOM; any other spelling takes the general JSON reader, so the rules
/// above hold the same on both paths.
///
/// Numbers round-trip *bit-identically*: finite doubles are written in
/// fmt_shortest() form (util/number_codec.hpp: the first of %.1g, %.3g,
/// ... %.15g that reads back as the same bits, else %.17g) and non-finite
/// values as the strings "nan"/"inf"/"-inf" (JSON
/// has no literals for them; the campaign sink's lossy `null` is accepted
/// on read as NaN).  That exactness is what lets a resumed campaign
/// reproduce a cold run's results to the last bit (tests/test_campaign.cpp
/// pins it).
///
/// `ResultStore` implements the engine's `ResultBackend` seam, so wiring
/// one into `EngineOptions::store` gives any campaign checkpoint/resume
/// for free; `routesim_bench --store PATH` and the `routesim_serve`
/// daemon are the two CLI front ends.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "util/json_parse.hpp"

namespace routesim {

/// Current on-disk record version ("v" field); bump on schema change.
inline constexpr int kResultStoreVersion = 1;

/// Serialises one RunResult as the store's exact-round-trip JSON object
/// (no surrounding record envelope).  Two results are bit-identical iff
/// their serialisations are byte-identical — tests lean on this.
[[nodiscard]] std::string result_to_json(const RunResult& result);

/// result_to_json(), appended to `out` (the reply and record emitters
/// build one string).
void append_result_json(std::string& out, const RunResult& result);

/// Reconstructs a RunResult from result_to_json() output *or* from a
/// campaign JSONL sink line (same field names at top level; its `null`
/// non-finites read back as NaN).  Returns false when the core metric
/// fields are absent or malformed.
[[nodiscard]] bool result_from_json(const json::Value& value, RunResult* out);

/// One store record as read_store_record() gives it.  `key` and `scenario`
/// point into the line that was read.
struct StoreRecordView {
  std::string_view key;
  std::string_view scenario;
  RunResult result;
};

/// The direct reader for store record lines: the exact inverse of the
/// writer for kResultStoreVersion.  It takes the writer's members in the
/// writer's order with no whitespace, strings with no backslash or control
/// byte, JSON-grammar numbers or "nan"/"inf"/"-inf", and nothing after the
/// closing brace; no DOM is built.  On any other byte it returns false,
/// and the line needs json::parse() and result_from_json(), which read any
/// JSON spelling.  When it returns true, the key, scenario text and result
/// equal what that path gives, bit for bit.
[[nodiscard]] bool read_store_record(std::string_view line, StoreRecordView* out);

/// One full store record as a single JSON line (no trailing newline).
[[nodiscard]] std::string store_record_json(const std::string& key,
                                            const Scenario& scenario,
                                            const RunResult& result);

/// The disk-backed result store.  Thread-safe; all state guarded by one
/// mutex (the store is consulted once per cell, never per packet).
class ResultStore final : public ResultBackend {
 public:
  struct LoadStats {
    std::size_t records_loaded = 0;    ///< valid records applied (incl. overwrites)
    std::size_t duplicate_keys = 0;    ///< overwrites resolved last-wins
    std::size_t skipped_garbage = 0;   ///< unparseable / non-record lines
    std::size_t skipped_version = 0;   ///< "v" mismatch records
    bool truncated_tail = false;       ///< final record cut mid-write, dropped
  };

  /// Opens (creating if absent) the store at `path`: loads every valid
  /// record into the index, then holds the file open in append mode.
  /// Check ok() — an unopenable path leaves a store that fetches nothing
  /// and persists nowhere, with error() explaining why.
  explicit ResultStore(std::string path);
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;
  ~ResultStore() override;

  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] LoadStats load_stats() const;

  // --- ResultBackend -----------------------------------------------------
  [[nodiscard]] bool fetch(const std::string& key, RunResult* out) override;
  void persist(const std::string& key, const Scenario& scenario,
               const RunResult& result) override;

  /// persist() with the key derived from the scenario (ResultCache::key).
  void put(const Scenario& scenario, const RunResult& result);

  /// Key-presence probe without copying the result (no hit/miss counting).
  [[nodiscard]] bool contains(const std::string& key) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<std::string> keys() const;  ///< first-seen order
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

  /// Rewrites the file with exactly one record per key (current values,
  /// first-seen key order) via temp-file + rename, then reopens the append
  /// handle.  A kill during compaction leaves either the old or the new
  /// file, never a prefix.  Returns false (store unchanged) on I/O error.
  bool compact();

 private:
  struct Entry {
    /// Empty when the scenario text equals the key, as it does on every
    /// record the engine writes: memory holds one copy of each key.
    std::string scenario_text;
    bool scenario_is_key = false;
    RunResult result;
  };
  using Index = std::unordered_map<std::string, Entry>;

  void load_existing();  ///< constructor helper; fills index_ + stats_
  bool apply_record(const json::Value& record);  ///< the general-JSON path
  /// Applies one loaded record: last wins, counted in stats_.
  void load_record(std::string_view key, std::string_view scenario_text,
                   RunResult&& result);
  /// Inserts or overwrites `key`'s entry; true when the key is new.
  bool upsert(std::string_view key, std::string_view scenario_text,
              RunResult&& result);

  mutable std::mutex mutex_;
  std::string path_;
  std::string error_;
  /// Loader saw a final line with no '\n' (parseable or not): the ctor
  /// terminates it so appends never merge into the existing tail.
  bool tail_unterminated_ = false;
  std::FILE* file_ = nullptr;
  Index index_;
  /// Entries in first-seen key order.  Node addresses of an unordered_map
  /// survive rehashing, and nothing is ever erased from index_.
  std::vector<const Index::value_type*> order_;
  LoadStats stats_{};
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Replays previously written results from `path` — either a store file
/// or a campaign `--jsonl` sink stream (both are recognised per line) —
/// invoking `consume(key, scenario, result)` for each valid record, in
/// file order (so last-wins falls out of insertion order).  Unparseable
/// lines are skipped, like the store loader.  Returns the number of
/// records consumed.  This is the `--resume PATH` engine: replayed
/// records pre-populate an in-process cache so finished cells never
/// reschedule.
std::size_t replay_results(
    const std::string& path,
    const std::function<void(const std::string& key, const Scenario& scenario,
                             const RunResult& result)>& consume);

}  // namespace routesim
