// BENCH_*.json artifacts: the one writer (BenchJson, used by every bench
// and memreal_serve) and the loader that reads them back.
//
// Every file is a schema-2 document {bench, schema: 2, git_describe,
// fast_mode, seeds, records} and every record is {kind, claim, series,
// ..., rows: [...]}.  The loader parses them via util/json, rejects stale
// schemas with a clear error, and gives the verdict/markdown layers keyed
// access to records.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"

namespace memreal::report {

/// Thrown when an artifact cannot be used: unreadable file, malformed
/// JSON, wrong schema version, or a record missing required fields.  The
/// message always names the offending file.
class ReportError : public std::runtime_error {
 public:
  explicit ReportError(const std::string& what) : std::runtime_error(what) {}
};

/// The schema version BenchJson writes and this report layer reads.
inline constexpr std::uint64_t kBenchSchema = 2;

/// MEMREAL_FAST=1 in the environment: producers shrink their sweeps
/// (smoke runs) and stamp the artifact accordingly.
[[nodiscard]] bool fast_mode();

/// Build provenance stamped into every BENCH_*.json.  The
/// MEMREAL_GIT_DESCRIBE env var wins (CI sets it from the checkout);
/// otherwise the configure-time value baked in by CMake, else "unknown".
[[nodiscard]] std::string git_describe();

/// Machine-readable companion to a producer's printed tables: one JSON
/// record per measured series (`series` unique within the bench), written
/// as BENCH_<bench>.json for `memreal_report` (and CI's artifact upload).
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  /// Declares the workload/allocator seeds the sweeps derive from, for
  /// the report's provenance table.
  void set_seeds(std::initializer_list<std::uint64_t> seeds);

  void add(Json record) { records_.push(std::move(record)); }

  /// BENCH_<bench>.json, in MEMREAL_BENCH_DIR when set (default: cwd).
  [[nodiscard]] std::string default_path() const;

  /// Writes the artifact to default_path() / `path` and prints the path.
  /// Returns false, after one line on stderr, when the file cannot be
  /// written.
  bool write() const { return write(default_path()); }
  bool write(const std::string& path) const;

 private:
  std::string bench_;
  Json seeds_ = Json::array();
  Json records_ = Json::array();
};

struct BenchFile {
  std::string path;
  std::string bench;  ///< "folklore", "shard", ... (BENCH_<bench>.json)
  std::string git_describe;
  bool fast_mode = false;
  std::vector<std::uint64_t> seeds;
  Json doc;  ///< the full parsed document (records live in doc["records"])

  /// All records, in file order.
  [[nodiscard]] std::vector<const Json*> records() const;
  /// The record with the given `series` name, or nullptr.
  [[nodiscard]] const Json* find_series(const std::string& series) const;
};

/// Parses one artifact.  Throws ReportError on anything unusable —
/// including a schema version other than kBenchSchema ("stale artifact,
/// re-run the bench").
[[nodiscard]] BenchFile load_bench_file(const std::string& path);

/// The artifacts of one bench run, keyed by bench name.
struct BenchSet {
  std::map<std::string, BenchFile> by_bench;

  [[nodiscard]] const BenchFile* find(const std::string& bench) const;
  /// Records across all files whose "claim" equals `claim`, file order.
  [[nodiscard]] std::vector<const Json*> records_for_claim(
      const std::string& claim) const;
};

/// Loads every BENCH_*.json in `dir` (non-recursive).  Unreadable or
/// stale files throw; an empty directory yields an empty set.
[[nodiscard]] BenchSet load_bench_dir(const std::string& dir);

}  // namespace memreal::report
