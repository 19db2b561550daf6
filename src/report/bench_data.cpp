#include "report/bench_data.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace memreal::report {

namespace {

[[noreturn]] void file_error(const std::string& path,
                             const std::string& what) {
  throw ReportError(path + ": " + what);
}

}  // namespace

bool fast_mode() {
  const char* v = std::getenv("MEMREAL_FAST");
  return v != nullptr && v[0] == '1';
}

std::string git_describe() {
  const char* v = std::getenv("MEMREAL_GIT_DESCRIBE");
  if (v != nullptr && v[0] != '\0') return v;
#ifdef MEMREAL_GIT_DESCRIBE
  return MEMREAL_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

void BenchJson::set_seeds(std::initializer_list<std::uint64_t> seeds) {
  seeds_ = Json::array();
  for (const std::uint64_t s : seeds) seeds_.push(s);
}

std::string BenchJson::default_path() const {
  const char* dir = std::getenv("MEMREAL_BENCH_DIR");
  const std::string prefix =
      dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : "";
  return prefix + "BENCH_" + bench_ + ".json";
}

bool BenchJson::write(const std::string& path) const {
  Json doc = Json::object();
  doc.set("bench", bench_).set("schema", kBenchSchema);
  doc.set("git_describe", git_describe());
  doc.set("fast_mode", fast_mode());
  doc.set("seeds", seeds_);
  doc.set("records", records_);
  std::ofstream out(path);
  out << doc.dump(2) << "\n";
  out.flush();
  if (!out) {
    std::cerr << "BenchJson: cannot write '" << path << "'\n";
    return false;
  }
  std::cout << "wrote " << path << " (" << records_.size()
            << " records)\n";
  return true;
}

std::vector<const Json*> BenchFile::records() const {
  std::vector<const Json*> out;
  const Json& records = doc.at("records");
  out.reserve(records.size());
  for (const auto& [key, rec] : records.items()) {
    (void)key;
    out.push_back(&rec);
  }
  return out;
}

const Json* BenchFile::find_series(const std::string& series) const {
  for (const Json* rec : records()) {
    const Json* s = rec->find("series");
    if (s != nullptr && s->is_string() && s->as_string() == series) {
      return rec;
    }
  }
  return nullptr;
}

BenchFile load_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) file_error(path, "cannot open file");
  std::ostringstream buf;
  buf << in.rdbuf();

  BenchFile f;
  f.path = path;
  try {
    f.doc = Json::parse(buf.str());
    const Json& schema = f.doc.at("schema");
    if (!schema.is_uint() || schema.as_u64() != kBenchSchema) {
      const std::string found =
          schema.is_uint() ? std::to_string(schema.as_u64()) : "non-integer";
      file_error(path, "stale artifact: schema " + found + ", need " +
                           std::to_string(kBenchSchema) +
                           " — re-run the bench to regenerate it");
    }
    f.bench = f.doc.at("bench").as_string();
    f.git_describe = f.doc.at("git_describe").as_string();
    f.fast_mode = f.doc.at("fast_mode").as_bool();
    for (const auto& [key, seed] : f.doc.at("seeds").items()) {
      (void)key;
      f.seeds.push_back(seed.as_u64());
    }
    if (!f.doc.at("records").is_array()) {
      file_error(path, "\"records\" is not an array");
    }
  } catch (const JsonParseError& e) {
    file_error(path, e.what());
  }
  return f;
}

const BenchFile* BenchSet::find(const std::string& bench) const {
  const auto it = by_bench.find(bench);
  return it == by_bench.end() ? nullptr : &it->second;
}

BenchSet load_bench_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  BenchSet set;
  std::vector<std::string> paths;
  try {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 &&
          name.size() > 11 &&  // BENCH_x.json
          name.compare(name.size() - 5, 5, ".json") == 0) {
        paths.push_back(entry.path().string());
      }
    }
    if (ec) {
      throw ReportError(dir + ": cannot list directory: " + ec.message());
    }
  } catch (const fs::filesystem_error& e) {
    throw ReportError(dir + ": cannot list directory: " + e.what());
  }
  std::sort(paths.begin(), paths.end());  // deterministic load order
  for (const std::string& path : paths) {
    BenchFile f = load_bench_file(path);
    const std::string bench = f.bench;
    const auto [it, inserted] = set.by_bench.emplace(bench, std::move(f));
    if (!inserted) {
      throw ReportError(path + ": bench \"" + bench +
                        "\" already loaded from " + it->second.path +
                        " — remove the stale artifact");
    }
  }
  return set;
}

}  // namespace memreal::report
