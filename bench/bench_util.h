// Shared benchmark harness: fixture builders for the DBLP-like and
// Cartel-like datasets, the cold-query protocol, and table printing.
//
// "Runtime" in every bench is the *simulated* disk time (the quantity the
// paper measured on its 10k-RPM drive, simulated so that it is deterministic
// and independent of the host); wall-clock CPU time is printed alongside.
// All benches accept:
//   --scale=<f>   dataset scale (1.0 = 100k authors / 200k pubs / 200k obs;
//                 ~7 approximates the paper's sizes; a bench may pass
//                 MakeDblp / MakeCartel another default)
//   --seed=<n>    generator seed
//   --json=<path> machine-readable per-row capture (benches that call
//                 JsonWriter::AddRow), for tracking the perf trajectory
//                 across commits as BENCH_*.json
//   --device=hdd|ssd  device profile the environment impersonates (default
//                 hdd, the paper's spinning disk — bit-identical to before
//                 the flag existed; see sim/device_profile.h)
#pragma once

#include <stdlib.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "baseline/secondary_utree.h"
#include "baseline/unclustered_table.h"
#include "common/flags.h"
#include "core/continuous_upi.h"
#include "core/cost_model.h"
#include "core/fractured_upi.h"
#include "core/upi.h"
#include "datagen/cartel.h"
#include "datagen/dblp.h"
#include "exec/aggregate.h"
#include "storage/db_env.h"

namespace upi::bench {

struct QueryCost {
  double sim_ms = 0.0;
  double wall_ms = 0.0;
  size_t rows = 0;
};

/// The shared --device flag, resolved to a profile. Exits on unknown names.
inline sim::DeviceProfile DeviceFromFlags() {
  std::string name = flags::GetString("device", "hdd");
  sim::DeviceProfile profile;
  if (!sim::DeviceProfile::Parse(name, &profile)) {
    std::fprintf(stderr, "bench: unknown --device=%s (want hdd or ssd)\n",
                 name.c_str());
    std::exit(2);
  }
  return profile;
}

/// Aborts with a message on error (benches have no meaningful recovery).
inline void CheckOk(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

/// Runs `fn` (returning a row count) against a cold cache and reports costs.
inline QueryCost RunCold(storage::DbEnv* env, const std::function<size_t()>& fn) {
  env->ColdCache();
  sim::StatsWindow window(env->disk());
  auto t0 = std::chrono::steady_clock::now();
  QueryCost cost;
  cost.rows = fn();
  auto t1 = std::chrono::steady_clock::now();
  cost.sim_ms = window.ElapsedMs();
  cost.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return cost;
}

/// Measures a maintenance operation (warm cache, but flushes afterwards so
/// deferred writes are charged — the paper's maintenance numbers include the
/// write-back).
inline QueryCost RunMaintenance(storage::DbEnv* env,
                                const std::function<size_t()>& fn) {
  env->pool()->FlushAll();
  env->disk()->ResetHead();
  sim::StatsWindow window(env->disk());
  auto t0 = std::chrono::steady_clock::now();
  QueryCost cost;
  cost.rows = fn();
  env->pool()->FlushAll();
  auto t1 = std::chrono::steady_clock::now();
  cost.sim_ms = window.ElapsedMs();
  cost.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return cost;
}

inline void PrintTitle(const std::string& title) {
  std::printf("# %s\n", title.c_str());
}

/// A fresh directory `<temp dir>/<prefix>XXXXXX` (std::filesystem's temp
/// directory, so TMPDIR is honoured). Exits when it cannot be made.
inline std::string MakeTempDir(const std::string& prefix) {
  std::error_code ec;
  std::string path =
      (std::filesystem::temp_directory_path(ec) / (prefix + "XXXXXX")).string();
  if (ec || ::mkdtemp(path.data()) == nullptr) {
    std::fprintf(stderr, "bench: cannot make %sXXXXXX in the temp directory\n",
                 prefix.c_str());
    std::exit(1);
  }
  return path;
}

/// Per-row JSON capture behind the --json=<path> flag. Each AddRow records
/// one measured configuration; the destructor writes the array:
///   [{"bench": ..., "config": ..., "sim_ms": ..., "wall_ms": ..., "rows": ...}, ...]
/// A no-op when --json is absent.
class JsonWriter {
 public:
  explicit JsonWriter(std::string bench)
      : bench_(std::move(bench)), path_(flags::GetString("json", "")) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void AddRow(const std::string& config, const QueryCost& cost) {
    if (path_.empty()) return;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "  {\"bench\": \"%s\", \"config\": \"%s\", \"sim_ms\": %.3f,"
                  " \"wall_ms\": %.3f, \"rows\": %zu}",
                  bench_.c_str(), config.c_str(), cost.sim_ms, cost.wall_ms,
                  cost.rows);
    rows_.push_back(buf);
  }

  ~JsonWriter() {
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write --json=%s\n", path_.c_str());
      return;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
  }

 private:
  std::string bench_;
  std::string path_;
  std::vector<std::string> rows_;
};

// ---------------------------------------------------------------------------
// DBLP fixtures
// ---------------------------------------------------------------------------

struct DblpData {
  datagen::DblpConfig cfg;
  std::unique_ptr<datagen::DblpGenerator> gen;
  std::vector<catalog::Tuple> authors;
  std::vector<catalog::Tuple> publications;  // filled only when requested
  std::string popular_institution;           // the "MIT" (non-selective)
  std::string selective_institution;         // ~300 matches at scale 1
  std::string mid_country;                   // the "Japan"
};

/// `default_scale` applies when --scale is absent.
inline DblpData MakeDblp(bool with_publications, double default_scale = 1.0) {
  DblpData d;
  double scale = flags::GetDouble("scale", default_scale);
  d.cfg = datagen::DblpConfig{}.Scaled(scale);
  d.cfg.seed = static_cast<uint64_t>(flags::GetInt64("seed", 42));
  d.gen = std::make_unique<datagen::DblpGenerator>(d.cfg);
  d.authors = d.gen->GenerateAuthors();
  if (with_publications) {
    d.publications = d.gen->GeneratePublications(d.authors);
  }
  d.popular_institution = d.gen->PopularInstitution();
  d.selective_institution = datagen::FindValueWithApproxCount(
      d.authors, datagen::AuthorCols::kInstitution,
      static_cast<uint64_t>(300 * scale) + 30);
  d.mid_country = d.gen->MidCountry();
  return d;
}

/// `src`'s values and existence under another TupleId: the ingest streams
/// replay the generated tuples under fresh ids.
inline catalog::Tuple CloneWithId(const catalog::Tuple& src,
                                  catalog::TupleId id) {
  std::vector<catalog::Value> values(src.values());
  return catalog::Tuple(id, src.existence(), std::move(values));
}

inline core::UpiOptions AuthorUpiOptions(double cutoff) {
  core::UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  opt.cutoff = cutoff;
  return opt;
}

inline core::UpiOptions PublicationUpiOptions(double cutoff) {
  core::UpiOptions opt;
  opt.cluster_column = datagen::PublicationCols::kInstitution;
  opt.cutoff = cutoff;
  return opt;
}

// ---------------------------------------------------------------------------
// Cartel fixtures
// ---------------------------------------------------------------------------

struct CartelData {
  datagen::CartelConfig cfg;
  std::unique_ptr<datagen::CartelGenerator> gen;
  std::vector<catalog::Tuple> observations;
};

/// `default_scale` applies when --scale is absent.
inline CartelData MakeCartel(double default_scale = 1.0) {
  CartelData d;
  double scale = flags::GetDouble("scale", default_scale);
  d.cfg = datagen::CartelConfig{}.Scaled(scale);
  d.cfg.seed = static_cast<uint64_t>(flags::GetInt64("seed", 42));
  d.gen = std::make_unique<datagen::CartelGenerator>(d.cfg);
  d.observations = d.gen->GenerateObservations();
  return d;
}

}  // namespace upi::bench
