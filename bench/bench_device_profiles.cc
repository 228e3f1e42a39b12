// Device profiles: the same engine, the same data, the same queries — priced
// and executed on the paper's 10k-RPM spinning disk and on a flash profile
// (sim/device_profile.h), side by side.
//
// Four sections:
//
//   A. Plan choice. A scattered secondary probe (country over an
//      institution-clustered UPI) is planned on both profiles. On the
//      spinning disk the tailored sweep saturates into a full scan (hundreds
//      of multi-ms region seeks), so the planner picks heap-scan; on flash
//      the same regions cost ~20us each and the secondary plan wins. The
//      EXPLAIN pair is printed verbatim — the flip is discovered by the cost
//      model, not special-cased.
//
//   B. Merge schedule. The cost-model maintenance policy runs the same
//      insert/query workload on both profiles. On flash the fracture tax
//      (Costinit + H*Tseek per probed fracture) collapses ~100x while the
//      transfer half of query cost only shrinks ~7x, so the same thresholds
//      fire later: merges defer, fracture counts ride higher, and merge I/O
//      (with its GC write surcharge) is avoided — with no flash-specific
//      policy rule.
//
//   C. Throughput. Closed-loop ingest (watermark flushes + model merges,
//      synchronous maintenance so simulated time is deterministic) and a
//      set of cold queries, timed in simulated ms per profile. The flash
//      profile must ingest >= 1.5x the spinning disk's tuples/sim-second
//      (cheap writes + no rotational barrier, minus the GC surcharge).
//
//   D. --wal adds the durability comparison: multi-client ingest under
//      commit-per-sync vs group commit, once per profile, in realtime mode
//      (simulated latencies become real sleeps). Group commit exists to
//      amortize the rotational commit barrier; flash's program barrier is
//      ~100x smaller, so the group-over-commit advantage shrinks. Wall-clock
//      based, hence informational (no gate).
//
//   ./bench_device_profiles [--smoke] [--wal] [--seed=42]
//                           [--json=BENCH_device_profiles.json]
//
// --smoke runs A..C at reduced sizes and exits non-zero unless (1) the
// planner flips between profiles and (2) flash ingest reaches the 1.5x bar.
// The full run applies the same gates.
//
// Scale floor: section B's gate "flash must schedule fewer merges" needs
// enough ingest for the spinning disk's policy to fire more merges than
// flash's. With --smoke it fails at --scale=0.22 (6 merges on each profile)
// and passes from 0.25 (5 vs 6); without --smoke it fails at 0.15 and passes
// from 0.2. All of it is simulated time, so the floor does not depend on the
// host.
#include <algorithm>
#include <atomic>
#include <filesystem>

#include "bench_util.h"
#include "closed_loop.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "engine/session.h"
#include "maintenance/manager.h"
#include "sim/device_profile.h"

using namespace upi;
using namespace upi::bench;

namespace {

struct Gate {
  int checks = 0;
  int passed = 0;
  void Check(bool ok, const char* what) {
    ++checks;
    passed += ok ? 1 : 0;
    if (!ok) std::printf("GATE FAIL: %s\n", what);
  }
};

const char* ProfileName(const sim::DeviceProfile& p) {
  return p.kind == sim::DeviceKind::kSpinningDisk ? "hdd" : "ssd";
}

// --------------------------------------------------------------------------
// Section A: plan choice
// --------------------------------------------------------------------------

void RunPlanChoice(Gate* gate, JsonWriter* json, bool smoke) {
  // The flip fixture: many institutions scatter each country's matches
  // across many clustered regions (see cost_model_test.cc,
  // DeviceProfilePlanFlipTest).
  datagen::DblpConfig cfg;
  cfg.num_authors = smoke ? 30000 : 60000;
  cfg.num_institutions = smoke ? 6000 : 12000;
  cfg.seed = static_cast<uint64_t>(flags::GetInt64("seed", 7));
  datagen::DblpGenerator gen(cfg);
  std::vector<catalog::Tuple> authors = gen.GenerateAuthors();
  std::string value = datagen::FindValueWithApproxCount(
      authors, datagen::AuthorCols::kCountry, cfg.num_authors / 33);
  const double qt = 0.05;

  storage::DbEnv env(256ull << 20);
  core::UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  std::unique_ptr<core::Upi> upi =
      core::Upi::Build(&env, "authors", datagen::DblpGenerator::AuthorSchema(),
                       opt, {datagen::AuthorCols::kCountry}, authors)
          .ValueOrDie();
  const core::Upi& path = *upi;

  PrintTitle("A. Plan choice: one secondary probe, two devices");
  std::printf("# authors=%zu institutions=%zu value=%s qt=%.2f\n",
              authors.size(), static_cast<size_t>(cfg.num_institutions),
              value.c_str(), qt);

  engine::QueryPlanner hdd(&path, sim::DeviceProfile::SpinningDisk());
  engine::QueryPlanner ssd(&path, sim::DeviceProfile::Ssd());
  engine::Plan on_hdd =
      hdd.PlanSecondary(datagen::AuthorCols::kCountry, value, qt);
  engine::Plan on_ssd =
      ssd.PlanSecondary(datagen::AuthorCols::kCountry, value, qt);
  std::printf("\n[hdd]\n%s\n[ssd]\n%s\n", on_hdd.Explain().c_str(),
              on_ssd.Explain().c_str());
  gate->Check(on_hdd.kind != on_ssd.kind,
              "planner must flip between profiles");
  gate->Check(on_hdd.kind == engine::PlanKind::kHeapScan,
              "spinning disk must choose heap-scan on the scattered probe");
  gate->Check(on_ssd.kind == engine::PlanKind::kSecondaryFirstPointer ||
                  on_ssd.kind == engine::PlanKind::kSecondaryTailored,
              "flash must choose a secondary plan on the scattered probe");
  QueryCost row;
  row.sim_ms = on_hdd.predicted_ms;
  json->AddRow("plan hdd " + std::string(engine::PlanKindName(on_hdd.kind)),
               row);
  row.sim_ms = on_ssd.predicted_ms;
  json->AddRow("plan ssd " + std::string(engine::PlanKindName(on_ssd.kind)),
               row);
}

// --------------------------------------------------------------------------
// Section B: merge schedule
// --------------------------------------------------------------------------

struct MergeScheduleRow {
  uint64_t flushes = 0, partials = 0, fulls = 0;
  size_t final_nfrac = 0;
  size_t max_nfrac = 0;
  double merge_sim_ms = 0.0;
  double total_sim_ms = 0.0;
  size_t rows = 0;
};

MergeScheduleRow RunMergeSchedule(const DblpData& d,
                                  const sim::DeviceProfile& profile,
                                  int rounds, int queries_per_round) {
  storage::DbEnv env(32ull << 20, profile);
  std::unique_ptr<core::FracturedUpi> fractured =
      core::FracturedUpi::Build(&env, "author",
                                datagen::DblpGenerator::AuthorSchema(),
                                AuthorUpiOptions(0.1), {}, d.authors)
          .ValueOrDie();

  maintenance::MergePolicyOptions policy;
  policy.flush_max_buffered_tuples = d.authors.size() / 25;
  policy.reference_value = d.popular_institution;
  policy.reference_qt = 0.1;
  maintenance::MaintenanceManagerOptions mopt;
  mopt.num_workers = 0;  // synchronous: simulated time stays deterministic
  mopt.policy = policy;
  maintenance::MaintenanceManager mgr(&env, mopt);
  mgr.Register(fractured.get());

  datagen::DblpGenerator gen(d.cfg);  // same seed: identical insert stream
  (void)gen.GenerateAuthors();
  catalog::TupleId next_id = d.cfg.num_authors + 1;
  const size_t batch = d.authors.size() / 20;

  MergeScheduleRow r;
  sim::StatsWindow total(env.disk());
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < batch; ++i) {
      CheckOk(fractured->Insert(gen.MakeAuthor(next_id++)));
      mgr.NotifyWrite(fractured.get());
      mgr.RunPending();
      r.max_nfrac = std::max(r.max_nfrac, fractured->num_fractures());
    }
    for (int q = 0; q < queries_per_round; ++q) {
      QueryCost cost = RunCold(&env, [&]() -> size_t {
        std::vector<core::PtqMatch> out;
        CheckOk(fractured->OpenPtq(d.popular_institution, 0.1)->Drain(&out));
        return out.size();
      });
      r.rows += cost.rows;
    }
  }
  CheckOk(mgr.last_error());
  r.total_sim_ms = total.ElapsedMs();
  maintenance::MaintenanceStats stats = mgr.stats();
  r.flushes = stats.flushes;
  r.partials = stats.partial_merges;
  r.fulls = stats.full_merges;
  r.merge_sim_ms = stats.merge_sim_ms;
  r.final_nfrac = fractured->num_fractures();
  return r;
}

void RunMergeSection(Gate* gate, JsonWriter* json, bool smoke) {
  DblpData d = MakeDblp(/*with_publications=*/false);
  const int rounds = smoke ? 6 : 12;
  const int queries = 4;

  std::printf("\n");
  PrintTitle("B. Merge schedule: same policy thresholds, two devices");
  std::printf("# %d rounds x (%zu inserts + %d cold PTQs); model policy, "
              "identical thresholds\n",
              rounds, d.authors.size() / 20, queries);
  std::printf("%-6s %6s %4s %4s %7s %8s %10s %10s %9s\n", "device", "flush",
              "pm", "fm", "nfrac", "maxfrac", "merge[s]", "total[s]", "rows");

  MergeScheduleRow rows[2];
  sim::DeviceProfile profiles[2] = {sim::DeviceProfile::SpinningDisk(),
                                    sim::DeviceProfile::Ssd()};
  for (int i = 0; i < 2; ++i) {
    rows[i] = RunMergeSchedule(d, profiles[i], rounds, queries);
    std::printf("%-6s %6llu %4llu %4llu %7zu %8zu %10.1f %10.1f %9zu\n",
                ProfileName(profiles[i]),
                static_cast<unsigned long long>(rows[i].flushes),
                static_cast<unsigned long long>(rows[i].partials),
                static_cast<unsigned long long>(rows[i].fulls),
                rows[i].final_nfrac, rows[i].max_nfrac,
                rows[i].merge_sim_ms / 1000.0, rows[i].total_sim_ms / 1000.0,
                rows[i].rows);
    QueryCost row;
    row.sim_ms = rows[i].total_sim_ms;
    row.rows = rows[i].rows;
    char config[96];
    std::snprintf(config, sizeof(config),
                  "merge-schedule %s pm=%llu fm=%llu nfrac=%zu",
                  ProfileName(profiles[i]),
                  static_cast<unsigned long long>(rows[i].partials),
                  static_cast<unsigned long long>(rows[i].fulls),
                  rows[i].final_nfrac);
    json->AddRow(config, row);
  }
  std::printf("# flash defers: %llu merges vs %llu on the spinning disk; "
              "fracture count rides to %zu vs %zu\n",
              static_cast<unsigned long long>(rows[1].partials +
                                              rows[1].fulls),
              static_cast<unsigned long long>(rows[0].partials +
                                              rows[0].fulls),
              rows[1].max_nfrac, rows[0].max_nfrac);
  gate->Check(rows[0].rows == rows[1].rows,
              "both devices must return identical query results");
  gate->Check(rows[1].partials + rows[1].fulls <
                  rows[0].partials + rows[0].fulls,
              "flash must schedule fewer merges at the same thresholds");
  gate->Check(rows[1].max_nfrac >= rows[0].max_nfrac,
              "flash must tolerate at least as many fractures");
}

// --------------------------------------------------------------------------
// Section C: ingest/query throughput in simulated time
// --------------------------------------------------------------------------

struct ThroughputRow {
  double ingest_sim_ms = 0.0;
  double ingest_tuples_per_s = 0.0;  // per simulated second
  double query_sim_ms = 0.0;
  size_t rows = 0;
};

ThroughputRow RunThroughput(const DblpData& d,
                            const sim::DeviceProfile& profile) {
  storage::DbEnv env(32ull << 20, profile);
  std::unique_ptr<core::FracturedUpi> fractured =
      core::FracturedUpi::Build(&env, "author",
                                datagen::DblpGenerator::AuthorSchema(),
                                AuthorUpiOptions(0.1), {}, d.authors)
          .ValueOrDie();

  maintenance::MergePolicyOptions policy;
  policy.flush_max_buffered_tuples = d.authors.size() / 25;
  policy.reference_value = d.popular_institution;
  maintenance::MaintenanceManagerOptions mopt;
  mopt.num_workers = 0;
  mopt.policy = policy;
  maintenance::MaintenanceManager mgr(&env, mopt);
  mgr.Register(fractured.get());

  datagen::DblpGenerator gen(d.cfg);
  (void)gen.GenerateAuthors();
  catalog::TupleId next_id = d.cfg.num_authors + 1;
  const size_t ingest = d.authors.size() / 2;

  ThroughputRow r;
  {
    sim::StatsWindow window(env.disk());
    for (size_t i = 0; i < ingest; ++i) {
      CheckOk(fractured->Insert(gen.MakeAuthor(next_id++)));
      mgr.NotifyWrite(fractured.get());
      mgr.RunPending();
    }
    CheckOk(fractured->FlushBuffer());
    env.pool()->FlushAll();
    r.ingest_sim_ms = window.ElapsedMs();
  }
  CheckOk(mgr.last_error());
  r.ingest_tuples_per_s =
      static_cast<double>(ingest) / (r.ingest_sim_ms / 1000.0);
  for (int q = 0; q < 8; ++q) {
    const std::string& value =
        q % 2 == 0 ? d.popular_institution : d.selective_institution;
    QueryCost cost = RunCold(&env, [&]() -> size_t {
      std::vector<core::PtqMatch> out;
      CheckOk(fractured->OpenPtq(value, 0.1)->Drain(&out));
      return out.size();
    });
    r.query_sim_ms += cost.sim_ms;
    r.rows += cost.rows;
  }
  return r;
}

void RunThroughputSection(Gate* gate, JsonWriter* json) {
  DblpData d = MakeDblp(/*with_publications=*/false);

  std::printf("\n");
  PrintTitle("C. Ingest/query throughput in simulated time");
  std::printf("# %zu base tuples, %zu ingested (watermark flushes + model "
              "merges), 8 cold PTQs\n",
              d.authors.size(), d.authors.size() / 2);
  std::printf("%-6s %12s %14s %11s %9s\n", "device", "ingest[s]",
              "tuples/sim-s", "query[s]", "rows");

  ThroughputRow rows[2];
  sim::DeviceProfile profiles[2] = {sim::DeviceProfile::SpinningDisk(),
                                    sim::DeviceProfile::Ssd()};
  for (int i = 0; i < 2; ++i) {
    rows[i] = RunThroughput(d, profiles[i]);
    std::printf("%-6s %12.1f %14.0f %11.1f %9zu\n", ProfileName(profiles[i]),
                rows[i].ingest_sim_ms / 1000.0, rows[i].ingest_tuples_per_s,
                rows[i].query_sim_ms / 1000.0, rows[i].rows);
    QueryCost row;
    row.sim_ms = rows[i].ingest_sim_ms;
    row.rows = static_cast<size_t>(rows[i].ingest_tuples_per_s);
    json->AddRow(std::string("ingest ") + ProfileName(profiles[i]), row);
    row.sim_ms = rows[i].query_sim_ms;
    row.rows = rows[i].rows;
    json->AddRow(std::string("query ") + ProfileName(profiles[i]), row);
  }
  double speedup =
      rows[1].ingest_tuples_per_s / std::max(rows[0].ingest_tuples_per_s, 1.0);
  std::printf("# flash ingests %.1fx the spinning disk's tuples per simulated "
              "second\n",
              speedup);
  gate->Check(rows[0].rows == rows[1].rows,
              "both devices must return identical query results");
  gate->Check(speedup >= 1.5, "flash ingest must reach 1.5x spinning disk");
}

// --------------------------------------------------------------------------
// Section D: --wal durability comparison (informational, wall-clock)
// --------------------------------------------------------------------------

// One durable mode's closed-loop ingest on one device, in a fresh database
// and log directory; returns its ops/sec.
double RunWalIngest(const DblpData& d, const sim::DeviceProfile& profile,
                    wal::WalMode mode, size_t nclients,
                    size_t ops_per_client) {
  engine::DatabaseOptions opts;
  opts.device = profile;
  opts.pool_bytes = 256ull << 20;
  opts.maintenance.num_workers = 1;
  opts.wal_dir = MakeTempDir("upi_bench_devwal_");
  opts.wal_mode = mode;
  double ops_per_s = 0.0;
  {
    engine::Database db(opts);
    engine::Table* stream =
        db.CreateFracturedTable("author_stream",
                                datagen::DblpGenerator::AuthorSchema(),
                                AuthorUpiOptions(0.1), {}, d.authors)
            .ValueOrDie();
    db.env()->disk()->SetRealtimeScale(
        flags::GetDouble("sleep_us_per_ms", 1000.0));
    std::atomic<catalog::TupleId> next_id{1u << 30};
    ops_per_s =
        RunClosedLoop(&db, nclients, ops_per_client,
                      [&](engine::Session& session, size_t t, size_t op) {
                        const catalog::Tuple& src =
                            d.authors[(t * ops_per_client + op) %
                                      d.authors.size()];
                        return session.SubmitInsert(
                            *stream, CloneWithId(src, next_id.fetch_add(1)));
                      })
            .ops_per_sec();
    db.env()->disk()->SetRealtimeScale(0.0);
  }
  std::filesystem::remove_all(opts.wal_dir);
  return ops_per_s;
}

void RunWalSection(JsonWriter* json) {
  DblpData d = MakeDblp(/*with_publications=*/false);
  d.authors.resize(d.authors.size() / 2);
  const size_t nclients = static_cast<size_t>(flags::GetInt64("clients", 8));
  const size_t ops = static_cast<size_t>(flags::GetInt64("ops", 60));

  std::printf("\n");
  PrintTitle("D. Group commit advantage per device (--wal, wall-clock)");
  std::printf("# %zu clients x %zu inserts, realtime mode; group/commit "
              "ratio is what the rotational barrier is worth\n",
              nclients, ops);
  std::printf("%-6s %14s %14s %12s\n", "device", "commit[ops/s]",
              "group[ops/s]", "group-gain");

  sim::DeviceProfile profiles[2] = {sim::DeviceProfile::SpinningDisk(),
                                    sim::DeviceProfile::Ssd()};
  double gains[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    double commit_ops =
        RunWalIngest(d, profiles[i], wal::WalMode::kCommit, nclients, ops);
    double group_ops =
        RunWalIngest(d, profiles[i], wal::WalMode::kGroup, nclients, ops);
    gains[i] = commit_ops > 0 ? group_ops / commit_ops : 0.0;
    std::printf("%-6s %14.0f %14.0f %11.2fx\n", ProfileName(profiles[i]),
                commit_ops, group_ops, gains[i]);
    QueryCost row;
    row.wall_ms = gains[i];
    json->AddRow(std::string("wal group-gain ") + ProfileName(profiles[i]),
                 row);
  }
  std::printf("# group commit buys %.2fx on the spinning disk vs %.2fx on "
              "flash: the rotational barrier it amortizes is ~100x smaller "
              "there, so what remains is append batching\n",
              gains[0], gains[1]);
}

}  // namespace

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  const bool smoke = flags::GetBool("smoke", false);
  const bool with_wal = flags::GetBool("wal", false);
  JsonWriter json("device_profiles");
  Gate gate;

  RunPlanChoice(&gate, &json, smoke);
  RunMergeSection(&gate, &json, smoke);
  RunThroughputSection(&gate, &json);
  if (with_wal && !smoke) RunWalSection(&json);

  std::printf("\n%d/%d device-profile gates passed\n", gate.passed,
              gate.checks);
  return gate.passed == gate.checks ? 0 : 1;
}
