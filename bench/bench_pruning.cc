// Fracture pruning: how much of the Section 4.2 fan-out tax the per-fracture
// summaries (zone maps + Bloom fences + max-probability cutoffs) repay.
//
// The workload models partitioned ingest — the case LSM-style pruning is
// built for: each delta fracture holds a contiguous, mostly-disjoint slice of
// the key space (a sensor field, a tenant, a time window), so a point query
// matches one or two fractures and the rest are pure tax. For Nfrac in
// {1, 4, 16, 64} the bench builds one fractured table and measures, with
// pruning ON and OFF on the *same* table (the UpiOptions::enable_pruning
// knob only gates consulting the summaries, never the rows):
//
//   point-ptq    PTQ for a value living in exactly one delta fracture
//   sec-exact    exact-match secondary probe for a value in one delta
//   high-qt-ptq  PTQ whose threshold exceeds every delta's max probability
//                (only the main fracture can answer: the cutoff-summary skip)
//
// reporting simulated page reads, seeks, and simulated ms per query. Rows
// are bit-identical between the two modes (asserted every query); only the
// I/O differs. --json rows carry pages/seeks in the config string so
// BENCH_pruning.json tracks the pruning trajectory across commits.
//
//   ./bench_pruning [--tuples_per_frac=400] [--seed=42]
//                   [--json=BENCH_pruning.json] [--smoke]
//
// --smoke runs only the Nfrac=16 point and exits non-zero unless pruning
// reads <= 1/3 of no-pruning's simulated pages on the point PTQ and the
// high-qt PTQ probes only the main fracture — the CI gate.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/fractured_upi.h"

using namespace upi;
using namespace upi::bench;

namespace {

constexpr int kInst = datagen::AuthorCols::kInstitution;
constexpr int kCountry = datagen::AuthorCols::kCountry;

/// One synthetic author whose institution lives in partition slot `key` and
/// whose country mirrors it coarsely (so the secondary index partitions
/// too). `lo_prob` tuples carry a low existence, capping every combined
/// probability — the high-qt cutoff-summary scenario.
catalog::Tuple MakeTuple(catalog::TupleId id, uint64_t key, uint64_t country,
                         bool lo_prob, Rng* rng) {
  char inst[32], ctry[32];
  std::snprintf(inst, sizeof(inst), "part%06llu",
                static_cast<unsigned long long>(key));
  std::snprintf(ctry, sizeof(ctry), "region%04llu",
                static_cast<unsigned long long>(country));
  double existence = lo_prob ? 0.30 : 0.85 + 0.1 * rng->NextDouble();
  std::vector<prob::Alternative> alts;
  alts.push_back({inst, 0.8});
  char alt2[32];
  std::snprintf(alt2, sizeof(alt2), "part%06llu",
                static_cast<unsigned long long>(key + 1));
  alts.push_back({alt2, 0.2});
  std::vector<catalog::Value> values(4);
  std::string name = "n";
  name += std::to_string(id);
  values[datagen::AuthorCols::kName] = catalog::Value::String(std::move(name));
  values[kInst] = catalog::Value::Discrete(
      prob::DiscreteDistribution::Make(std::move(alts)).ValueOrDie());
  values[kCountry] = catalog::Value::Discrete(
      prob::DiscreteDistribution::Make({{ctry, 1.0}}).ValueOrDie());
  values[datagen::AuthorCols::kPayload] =
      catalog::Value::String(std::string(120, 'x'));
  return catalog::Tuple(id, existence, values);
}

struct QueryIo {
  double sim_ms = 0.0;
  uint64_t pages = 0;  // simulated page reads
  uint64_t seeks = 0;
  size_t rows = 0;
};

QueryIo Measure(storage::DbEnv* env, const std::function<size_t()>& fn) {
  env->ColdCache();
  sim::StatsWindow window(env->disk());
  QueryIo io;
  io.rows = fn();
  sim::DiskStats d = window.Delta();
  io.sim_ms = d.SimMs(env->params());
  io.pages = d.reads;
  io.seeks = d.seeks;
  return io;
}

std::string RowKey(const std::vector<core::PtqMatch>& rows) {
  std::string key;
  for (const auto& m : rows) {
    key += std::to_string(m.id) + ":" + std::to_string(m.confidence) + ";";
  }
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  const bool smoke = flags::GetBool("smoke", false);
  const uint64_t seed = static_cast<uint64_t>(flags::GetInt64("seed", 42));
  const size_t per_frac =
      static_cast<size_t>(flags::GetInt64("tuples_per_frac", 400));
  const std::vector<size_t> nfracs =
      smoke ? std::vector<size_t>{16} : std::vector<size_t>{1, 4, 16, 64};

  PrintTitle("Fracture pruning: fan-out tax repaid by zone/Bloom/cutoff summaries");
  std::printf("%-8s %-12s %-9s %10s %8s %8s %7s %9s\n", "nfrac", "query",
              "pruning", "sim_ms", "pages", "seeks", "rows", "probed");
  JsonWriter json("pruning");

  bool gate_ok = true;
  for (size_t nfrac : nfracs) {
    Rng rng(seed);
    storage::DbEnv env(256ull << 20, DeviceFromFlags());
    core::UpiOptions opt;
    opt.cluster_column = kInst;
    opt.cutoff = 0.1;
    // Main fracture: slots [0, per_frac) at full probability; each delta d
    // covers [d * per_frac, (d+1) * per_frac) with *low-existence* tuples,
    // so every delta's max combined probability stays below 0.30.
    catalog::TupleId next_id = 1;
    std::vector<catalog::Tuple> tuples;
    for (size_t i = 0; i < per_frac; ++i) {
      tuples.push_back(MakeTuple(next_id++, i, i / 50, false, &rng));
    }
    std::unique_ptr<core::FracturedUpi> table =
        core::FracturedUpi::Build(&env, "sensors",
                                  datagen::DblpGenerator::AuthorSchema(), opt,
                                  {kCountry}, tuples)
            .ValueOrDie();
    tuples = {};
    for (size_t d = 1; d < nfrac; ++d) {
      for (size_t i = 0; i < per_frac; ++i) {
        uint64_t slot = d * per_frac + i;
        CheckOk(table->Insert(
            MakeTuple(next_id++, slot, slot / 50, /*lo_prob=*/true, &rng)));
      }
      CheckOk(table->FlushBuffer());
    }
    env.pool()->FlushAll();

    // Probe values: the middle of the last delta (point + secondary), and a
    // main-fracture value at a threshold above every delta's max probability.
    size_t last = (nfrac - 1) * per_frac + per_frac / 2;
    char point_value[32], sec_value[32], main_value[32];
    std::snprintf(point_value, sizeof(point_value), "part%06llu",
                  static_cast<unsigned long long>(last));
    std::snprintf(sec_value, sizeof(sec_value), "region%04llu",
                  static_cast<unsigned long long>(last / 50));
    std::snprintf(main_value, sizeof(main_value), "part%06llu",
                  static_cast<unsigned long long>(per_frac / 2));

    struct Spec {
      const char* name;
      std::function<Status(std::vector<core::PtqMatch>*)> run;
    };
    std::vector<Spec> specs = {
        {"point-ptq",
         [&](std::vector<core::PtqMatch>* out) {
           return table->OpenPtq(point_value, 0.1)->Drain(out);
         }},
        {"sec-exact",
         [&](std::vector<core::PtqMatch>* out) {
           return table
               ->OpenSecondary(kCountry, sec_value, 0.2,
                               core::SecondaryAccessMode::kTailored)
               ->Drain(out);
         }},
        {"high-qt-ptq",
         [&](std::vector<core::PtqMatch>* out) {
           // Threshold above every delta's max existence (0.30): only the
           // main fracture can hold a qualifying row.
           return table->OpenPtq(main_value, 0.5)->Drain(out);
         }},
    };

    std::map<std::string, QueryIo> on_io;
    for (const Spec& spec : specs) {
      std::string rows_on, rows_off;
      for (bool pruning : {true, false}) {
        table->mutable_options()->enable_pruning = pruning;
        uint64_t probed0 = table->fractures_probed_total();
        std::vector<core::PtqMatch> rows;
        QueryIo io = Measure(&env, [&] {
          CheckOk(spec.run(&rows));
          return rows.size();
        });
        uint64_t probed = table->fractures_probed_total() - probed0;
        (pruning ? rows_on : rows_off) = RowKey(rows);
        if (pruning) on_io[spec.name] = io;
        std::printf("%-8zu %-12s %-9s %10.2f %8llu %8llu %7zu %6llu/%zu\n",
                    nfrac, spec.name, pruning ? "on" : "off", io.sim_ms,
                    static_cast<unsigned long long>(io.pages),
                    static_cast<unsigned long long>(io.seeks), io.rows,
                    static_cast<unsigned long long>(probed), nfrac);
        char config[96];
        std::snprintf(config, sizeof(config),
                      "nfrac=%zu q=%s pruning=%s pages=%llu seeks=%llu",
                      nfrac, spec.name, pruning ? "on" : "off",
                      static_cast<unsigned long long>(io.pages),
                      static_cast<unsigned long long>(io.seeks));
        QueryCost cost;
        cost.sim_ms = io.sim_ms;
        cost.rows = io.rows;
        json.AddRow(config, cost);
        if (!pruning) {
          // The acceptance bar: pruning must not change a single row, and at
          // 16 fractures the point PTQ must read <= 1/3 of the pages.
          if (rows_on != rows_off) {
            std::printf("FAIL: pruning changed result rows (%s)\n", spec.name);
            gate_ok = false;
          }
          if (nfrac == 16 && std::string(spec.name) == "point-ptq" &&
              on_io[spec.name].pages * 3 > io.pages) {
            std::printf("FAIL: point-ptq with pruning read %llu pages, "
                        "no-pruning %llu (want <= 1/3)\n",
                        static_cast<unsigned long long>(on_io[spec.name].pages),
                        static_cast<unsigned long long>(io.pages));
            gate_ok = false;
          }
        }
      }
    }
    table->mutable_options()->enable_pruning = true;

    // The cutoff-summary skip, pinned: the high-qt PTQ probes only main.
    core::PruneSet set = table->ForQuery(-1, main_value, 0.5);
    if (nfrac > 1 && (set.probed != 1 || !set.probe[0])) {
      std::printf("FAIL: high-qt PTQ probed %zu fractures (want main only)\n",
                  set.probed);
      gate_ok = false;
    }
  }
  if (!gate_ok) return 1;
  return 0;
}
