// Closed-loop multi-client throughput of the serving API.
//
// N clients drive the engine through the real per-client surface: each opens
// a Session over the Database, prepares its query shapes once
// (Table::Prepare — the plan cache is shared across clients), and submits a
// fixed budget of bound executions — a mix of Query-1 PTQ probes, Query-3
// secondary lookups, and top-k — while a background ingest thread feeds a
// Fractured table whose flushes/merges run on the MaintenanceManager's
// worker thread. The sweep reports wall-clock ops/sec and per-operation
// latency percentiles (wall microseconds around Submit()+wait, and the
// operation's own simulated disk milliseconds as measured on the session
// worker and carried back in QueryResult).
//
// Scaling is made host-independent by running the SimDisk in realtime mode:
// every access sleeps wall time proportional to its simulated cost
// (--sleep_us_per_ms), outside every storage latch. A client that is
// "waiting on the disk" (for these cache-resident queries, mostly the
// Costinit file opens, which the author table and the --partitions table
// charge per query via UpiOptions::charge_open_per_query, while the ingest
// table's fractures pay theirs once per newly built fracture; for misses,
// seeks + transfers) therefore blocks for real, and the 1 -> 8 thread
// speedup measures how well the engine overlaps clients — buffer-pool shard
// latches, I/O outside the latch, striped disk stats — rather than how many
// cores the host has. With the pre-sharding single-mutex pool, every one of
// those sleeps would serialize.
//
//   ./bench_throughput [--scale=0.3] [--seed=42] [--threads=1,2,4,8]
//                      [--ops=300] [--pool_mb=256] [--sleep_us_per_ms=10]
//                      [--json=BENCH_throughput.json] [--no-pruning]
//                      [--metrics] [--smoke]
//                      [--partitions=1,2,4,8] [--clients=8]
//                      [--wal=off,commit,group]
//
// --wal switches to the durability sweep: a FIXED number of clients
// (--clients, default 8) run a pure closed-loop ingest workload
// (Session::SubmitInsert into one fractured table), once per durability
// mode. `off` is the seed behaviour (no journal — the ceiling), `commit`
// syncs the log once per operation (the classic fsync-per-commit tax: one
// simulated rotational latency each), `group` batches concurrent commits
// behind one leader sync. Realtime mode converts those simulated latencies
// into real sleeps, so the rows measure what group commit exists to buy:
// how many of the per-commit syncs the leader absorbs. After each durable
// row the database is reopened from its log and the recovery replay is
// reported (records, simulated ms). Exits non-zero when group commit fails
// to reach 3x the per-commit-sync ingest throughput — the durability
// acceptance gate. --metrics dumps the Prometheus text (including the
// upi_wal_* families) after the last row.
//
// --partitions switches to the horizontal-partitioning sweep: a FIXED number
// of clients (--clients, default 8) drive one write-hot table under
// continuous ingest, once per shard count P. P=1 builds the table with
// CreateFracturedTable — the honest single-table ceiling, where one latch and
// one maintenance domain mean every flush (which holds the table's exclusive
// lock across realtime-sleeping I/O) blocks every reader and writer. P>1
// builds the same data as a range-partitioned table (CreatePartitionedTable):
// writes route to the owning shard, PTQs prune to the admissible shards, and
// per-shard flushes overlap on two maintenance workers. The table charges
// Costinit per query for every fracture file a query touches
// (UpiOptions::charge_open_per_query), the per-query cost the single table
// pays serially behind its flushes. Exits non-zero when
// the best partitioned row fails to beat the P=1 ceiling's ops/sec — the
// scatter-gather acceptance gate. --metrics additionally dumps the Prometheus
// text (including the upi_partition_* families) after the last sweep row.
//
// --metrics appends an observability section: a metrics-on vs metrics-off
// overhead comparison (realtime sleeps disabled so the engine's CPU path
// dominates — the registry's striped counters must be within noise of the
// compiled-in-but-disabled path) followed by the full Prometheus text dump
// of the engine's MetricsSnapshot. --smoke shrinks the sweep (2 client
// counts, a few dozen ops) for CI.
//
// The nfrac column reports the ingest-fed fractured table's fracture count
// at the end of each sweep — the fan-out every stream-table probe would pay
// without pruning. --no-pruning disables the fracture summaries on that
// table (see UpiOptions::enable_pruning), demonstrating the pruning win
// under concurrent ingest; in the --partitions sweep the same switch also
// disables the per-shard summaries. Rows are identical either way.
//
// Exits non-zero when the max-thread configuration fails to reach a 3x
// ops/sec speedup over one client (the sharded pool's acceptance bar).
//
// Every sweep, and the metrics-overhead loop, runs its clients on the one
// closed-loop driver of closed_loop.h; a sweep owns only its database and
// tables, its op mix, its background ingest, its row and its gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "bench_util.h"
#include "closed_loop.h"
#include "engine/database.h"
#include "engine/session.h"

using namespace upi;
using namespace upi::bench;

namespace {

// A sweep row as its gate reads it: the swept count and the row's ops/sec.
struct Row {
  size_t n = 0;
  double ops_per_sec = 0.0;
};

std::vector<std::string> SplitCommas(const std::string& spec) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    out.push_back(spec.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

// One RNG per closed-loop client, seeded from --seed and the client index:
// a client draws the same op stream in every row and every run.
std::vector<Rng> ClientRngs(uint64_t seed, size_t clients) {
  std::vector<Rng> rngs;
  for (size_t t = 0; t < clients; ++t) rngs.emplace_back(seed * 7919 + t);
  return rngs;
}

// The --partitions sweep: same closed-loop clients, but the variable is the
// shard count of the one write-hot table, not the client count. Every P gets
// a fresh Database so pools, maintenance queues, and metrics start clean.
//
// The dataset is Cartel car observations clustered on the road segment —
// the partitionable case horizontal partitioning exists for: a tuple's
// segment alternatives are the true segment plus its *neighbors* (lexically
// adjacent names), so range splits at routing-key quantiles keep every
// alternative of almost every tuple inside one shard and the per-shard
// summaries prune segment PTQs to ~1 of P. DBLP institutions would not work
// here: an author's alternative institutions scatter uniformly, every shard's
// Bloom fence saturates, and the fan-out pays P * Costinit per query.
int RunPartitionSweep(const std::vector<std::string>& partitions, bool smoke,
                      bool dump_metrics) {
  const size_t nclients =
      static_cast<size_t>(flags::GetInt64("clients", 8));
  const size_t ops_per_client =
      static_cast<size_t>(flags::GetInt64("ops", smoke ? 40 : 240));
  const uint64_t pool_mb =
      static_cast<uint64_t>(flags::GetInt64("pool_mb", 256));
  const double sleep_us_per_ms = flags::GetDouble("sleep_us_per_ms", 40.0);
  const uint64_t seed = static_cast<uint64_t>(flags::GetInt64("seed", 42));
  const bool pruning = !flags::GetBool("no-pruning", false);

  CartelData d = MakeCartel(/*default_scale=*/0.3);
  core::UpiOptions obs_opts;
  obs_opts.cluster_column = datagen::CarObsCols::kSegment;
  obs_opts.cutoff = 0.1;
  obs_opts.enable_pruning = pruning;
  // Every query pays Costinit for each fracture file it touches, as in the
  // paper's cold protocol. That per-query open, paid serially behind the
  // single table's flushes, is the cost partitioning spreads P ways; with
  // fracture handles kept open across queries, a short window at P=1 would
  // measure too few flushes to show it.
  obs_opts.charge_open_per_query = true;

  // Routing keys (each tuple's highest-probability segment), sorted: the
  // source of the range splits and of the query values.
  std::vector<std::string> keys;
  keys.reserve(d.observations.size());
  for (const catalog::Tuple& t : d.observations) {
    keys.push_back(t.values()[datagen::CarObsCols::kSegment]
                       .discrete()
                       .alternatives()[0]
                       .value);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::string> segments;  // query mix: spread across the range
  for (size_t i = 0; i < 16; ++i) {
    segments.push_back(keys[(2 * i + 1) * keys.size() / 32]);
  }
  constexpr double kQts[] = {0.3, 0.5, 0.7};

  PrintTitle("Partitioned scatter-gather throughput (fixed clients)");
  std::printf("# observations=%zu  pool=%lluMiB  clients=%zu  ops/client=%zu  "
              "sleep=%.1fus/sim-ms  maintenance_workers=2  pruning=%s\n",
              d.observations.size(), static_cast<unsigned long long>(pool_mb),
              nclients, ops_per_client, sleep_us_per_ms,
              pruning ? "on" : "off");
  std::printf("%-6s %10s %9s %6s %8s %8s %8s %6s %12s %12s %12s %12s\n", "P",
              "ops/s", "speedup", "nfrac", "probed", "pruned", "ingested",
              "maint", "p50_wall_us", "p99_wall_us", "p50_sim_ms",
              "p99_sim_ms");

  JsonWriter json("partitioning");
  std::vector<Row> rows;
  std::atomic<catalog::TupleId> next_id{1u << 30};
  uint64_t ingested_before = 0;

  for (const std::string& spec : partitions) {
    const size_t nparts = std::stoul(spec);
    engine::DatabaseOptions opts;
    opts.device = DeviceFromFlags();
    opts.pool_bytes = pool_mb << 20;
    opts.maintenance.num_workers = 2;  // shard flushes can overlap
    // Write-heavy serving config: flush small and often. This is the
    // regime the sweep exists to measure — the single table funnels every
    // flush, merge, and the resulting delta-fracture probes through one
    // maintenance domain; the partitioned table splits all three P ways.
    opts.maintenance.policy.flush_max_buffered_tuples = 2048;
    engine::Database db(opts);

    engine::Table* stream = nullptr;
    if (nparts <= 1) {
      // The ceiling every partitioned row is judged against: one fractured
      // table, one lock, one maintenance domain.
      stream = db.CreateFracturedTable(
                     "car_obs", datagen::CartelGenerator::CarObservationSchema(),
                     obs_opts, {}, d.observations)
                   .ValueOrDie();
    } else {
      engine::PartitionOptions popts;
      popts.scheme = engine::PartitionOptions::Scheme::kRange;
      popts.num_shards = nparts;
      // Splits at routing-key quantiles (deduplicated: they must ascend
      // strictly), so shards hold equal tuple counts, not equal key ranges.
      for (size_t i = 1; i < nparts; ++i) {
        std::string split = keys[i * keys.size() / nparts];
        if (popts.range_splits.empty() || split > popts.range_splits.back()) {
          popts.range_splits.push_back(std::move(split));
        }
      }
      popts.num_shards = popts.range_splits.size() + 1;
      stream = db.CreatePartitionedTable(
                     "car_obs", datagen::CartelGenerator::CarObservationSchema(),
                     obs_opts, {}, popts, d.observations)
                   .ValueOrDie();
    }

    engine::PreparedQuery prep_ptq =
        stream->Prepare(engine::Query::Ptq("", 0.5)).ValueOrDie();
    engine::PreparedQuery prep_topk =
        stream->Prepare(engine::Query::TopK("", 10)).ValueOrDie();

    // Ingest starts before the measurement window so every configuration is
    // measured in its steady state: the single table already carrying the
    // delta fractures its one insert buffer forces on it, the partitioned
    // table spreading the same feed over P buffers and P maintenance
    // domains. Each ingest thread owns a generator (MakeObservation mutates
    // the generator's RNG).
    std::atomic<bool> stop_ingest{false};
    std::vector<std::thread> ingest;
    for (size_t w = 0; w < 2; ++w) {
      ingest.emplace_back([&, w] {
        datagen::CartelConfig cfg = d.cfg;
        cfg.seed = d.cfg.seed + 1000 + w;
        datagen::CartelGenerator gen(cfg);
        while (!stop_ingest.load(std::memory_order_relaxed)) {
          for (int burst = 0; burst < 4; ++burst) {
            CheckOk(stream->Insert(gen.MakeObservation(next_id.fetch_add(1))));
          }
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      });
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(smoke ? 150 : 400));
    {
      std::vector<core::PtqMatch> out;
      for (const std::string& seg : segments) {
        CheckOk(prep_ptq.Bind(seg, 0.3).Execute(&out).status());
      }
    }
    db.env()->disk()->SetRealtimeScale(sleep_us_per_ms);

    std::vector<Rng> rngs = ClientRngs(seed, nclients);
    ClosedLoopRun run = RunClosedLoop(
        &db, nclients, ops_per_client,
        [&](engine::Session& session, size_t t, size_t) {
          Rng& rng = rngs[t];
          double qt = kQts[rng.Uniform(3)];
          uint64_t kind = rng.Uniform(100);
          if (kind < 80) {  // PTQ on the routed attribute: prunes to ~1 shard
            return session.Submit(prep_ptq,
                                  segments[rng.Uniform(segments.size())], qt);
          }
          // top-k: each admissible shard's k best, merged
          return session.Submit(prep_topk,
                                segments[rng.Uniform(segments.size())]);
        });
    stop_ingest.store(true);
    for (std::thread& w : ingest) w.join();

    const uint64_t ingested =
        next_id.load(std::memory_order_relaxed) - (1u << 30) - ingested_before;
    ingested_before += ingested;
    const uint64_t maint_tasks = db.maintenance()->stats().tasks();
    size_t nfrac = 0;
    uint64_t probed = 0, pruned = 0;
    if (engine::PartitionedTable* part = stream->partitioned()) {
      for (size_t s = 0; s < part->num_shards(); ++s) {
        nfrac += part->shard_fractured(s)->num_fractures();
      }
      probed = part->shards_probed_total();
      pruned = part->shards_pruned_total();
    } else {
      nfrac = stream->fractured()->num_fractures();
    }
    rows.push_back({nparts, run.ops_per_sec()});
    const Tail wall = P50P99(&run.wall_us);
    const Tail sim = P50P99(&run.sim_ms);

    std::printf(
        "%-6zu %10.0f %8.2fx %6zu %8llu %8llu %8llu %6llu %12.0f %12.0f "
        "%12.1f %12.1f\n",
        nparts, run.ops_per_sec(), run.ops_per_sec() / rows.front().ops_per_sec,
        nfrac, static_cast<unsigned long long>(probed),
        static_cast<unsigned long long>(pruned),
        static_cast<unsigned long long>(ingested),
        static_cast<unsigned long long>(maint_tasks), wall.p50, wall.p99,
        sim.p50, sim.p99);
    char config[96];
    std::snprintf(config, sizeof(config),
                  "partitions=%zu clients=%zu nfrac=%zu pruning=%s", nparts,
                  nclients, nfrac, pruning ? "on" : "off");
    QueryCost cost;
    cost.sim_ms = sim.p99;
    cost.wall_ms = run.wall_s * 1000.0;
    cost.rows = static_cast<size_t>(run.ops_per_sec());
    json.AddRow(config, cost);

    if (dump_metrics && &spec == &partitions.back()) {
      std::printf("\n");
      std::printf("%s", db.MetricsSnapshot().ToPrometheus().c_str());
    }
  }

  // The acceptance gate: partitioning must buy throughput over the
  // single-table ceiling at the same client count.
  const Row* baseline = nullptr;
  const Row* best_part = nullptr;
  for (const Row& r : rows) {
    if (r.n <= 1) {
      baseline = &r;
    } else if (best_part == nullptr ||
               r.ops_per_sec > best_part->ops_per_sec) {
      best_part = &r;
    }
  }
  if (baseline != nullptr && best_part != nullptr) {
    std::printf("P=1 -> P=%zu: %.2fx ops/sec at %zu clients\n", best_part->n,
                best_part->ops_per_sec / baseline->ops_per_sec, nclients);
    if (best_part->ops_per_sec <= baseline->ops_per_sec) {
      std::printf("FAIL: partitioned ops/sec must beat the single-table "
                  "ceiling\n");
      return 1;
    }
  }
  return 0;
}

// The --wal sweep: closed-loop multi-client ingest, once per durability
// mode. The interesting comparison is commit vs group at the same client
// count: both journal every insert through the same WAL, both return only
// after the record is durable, and the only difference is whether each
// commit pays its own simulated rotational latency (made real by realtime
// mode) or shares the leader's.
int RunWalSweep(const std::vector<std::string>& modes, bool smoke,
                bool dump_metrics) {
  // Higher defaults than the scaling sweep: 16 committers and a steeper
  // realtime scale keep the (simulated) rotational latency — the thing the
  // two modes disagree about — dominant over per-op CPU even on small CI
  // hosts, so the commit-vs-group ratio measures the protocol, not the
  // host's scheduler.
  const size_t nclients =
      static_cast<size_t>(flags::GetInt64("clients", 16));
  const size_t ops_per_client =
      static_cast<size_t>(flags::GetInt64("ops", smoke ? 40 : 200));
  const uint64_t pool_mb =
      static_cast<uint64_t>(flags::GetInt64("pool_mb", 256));
  const double sleep_us_per_ms = flags::GetDouble("sleep_us_per_ms", 1000.0);

  DblpData d = MakeDblp(/*with_publications=*/false, /*default_scale=*/0.3);
  std::vector<catalog::Tuple> base(d.authors.begin(),
                                   d.authors.begin() + d.authors.size() / 2);

  PrintTitle("Durability: WAL mode vs closed-loop ingest throughput");
  std::printf("# authors=%zu  pool=%lluMiB  clients=%zu  inserts/client=%zu  "
              "sleep=%.1fus/sim-ms\n",
              base.size(), static_cast<unsigned long long>(pool_mb), nclients,
              ops_per_client, sleep_us_per_ms);
  std::printf("%-8s %10s %9s %8s %8s %10s %12s %12s %10s %10s\n", "wal",
              "ops/s", "vs_commit", "syncs", "appends", "grp_mean",
              "p50_wall_us", "p99_wall_us", "rec_recs", "rec_simms");

  JsonWriter json("durability");
  double commit_ops = 0.0, group_ops = 0.0;  // what the gate compares
  std::atomic<catalog::TupleId> next_id{1u << 30};

  for (const std::string& mode : modes) {
    engine::DatabaseOptions opts;
    opts.device = DeviceFromFlags();
    opts.pool_bytes = pool_mb << 20;
    opts.maintenance.num_workers = 1;
    if (mode == "commit" || mode == "group") {
      // Each durable mode gets a fresh log directory; the reopen below
      // replays this row's log and nothing else.
      opts.wal_dir = MakeTempDir("upi_bench_wal_");
      opts.wal_mode =
          mode == "commit" ? wal::WalMode::kCommit : wal::WalMode::kGroup;
    } else if (mode != "off") {
      std::fprintf(stderr, "unknown --wal mode '%s'\n", mode.c_str());
      return 1;
    }

    ClosedLoopRun run;
    double syncs = 0.0, appends = 0.0;
    {
      engine::Database db(opts);
      engine::Table* stream =
          db.CreateFracturedTable("author_stream",
                                  datagen::DblpGenerator::AuthorSchema(),
                                  AuthorUpiOptions(0.1), {}, base)
              .ValueOrDie();
      db.env()->disk()->SetRealtimeScale(sleep_us_per_ms);
      run = RunClosedLoop(
          &db, nclients, ops_per_client,
          [&](engine::Session& session, size_t t, size_t op) {
            const catalog::Tuple& src =
                d.authors[(t * ops_per_client + op) % d.authors.size()];
            return session.SubmitInsert(
                *stream, CloneWithId(src, next_id.fetch_add(1)));
          });
      db.env()->disk()->SetRealtimeScale(0.0);

      auto snap = db.MetricsSnapshot();
      syncs = snap.SumOf("upi_wal_syncs_total");
      appends = snap.SumOf("upi_wal_appends_total");
      if (dump_metrics && &mode == &modes.back()) {
        std::printf("\n");
        std::printf("%s", db.MetricsSnapshot().ToPrometheus().c_str());
      }
    }

    uint64_t recovered_records = 0;
    double recovery_sim_ms = 0.0;
    if (!opts.wal_dir.empty()) {
      // Crash-less recovery demonstration: reopen from the log the sweep
      // just wrote and report what replay cost.
      engine::DatabaseOptions reopen = opts;
      reopen.maintenance.num_workers = 0;
      {
        engine::Database recovered(reopen);
        recovered_records = recovered.recovery_stats().records;
        recovery_sim_ms = recovered.recovery_stats().sim_ms;
      }
      std::filesystem::remove_all(opts.wal_dir);
    }

    if (mode == "commit") commit_ops = run.ops_per_sec();
    if (mode == "group") group_ops = run.ops_per_sec();
    const Tail wall = P50P99(&run.wall_us);
    std::printf("%-8s %10.0f %8.2fx %8.0f %8.0f %10.1f %12.0f %12.0f "
                "%10llu %10.1f\n",
                mode.c_str(), run.ops_per_sec(),
                commit_ops > 0.0 ? run.ops_per_sec() / commit_ops : 0.0, syncs,
                appends, syncs > 0.0 ? appends / syncs : 0.0, wall.p50,
                wall.p99, static_cast<unsigned long long>(recovered_records),
                recovery_sim_ms);
    char config[96];
    std::snprintf(config, sizeof(config),
                  "wal=%s clients=%zu syncs=%.0f appends=%.0f", mode.c_str(),
                  nclients, syncs, appends);
    QueryCost cost;
    cost.sim_ms = recovery_sim_ms;
    cost.wall_ms = run.wall_s * 1000.0;
    cost.rows = static_cast<size_t>(run.ops_per_sec());
    json.AddRow(config, cost);
  }

  // The acceptance gate: group commit must absorb enough syncs to reach 3x
  // the per-commit-sync ingest rate.
  if (commit_ops > 0.0 && group_ops > 0.0) {
    double speedup = group_ops / commit_ops;
    std::printf("commit -> group: %.2fx ingest ops/sec at %zu clients\n",
                speedup, nclients);
    if (speedup < 3.0) {
      std::printf("FAIL: group commit must reach >= 3x the per-commit-sync "
                  "throughput\n");
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  flags::Parse(argc, argv);
  const bool smoke = flags::GetBool("smoke", false);
  const bool dump_metrics = flags::GetBool("metrics", false);

  const std::string wal_spec = flags::GetString("wal", "");
  if (!wal_spec.empty()) {
    return RunWalSweep(SplitCommas(wal_spec), smoke, dump_metrics);
  }
  const std::string part_spec = flags::GetString("partitions", "");
  if (!part_spec.empty()) {
    return RunPartitionSweep(SplitCommas(part_spec), smoke, dump_metrics);
  }

  const size_t ops_per_client =
      static_cast<size_t>(flags::GetInt64("ops", smoke ? 60 : 300));
  const uint64_t pool_mb =
      static_cast<uint64_t>(flags::GetInt64("pool_mb", 256));
  const double sleep_us_per_ms = flags::GetDouble("sleep_us_per_ms", 40.0);
  const uint64_t seed = static_cast<uint64_t>(flags::GetInt64("seed", 42));

  // Default scale 0.3 keeps the whole database resident in the default pool.
  DblpData d = MakeDblp(/*with_publications=*/false, /*default_scale=*/0.3);

  engine::DatabaseOptions opts;
  opts.device = DeviceFromFlags();
  opts.pool_bytes = pool_mb << 20;
  opts.maintenance.num_workers = 1;  // background flushes/merges
  engine::Database db(opts);

  // Charge the paper's Costinit per query (the cold protocol's file opens):
  // that is the floor of real per-query device time, and in realtime mode it
  // is what each client overlaps with the others.
  core::UpiOptions author_opts = AuthorUpiOptions(0.1);
  author_opts.charge_open_per_query = true;
  engine::Table* authors =
      db.CreateUpiTable("author", datagen::DblpGenerator::AuthorSchema(),
                        author_opts, {datagen::AuthorCols::kCountry},
                        d.authors)
          .ValueOrDie();
  // The write-heavy side: a fractured copy of the first half, fed by the
  // ingest thread below.
  std::vector<catalog::Tuple> half(d.authors.begin(),
                                   d.authors.begin() + d.authors.size() / 2);
  core::UpiOptions stream_opts = AuthorUpiOptions(0.1);
  stream_opts.enable_pruning = !flags::GetBool("no-pruning", false);
  engine::Table* stream =
      db.CreateFracturedTable("author_stream",
                              datagen::DblpGenerator::AuthorSchema(),
                              stream_opts, {}, half)
          .ValueOrDie();

  // Probe values: selective institutions for the point-query mix (hundreds
  // of matching rows, the OLTP-ish case); the popular one only for top-k.
  std::vector<std::string> institutions = {
      d.selective_institution,
      datagen::FindValueWithApproxCount(d.authors,
                                        datagen::AuthorCols::kInstitution,
                                        1000),
      datagen::FindValueWithApproxCount(d.authors,
                                        datagen::AuthorCols::kInstitution,
                                        100)};
  const std::string country = datagen::FindValueWithApproxCount(
      d.authors, datagen::AuthorCols::kCountry, 500);
  constexpr double kQts[] = {0.5, 0.7, 0.9};

  // The prepared shapes every client executes; the plan caches are shared
  // (PreparedQuery copies alias one cache), so across the whole sweep each
  // shape plans a handful of times and everything else is a cache hit.
  engine::PreparedQuery prep_ptq =
      authors->Prepare(engine::Query::Ptq("", 0.5)).ValueOrDie();
  engine::PreparedQuery prep_sec =
      authors->Prepare(
                 engine::Query::Secondary(datagen::AuthorCols::kCountry, "",
                                          0.5))
          .ValueOrDie();
  engine::PreparedQuery prep_topk =
      authors->Prepare(engine::Query::TopK("", 10)).ValueOrDie();
  engine::PreparedQuery prep_stream =
      stream->Prepare(engine::Query::Ptq("", 0.5)).ValueOrDie();

  // Warm the cache (the sweep measures the serving regime, not cold starts),
  // then start the realtime clock.
  {
    std::vector<core::PtqMatch> out;
    for (const std::string& inst : institutions) {
      CheckOk(prep_ptq.Bind(inst, 0.3).Execute(&out).status());
      CheckOk(prep_stream.Bind(inst, 0.3).Execute(&out).status());
    }
    CheckOk(prep_sec.Bind(country, 0.3).Execute(&out).status());
  }
  db.env()->disk()->SetRealtimeScale(sleep_us_per_ms);

  PrintTitle("Closed-loop multi-client throughput (planned queries)");
  std::printf("# authors=%zu  pool=%lluMiB  shards=%zu  ops/client=%zu  "
              "sleep=%.1fus/sim-ms  host_cores=%u  pruning=%s\n",
              d.authors.size(), static_cast<unsigned long long>(pool_mb),
              db.env()->pool()->num_shards(), ops_per_client, sleep_us_per_ms,
              std::thread::hardware_concurrency(),
              stream_opts.enable_pruning ? "on" : "off");
  std::printf("%-8s %10s %9s %6s %12s %12s %12s %12s\n", "clients", "ops/s",
              "speedup", "nfrac", "p50_wall_us", "p99_wall_us", "p50_sim_ms",
              "p99_sim_ms");

  JsonWriter json("throughput");
  std::vector<Row> rows;
  std::atomic<catalog::TupleId> next_id{1u << 30};

  for (const std::string& spec :
       SplitCommas(flags::GetString("threads", smoke ? "1,2" : "1,2,4,8"))) {
    const size_t nthreads = std::stoul(spec);
    std::atomic<bool> stop_ingest{false};
    std::thread ingest([&] {
      size_t i = 0;
      while (!stop_ingest.load(std::memory_order_relaxed)) {
        const catalog::Tuple& src = d.authors[i++ % d.authors.size()];
        CheckOk(stream->Insert(CloneWithId(src, next_id.fetch_add(1))));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });

    std::vector<Rng> rngs = ClientRngs(seed, nthreads);
    ClosedLoopRun run = RunClosedLoop(
        &db, nthreads, ops_per_client,
        [&](engine::Session& session, size_t t, size_t) {
          Rng& rng = rngs[t];
          double qt = kQts[rng.Uniform(3)];
          uint64_t kind = rng.Uniform(100);
          if (kind < 55) {  // Query 1: PTQ on the clustered attribute
            return session.Submit(
                prep_ptq, institutions[rng.Uniform(institutions.size())], qt);
          }
          if (kind < 80) {  // Query 3: secondary lookup
            return session.Submit(prep_sec, country, qt);
          }
          if (kind < 90) {  // top-k
            return session.Submit(
                prep_topk, institutions[rng.Uniform(institutions.size())]);
          }
          // PTQ against the fractured table under ingest
          return session.Submit(
              prep_stream, institutions[rng.Uniform(institutions.size())], qt);
        });
    stop_ingest.store(true);
    ingest.join();

    const size_t nfrac = stream->fractured()->num_fractures();
    rows.push_back({nthreads, run.ops_per_sec()});
    const Tail wall = P50P99(&run.wall_us);
    const Tail sim = P50P99(&run.sim_ms);
    std::printf("%-8zu %10.0f %8.2fx %6zu %12.0f %12.0f %12.1f %12.1f\n",
                nthreads, run.ops_per_sec(),
                run.ops_per_sec() / rows.front().ops_per_sec, nfrac, wall.p50,
                wall.p99, sim.p50, sim.p99);
    char config[64];
    std::snprintf(config, sizeof(config), "threads=%zu nfrac=%zu pruning=%s",
                  nthreads, nfrac, stream_opts.enable_pruning ? "on" : "off");
    QueryCost cost;
    cost.sim_ms = sim.p99;
    cost.wall_ms = run.wall_s * 1000.0;
    cost.rows = static_cast<size_t>(run.ops_per_sec());
    json.AddRow(config, cost);
  }

  std::printf("# pool: hits=%llu misses=%llu  maintenance tasks=%llu\n",
              static_cast<unsigned long long>(db.env()->pool()->hits()),
              static_cast<unsigned long long>(db.env()->pool()->misses()),
              static_cast<unsigned long long>(db.maintenance()->stats().tasks()));
  std::printf("# prepared plan cache: %llu plannings, %llu hits across the "
              "whole sweep\n",
              static_cast<unsigned long long>(
                  prep_ptq.plans() + prep_sec.plans() + prep_topk.plans() +
                  prep_stream.plans()),
              static_cast<unsigned long long>(prep_ptq.hits() +
                                              prep_sec.hits() +
                                              prep_topk.hits() +
                                              prep_stream.hits()));

  double speedup = rows.back().ops_per_sec / rows.front().ops_per_sec;
  if (rows.size() > 1) {
    std::printf("%zu -> %zu clients: %.2fx ops/sec\n", rows.front().n,
                rows.back().n, speedup);
    // The acceptance gate is defined against a single-client baseline; a
    // sweep starting elsewhere (e.g. --threads=4,8) is informational only.
    if (rows.front().n == 1 && rows.back().n >= 8 && speedup < 3.0) {
      std::printf("FAIL: expected >= 3x\n");
      return 1;
    }
  }

  if (dump_metrics) {
    // Observability overhead: the identical closed-loop client with the
    // registry recording vs runtime-disabled. Realtime sleeps off so the
    // engine's CPU path (where the counters live) dominates the measurement.
    db.env()->disk()->SetRealtimeScale(0.0);
    auto run_ops = [&](size_t n) {
      Rng rng(seed + 17);
      return RunClosedLoop(&db, 1, n,
                           [&](engine::Session& session, size_t, size_t) {
                             return session.Submit(
                                 prep_ptq,
                                 institutions[rng.Uniform(institutions.size())],
                                 kQts[rng.Uniform(3)]);
                           })
          .ops_per_sec();
    };
    const size_t overhead_ops = smoke ? 300 : 3000;
    run_ops(overhead_ops / 4);  // warm both code paths
    double on_ops = run_ops(overhead_ops);
    db.metrics()->set_enabled(false);
    double off_ops = run_ops(overhead_ops);
    db.metrics()->set_enabled(true);
    std::printf("# metrics overhead: on=%.0f ops/s  off=%.0f ops/s  "
                "(on/off = %.3f)\n",
                on_ops, off_ops, on_ops / off_ops);
    QueryCost on_cost, off_cost;
    on_cost.wall_ms = 1e3 * static_cast<double>(overhead_ops) / on_ops;
    on_cost.rows = static_cast<size_t>(on_ops);
    off_cost.wall_ms = 1e3 * static_cast<double>(overhead_ops) / off_ops;
    off_cost.rows = static_cast<size_t>(off_ops);
    json.AddRow("obs=on", on_cost);
    json.AddRow("obs=off", off_cost);

    std::printf("\n");
    std::printf("%s", db.MetricsSnapshot().ToPrometheus().c_str());
  }
  return 0;
}
