// upi_perfbench: the repo's benchmark program. One process runs one workload
// (see workloads.cc): it sets the workload up kSetups times (the medians are
// setup_s and setup_sim_ms), runs the measured window on the last set-up,
// checks a seeded sample of the answers by brute force, and prints every
// metric by name and unit on both clocks — host time and simulated device
// time.
//
//   upi_perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                 [--work_dir=<dir>] [--smoke]
//
// --trace=1 runs the same op stream untraced on the second-to-last set-up
// and traced on the last, and derives the per-layer metrics from the spans
// the client thread records around its calls into each layer (written to
// <work_dir>/trace-<workload>.tsv). Their ops/s ratio is the tracing
// overhead. The window runs NominalOpsPerSecond(workload) * --seconds ops
// (400 with --smoke), so every run of a seed does the same work.
//
// Output: `metric` (end-to-end) or `layer` (per-layer) lines, diagnostics,
// then one `RESULT {json}` line with correct / attempted / failed and the
// metrics. Exits 1 when any op failed or any answer mismatched.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness.h"

namespace perfbench {
namespace {

namespace engine = upi::engine;

/// Set-ups per run; setup_s is their median. The smoke test sets up once
/// (twice when traced: one window untraced, one traced).
constexpr int kSetups = 5;

struct SetupTimes {
  double datagen_ms = 0.0;
  double create_table_ms = 0.0;
  double warmup_ms = 0.0;
  double total_s = 0.0;
  /// Device work of CreateTables + WarmUp; the same on every set-up of a seed.
  upi::sim::DiskStats disk;
  double sim_ms = 0.0;
};

/// Aggregate of every span with one name.
struct SpanTotals {
  uint64_t count = 0;
  double dur_us = 0.0;
  double self_us = 0.0;
  double cpu_us = 0.0;
  uint64_t rows = 0;
  uint64_t bytes_written = 0;
};

/// Everything one measured window produced.
struct Window {
  OpLog log;
  uint64_t ops = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  upi::sim::DiskStats disk;
  double sim_ms = 0.0;
  upi::storage::BufferPool::PoolCounters pool;
  uint64_t plan_hits = 0;
  uint64_t plans = 0;
  uint64_t shards_probed = 0;
  uint64_t shards_pruned = 0;
  upi::maintenance::MaintenanceStats maint;
  std::map<std::string, double> families;  // metric-family deltas
  size_t fractures = 0;
  size_t sessions = 0;
  bool partitioned = false;
  bool ssd = false;      // flash device profile
  bool durable = false;  // has a write-ahead log
  uint64_t stored_bytes = 0;  // table files + log at window end
  uint64_t live_bytes = 0;
  int64_t threads = 0;
  double probe_before_ms = 0.0;
  double probe_after_ms = 0.0;
  size_t checks = 0;     // sampled window answers checked
  size_t extra_ops = 0;  // probe reads issued after the window
  double cold_sim_ms = 0.0;  // mean simulated ms of a cold-cache probe read
  double recover_ms = 0.0;
  uint64_t records_replayed = 0;
  // Traced windows only.
  std::array<SpanTotals, kNumSpanNames> spans{};
  upi::sim::DiskStats root_disk;  // sum over root spans
  size_t span_count = 0;

  uint64_t reads() const {
    return log.count[static_cast<size_t>(OpKind::kPtq)] +
           log.count[static_cast<size_t>(OpKind::kTopK)] +
           log.count[static_cast<size_t>(OpKind::kSecondary)];
  }
  uint64_t writes() const {
    return log.count[static_cast<size_t>(OpKind::kInsert)] +
           log.count[static_cast<size_t>(OpKind::kDelete)];
  }
  const SpanTotals& span(SpanName n) const {
    return spans[static_cast<size_t>(n)];
  }
};

const char* const kFamilies[] = {
    "upi_pruning_fractures_probed_total", "upi_pruning_fractures_pruned_total",
    "upi_pruning_bloom_rejects_total", "upi_wal_syncs_total",
    "upi_wal_bytes_total"};

std::map<std::string, double> ReadFamilies(engine::Database* db) {
  upi::obs::MetricsSnapshot snap = db->MetricsSnapshot();
  std::map<std::string, double> out;
  for (const char* f : kFamilies) out[f] = snap.SumOf(f);
  return out;
}

void SumPlanCache(const Workload& w, uint64_t* hits, uint64_t* plans) {
  *hits = *plans = 0;
  for (const engine::PreparedQuery* p : w.prepared()) {
    *hits += p->hits();
    *plans += p->plans();
  }
}

void AggregateSpans(const Tracer& tr, Window* win) {
  const std::vector<Span>& spans = tr.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanTotals& t = win->spans[static_cast<size_t>(s.name)];
    double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    ++t.count;
    t.dur_us += dur;
    // Children of one span never overlap (they nest on one thread), so the
    // part of the span they cover is the sum of their durations.
    t.self_us += dur - child_us[i];
    t.cpu_us += static_cast<double>(s.cpu_ns) / 1e3;
    t.rows += s.rows;
    t.bytes_written += s.delta.disk.bytes_written;
    if (s.parent < 0) win->root_disk += s.delta.disk;
  }
  win->span_count = spans.size();
}

SetupTimes SetUp(Workload* w, size_t nops) {
  SetupTimes t;
  int64_t t0 = NowNs();
  w->Generate(nops);
  int64_t t1 = NowNs();
  w->CreateTables();
  int64_t t2 = NowNs();
  w->WarmUp();
  int64_t t3 = NowNs();
  t.datagen_ms = static_cast<double>(t1 - t0) / 1e6;
  t.create_table_ms = static_cast<double>(t2 - t1) / 1e6;
  t.warmup_ms = static_cast<double>(t3 - t2) / 1e6;
  t.total_s = static_cast<double>(t3 - t0) / 1e9;
  // The database was opened in CreateTables, so its disk counts the set-up
  // only.
  const upi::sim::SimDisk* disk = w->db()->env()->disk();
  t.disk = disk->stats();
  t.sim_ms = t.disk.SimMs(disk->params());
  return t;
}

Window Measure(Workload* w, bool traced, const RunOptions& opts) {
  Window win;
  engine::Database* db = w->db();
  upi::sim::SimDisk* disk = db->env()->disk();
  upi::storage::BufferPool* pool = db->env()->pool();
  win.probe_before_ms = HostProbeMs();

  Tracer tracer(traced, disk, pool);
  upi::sim::DiskStats disk0 = disk->stats();
  upi::storage::BufferPool::PoolCounters pool0 = pool->counters();
  std::map<std::string, double> fam0 = ReadFamilies(db);
  upi::maintenance::MaintenanceStats maint0 = db->maintenance()->stats();
  uint64_t hits0 = 0, plans0 = 0;
  SumPlanCache(*w, &hits0, &plans0);
  const engine::PartitionedTable* part = w->partitioned();
  uint64_t probed0 = part ? part->shards_probed_total() : 0;
  uint64_t pruned0 = part ? part->shards_pruned_total() : 0;
  double cpu0 = ProcessCpuSeconds();
  int64_t t0 = NowNs();

  w->RunOps(&tracer, &win.log);

  int64_t t1 = NowNs();
  double cpu1 = ProcessCpuSeconds();
  win.threads = ProcStatusField("Threads");
  win.wall_s = static_cast<double>(t1 - t0) / 1e9;
  win.cpu_s = cpu1 - cpu0;
  win.disk = disk->stats() - disk0;
  win.sim_ms = win.disk.SimMs(disk->params());
  upi::storage::BufferPool::PoolCounters pool1 = pool->counters();
  win.pool.hits = pool1.hits - pool0.hits;
  win.pool.misses = pool1.misses - pool0.misses;
  win.pool.evictions = pool1.evictions - pool0.evictions;
  win.pool.writebacks = pool1.writebacks - pool0.writebacks;
  for (const auto& [name, v] : ReadFamilies(db)) {
    win.families[name] = v - fam0[name];
  }
  upi::maintenance::MaintenanceStats maint1 = db->maintenance()->stats();
  win.maint.flushes = maint1.flushes - maint0.flushes;
  win.maint.partial_merges = maint1.partial_merges - maint0.partial_merges;
  win.maint.full_merges = maint1.full_merges - maint0.full_merges;
  SumPlanCache(*w, &win.plan_hits, &win.plans);
  win.plan_hits -= hits0;
  win.plans -= plans0;
  if (part != nullptr) {
    win.partitioned = true;
    win.shards_probed = part->shards_probed_total() - probed0;
    win.shards_pruned = part->shards_pruned_total() - pruned0;
  }
  for (uint64_t c : win.log.count) win.ops += c;
  win.fractures = w->Fractures();
  win.sessions = w->sessions();
  win.ssd = db->profile().kind == upi::sim::DeviceKind::kSsd;
  win.durable = db->wal() != nullptr;
  win.stored_bytes = db->env()->TotalFileBytes() +
                     (db->wal() != nullptr ? db->wal()->durable_bytes() : 0);
  const std::vector<const Tuple*> live = w->FinalLive();
  for (const Tuple* t : live) win.live_bytes += SerializedBytes(*t);
  win.probe_after_ms = HostProbeMs();

  if (traced) {
    AggregateSpans(tracer, &win);
    std::string path = opts.work_dir + "/trace-" + opts.workload + ".tsv";
    if (!WriteSpans(tracer, path)) {
      win.log.Fail("cannot write spans to " + path);
    }
    std::printf("spans %zu written to %s\n", win.span_count, path.c_str());
  }

  // Outside the window: the sampled answers against the brute-force oracle,
  // then the cold-cache probes (each read after Database::ColdCache(), the
  // paper's Section 7.1 protocol) on the state the window left behind.
  w->Verify(&win.log);
  win.checks = win.log.captured.size();
  auto run_checked = [&](const CapturedRead& q, double* sim_ms) {
    std::vector<upi::core::PtqMatch> rows;
    upi::sim::StatsWindow sw(w->db()->env()->disk());
    upi::Status st = w->RunRead(q, &rows);
    if (sim_ms != nullptr) *sim_ms += sw.ElapsedMs();
    ++win.extra_ops;
    if (!st.ok()) {
      win.log.Fail("probe read: " + st.ToString());
      return;
    }
    CapturedRead got = q;
    got.rows = RowsOf(rows);
    std::string err = CheckRead(got, live);
    if (!err.empty()) win.log.Fail("probe answer check: " + err);
  };
  const std::vector<CapturedRead> probes = w->ColdProbes();
  for (const CapturedRead& q : probes) {
    db->ColdCache();
    run_checked(q, &win.cold_sim_ms);
  }
  win.cold_sim_ms /= static_cast<double>(probes.size());

  // Durable workloads: reopen from the log (recovery replays every record)
  // and re-run the probes against the recovered database.
  int64_t r0 = NowNs();
  if (w->Reopen()) {
    win.recover_ms = static_cast<double>(NowNs() - r0) / 1e6;
    const upi::wal::RecoveryStats& rs = w->db()->recovery_stats();
    win.records_replayed = rs.records;
    if (rs.failed != 0) {
      win.log.Fail("recovery: " + std::to_string(rs.failed) +
                   " records failed to replay");
    }
    for (const CapturedRead& q : probes) run_checked(q, nullptr);
  }
  return win;
}

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

size_t Idx(OpKind k) { return static_cast<size_t>(k); }

double MedianSetup(const std::vector<SetupTimes>& setups,
                   double SetupTimes::*field) {
  std::vector<double> v;
  for (const SetupTimes& s : setups) v.push_back(s.*field);
  return Percentile(std::move(v), 0.5);
}

/// The end-to-end metrics, each only on the workloads it is defined for:
/// a latency where its op kind runs, write_amp where the window writes.
/// The window ran on setups.back(), which bulk-loaded `loaded_bytes` of
/// serialized tuples.
std::vector<Metric> EndToEnd(const Window& win,
                             const std::vector<SetupTimes>& setups,
                             uint64_t loaded_bytes) {
  const double ops = static_cast<double>(win.ops);
  auto pct = [&](OpKind k, double p) {
    return Percentile(win.log.latency_us[Idx(k)], p);
  };
  auto ran = [&](OpKind k) { return win.log.count[Idx(k)] > 0; };
  std::vector<Metric> m;
  m.push_back({"setup_s", MedianSetup(setups, &SetupTimes::total_s), "s"});
  m.push_back({"setup_sim_ms", MedianSetup(setups, &SetupTimes::sim_ms),
               "sim_ms"});
  m.push_back({"ops_per_s", ops / win.wall_s, "ops/s"});
  m.push_back({"cpu_us_per_op", win.cpu_s * 1e6 / ops, "us"});
  m.push_back({"ptq_p50_us", pct(OpKind::kPtq, 0.5), "us"});
  // With sessions, a PTQ's tail depends on what the other session ran, so
  // p99 is reported for the single-client workloads only.
  if (win.sessions == 0) {
    m.push_back({"ptq_p99_us", pct(OpKind::kPtq, 0.99), "us"});
  }
  if (ran(OpKind::kTopK)) {
    m.push_back({"topk_p50_us", pct(OpKind::kTopK, 0.5), "us"});
  }
  if (ran(OpKind::kSecondary)) {
    m.push_back({"secondary_p50_us", pct(OpKind::kSecondary, 0.5), "us"});
  }
  if (ran(OpKind::kInsert)) {
    m.push_back({"insert_p50_us", pct(OpKind::kInsert, 0.5), "us"});
  }
  m.push_back({"sim_ms_per_op", win.sim_ms / ops, "sim_ms"});
  m.push_back({"cold_read_sim_ms", win.cold_sim_ms, "sim_ms"});
  m.push_back({"space_amp",
               Ratio(static_cast<double>(win.stored_bytes),
                     static_cast<double>(win.live_bytes)),
               "ratio"});
  if (win.log.user_bytes_written > 0) {
    m.push_back({"write_amp",
                 static_cast<double>(win.disk.bytes_written) /
                     static_cast<double>(win.log.user_bytes_written),
                 "ratio"});
  }
  // write_amp over set-up and window together, so it is defined on every
  // workload: bytes the device wrote (pages plus log) per byte of tuples the
  // engine was given (bulk-loaded, inserted, deleted).
  m.push_back({"total_write_amp",
               Ratio(static_cast<double>(setups.back().disk.bytes_written +
                                         win.disk.bytes_written),
                     static_cast<double>(loaded_bytes +
                                         win.log.user_bytes_written)),
               "ratio"});
  m.push_back({"peak_rss_mb",
               static_cast<double>(ProcStatusField("VmHWM")) / 1024.0, "MiB"});
  m.push_back({"error_rate",
               static_cast<double>(win.log.failed) /
                   (ops + static_cast<double>(win.extra_ops)),
               "ratio"});
  return m;
}

/// The per-layer metrics of a traced window, each only where its layer does
/// work: a span metric where that span was recorded, the fracture,
/// WAL and maintenance layers where the workload has them.
std::vector<Metric> PerLayer(const Window& win,
                             const Window& untraced,
                             const std::vector<SetupTimes>& setups) {
  const double ops = static_cast<double>(win.ops);
  const double reads = static_cast<double>(win.reads());
  const double nwrites = static_cast<double>(win.writes());
  auto spanned = [&](SpanName n) { return win.span(n).count > 0; };
  auto mean_us = [&](SpanName n) {
    const SpanTotals& t = win.span(n);
    return t.dur_us / static_cast<double>(t.count);
  };
  auto us_per_row = [&](SpanName n) {
    const SpanTotals& t = win.span(n);
    return Ratio(t.dur_us, static_cast<double>(t.rows));
  };
  auto rows_per_read = [&](OpKind k) {
    return Ratio(static_cast<double>(win.log.rows[Idx(k)]),
                 static_cast<double>(win.log.count[Idx(k)]));
  };
  auto family = [&](const char* name) {
    auto it = win.families.find(name);
    return it == win.families.end() ? 0.0 : it->second;
  };
  auto per_op = [&](uint64_t v) { return static_cast<double>(v) / ops; };
  std::vector<Metric> m;

  // engine
  if (spanned(SpanName::kEngineBind)) {
    m.push_back({"engine.bind_us", mean_us(SpanName::kEngineBind), "us"});
  }
  m.push_back({"engine.plan_cache_hit_ratio",
               Ratio(static_cast<double>(win.plan_hits),
                     static_cast<double>(win.plan_hits + win.plans)),
               "ratio"});
  if (spanned(SpanName::kEngineInsert)) {
    m.push_back({"engine.insert_us", mean_us(SpanName::kEngineInsert), "us"});
  }
  if (spanned(SpanName::kEngineDelete)) {
    m.push_back({"engine.delete_us", mean_us(SpanName::kEngineDelete), "us"});
  }
  m.push_back({"engine.create_table_ms",
               MedianSetup(setups, &SetupTimes::create_table_ms), "ms"});
  if (win.partitioned) {
    m.push_back({"partition.shards_probed_per_read",
                 Ratio(static_cast<double>(win.shards_probed), reads),
                 "count"});
    m.push_back({"partition.shards_pruned_ratio",
                 Ratio(static_cast<double>(win.shards_pruned),
                       static_cast<double>(win.shards_probed +
                                           win.shards_pruned)),
                 "ratio"});
  }

  // exec
  if (spanned(SpanName::kExecPtq)) {
    m.push_back({"exec.execute_us.ptq", mean_us(SpanName::kExecPtq), "us"});
  }
  if (spanned(SpanName::kExecTopK)) {
    m.push_back({"exec.execute_us.topk", mean_us(SpanName::kExecTopK), "us"});
  }
  if (spanned(SpanName::kExecSecondary)) {
    m.push_back({"exec.execute_us.secondary",
                 mean_us(SpanName::kExecSecondary), "us"});
  }
  m.push_back({"exec.rows_per_read.ptq", rows_per_read(OpKind::kPtq),
               "count"});
  if (spanned(SpanName::kExecPtq)) {
    m.push_back({"exec.us_per_row.ptq", us_per_row(SpanName::kExecPtq), "us"});
  }
  if (spanned(SpanName::kExecSecondary)) {
    m.push_back({"exec.rows_per_read.secondary",
                 rows_per_read(OpKind::kSecondary), "count"});
    m.push_back({"exec.us_per_row.secondary",
                 us_per_row(SpanName::kExecSecondary), "us"});
  }
  if (spanned(SpanName::kExecAggregate)) {
    m.push_back({"exec.aggregate_us", mean_us(SpanName::kExecAggregate), "us"});
  }

  // core (fracture pruning)
  if (win.fractures > 0) {
    double probed = family("upi_pruning_fractures_probed_total");
    double pruned = family("upi_pruning_fractures_pruned_total");
    m.push_back({"core.fractures_at_end", static_cast<double>(win.fractures),
                 "count"});
    m.push_back({"core.fractures_probed_per_read", Ratio(probed, reads),
                 "count"});
    m.push_back({"core.fractures_pruned_ratio",
                 Ratio(pruned, probed + pruned), "ratio"});
    m.push_back({"core.bloom_rejects_per_read",
                 Ratio(family("upi_pruning_bloom_rejects_total"), reads),
                 "count"});
  }

  // storage
  m.push_back({"storage.pool_hit_ratio",
               Ratio(static_cast<double>(win.pool.hits),
                     static_cast<double>(win.pool.hits + win.pool.misses)),
               "ratio"});
  m.push_back({"storage.misses_per_op", per_op(win.pool.misses), "count"});
  m.push_back({"storage.evictions_per_op", per_op(win.pool.evictions),
               "count"});
  m.push_back({"storage.writebacks_per_op", per_op(win.pool.writebacks),
               "count"});

  // sim (device)
  const upi::sim::DiskStats& d = win.disk;
  m.push_back({"sim.reads_per_op", per_op(d.reads), "count"});
  m.push_back({"sim.seeks_per_op", per_op(d.seeks), "count"});
  m.push_back({"sim.bytes_read_per_op", per_op(d.bytes_read), "B"});
  m.push_back({"sim.writes_per_op", per_op(d.writes), "count"});
  m.push_back({"sim.bytes_written_per_op", per_op(d.bytes_written), "B"});
  m.push_back({"sim.file_opens_per_op", per_op(d.file_opens), "count"});
  m.push_back({"sim.rotations_per_op", per_op(d.rotations), "count"});
  if (win.ssd) {
    m.push_back({"sim.gc_ms_per_op", d.gc_ms / ops, "sim_ms"});
  }
  if (d.reads > 0) {
    double all_rows = 0;
    for (uint64_t r : win.log.rows) all_rows += static_cast<double>(r);
    m.push_back({"sim.rows_per_device_read",
                 all_rows / static_cast<double>(d.reads), "count"});
  }

  // wal
  if (win.durable) {
    m.push_back({"wal.syncs_per_insert",
                 Ratio(family("upi_wal_syncs_total"), nwrites), "count"});
    m.push_back({"wal.log_bytes_per_insert",
                 Ratio(family("upi_wal_bytes_total"), nwrites), "B"});
    m.push_back({"wal.recover_ms", win.recover_ms, "ms"});
    m.push_back({"wal.records_replayed",
                 static_cast<double>(win.records_replayed), "count"});
  }

  // maintenance
  if (spanned(SpanName::kMaintenance)) {
    const SpanTotals& mt = win.span(SpanName::kMaintenance);
    double busy_ms = mt.dur_us / 1e3;
    m.push_back({"maintenance.busy_ms", busy_ms, "ms"});
    m.push_back({"maintenance.busy_share", busy_ms / (win.wall_s * 1e3),
                 "ratio"});
    m.push_back({"maintenance.flushes",
                 static_cast<double>(win.maint.flushes), "count"});
    m.push_back({"maintenance.partial_merges",
                 static_cast<double>(win.maint.partial_merges), "count"});
    m.push_back({"maintenance.full_merges",
                 static_cast<double>(win.maint.full_merges), "count"});
    m.push_back({"maintenance.rewrite_bytes_per_user_byte",
                 Ratio(static_cast<double>(mt.bytes_written),
                       static_cast<double>(win.log.user_bytes_written)),
                 "ratio"});
  }

  // datagen and set-up
  m.push_back({"datagen.generate_ms",
               MedianSetup(setups, &SetupTimes::datagen_ms), "ms"});
  m.push_back({"setup.warmup_ms", MedianSetup(setups, &SetupTimes::warmup_ms),
               "ms"});

  // Tracing overhead: traced over untraced ops/s on the same op stream.
  m.push_back({"trace.ops_per_s_ratio",
               (ops / win.wall_s) /
                   (static_cast<double>(untraced.ops) / untraced.wall_s),
               "ratio"});
  return m;
}

void PrintDiagnostics(const char* label, const Window& win) {
  std::printf(
      "window %s ops=%llu wall_s=%.3f cpu_s=%.3f sim_ms=%.3f threads=%lld "
      "probe_before_ms=%.2f probe_after_ms=%.2f checks=%zu failed=%llu\n",
      label, static_cast<unsigned long long>(win.ops), win.wall_s, win.cpu_s,
      win.sim_ms, static_cast<long long>(win.threads), win.probe_before_ms,
      win.probe_after_ms, win.checks,
      static_cast<unsigned long long>(win.log.failed));
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    if (win.log.count[k] == 0) continue;
    std::printf("  ops %-9s n=%llu rows=%llu p50_us=%.1f p99_us=%.1f\n",
                OpKindName(static_cast<OpKind>(k)),
                static_cast<unsigned long long>(win.log.count[k]),
                static_cast<unsigned long long>(win.log.rows[k]),
                Percentile(win.log.latency_us[k], 0.5),
                Percentile(win.log.latency_us[k], 0.99));
  }
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    for (size_t p = 0; p < kNumPlanKinds; ++p) {
      if (win.log.plans[k][p] == 0) continue;
      std::printf("  plan %-9s %s n=%llu\n",
                  OpKindName(static_cast<OpKind>(k)),
                  upi::engine::PlanKindName(static_cast<upi::engine::PlanKind>(p)),
                  static_cast<unsigned long long>(win.log.plans[k][p]));
    }
  }
  for (const std::string& e : win.log.errors) {
    std::printf("  error: %s\n", e.c_str());
  }
}

void PrintSpanTable(const Window& win) {
  std::printf("%-24s %9s %12s %12s %12s %12s\n", "span", "count", "mean_us",
              "self_us", "cpu_us", "total_ms");
  for (size_t i = 0; i < kNumSpanNames; ++i) {
    const SpanTotals& t = win.spans[i];
    if (t.count == 0) continue;
    double n = static_cast<double>(t.count);
    std::printf("%-24s %9llu %12.2f %12.2f %12.2f %12.1f\n",
                SpanNameString(static_cast<SpanName>(i)),
                static_cast<unsigned long long>(t.count), t.dur_us / n,
                t.self_us / n, t.cpu_us / n, t.dur_us / 1e3);
  }
  const upi::sim::DiskStats& a = win.root_disk;
  const upi::sim::DiskStats& b = win.disk;
  std::printf(
      "span_disk_sum reads=%llu writes=%llu seeks=%llu bytes_read=%llu "
      "bytes_written=%llu file_opens=%llu rotations=%llu\n",
      static_cast<unsigned long long>(a.reads),
      static_cast<unsigned long long>(a.writes),
      static_cast<unsigned long long>(a.seeks),
      static_cast<unsigned long long>(a.bytes_read),
      static_cast<unsigned long long>(a.bytes_written),
      static_cast<unsigned long long>(a.file_opens),
      static_cast<unsigned long long>(a.rotations));
  std::printf(
      "window_disk   reads=%llu writes=%llu seeks=%llu bytes_read=%llu "
      "bytes_written=%llu file_opens=%llu rotations=%llu\n",
      static_cast<unsigned long long>(b.reads),
      static_cast<unsigned long long>(b.writes),
      static_cast<unsigned long long>(b.seeks),
      static_cast<unsigned long long>(b.bytes_read),
      static_cast<unsigned long long>(b.bytes_written),
      static_cast<unsigned long long>(b.file_opens),
      static_cast<unsigned long long>(b.rotations));
}

int Run() {
  RunOptions opts;
  opts.workload = upi::flags::GetString("workload", "");
  opts.seed = static_cast<uint64_t>(upi::flags::GetInt64("seed", 1));
  opts.seconds = upi::flags::GetDouble("seconds", 10.0);
  opts.smoke = upi::flags::GetBool("smoke", false);
  opts.work_dir = upi::flags::GetString("work_dir", ".");
  const bool trace = upi::flags::GetInt64("trace", 0) != 0;
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), opts.workload) == names.end() ||
      opts.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: upi_perfbench --workload=<point_resident|"
                 "analytic_evicting|ingest_durable|fleet_sessions> "
                 "--seed=<n> --seconds=<s> --trace=<0|1>\n");
    return 2;
  }
  const size_t nops = static_cast<size_t>(
      opts.smoke
          ? 400
          : std::llround(NominalOpsPerSecond(opts.workload) * opts.seconds));
  // A traced run needs two set-ups with windows (the untraced baseline, then
  // the traced window).
  const int setups = std::max(trace ? 2 : 1, opts.smoke ? 1 : kSetups);

  std::printf("# upi_perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "ops=%zu setups=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, trace ? 1 : 0, nops, setups);

  HostProbeMs();  // allocates the probe's table before any set-up
  std::vector<SetupTimes> setup_times;
  Window untraced, traced;
  uint64_t loaded_bytes = 0;  // bulk-loaded by the measured set-up
  for (int r = 0; r < setups; ++r) {
    std::unique_ptr<Workload> w = MakeWorkload(opts);
    SetupTimes st = SetUp(w.get(), nops);
    if (r == 0) {
      const upi::engine::DatabaseOptions& o = w->options();
      std::printf("config gather_workers=%zu maintenance_workers=%zu "
                  "sessions=%zu pool_mb=%llu device=%s wal=%s\n",
                  o.gather_workers, o.maintenance.num_workers, w->sessions(),
                  static_cast<unsigned long long>(o.pool_bytes >> 20),
                  w->db()->profile().Name(),
                  o.wal_dir.empty()                              ? "off"
                  : o.wal_mode == upi::wal::WalMode::kCommit ? "commit"
                                                              : "group");
    }
    setup_times.push_back(st);
    std::printf("setup %d datagen_ms=%.1f create_table_ms=%.1f warmup_ms=%.1f "
                "total_s=%.3f sim_ms=%.3f\n",
                r, st.datagen_ms, st.create_table_ms, st.warmup_ms, st.total_s,
                st.sim_ms);
    std::fflush(stdout);
    bool last = r == setups - 1;
    if (last && !trace) {
      for (const Tuple* t : w->Loaded()) loaded_bytes += SerializedBytes(*t);
      untraced = Measure(w.get(), false, opts);
      PrintDiagnostics("untraced", untraced);
    } else if (trace && r == setups - 2) {
      untraced = Measure(w.get(), false, opts);
      PrintDiagnostics("untraced", untraced);
    } else if (trace && last) {
      traced = Measure(w.get(), true, opts);
      PrintDiagnostics("traced", traced);
      PrintSpanTable(traced);
    }
    std::fflush(stdout);
    w.reset();
    // Hand the set-up's freed memory back, so each set-up starts from the
    // same resident set and peak_rss_mb does not drift with fragmentation.
    malloc_trim(0);
  }

  std::vector<Metric> metrics;
  const char* tag = "metric";
  uint64_t attempted = untraced.ops + untraced.extra_ops;
  uint64_t failed = untraced.log.failed;
  if (trace) {
    metrics = PerLayer(traced, untraced, setup_times);
    tag = "layer";
    attempted += traced.ops + traced.extra_ops;
    failed += traced.log.failed;
  } else {
    metrics = EndToEnd(untraced, setup_times, loaded_bytes);
  }
  for (const Metric& m : metrics) {
    std::printf("%s %s %s %s\n", tag, m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  upi::flags::Parse(argc, argv);
  return perfbench::Run();
}
