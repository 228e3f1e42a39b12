// The four workloads. Each draws its whole op stream up front from the seed,
// drives the public engine API (Database / Table / PreparedQuery / Session),
// keeps the engine's thread budget explicit (no gather workers, no
// maintenance workers, at most two sessions), and drains maintenance at
// fixed op counts, so one seed gives the same work on every run.
//
//   point_resident     CPU-bound serving: clustered UPI fully in the pool,
//                      prepared PTQs and top-k.
//   analytic_evicting  the paper's regime: Query 2 / Query 3 over a table
//                      ~10x the pool, so misses, evictions and pointer
//                      chasing do the work.
//   ingest_durable     a Fractured UPI under inserts, deletes and reads with
//                      the WAL in kCommit mode.
//   fleet_sessions     two Sessions on a range-partitioned fractured table on
//                      the flash profile, group commit with two committers.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>

#include "common/random.h"
#include "datagen/cartel.h"
#include "datagen/dblp.h"
#include "engine/session.h"
#include "exec/aggregate.h"
#include "harness.h"

namespace perfbench {

namespace engine = upi::engine;
namespace datagen = upi::datagen;
using upi::Rng;
using upi::Status;

namespace {

constexpr double kScale = 0.3;        // of the generators' default sizes
constexpr double kSmokeScale = 0.02;  // the benchmark's own test
constexpr size_t kTopK = 10;
constexpr size_t kSamplesPerWindow = 64;
constexpr size_t kColdProbes = 64;

Tuple CloneWithId(const Tuple& src, TupleId id) {
  std::vector<upi::catalog::Value> values(src.values());
  return Tuple(id, src.existence(), std::move(values));
}

/// Deterministic per-purpose seed derived from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return seed * 0x9E3779B97F4A7C15ull + purpose * 0xBF58476D1CE4E5B9ull + 1;
}

void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "upi_perfbench: %s failed: %s\n", what,
                 st.ToString().c_str());
    std::exit(1);
  }
}

upi::core::UpiOptions ClusterOn(int column) {
  upi::core::UpiOptions o;
  o.cluster_column = column;
  o.cutoff = 0.1;
  return o;
}

std::vector<const Tuple*> Pointers(const std::vector<Tuple>& v) {
  std::vector<const Tuple*> out;
  out.reserve(v.size());
  for (const Tuple& t : v) out.push_back(&t);
  return out;
}

/// A per-run directory (the WAL's), removed when the workload is destroyed.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string WalDirFor(const RunOptions& opts) {
  static int instance = 0;
  return opts.work_dir + "/wal-" + opts.workload + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(instance++);
}

/// State and behaviour every workload shares: the database, its key table
/// and op stream, reads through prepared queries, and reopen-from-log.
class DbWorkload : public Workload {
 public:
  /// `column` is the clustered attribute PTQs and top-k probe;
  /// `secondary_column` the one secondary probes use (-1: none).
  DbWorkload(const RunOptions& opts, int column, int secondary_column = -1)
      : opts_(opts), column_(column), secondary_column_(secondary_column) {}

  engine::Database* db() override { return db_.get(); }
  const engine::DatabaseOptions& options() const override { return dbopts_; }

  std::vector<const engine::PreparedQuery*> prepared() const override {
    std::vector<const engine::PreparedQuery*> out;
    for (const auto* p : {&ptq_, &topk_, &secondary_}) {
      if (p->has_value()) out.push_back(&**p);
    }
    return out;
  }

  Status RunRead(const CapturedRead& q,
                 std::vector<upi::core::PtqMatch>* rows) const override {
    const engine::PreparedQuery& p = PreparedFor(q.kind);
    return (q.kind == OpKind::kTopK ? p.Bind(q.value) : p.Bind(q.value, q.qt))
        .Execute(rows)
        .status();
  }

  bool Reopen() override {
    if (dbopts_.wal_dir.empty()) return false;
    Detach();
    table_ = nullptr;
    db_.reset();
    db_ = std::make_unique<engine::Database>(dbopts_);
    table_ = db_->GetTable(kTableName);
    if (table_ == nullptr) {
      std::fprintf(stderr, "upi_perfbench: table missing after reopen\n");
      std::exit(1);
    }
    Attach();
    return true;
  }

  /// kColdProbes reads spread evenly over the key table (so across the
  /// popularity ranks), cycling through the workload's read kinds and QTs.
  /// The set depends on the data only, not on the op stream.
  std::vector<CapturedRead> ColdProbes() const override {
    std::vector<CapturedRead> probes;
    size_t n = std::min(kColdProbes, ProbeKeys());
    for (size_t i = 0; i < n; ++i) {
      OpKind kind = probe_kinds_[i % probe_kinds_.size()];
      CapturedRead q;
      q.kind = kind;
      q.column = ColumnFor(kind);
      q.value = keys_[ProbeKey(kind, i * ProbeKeys() / n)];
      q.qt = probe_qts_[i % probe_qts_.size()];
      q.k = kTopK;
      probes.push_back(std::move(q));
    }
    return probes;
  }

 protected:
  static constexpr const char* kTableName = "t";

  double scale() const { return opts_.smoke ? kSmokeScale : kScale; }

  /// One sample every `every` reads keeps ~kSamplesPerWindow checks per run
  /// (all reads in smoke runs).
  uint64_t SampleEvery(size_t reads) const {
    if (opts_.smoke) return 1;
    return std::max<uint64_t>(1, reads / kSamplesPerWindow);
  }

  const engine::PreparedQuery& PreparedFor(OpKind kind) const {
    if (kind == OpKind::kTopK) return *topk_;
    if (kind == OpKind::kSecondary) return *secondary_;
    return *ptq_;
  }
  /// The discrete column a read of this kind probes.
  int ColumnFor(OpKind kind) const {
    return kind == OpKind::kSecondary ? secondary_column_ : column_;
  }
  /// Cold probes: how many distinct keys to spread over, and the key-table
  /// index of the i-th one for a read of `kind`.
  virtual size_t ProbeKeys() const { return keys_.size(); }
  virtual size_t ProbeKey(OpKind /*kind*/, size_t i) const { return i; }

  /// Prepares the statements on table_ (and opens whatever else points into
  /// the database); Detach drops it all before the database closes.
  virtual void Attach() {
    ptq_.emplace(table_->Prepare(engine::Query::Ptq("", 0.5)).ValueOrDie());
    topk_.emplace(table_->Prepare(engine::Query::TopK("", kTopK)).ValueOrDie());
    if (secondary_column_ >= 0) {
      secondary_.emplace(
          table_->Prepare(engine::Query::Secondary(secondary_column_, "", 0.5))
              .ValueOrDie());
    }
  }
  virtual void Detach() {
    ptq_.reset();
    topk_.reset();
    secondary_.reset();
  }

  /// Every key's PTQ at the lowest window QT and its top-k prefix: after
  /// this every page those reads touch is resident.
  void WarmAllKeys() {
    std::vector<upi::core::PtqMatch> rows;
    for (const std::string& key : keys_) {
      CheckOk(ptq_->Bind(key, 0.3).Execute(&rows).status(), "warm-up");
      CheckOk(topk_->Bind(key).Execute(&rows).status(), "warm-up");
    }
  }

  /// Read-only workloads: every captured answer against the data set.
  void VerifyAgainstFinal(OpLog* log) const {
    std::vector<const Tuple*> live = FinalLive();
    for (const CapturedRead& r : log->captured) {
      std::string err = CheckRead(r, live);
      if (!err.empty()) log->Fail("answer check: " + err);
    }
  }

  CapturedRead Capture(uint64_t i, const Op& op,
                       const std::vector<upi::core::PtqMatch>& rows) const {
    CapturedRead c;
    c.op = i;
    c.kind = op.kind;
    c.column = ColumnFor(op.kind);
    c.value = keys_[op.key];
    c.qt = op.qt;
    c.k = kTopK;
    c.rows = RowsOf(rows);
    return c;
  }

  RunOptions opts_;
  engine::DatabaseOptions dbopts_;
  /// The write-ahead log's directory, for durable workloads. Declared before
  /// db_ so the database (and its open log) closes before it is removed.
  std::unique_ptr<ScratchDir> wal_dir_;
  std::unique_ptr<engine::Database> db_;
  engine::Table* table_ = nullptr;
  std::vector<std::string> keys_;
  std::vector<Op> ops_;
  std::vector<OpKind> probe_kinds_ = {OpKind::kPtq, OpKind::kTopK};
  std::vector<double> probe_qts_ = {0.3, 0.5, 0.7, 0.9};
  std::optional<engine::PreparedQuery> ptq_, topk_, secondary_;

 private:
  const int column_;
  const int secondary_column_;
};

/// The single-client closed loop: one op at a time on the client thread.
class SerialWorkload : public DbWorkload {
 public:
  using DbWorkload::DbWorkload;

  void RunOps(Tracer* tr, OpLog* log) override {
    for (uint64_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      size_t kind = static_cast<size_t>(op.kind);
      int64_t t0 = NowNs();
      Status st;
      {
        ScopedSpan root(tr, RootSpanFor(op.kind), i);
        st = Execute(i, op, tr, log);
      }
      int64_t t1 = NowNs();
      log->latency_us[kind].push_back(static_cast<double>(t1 - t0) / 1e3);
      ++log->count[kind];
      if (!st.ok()) log->Fail("op " + std::to_string(i) + ": " + st.ToString());
      if (maintenance_every_ != 0 &&
          ((i + 1) % maintenance_every_ == 0 || i + 1 == ops_.size())) {
        ScopedSpan span(tr, SpanName::kMaintenance, UINT64_MAX);
        db_->RunMaintenance();
      }
    }
  }

 protected:
  /// Workload-specific execution of op `i` inside its root span.
  virtual Status Execute(uint64_t i, const Op& op, Tracer* tr, OpLog* log) = 0;

  /// One read through its prepared query: Bind, Execute, and (for the
  /// analytic queries) GROUP BY `aggregate_column`, each in its own span.
  Status Read(uint64_t i, const Op& op, int aggregate_column, Tracer* tr,
              OpLog* log) {
    const engine::PreparedQuery& prep = PreparedFor(op.kind);
    const std::string& value = keys_[op.key];
    std::vector<upi::core::PtqMatch> rows;
    {
      std::optional<engine::BoundQuery> bound;
      {
        ScopedSpan bind(tr, SpanName::kEngineBind, i);
        bound.emplace(op.kind == OpKind::kTopK ? prep.Bind(value)
                                               : prep.Bind(value, op.qt));
      }
      ScopedSpan exec(tr, ExecSpanFor(op.kind), i);
      upi::Result<engine::Plan> plan = bound->Execute(&rows);
      exec.set_rows(rows.size());
      if (!plan.ok()) return plan.status();
      log->CountPlan(op.kind, plan.value().kind);
    }
    std::map<std::string, upi::exec::GroupCount> groups;
    if (aggregate_column >= 0) {
      ScopedSpan agg(tr, SpanName::kExecAggregate, i);
      groups = upi::exec::GroupByCount(rows, aggregate_column);
    }
    log->rows[static_cast<size_t>(op.kind)] += rows.size();
    if (op.sampled) {
      log->captured.push_back(Capture(i, op, rows));
      log->captured.back().group_column = aggregate_column;
      log->captured.back().groups = std::move(groups);
    }
    return Status::OK();
  }

  /// Drain Database::RunMaintenance() after every this many ops (0 = never).
  size_t maintenance_every_ = 0;
};

/// DBLP Author data; the key table is every institution in popularity-rank
/// order, and reads draw institutions by that popularity.
struct AuthorData {
  datagen::DblpConfig cfg;
  std::vector<Tuple> authors;
  std::vector<std::string> institutions;
  std::unique_ptr<upi::ZipfDistribution> popularity;

  void Generate(double scale, uint64_t seed) {
    cfg = datagen::DblpConfig{}.Scaled(scale);
    cfg.seed = seed;
    datagen::DblpGenerator gen(cfg);
    authors = gen.GenerateAuthors();
    for (uint64_t r = 0; r < cfg.num_institutions; ++r) {
      institutions.push_back(gen.InstitutionName(r));
    }
    popularity = std::make_unique<upi::ZipfDistribution>(
        cfg.num_institutions, cfg.zipf_institutions);
  }
};

// ---------------------------------------------------------------------------
// point_resident
// ---------------------------------------------------------------------------

class PointResident : public SerialWorkload {
 public:
  explicit PointResident(const RunOptions& opts)
      : SerialWorkload(opts, datagen::AuthorCols::kInstitution) {}

  void Generate(size_t nops) override {
    data_.Generate(scale(), opts_.seed);
    keys_ = data_.institutions;
    Rng rng(SubSeed(opts_.seed, 1));
    constexpr double kQts[] = {0.3, 0.5, 0.7, 0.9};
    uint64_t every = SampleEvery(nops);
    ops_.resize(nops);
    for (Op& op : ops_) {
      op.key = static_cast<uint32_t>(data_.popularity->Sample(&rng));
      if (rng.Uniform(4) < 3) {
        op.kind = OpKind::kPtq;
        op.qt = kQts[rng.Uniform(4)];
      } else {
        op.kind = OpKind::kTopK;
      }
      op.sampled = rng.Uniform(every) == 0;
    }
  }

  void CreateTables() override {
    dbopts_.pool_bytes = kPoolMb << 20;
    dbopts_.gather_workers = 0;
    dbopts_.maintenance.num_workers = 0;
    db_ = std::make_unique<engine::Database>(dbopts_);
    table_ = db_->CreateUpiTable(kTableName,
                                 datagen::DblpGenerator::AuthorSchema(),
                                 ClusterOn(datagen::AuthorCols::kInstitution),
                                 {}, data_.authors)
                 .ValueOrDie();
    Attach();
  }

  void WarmUp() override { WarmAllKeys(); }

  void Verify(OpLog* log) const override { VerifyAgainstFinal(log); }

  std::vector<const Tuple*> FinalLive() const override {
    return Pointers(data_.authors);
  }
  std::vector<const Tuple*> Loaded() const override {
    return Pointers(data_.authors);
  }

 protected:
  Status Execute(uint64_t i, const Op& op, Tracer* tr, OpLog* log) override {
    return Read(i, op, -1, tr, log);
  }

 private:
  static constexpr uint64_t kPoolMb = 256;
  AuthorData data_;
};

// ---------------------------------------------------------------------------
// analytic_evicting
// ---------------------------------------------------------------------------

class AnalyticEvicting : public SerialWorkload {
 public:
  explicit AnalyticEvicting(const RunOptions& opts)
      : SerialWorkload(opts, datagen::PublicationCols::kInstitution,
                       datagen::PublicationCols::kCountry) {
    probe_kinds_ = {OpKind::kPtq, OpKind::kSecondary};
    probe_qts_ = {0.05, 0.3, 0.5, 0.7, 0.9};
  }

  void Generate(size_t nops) override {
    cfg_ = datagen::DblpConfig{}.Scaled(scale());
    cfg_.seed = opts_.seed;
    datagen::DblpGenerator gen(cfg_);
    std::vector<Tuple> authors = gen.GenerateAuthors();
    pubs_ = gen.GeneratePublications(authors);
    // Key table: every institution, then every country.
    for (uint64_t r = 0; r < cfg_.num_institutions; ++r) {
      keys_.push_back(gen.InstitutionName(r));
    }
    for (uint64_t c = 0; c < cfg_.num_countries; ++c) {
      keys_.push_back(gen.CountryName(c));
    }
    Rng rng(SubSeed(opts_.seed, 2));
    // QT 0.05 sits below the cutoff C = 0.1, so it walks the cutoff index.
    constexpr double kQ2Qts[] = {0.05, 0.3, 0.5, 0.7, 0.9};
    constexpr double kQ3Qts[] = {0.3, 0.5, 0.7, 0.9};
    uint64_t every = SampleEvery(nops);
    ops_.resize(nops);
    for (Op& op : ops_) {
      if (rng.Uniform(2) == 0) {
        op.kind = OpKind::kPtq;
        op.key = static_cast<uint32_t>(rng.Uniform(cfg_.num_institutions));
        op.qt = kQ2Qts[rng.Uniform(5)];
      } else {
        op.kind = OpKind::kSecondary;
        op.key = static_cast<uint32_t>(cfg_.num_institutions +
                                       rng.Uniform(cfg_.num_countries));
        op.qt = kQ3Qts[rng.Uniform(4)];
      }
      op.sampled = rng.Uniform(every) == 0;
    }
  }

  void CreateTables() override {
    dbopts_.pool_bytes = kPoolMb << 20;
    dbopts_.gather_workers = 0;
    dbopts_.maintenance.num_workers = 0;
    db_ = std::make_unique<engine::Database>(dbopts_);
    table_ = db_->CreateUpiTable(
                    kTableName, datagen::DblpGenerator::PublicationSchema(),
                    ClusterOn(datagen::PublicationCols::kInstitution),
                    {datagen::PublicationCols::kCountry}, pubs_)
                 .ValueOrDie();
    Attach();
  }

  void WarmUp() override {
    // The cold-probe reads fill the 8 MiB pool to its eviction steady state
    // before the window. They depend on the data only, not on the op
    // stream, so the warm-up's device time (part of setup_sim_ms) does not
    // vary with the seed's draw of keys and query kinds.
    std::vector<upi::core::PtqMatch> rows;
    for (const CapturedRead& q : ColdProbes()) {
      CheckOk(RunRead(q, &rows), "warm-up");
    }
  }

  void Verify(OpLog* log) const override { VerifyAgainstFinal(log); }

  std::vector<const Tuple*> FinalLive() const override {
    return Pointers(pubs_);
  }
  std::vector<const Tuple*> Loaded() const override { return Pointers(pubs_); }

 protected:
  // Query 2 (PTQ on Institution) and Query 3 (secondary probe on Country),
  // both followed by GROUP BY Journal.
  Status Execute(uint64_t i, const Op& op, Tracer* tr, OpLog* log) override {
    return Read(i, op, datagen::PublicationCols::kJournal, tr, log);
  }
  size_t ProbeKeys() const override {
    return static_cast<size_t>(cfg_.num_countries);
  }
  size_t ProbeKey(OpKind kind, size_t i) const override {
    // Countries are probed one by one; institutions spread over every rank.
    if (kind == OpKind::kSecondary) return cfg_.num_institutions + i;
    return i * cfg_.num_institutions / cfg_.num_countries;
  }
 private:
  static constexpr uint64_t kPoolMb = 8;

  datagen::DblpConfig cfg_;
  std::vector<Tuple> pubs_;
};

// ---------------------------------------------------------------------------
// ingest_durable
// ---------------------------------------------------------------------------

/// The live tuple set the oracle replays op by op.
class LiveSet {
 public:
  explicit LiveSet(const std::vector<Tuple>& base) {
    for (const Tuple& t : base) Add(&t);
  }
  void Add(const Tuple* t) { live_[t->id()] = t; }
  void Remove(TupleId id) { live_.erase(id); }
  std::vector<const Tuple*> Snapshot() const {
    std::vector<const Tuple*> v;
    v.reserve(live_.size());
    for (const auto& [id, t] : live_) v.push_back(t);
    return v;
  }

 private:
  std::map<TupleId, const Tuple*> live_;
};

class IngestDurable : public SerialWorkload {
 public:
  explicit IngestDurable(const RunOptions& opts)
      : SerialWorkload(opts, datagen::AuthorCols::kInstitution) {
    wal_dir_ = std::make_unique<ScratchDir>(WalDirFor(opts));
  }

  void Generate(size_t nops) override {
    data_.Generate(scale(), opts_.seed);
    keys_ = data_.institutions;
    const size_t nbulk = data_.authors.size() / 2;
    bulk_.assign(data_.authors.begin(), data_.authors.begin() + nbulk);

    Rng rng(SubSeed(opts_.seed, 4));
    constexpr double kQts[] = {0.3, 0.5, 0.7, 0.9};
    uint64_t every = SampleEvery(nops / 5);
    std::vector<uint32_t> live_inserts;  // indexes into inserts_
    ops_.resize(nops);
    for (Op& op : ops_) {
      // 75% inserts, 5% deletes of earlier inserts, 15% PTQ, 5% top-k.
      uint64_t r = rng.Uniform(100);
      if (r >= 75 && r < 80 && live_inserts.empty()) r = 0;
      if (r < 75) {
        // The authors the bulk load left out first, then recycled with
        // fresh ids.
        size_t j = inserts_.size();
        if (nbulk + j < data_.authors.size()) {
          inserts_.push_back(data_.authors[nbulk + j]);
        } else {
          const Tuple& src = data_.authors[(nbulk + j) % data_.authors.size()];
          inserts_.push_back(CloneWithId(src, kFreshIds + j));
        }
        op.kind = OpKind::kInsert;
        op.tuple = static_cast<uint32_t>(j);
        live_inserts.push_back(op.tuple);
      } else if (r < 80) {
        size_t pick = rng.Uniform(live_inserts.size());
        op.kind = OpKind::kDelete;
        op.tuple = live_inserts[pick];
        live_inserts[pick] = live_inserts.back();
        live_inserts.pop_back();
      } else {
        op.kind = r < 95 ? OpKind::kPtq : OpKind::kTopK;
        op.key = static_cast<uint32_t>(data_.popularity->Sample(&rng));
        op.qt = kQts[rng.Uniform(4)];
        op.sampled = rng.Uniform(every) == 0;
      }
    }
    insert_bytes_.reserve(inserts_.size());
    for (const Tuple& t : inserts_) insert_bytes_.push_back(SerializedBytes(t));
  }

  void CreateTables() override {
    dbopts_.pool_bytes = kPoolMb << 20;
    dbopts_.gather_workers = 0;
    dbopts_.maintenance.num_workers = 0;
    dbopts_.maintenance.policy.flush_max_buffered_tuples = 2048;
    dbopts_.wal_dir = wal_dir_->path();
    dbopts_.wal_mode = upi::wal::WalMode::kCommit;
    db_ = std::make_unique<engine::Database>(dbopts_);
    table_ = db_->CreateFracturedTable(
                    kTableName, datagen::DblpGenerator::AuthorSchema(),
                    ClusterOn(datagen::AuthorCols::kInstitution), {}, bulk_)
                 .ValueOrDie();
    Attach();
    maintenance_every_ = kMaintenanceEvery;
  }

  void WarmUp() override { WarmAllKeys(); }

  void Verify(OpLog* log) const override {
    LiveSet live(bulk_);
    size_t next = 0;  // next captured read
    for (uint64_t i = 0; i < ops_.size() && next < log->captured.size(); ++i) {
      Apply(ops_[i], &live);
      if (log->captured[next].op == i) {
        std::string err = CheckRead(log->captured[next], live.Snapshot());
        if (!err.empty()) log->Fail("answer check: " + err);
        ++next;
      }
    }
  }

  std::vector<const Tuple*> FinalLive() const override {
    LiveSet live(bulk_);
    for (const Op& op : ops_) Apply(op, &live);
    return live.Snapshot();
  }
  std::vector<const Tuple*> Loaded() const override { return Pointers(bulk_); }

  size_t Fractures() const override {
    return table_->fractured()->num_fractures();
  }

 protected:
  Status Execute(uint64_t i, const Op& op, Tracer* tr, OpLog* log) override {
    if (op.kind == OpKind::kInsert) {
      log->user_bytes_written += insert_bytes_[op.tuple];
      ScopedSpan span(tr, SpanName::kEngineInsert, i);
      return table_->Insert(inserts_[op.tuple]);
    }
    if (op.kind == OpKind::kDelete) {
      log->user_bytes_written += insert_bytes_[op.tuple];
      ScopedSpan span(tr, SpanName::kEngineDelete, i);
      return table_->Delete(inserts_[op.tuple]);
    }
    return Read(i, op, -1, tr, log);
  }

 private:
  static constexpr uint64_t kPoolMb = 256;
  static constexpr size_t kMaintenanceEvery = 256;
  static constexpr TupleId kFreshIds = 100'000'000;

  void Apply(const Op& op, LiveSet* live) const {
    if (op.kind == OpKind::kInsert) live->Add(&inserts_[op.tuple]);
    if (op.kind == OpKind::kDelete) live->Remove(inserts_[op.tuple].id());
  }

  AuthorData data_;
  std::vector<Tuple> bulk_;
  std::vector<Tuple> inserts_;
  std::vector<uint64_t> insert_bytes_;
};

// ---------------------------------------------------------------------------
// fleet_sessions
// ---------------------------------------------------------------------------

class FleetSessions : public DbWorkload {
 public:
  explicit FleetSessions(const RunOptions& opts)
      : DbWorkload(opts, datagen::CarObsCols::kSegment) {
    wal_dir_ = std::make_unique<ScratchDir>(WalDirFor(opts));
    probe_qts_ = {0.3, 0.5, 0.7};
  }

  ~FleetSessions() override { Detach(); }

  size_t sessions() const override { return kSessions; }

  void Generate(size_t nops) override {
    datagen::CartelConfig cfg = datagen::CartelConfig{}.Scaled(scale());
    cfg.seed = opts_.seed;
    base_ = datagen::CartelGenerator(cfg).GenerateObservations();
    // Routing keys (each tuple's most likely segment), sorted: the source of
    // the range splits; their distinct values are the query keys.
    std::vector<std::string> routing;
    routing.reserve(base_.size());
    for (const Tuple& t : base_) {
      routing.push_back(t.values()[datagen::CarObsCols::kSegment]
                            .discrete()
                            .alternatives()[0]
                            .value);
    }
    std::sort(routing.begin(), routing.end());
    for (size_t i = 1; i < kShards; ++i) {
      std::string split = routing[i * routing.size() / kShards];
      if (splits_.empty() || split > splits_.back()) splits_.push_back(split);
    }
    keys_ = routing;
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());

    datagen::CartelConfig icfg = cfg;
    icfg.seed = SubSeed(opts_.seed, 5);
    datagen::CartelGenerator inserter(icfg);
    Rng rng(SubSeed(opts_.seed, 6));
    constexpr double kQts[] = {0.3, 0.5, 0.7};
    ops_.resize(nops);
    for (size_t i = 0; i < nops; ++i) {
      Op& op = ops_[i];
      // 50% inserts, 40% PTQ, 10% top-k. The first op after each barrier is
      // a read, run alone and checked.
      bool barrier = i % kBarrierEvery == 0;
      uint64_t r = barrier ? 50 + rng.Uniform(50) : rng.Uniform(100);
      if (r < 50) {
        op.kind = OpKind::kInsert;
        op.tuple = static_cast<uint32_t>(inserts_.size());
        inserts_.push_back(inserter.MakeObservation(kFreshIds + inserts_.size()));
      } else {
        op.kind = r < 90 ? OpKind::kPtq : OpKind::kTopK;
        op.key = static_cast<uint32_t>(rng.Uniform(keys_.size()));
        op.qt = kQts[rng.Uniform(3)];
      }
      op.sampled = barrier;
    }
    insert_bytes_.reserve(inserts_.size());
    for (const Tuple& t : inserts_) insert_bytes_.push_back(SerializedBytes(t));
  }

  void CreateTables() override {
    dbopts_.pool_bytes = kPoolMb << 20;
    dbopts_.device = upi::sim::DeviceProfile::Ssd();
    dbopts_.gather_workers = 0;
    dbopts_.maintenance.num_workers = 0;
    dbopts_.maintenance.policy.flush_max_buffered_tuples = 2048;
    dbopts_.wal_dir = wal_dir_->path();
    dbopts_.wal_mode = upi::wal::WalMode::kGroup;
    db_ = std::make_unique<engine::Database>(dbopts_);
    engine::PartitionOptions popts;
    popts.scheme = engine::PartitionOptions::Scheme::kRange;
    popts.range_splits = splits_;
    popts.num_shards = splits_.size() + 1;
    table_ = db_->CreatePartitionedTable(
                    kTableName, datagen::CartelGenerator::CarObservationSchema(),
                    ClusterOn(datagen::CarObsCols::kSegment), {}, popts, base_)
                 .ValueOrDie();
    Attach();
  }

  void WarmUp() override { WarmAllKeys(); }

  /// One client thread, two sessions, one op in flight per session. Results
  /// are collected in submission order, so an op's latency runs from its
  /// submit until the client holds its result. Every kBarrierEvery ops the
  /// client lets both sessions go idle, drains maintenance, and runs the
  /// next (sampled) read alone so its answer has an exact oracle.
  void RunOps(Tracer* tr, OpLog* log) override {
    struct Slot {
      bool busy = false;
      uint64_t op = 0;
      int64_t t0 = 0;
      int32_t span = -1;
      std::future<upi::Result<engine::QueryResult>> fut;
    };
    Slot slots[kSessions];
    auto submit = [&](size_t s, uint64_t i) {
      const Op& op = ops_[i];
      Slot& slot = slots[s];
      slot.busy = true;
      slot.op = i;
      slot.span = tr->enabled() ? tr->BeginDetached(RootSpanFor(op.kind), i)
                                : -1;
      slot.t0 = NowNs();
      engine::Session& session = *sessions_[s];
      if (op.kind == OpKind::kInsert) {
        log->user_bytes_written += insert_bytes_[op.tuple];
        slot.fut = session.SubmitInsert(*table_, inserts_[op.tuple]);
      } else if (op.kind == OpKind::kPtq) {
        slot.fut = session.Submit(*ptq_, keys_[op.key], op.qt);
      } else {
        slot.fut = session.Submit(*topk_, keys_[op.key]);
      }
    };
    auto complete = [&](size_t s) {
      Slot& slot = slots[s];
      upi::Result<engine::QueryResult> res = slot.fut.get();
      int64_t t1 = NowNs();
      slot.busy = false;
      const Op& op = ops_[slot.op];
      size_t kind = static_cast<size_t>(op.kind);
      log->latency_us[kind].push_back(static_cast<double>(t1 - slot.t0) / 1e3);
      ++log->count[kind];
      if (!res.ok()) {
        log->Fail("op " + std::to_string(slot.op) + ": " +
                  res.status().ToString());
        if (slot.span >= 0) tr->EndDetached(slot.span, 0, 0.0);
        return;
      }
      const engine::QueryResult& qr = res.value();
      log->rows[kind] += qr.rows.size();
      if (op.kind != OpKind::kInsert) log->CountPlan(op.kind, qr.plan.kind);
      if (slot.span >= 0) tr->EndDetached(slot.span, qr.rows.size(), qr.sim_ms);
      if (op.sampled) log->captured.push_back(Capture(slot.op, op, qr.rows));
    };
    auto drain = [&] {
      ScopedSpan span(tr, SpanName::kMaintenance, UINT64_MAX);
      db_->RunMaintenance();
    };

    const uint64_t n = ops_.size();
    for (uint64_t begin = 0; begin < n; begin += kBarrierEvery) {
      uint64_t end = std::min(n, begin + kBarrierEvery);
      if (begin > 0) drain();
      submit(0, begin);
      complete(0);
      uint64_t next = begin + 1;
      for (size_t s = 0; s < kSessions && next < end; ++s) submit(s, next++);
      for (size_t s = 0; slots[0].busy || slots[1].busy;
           s = (s + 1) % kSessions) {
        if (!slots[s].busy) continue;
        complete(s);
        if (next < end) submit(s, next++);
      }
    }
    drain();
  }

  void Verify(OpLog* log) const override {
    std::vector<const Tuple*> live = Pointers(base_);
    uint64_t applied = 0;  // ops whose inserts are in `live`
    for (const CapturedRead& c : log->captured) {
      for (; applied < c.op; ++applied) {
        const Op& op = ops_[applied];
        if (op.kind == OpKind::kInsert) live.push_back(&inserts_[op.tuple]);
      }
      std::string err = CheckRead(c, live);
      if (!err.empty()) log->Fail("answer check: " + err);
    }
  }

  std::vector<const Tuple*> FinalLive() const override {
    std::vector<const Tuple*> live = Pointers(base_);
    for (const Tuple& t : inserts_) live.push_back(&t);
    return live;
  }
  std::vector<const Tuple*> Loaded() const override { return Pointers(base_); }

  size_t Fractures() const override {
    const engine::PartitionedTable* part = table_->partitioned();
    size_t n = 0;
    for (size_t s = 0; s < part->num_shards(); ++s) {
      n += part->shard_fractured(s)->num_fractures();
    }
    return n;
  }

  const engine::PartitionedTable* partitioned() const override {
    return table_->partitioned();
  }

 protected:
  void Detach() override {
    sessions_.clear();  // joins the workers
    DbWorkload::Detach();
  }
  void Attach() override {
    DbWorkload::Attach();
    for (size_t s = 0; s < kSessions; ++s) {
      sessions_.push_back(std::make_unique<engine::Session>(db_.get()));
    }
  }

 private:
  static constexpr uint64_t kPoolMb = 256;
  static constexpr size_t kSessions = 2;
  static constexpr size_t kShards = 4;
  static constexpr uint64_t kBarrierEvery = 512;
  static constexpr TupleId kFreshIds = TupleId{1} << 30;

  std::vector<Tuple> base_;
  std::vector<Tuple> inserts_;
  std::vector<uint64_t> insert_bytes_;
  std::vector<std::string> splits_;
  std::vector<std::unique_ptr<engine::Session>> sessions_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "point_resident", "analytic_evicting", "ingest_durable",
      "fleet_sessions"};
  return kNames;
}

double NominalOpsPerSecond(const std::string& workload) {
  // Measured on a 4-vCPU Xeon host; the window's op count is fixed from
  // these, so a faster engine finishes the same work sooner.
  if (workload == "point_resident") return 5000;
  if (workload == "analytic_evicting") return 110;
  // Inserts make later ops dearer (the table grows, merges rewrite more),
  // so this one is sized by data volume rather than time: ~27k inserts.
  if (workload == "ingest_durable") return 3000;
  return 3800;  // fleet_sessions
}

std::unique_ptr<Workload> MakeWorkload(const RunOptions& opts) {
  if (opts.workload == "point_resident") {
    return std::make_unique<PointResident>(opts);
  }
  if (opts.workload == "analytic_evicting") {
    return std::make_unique<AnalyticEvicting>(opts);
  }
  if (opts.workload == "ingest_durable") {
    return std::make_unique<IngestDurable>(opts);
  }
  if (opts.workload == "fleet_sessions") {
    return std::make_unique<FleetSessions>(opts);
  }
  return nullptr;
}

}  // namespace perfbench
