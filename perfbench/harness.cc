#include "harness.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kPtq: return "ptq";
    case OpKind::kTopK: return "topk";
    case OpKind::kSecondary: return "secondary";
    case OpKind::kInsert: return "insert";
    case OpKind::kDelete: return "delete";
  }
  return "?";
}

const char* SpanNameString(SpanName name) {
  static constexpr const char* kNames[kNumSpanNames] = {
      "op.ptq",           "op.topk",           "op.secondary",
      "op.insert",        "op.delete",         "engine.bind",
      "exec.execute.ptq", "exec.execute.topk", "exec.execute.secondary",
      "exec.aggregate",   "engine.insert",     "engine.delete",
      "maintenance.run"};
  return kNames[static_cast<size_t>(name)];
}

SpanName RootSpanFor(OpKind kind) {
  switch (kind) {
    case OpKind::kPtq: return SpanName::kOpPtq;
    case OpKind::kTopK: return SpanName::kOpTopK;
    case OpKind::kSecondary: return SpanName::kOpSecondary;
    case OpKind::kInsert: return SpanName::kOpInsert;
    case OpKind::kDelete: return SpanName::kOpDelete;
  }
  return SpanName::kOpPtq;
}

SpanName ExecSpanFor(OpKind kind) {
  switch (kind) {
    case OpKind::kTopK: return SpanName::kExecTopK;
    case OpKind::kSecondary: return SpanName::kExecSecondary;
    default: return SpanName::kExecPtq;
  }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(bool enabled, const upi::sim::SimDisk* disk,
               const upi::storage::BufferPool* pool)
    : enabled_(enabled), disk_(disk), pool_(pool), origin_ns_(NowNs()) {
  if (enabled_) spans_.reserve(1 << 16);
}

Counters Tracer::Read() const {
  return Counters{disk_->thread_stats(), pool_->counters()};
}

int32_t Tracer::Begin(SpanName name, uint64_t op) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  s.cpu_ns = ThreadCpuNs();
  open_counters_.push_back(Read());
  s.start_ns = NowNs();
  int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  return id;
}

void Tracer::End(int32_t id, uint64_t rows) {
  int64_t end = NowNs();
  Counters now = Read();
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = end;
  s.cpu_ns = ThreadCpuNs() - s.cpu_ns;
  s.rows = rows;
  const Counters& start = open_counters_.back();
  s.delta.disk = now.disk - start.disk;
  s.delta.pool.hits = now.pool.hits - start.pool.hits;
  s.delta.pool.misses = now.pool.misses - start.pool.misses;
  s.delta.pool.evictions = now.pool.evictions - start.pool.evictions;
  s.delta.pool.writebacks = now.pool.writebacks - start.pool.writebacks;
  s.sim_ms = s.delta.disk.SimMs(disk_->params());
  open_counters_.pop_back();
  stack_.pop_back();
}

int32_t Tracer::BeginDetached(SpanName name, uint64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::EndDetached(int32_t id, uint64_t rows, double sim_ms) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = NowNs();
  s.rows = rows;
  s.sim_ms = sim_ms;
}

bool WriteSpans(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(
      "id\tparent\top\tname\tstart_us\tdur_us\tcpu_us\trows\tsim_ms\treads\t"
      "writes\tseeks\tbytes_read\tbytes_written\tfile_opens\trotations\t"
      "pool_hits\tpool_misses\tpool_evictions\tpool_writebacks\n",
      f);
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const upi::sim::DiskStats& d = s.delta.disk;
    const auto& p = s.delta.pool;
    std::fprintf(
        f,
        "%zu\t%d\t%lld\t%s\t%.3f\t%.3f\t%.3f\t%llu\t%.9g\t%llu\t%llu\t%llu\t"
        "%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\n",
        i, s.parent,
        s.op == UINT64_MAX ? -1LL : static_cast<long long>(s.op),
        SpanNameString(s.name), (s.start_ns - tracer.origin_ns()) / 1e3,
        (s.end_ns - s.start_ns) / 1e3, s.cpu_ns / 1e3,
        static_cast<unsigned long long>(s.rows), s.sim_ms,
        static_cast<unsigned long long>(d.reads),
        static_cast<unsigned long long>(d.writes),
        static_cast<unsigned long long>(d.seeks),
        static_cast<unsigned long long>(d.bytes_read),
        static_cast<unsigned long long>(d.bytes_written),
        static_cast<unsigned long long>(d.file_opens),
        static_cast<unsigned long long>(d.rotations),
        static_cast<unsigned long long>(p.hits),
        static_cast<unsigned long long>(p.misses),
        static_cast<unsigned long long>(p.evictions),
        static_cast<unsigned long long>(p.writebacks));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

std::vector<std::pair<TupleId, double>> RowsOf(
    const std::vector<upi::core::PtqMatch>& matches) {
  std::vector<std::pair<TupleId, double>> rows;
  rows.reserve(matches.size());
  for (const auto& m : matches) rows.emplace_back(m.id, m.confidence);
  return rows;
}

namespace {

constexpr double kTolerance = 1e-6;

std::string Describe(const CapturedRead& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "op %llu %s(%s, qt=%.2f, k=%zu)",
                static_cast<unsigned long long>(r.op), OpKindName(r.kind),
                r.value.c_str(), r.qt, r.k);
  return buf;
}

}  // namespace

std::string CheckRead(const CapturedRead& read,
                      const std::vector<const Tuple*>& live) {
  std::map<TupleId, double> truth;  // every live tuple with confidence > 0
  std::map<TupleId, const Tuple*> source;  // the same tuples, by id
  for (const Tuple* t : live) {
    double c = t->ConfidenceOf(static_cast<size_t>(read.column), read.value);
    if (c > 0) {
      truth[t->id()] = c;
      source[t->id()] = t;
    }
  }
  std::map<TupleId, double> got;
  for (const auto& [id, conf] : read.rows) {
    auto it = truth.find(id);
    if (it == truth.end()) {
      return Describe(read) + ": returned tuple " + std::to_string(id) +
             " that does not match";
    }
    if (std::fabs(it->second - conf) > kTolerance) {
      return Describe(read) + ": confidence of tuple " + std::to_string(id) +
             " is " + std::to_string(conf) + ", expected " +
             std::to_string(it->second);
    }
    if (!got.emplace(id, conf).second) {
      return Describe(read) + ": tuple " + std::to_string(id) +
             " returned twice";
    }
  }
  if (read.kind == OpKind::kTopK) {
    std::vector<double> want;
    for (const auto& [id, c] : truth) want.push_back(c);
    std::sort(want.rbegin(), want.rend());
    if (want.size() > read.k) want.resize(read.k);
    std::vector<double> have;
    for (const auto& [id, c] : got) have.push_back(c);
    std::sort(have.rbegin(), have.rend());
    if (have.size() != want.size()) {
      return Describe(read) + ": returned " + std::to_string(have.size()) +
             " rows, expected " + std::to_string(want.size());
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (std::fabs(have[i] - want[i]) > kTolerance) {
        return Describe(read) + ": rank " + std::to_string(i) +
               " confidence " + std::to_string(have[i]) + ", expected " +
               std::to_string(want[i]);
      }
    }
    return "";
  }
  for (const auto& [id, c] : truth) {
    bool must = c >= read.qt + kTolerance;
    bool may = c >= read.qt - kTolerance;
    bool present = got.count(id) != 0;
    if (must && !present) {
      return Describe(read) + ": missing tuple " + std::to_string(id) +
             " with confidence " + std::to_string(c);
    }
    if (present && !may) {
      return Describe(read) + ": tuple " + std::to_string(id) +
             " below threshold (" + std::to_string(c) + ")";
    }
  }
  if (read.group_column < 0) return "";
  // GROUP BY by brute force over the oracle's copies of the returned rows.
  std::map<std::string, upi::exec::GroupCount> want;
  for (const auto& [id, conf] : got) {
    const upi::catalog::Value& v = source[id]->Get(read.group_column);
    if (v.type() != upi::catalog::ValueType::kString) continue;
    upi::exec::GroupCount& g = want[v.str()];
    ++g.count;
    g.expected_count += truth[id];
  }
  if (read.groups.size() != want.size()) {
    return Describe(read) + ": " + std::to_string(read.groups.size()) +
           " groups, expected " + std::to_string(want.size());
  }
  for (const auto& [group, g] : want) {
    auto it = read.groups.find(group);
    if (it == read.groups.end()) {
      return Describe(read) + ": group " + group + " missing";
    }
    const double tolerance = kTolerance * static_cast<double>(g.count);
    if (it->second.count != g.count ||
        std::fabs(it->second.expected_count - g.expected_count) > tolerance) {
      return Describe(read) + ": group " + group + " has count " +
             std::to_string(it->second.count) + " expected_count " +
             std::to_string(it->second.expected_count) + ", expected " +
             std::to_string(g.count) + " / " +
             std::to_string(g.expected_count);
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t ProcStatusField(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  size_t len = std::strlen(field);
  int64_t value = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      value = std::strtoll(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

namespace {
// A store the compiler must keep, so the probe loop is not optimized away.
volatile uint64_t g_probe_sink = 0;
}  // namespace

double HostProbeMs() {
  // 16 MiB of 64-bit words, past the per-core L2, walked in a fixed
  // pseudo-random order: a memory-latency-bound loop whose work never
  // changes. The table lives for the whole process, so the probe adds a
  // constant to the resident set instead of a peak that depends on timing.
  constexpr size_t kWords = size_t{1} << 21;
  constexpr size_t kSteps = size_t{1} << 20;
  static const std::vector<uint64_t> table = [] {
    std::vector<uint64_t> t(kWords);
    for (size_t i = 0; i < kWords; ++i) t[i] = i * 0x9E3779B97F4A7C15ull;
    return t;
  }();
  int64_t t0 = NowNs();
  uint64_t x = 88172645463325252ull;
  uint64_t acc = 0;
  for (size_t i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[(x ^ acc) & (kWords - 1)];
  }
  int64_t t1 = NowNs();
  g_probe_sink = acc;
  return static_cast<double>(t1 - t0) / 1e6;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx), v.end());
  return v[idx];
}

uint64_t SerializedBytes(const Tuple& t) {
  std::string buf;
  t.Serialize(&buf);
  return buf.size();
}

void OpLog::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 5) errors.push_back(what);
}

}  // namespace perfbench
