#include "core/upi.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace upi::core {

using catalog::Tuple;
using catalog::TupleId;
using catalog::Value;
using catalog::ValueType;

namespace {

std::string SecondaryFileName(const std::string& upi_name,
                              const catalog::Schema& schema, int column) {
  return upi_name + ".sec." + schema.column(column).name;
}

/// The staging buffer of a bulk build or merge: encoded keys and pointer
/// lists appended back to back, each named by a fixed-size Ref. Staging an
/// entry allocates nothing of its own, and sorting entries moves only Refs.
class StagingArena {
 public:
  /// `size` bytes at `offset`, staged for input tuple `tuple`.
  struct Ref {
    uint64_t offset;
    uint32_t size;
    uint32_t tuple;
  };

  /// Stages what `write(std::string*)` appends.
  template <typename Write>
  Ref Add(const Write& write, size_t tuple = 0) {
    const size_t offset = bytes_.size();
    write(&bytes_);
    return Ref{offset, static_cast<uint32_t>(bytes_.size() - offset),
               static_cast<uint32_t>(tuple)};
  }
  /// Stages the encoded UPI key (attr, prob, id).
  Ref AddKey(std::string_view attr, double prob, TupleId id,
             size_t tuple = 0) {
    return Add(
        [&](std::string* out) { AppendUpiKey(out, attr, prob, id); }, tuple);
  }

  std::string_view View(const Ref& r) const {
    return std::string_view(bytes_.data() + r.offset, r.size);
  }
  /// Sorts `refs` by their bytes: ascending key order for staged keys.
  void Sort(std::vector<Ref>* refs) const {
    std::sort(refs->begin(), refs->end(),
              [this](const Ref& a, const Ref& b) { return View(a) < View(b); });
  }
  /// Forgets every staged byte; the buffer keeps its capacity for reuse.
  void Clear() { bytes_.clear(); }

 private:
  std::string bytes_;
};

/// K-way merge of B+Trees whose keys are globally unique: emits every (key,
/// value) pair in ascending key order. The parallel sort-merge of Section 4.3.
Status MergeTrees(const std::vector<const btree::BTree*>& trees,
                  const std::function<Status(std::string_view, std::string_view)>& emit) {
  std::vector<btree::Cursor> curs;
  curs.reserve(trees.size());
  for (const btree::BTree* t : trees) {
    curs.push_back(t->SeekToFirst());
    // Stream each source in sequential bursts (Section 4.3: merging costs
    // about one sequential read + write of the data).
    curs.back().SetReadahead(128);
  }
  while (true) {
    int best = -1;
    for (size_t i = 0; i < curs.size(); ++i) {
      if (!curs[i].Valid()) continue;
      if (best < 0 || curs[i].key() < curs[best].key()) best = static_cast<int>(i);
    }
    if (best < 0) break;
    UPI_RETURN_NOT_OK(emit(curs[best].key(), curs[best].value()));
    curs[best].Next();
  }
  return Status::OK();
}

}  // namespace

Status CheckClusteredValue(const Tuple& tuple, int cluster_column) {
  if (cluster_column < 0 ||
      static_cast<size_t>(cluster_column) >= tuple.values().size() ||
      tuple.Get(cluster_column).type() != ValueType::kDiscrete ||
      tuple.Get(cluster_column).discrete().empty()) {
    return Status::InvalidArgument("tuple " + std::to_string(tuple.id()) +
                                   " lacks clustered alternatives");
  }
  return Status::OK();
}

Status CheckDistinctIds(const std::vector<Tuple>& tuples) {
  std::vector<TupleId> ids;
  ids.reserve(tuples.size());
  for (const Tuple& t : tuples) ids.push_back(t.id());
  return CheckDistinctIds(std::move(ids));
}

Status CheckDistinctIds(std::vector<TupleId> ids) {
  std::sort(ids.begin(), ids.end());
  auto repeat = std::adjacent_find(ids.begin(), ids.end());
  if (repeat != ids.end()) {
    return Status::InvalidArgument("tuple id " + std::to_string(*repeat) +
                                   " appears more than once");
  }
  return Status::OK();
}

Upi::Upi(storage::DbEnv* env, std::string name, catalog::Schema schema,
         UpiOptions options, btree::BTree heap,
         std::unique_ptr<CutoffIndex> cutoff,
         std::map<int, std::unique_ptr<SecondaryIndex>> secondaries,
         histogram::ProbHistogram histogram,
         std::map<int, histogram::ProbHistogram> sec_histograms,
         uint64_t num_tuples, bool fracture)
    : env_(env),
      name_(std::move(name)),
      schema_(std::move(schema)),
      options_(options),
      heap_(std::make_unique<btree::BTree>(std::move(heap))),
      cutoff_(std::move(cutoff)),
      secondaries_(std::move(secondaries)),
      histogram_(std::move(histogram)),
      sec_histograms_(std::move(sec_histograms)),
      num_tuples_(num_tuples),
      fracture_(fracture) {}

void Upi::Release(std::unique_ptr<Upi> upi) {
  storage::DbEnv* env = upi->env_;
  std::vector<storage::PageFile*> files = {upi->heap_file(),
                                           upi->cutoff_->file()};
  for (const auto& [col, sec] : upi->secondaries_) files.push_back(sec->file());
  upi.reset();  // its trees hold pagers onto the files
  for (storage::PageFile* file : files) env->DropFile(file);
}

SecondaryIndex* Upi::secondary(int column) const {
  auto it = secondaries_.find(column);
  return it == secondaries_.end() ? nullptr : it->second.get();
}

const histogram::ProbHistogram* Upi::secondary_histogram(int column) const {
  auto it = sec_histograms_.find(column);
  return it == sec_histograms_.end() ? nullptr : &it->second;
}

double Upi::EstimateSecondaryMatches(int column, std::string_view value,
                                     double qt) const {
  const histogram::ProbHistogram* hist = secondary_histogram(column);
  if (hist == nullptr) return 0.0;
  return hist->CountRest(value, qt, 1.0 + 1e-9);
}

histogram::PtqEstimate Upi::EstimatePtq(std::string_view value, double qt) const {
  histogram::SelectivityEstimator est(&histogram_);
  return est.EstimatePtq(value, qt, options_.cutoff);
}

double Upi::SecondaryAvgPointers(int column) const {
  SecondaryIndex* sec = secondary(column);
  return sec == nullptr ? 1.0 : sec->avg_pointers();
}

double Upi::EstimateTopKThreshold(std::string_view value, size_t k) const {
  histogram::SelectivityEstimator est(&histogram_);
  return est.EstimateKthThreshold(value, k);
}

PathStats Upi::Stats() const {
  PathStats s;
  s.table = TableStats::Of(*this);
  s.cutoff = options_.cutoff;
  s.heap_entries = heap_entries();
  s.num_tuples = num_tuples_;
  s.seek_span_bytes = heap_file()->disk()->SeekSpan();
  s.distinct_primary_values =
      static_cast<double>(histogram_.distinct_values());
  s.charges_open_per_query = options_.charge_open_per_query;
  s.supports_direct_topk = true;
  return s;
}

uint64_t Upi::size_bytes() const {
  uint64_t total = heap_->size_bytes() + cutoff_->size_bytes();
  for (const auto& [col, sec] : secondaries_) total += sec->size_bytes();
  return total;
}

Upi::AltPartition Upi::PartitionAlternatives(const Tuple& tuple,
                                             const UpiOptions& options) {
  AltPartition part;
  const auto& dist = tuple.Get(options.cluster_column).discrete();
  bool first = true;
  for (const auto& alt : dist.alternatives()) {
    double combined = tuple.existence() * alt.prob;
    // Algorithm 1: first alternative OR probability >= C goes to the heap.
    if (first || combined >= options.cutoff) {
      part.heap_alts.push_back(SecondaryPointer{alt.value, combined});
    } else {
      part.cutoff_alts.push_back(SecondaryPointer{alt.value, combined});
    }
    first = false;
  }
  return part;
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Status Upi::Insert(const Tuple& tuple) {
  UPI_RETURN_NOT_OK(CheckClusteredValue(tuple, options_.cluster_column));
  AltPartition part = PartitionAlternatives(tuple, options_);
  std::string tuple_bytes;
  tuple.Serialize(&tuple_bytes);
  std::string first_key =
      EncodeUpiKey(part.heap_alts[0].attr, part.heap_alts[0].prob, tuple.id());
  for (size_t i = 0; i < part.heap_alts.size(); ++i) {
    const auto& alt = part.heap_alts[i];
    UPI_RETURN_NOT_OK(
        heap_->Put(EncodeUpiKey(alt.attr, alt.prob, tuple.id()), tuple_bytes)
            .status());
    histogram_.Add(alt.attr, alt.prob, /*is_first=*/i == 0);
  }
  for (const auto& alt : part.cutoff_alts) {
    UPI_RETURN_NOT_OK(cutoff_->Add(alt.attr, alt.prob, tuple.id(), first_key));
    histogram_.Add(alt.attr, alt.prob, /*is_first=*/false);
  }
  UPI_RETURN_NOT_OK(InsertSecondaryEntries(tuple, part));
  ++num_tuples_;
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Upi::Delete(const Tuple& tuple) {
  UPI_RETURN_NOT_OK(CheckClusteredValue(tuple, options_.cluster_column));
  AltPartition part = PartitionAlternatives(tuple, options_);
  for (size_t i = 0; i < part.heap_alts.size(); ++i) {
    const auto& alt = part.heap_alts[i];
    UPI_RETURN_NOT_OK(heap_->Delete(EncodeUpiKey(alt.attr, alt.prob, tuple.id())));
    histogram_.Remove(alt.attr, alt.prob, /*is_first=*/i == 0);
  }
  for (const auto& alt : part.cutoff_alts) {
    UPI_RETURN_NOT_OK(cutoff_->Remove(alt.attr, alt.prob, tuple.id()));
    histogram_.Remove(alt.attr, alt.prob, /*is_first=*/false);
  }
  UPI_RETURN_NOT_OK(RemoveSecondaryEntries(tuple));
  --num_tuples_;
  stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Upi::InsertSecondaryEntries(const Tuple& tuple, const AltPartition& part) {
  for (auto& [col, sec] : secondaries_) {
    const Value& sv = tuple.Get(col);
    if (sv.type() != ValueType::kDiscrete) continue;
    for (const auto& alt : sv.discrete().alternatives()) {
      double conf = tuple.existence() * alt.prob;
      UPI_RETURN_NOT_OK(sec->Put(alt.value, conf, tuple.id(), part.heap_alts,
                                 !part.cutoff_alts.empty()));
      sec_histograms_[col].Add(alt.value, conf, /*is_first=*/false);
    }
  }
  return Status::OK();
}

Status Upi::RemoveSecondaryEntries(const Tuple& tuple) {
  for (auto& [col, sec] : secondaries_) {
    const Value& sv = tuple.Get(col);
    if (sv.type() != ValueType::kDiscrete) continue;
    for (const auto& alt : sv.discrete().alternatives()) {
      double conf = tuple.existence() * alt.prob;
      UPI_RETURN_NOT_OK(sec->Remove(alt.value, conf, tuple.id()));
      sec_histograms_[col].Remove(alt.value, conf, /*is_first=*/false);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Bulk build and merge
// ---------------------------------------------------------------------------

Status Upi::CheckSecondaryColumns(const catalog::Schema& schema,
                                  const std::vector<int>& columns) {
  for (int col : columns) {
    if (col < 0 || static_cast<size_t>(col) >= schema.num_columns()) {
      return Status::InvalidArgument("secondary column out of range");
    }
    if (schema.column(col).type != ValueType::kDiscrete) {
      return Status::InvalidArgument("secondary index requires a discrete column");
    }
    if (std::count(columns.begin(), columns.end(), col) > 1) {
      return Status::InvalidArgument("duplicate secondary column");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Upi>> Upi::Build(storage::DbEnv* env, std::string name,
                                        catalog::Schema schema, UpiOptions options,
                                        std::vector<int> secondary_columns,
                                        const std::vector<Tuple>& tuples,
                                        FractureSummary::Builder* fracture) {
  // The columns, the ids, and the tuples in the partitioning pass below are
  // checked before the first file is created; a failure after that drops the
  // files (storage::NewFiles). A rejected build must leave no file behind, or
  // a retry under the same name would collide. Distinct ids also make every
  // heap key distinct: a heap key carries its tuple's id.
  UPI_RETURN_NOT_OK(CheckSecondaryColumns(schema, secondary_columns));
  UPI_RETURN_NOT_OK(CheckDistinctIds(tuples));

  // Every heap and cutoff key is encoded once into `keys`; the heap and the
  // cutoff index are fed from sorted Refs. A cutoff entry points at its
  // tuple's first heap key. Each tuple's secondary pointer list is the same
  // for all its secondary entries, so it is encoded once, into
  // `pointer_lists`.
  StagingArena keys;
  std::vector<StagingArena::Ref> heap_keys;
  std::vector<StagingArena::Ref> cutoff_keys;
  std::vector<StagingArena::Ref> first_keys(tuples.size());
  StagingArena pointer_lists;
  std::vector<StagingArena::Ref> pointers_of;
  if (!secondary_columns.empty()) pointers_of.reserve(tuples.size());
  histogram::ProbHistogram histogram;
  auto add_clustered = [&](const SecondaryPointer& alt, bool is_first) {
    histogram.Add(alt.attr, alt.prob, is_first);
    // Every clustered alternative is reachable (heap entries directly,
    // cutoff entries through their pointers), so all of them fence.
    if (fracture != nullptr) {
      fracture->AddKey(options.cluster_column, alt.attr, alt.prob);
    }
  };

  std::string tuple_bytes;
  for (size_t i = 0; i < tuples.size(); ++i) {
    const Tuple& t = tuples[i];
    UPI_RETURN_NOT_OK(CheckClusteredValue(t, options.cluster_column));
    AltPartition part = PartitionAlternatives(t, options);
    tuple_bytes.clear();
    t.Serialize(&tuple_bytes);
    for (size_t a = 0; a < part.heap_alts.size(); ++a) {
      const auto& alt = part.heap_alts[a];
      StagingArena::Ref key = keys.AddKey(alt.attr, alt.prob, t.id(), i);
      if (btree::kNodeHeaderSize +
              btree::Node::LeafEntrySize(keys.View(key), tuple_bytes) >
          kPageSize) {
        return Status::InvalidArgument("tuple " + std::to_string(t.id()) +
                                       " does not fit a heap page");
      }
      if (a == 0) first_keys[i] = key;
      heap_keys.push_back(key);
      add_clustered(alt, /*is_first=*/a == 0);
    }
    for (const auto& alt : part.cutoff_alts) {
      cutoff_keys.push_back(keys.AddKey(alt.attr, alt.prob, t.id(), i));
      add_clustered(alt, /*is_first=*/false);
    }
    if (fracture != nullptr) fracture->AddTupleId(t.id());
    if (!secondary_columns.empty()) {
      pointers_of.push_back(pointer_lists.Add(
          [&](std::string* out) {
            SecondaryIndex::EncodeLimitedPointers(
                part.heap_alts, !part.cutoff_alts.empty(),
                options.max_secondary_pointers, out);
          },
          i));
    }
  }

  // From here on a failure drops every file this build created.
  storage::NewFiles files(env);
  keys.Sort(&heap_keys);
  UPI_ASSIGN_OR_RETURN(storage::PageFile* heap_file,
                       files.Create(name + ".heap", kPageSize));
  btree::BTreeBuilder heap_builder(env->MakePager(heap_file));
  for (const StagingArena::Ref& e : heap_keys) {
    tuple_bytes.clear();
    tuples[e.tuple].Serialize(&tuple_bytes);
    UPI_RETURN_NOT_OK(heap_builder.Add(keys.View(e), tuple_bytes));
  }
  UPI_ASSIGN_OR_RETURN(btree::BTree heap, heap_builder.Finish());

  keys.Sort(&cutoff_keys);
  UPI_ASSIGN_OR_RETURN(storage::PageFile* cutoff_file,
                       files.Create(name + ".cutoff", kPageSize));
  CutoffIndex::Builder cutoff_builder(env->MakePager(cutoff_file));
  for (const StagingArena::Ref& e : cutoff_keys) {
    UPI_RETURN_NOT_OK(
        cutoff_builder.Add(keys.View(e), keys.View(first_keys[e.tuple])));
  }
  UPI_ASSIGN_OR_RETURN(std::unique_ptr<CutoffIndex> cutoff,
                       cutoff_builder.Finish());
  // The secondary phase stages its keys in the same buffer.
  keys.Clear();
  heap_keys = std::vector<StagingArena::Ref>();
  cutoff_keys = std::vector<StagingArena::Ref>();
  first_keys = std::vector<StagingArena::Ref>();

  std::map<int, std::unique_ptr<SecondaryIndex>> secondaries;
  std::map<int, histogram::ProbHistogram> sec_histograms;
  for (int col : secondary_columns) {
    std::vector<StagingArena::Ref> entries;
    histogram::ProbHistogram& sec_hist = sec_histograms[col];
    for (size_t i = 0; i < tuples.size(); ++i) {
      const Tuple& t = tuples[i];
      const Value& sv = t.Get(col);
      if (sv.type() != ValueType::kDiscrete) continue;
      for (const auto& alt : sv.discrete().alternatives()) {
        double conf = t.existence() * alt.prob;
        entries.push_back(keys.AddKey(alt.value, conf, t.id(), i));
        sec_hist.Add(alt.value, conf, /*is_first=*/false);
        if (fracture != nullptr) fracture->AddKey(col, alt.value, conf);
      }
    }
    keys.Sort(&entries);
    UPI_ASSIGN_OR_RETURN(
        storage::PageFile* sec_file,
        files.Create(SecondaryFileName(name, schema, col), kPageSize));
    SecondaryIndex::Builder builder(env->MakePager(sec_file),
                                    options.max_secondary_pointers);
    for (const StagingArena::Ref& e : entries) {
      UPI_RETURN_NOT_OK(
          builder.Add(keys.View(e), pointer_lists.View(pointers_of[e.tuple])));
    }
    UPI_ASSIGN_OR_RETURN(secondaries[col], builder.Finish());
    keys.Clear();
  }

  files.Keep();
  return std::unique_ptr<Upi>(
      new Upi(env, std::move(name), std::move(schema), options,
              std::move(heap), std::move(cutoff), std::move(secondaries),
              std::move(histogram), std::move(sec_histograms), tuples.size(),
              /*fracture=*/fracture != nullptr));
}

Result<std::unique_ptr<Upi>> Upi::Merge(const std::vector<const Upi*>& sources,
                                        std::string name, UpiOptions options,
                                        const std::set<TupleId>& deleted,
                                        std::set<TupleId>* filtered_ids,
                                        FractureSummary::Builder* summary) {
  if (sources.empty()) return Status::InvalidArgument("merge of no fractures");
  // Fractures of one table share its environment, schema and secondaries.
  storage::DbEnv* env = sources.front()->env_;
  const catalog::Schema& schema = sources.front()->schema_;
  // The merged UPI is repartitioned under a single cutoff threshold. Sources
  // may have been built with different per-fracture thresholds (Section 4.2),
  // so the merged C is the maximum of the current setting and every source's:
  // then repartitioning only ever *demotes* heap entries into the cutoff
  // index (the tuple bytes are in the stream), never promotes cutoff entries
  // into the heap (which would need extra random reads). Lowering C requires
  // a rebuild from base data, not a merge.
  for (const Upi* s : sources) {
    options.cutoff = std::max(options.cutoff, s->options_.cutoff);
  }
  const double c_merged = options.cutoff;

  // Each stream decodes every key once; the attribute is a view into the
  // key (into `scratch` only when it holds a NUL byte). Every entry probes
  // the delete set, so it is probed as a hash set.
  std::string scratch;
  const std::unordered_set<TupleId> deleted_ids(deleted.begin(), deleted.end());
  auto decode_live = [&](std::string_view key, UpiKeyView* k,
                         bool* keep) -> Status {
    *keep = false;
    UPI_RETURN_NOT_OK(DecodeUpiKeyView(key, &scratch, k));
    *keep = !deleted_ids.contains(k->id);
    if (!*keep) filtered_ids->insert(k->id);
    return Status::OK();
  };

  // Heap: k-way merge of all source heaps into a fresh bulk-loaded tree.
  // Entries whose combined probability falls below the merged cutoff (and
  // that are not their tuple's first alternative) are demoted to the cutoff
  // index. Heap keys alone cannot tell whether an entry is its tuple's
  // *first* alternative, but the streamed tuple bytes can.
  // The stream is in key order, so each attribute value arrives as one run:
  // `heap_attrs` holds it once, in ascending order, and the entries below
  // name it by index (index order is value order).
  histogram::ProbHistogram merged_hist;
  std::vector<std::string> heap_attrs;
  struct HistEntry {
    uint32_t attr;  // index into heap_attrs
    double prob;
    TupleId id;
  };
  struct Demoted {
    uint32_t attr;  // index into heap_attrs
    double prob;
    TupleId id;
    StagingArena::Ref key;        // its heap key, now its cutoff key
    StagingArena::Ref first_key;  // heap key of the tuple's first alternative
  };
  std::vector<HistEntry> heap_hist;
  std::vector<Demoted> demotions;  // produced in ascending key order
  StagingArena demoted_keys;
  std::vector<const btree::BTree*> trees;
  for (const Upi* s : sources) trees.push_back(s->heap_.get());
  // A failure drops every file this merge created.
  storage::NewFiles files(env);
  UPI_ASSIGN_OR_RETURN(storage::PageFile* heap_file,
                       files.Create(name + ".heap", kPageSize));
  btree::BTreeBuilder heap_builder(env->MakePager(heap_file));
  UPI_RETURN_NOT_OK(MergeTrees(
      trees, [&](std::string_view key, std::string_view value) -> Status {
        UpiKeyView k;
        bool keep = false;
        UPI_RETURN_NOT_OK(decode_live(key, &k, &keep));
        if (!keep) return Status::OK();
        if (heap_attrs.empty() || heap_attrs.back() != k.attr) {
          heap_attrs.emplace_back(k.attr);
        }
        const auto attr = static_cast<uint32_t>(heap_attrs.size() - 1);
        if (k.prob < c_merged) {
          // Possibly demote: only a tuple's first alternative stays in the
          // heap below the cutoff (Algorithm 1).
          const catalog::TupleView t(value);
          UPI_ASSIGN_OR_RETURN(Value cv, t.Column(options.cluster_column));
          if (cv.type() != ValueType::kDiscrete || cv.discrete().empty()) {
            return Status::Corruption("heap tuple lacks clustered alternatives");
          }
          const prob::Alternative& first = cv.discrete().First();
          if (first.value != k.attr) {
            demotions.push_back(Demoted{
                attr, k.prob, k.id,
                demoted_keys.Add([&](std::string* out) { out->append(key); }),
                demoted_keys.AddKey(first.value, t.existence() * first.prob,
                                    k.id)});
            return Status::OK();
          }
        }
        summary->AddKey(options.cluster_column, k.attr, k.prob);
        heap_hist.push_back(HistEntry{attr, k.prob, k.id});
        return heap_builder.Add(key, value);
      }));
  UPI_ASSIGN_OR_RETURN(btree::BTree heap, heap_builder.Finish());
  uint64_t distinct_tuples = 0;
  {
    std::unordered_map<TupleId, size_t> best;
    for (size_t i = 0; i < heap_hist.size(); ++i) {
      auto [it, inserted] = best.try_emplace(heap_hist[i].id, i);
      if (!inserted) {
        const HistEntry& cur = heap_hist[i];
        const HistEntry& b = heap_hist[it->second];
        if (cur.prob > b.prob ||
            (cur.prob == b.prob && cur.attr < b.attr)) {
          it->second = i;
        }
      }
    }
    distinct_tuples = best.size();
    for (const auto& [id, idx] : best) summary->AddTupleId(id);
    for (size_t i = 0; i < heap_hist.size(); ++i) {
      bool is_first = best[heap_hist[i].id] == i;
      merged_hist.Add(heap_attrs[heap_hist[i].attr], heap_hist[i].prob,
                      is_first);
    }
  }

  // Which (id, attr) alternatives were demoted — secondary pointer lists
  // referencing them must drop them (they are no longer heap-resident).
  std::unordered_map<TupleId, std::vector<uint32_t>> demoted_attrs;
  for (const Demoted& d : demotions) demoted_attrs[d.id].push_back(d.attr);

  // Cutoff index: (k+1)-way merge of the source cutoff trees plus the
  // demotion stream (already in ascending key order). First-alternative
  // pointers are merge-invariant, so source entries pass through unchanged.
  trees.clear();
  for (const Upi* s : sources) trees.push_back(s->cutoff_->tree());
  UPI_ASSIGN_OR_RETURN(storage::PageFile* cutoff_file,
                       files.Create(name + ".cutoff", kPageSize));
  CutoffIndex::Builder cutoff_builder(env->MakePager(cutoff_file));
  size_t next_demotion = 0;
  auto flush_demotions_below = [&](std::string_view key) -> Status {
    while (next_demotion < demotions.size()) {
      const Demoted& d = demotions[next_demotion];
      const std::string_view dkey = demoted_keys.View(d.key);
      if (!key.empty() && dkey >= key) break;
      merged_hist.Add(heap_attrs[d.attr], d.prob, /*is_first=*/false);
      summary->AddKey(options.cluster_column, heap_attrs[d.attr], d.prob);
      UPI_RETURN_NOT_OK(
          cutoff_builder.Add(dkey, demoted_keys.View(d.first_key)));
      ++next_demotion;
    }
    return Status::OK();
  };
  UPI_RETURN_NOT_OK(MergeTrees(
      trees, [&](std::string_view key, std::string_view value) -> Status {
        UpiKeyView k;
        bool keep = false;
        UPI_RETURN_NOT_OK(decode_live(key, &k, &keep));
        if (!keep) return Status::OK();
        UPI_RETURN_NOT_OK(flush_demotions_below(key));
        merged_hist.Add(k.attr, k.prob, /*is_first=*/false);
        summary->AddKey(options.cluster_column, k.attr, k.prob);
        return cutoff_builder.Add(key, value);
      }));
  UPI_RETURN_NOT_OK(flush_demotions_below(std::string_view()));
  UPI_ASSIGN_OR_RETURN(std::unique_ptr<CutoffIndex> cutoff,
                       cutoff_builder.Finish());

  // Secondary indexes: pointer lists name clustered-attribute alternatives,
  // which merging does not move — except demoted ones, which are filtered.
  // An entry passes through unchanged unless it names a demoted alternative
  // or holds more pointers than the merged limit; re-encoding any other
  // entry would write the same bytes. The per-column histogram is rebuilt
  // alongside (the planner's secondary estimates must survive merges).
  const int max_pointers = options.max_secondary_pointers;
  std::map<int, std::unique_ptr<SecondaryIndex>> secondaries;
  std::map<int, histogram::ProbHistogram> sec_histograms;
  std::vector<SecondaryPointer> pointers;
  std::string pointer_bytes;
  for (const auto& [col, unused] : sources.front()->secondaries_) {
    trees.clear();
    for (const Upi* s : sources) trees.push_back(s->secondary(col)->tree());
    UPI_ASSIGN_OR_RETURN(
        storage::PageFile* sec_file,
        files.Create(SecondaryFileName(name, schema, col), kPageSize));
    SecondaryIndex::Builder builder(env->MakePager(sec_file), max_pointers);
    histogram::ProbHistogram& sec_hist = sec_histograms[col];
    UPI_RETURN_NOT_OK(MergeTrees(
        trees, [&](std::string_view key, std::string_view value) -> Status {
          UpiKeyView k;
          bool keep = false;
          UPI_RETURN_NOT_OK(decode_live(key, &k, &keep));
          if (!keep) return Status::OK();
          sec_hist.Add(k.attr, k.prob, /*is_first=*/false);
          summary->AddKey(col, k.attr, k.prob);
          auto dit = demoted_attrs.find(k.id);
          if (dit == demoted_attrs.end()) {
            UPI_ASSIGN_OR_RETURN(uint32_t count,
                                 SecondaryIndex::PointerCount(value));
            if (max_pointers < 0 ||
                count <= static_cast<uint32_t>(max_pointers)) {
              return builder.Add(key, value);
            }
          }
          bool has_cutoff;
          UPI_RETURN_NOT_OK(
              SecondaryIndex::DecodePointers(value, &pointers, &has_cutoff));
          if (dit != demoted_attrs.end()) {
            auto is_demoted = [&](const SecondaryPointer& p) {
              return std::any_of(
                  dit->second.begin(), dit->second.end(),
                  [&](uint32_t attr) { return heap_attrs[attr] == p.attr; });
            };
            size_t before = pointers.size();
            pointers.erase(
                std::remove_if(pointers.begin(), pointers.end(), is_demoted),
                pointers.end());
            if (pointers.size() != before) has_cutoff = true;
          }
          pointer_bytes.clear();
          SecondaryIndex::EncodeLimitedPointers(pointers, has_cutoff,
                                                max_pointers, &pointer_bytes);
          return builder.Add(key, pointer_bytes);
        }));
    UPI_ASSIGN_OR_RETURN(secondaries[col], builder.Finish());
  }

  files.Keep();
  return std::unique_ptr<Upi>(
      new Upi(env, std::move(name), schema, options, std::move(heap),
              std::move(cutoff), std::move(secondaries), std::move(merged_hist),
              std::move(sec_histograms), distinct_tuples, /*fracture=*/true));
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Status Upi::FetchHeapTuple(std::string_view heap_key,
                           btree::SortedLookup* sorted,
                           catalog::EncodedTuple* out) const {
  if (sorted != nullptr) {
    std::string_view bytes;
    UPI_RETURN_NOT_OK(sorted->Get(heap_key, &bytes));
    return out->Assign(bytes);
  }
  UPI_ASSIGN_OR_RETURN(std::string bytes, heap_->Get(heap_key));
  return out->Assign(bytes);
}

std::unique_ptr<ResultCursor> Upi::OpenSecondary(
    int column, std::string_view value, double qt,
    SecondaryAccessMode mode) const {
  // Every row is fetched here, at open; an error rides in the cursor.
  std::vector<PtqMatch> rows;
  Status st = [&]() -> Status {
    SecondaryIndex* sec = secondary(column);
    if (sec == nullptr) return Status::InvalidArgument("no secondary index");
    // The secondary index's file pays Costinit only per query: the paper's
    // Cost_frac prices a fracture's open as its heap's, opened below.
    if (options_.charge_open_per_query) sec->ChargeOpen();
    std::vector<SecondaryEntry> entries;
    UPI_RETURN_NOT_OK(sec->Collect(value, qt, &entries));

    // Choose one heap pointer per entry.
    struct Chosen {
      std::string heap_key;
      const SecondaryEntry* entry;
    };
    std::vector<Chosen> chosen;
    chosen.reserve(entries.size());

    if (mode == SecondaryAccessMode::kFirstPointer) {
      for (const auto& e : entries) {
        chosen.push_back({EncodeUpiKey(e.pointers[0].attr, e.pointers[0].prob,
                                       e.key.id),
                          &e});
      }
    } else {
      // Algorithm 3: first pass pins the single-pointer entries' regions; the
      // second pass prefers pointers into regions already being read.
      std::set<std::string> regions;
      for (const auto& e : entries) {
        if (e.pointers.size() == 1) regions.insert(e.pointers[0].attr);
      }
      for (const auto& e : entries) {
        const SecondaryPointer* pick = nullptr;
        if (e.pointers.size() == 1) {
          pick = &e.pointers[0];
        } else {
          for (const auto& p : e.pointers) {
            if (regions.contains(p.attr)) {
              pick = &p;
              break;
            }
          }
          if (pick == nullptr) {
            pick = &e.pointers[0];
            regions.insert(pick->attr);
          }
        }
        chosen.push_back({EncodeUpiKey(pick->attr, pick->prob, e.key.id), &e});
      }
    }

    // Bitmap-scan style ordered fetch from the heap: one forward lookup
    // descends once per heap leaf, not once per pointer.
    std::sort(chosen.begin(), chosen.end(),
              [](const Chosen& a, const Chosen& b) { return a.heap_key < b.heap_key; });
    OpenFile(heap_file());
    btree::SortedLookup sorted(heap_.get());
    for (const auto& ch : chosen) {
      PtqMatch m;
      m.id = ch.entry->key.id;
      m.confidence = ch.entry->key.prob;
      UPI_RETURN_NOT_OK(FetchHeapTuple(ch.heap_key, &sorted, &m.tuple));
      rows.push_back(std::move(m));
    }
    return Status::OK();
  }();
  return std::make_unique<MaterializedCursor>(std::move(rows), std::move(st));
}

void Upi::ScanHeap(
    const std::function<void(std::string_view, std::string_view)>& fn) const {
  OpenFile(heap_file());
  for (btree::Cursor c = heap_->SeekToFirst(); c.Valid(); c.Next()) {
    fn(c.key(), c.value());
  }
}

Status Upi::ScanTuples(
    const std::function<void(catalog::TupleView)>& fn) const {
  std::unordered_set<TupleId> seen;
  Status st = Status::OK();
  ScanHeap([&](std::string_view key, std::string_view tuple_bytes) {
    if (!st.ok()) return;
    UpiKey k;
    st = DecodeUpiKey(key, &k);
    if (!st.ok() || !seen.insert(k.id).second) return;
    st = catalog::TupleView::Validate(tuple_bytes);
    if (st.ok()) fn(catalog::TupleView(tuple_bytes));
  });
  return st;
}

// ---------------------------------------------------------------------------
// Streaming cursor (pull-based Algorithm 2)
// ---------------------------------------------------------------------------

void Upi::OpenFile(storage::PageFile* file) const {
  if (options_.charge_open_per_query) {
    file->ChargeOpen();
  } else if (fracture_) {
    file->OpenIfClosed();
  }
}

/// Pull-based Algorithm 2 over one UPI. The heap phase streams the value's
/// clustered region in descending-probability order; the cutoff phase —
/// pointer collection and its heap fetches — is entered only when the
/// consumer pulls past the heap phase, so a consumer that stops early
/// (top-k, LIMIT) never pays for it. Top-k leaves the heap phase at the
/// first entry below the cutoff C: the heap's remaining entries (first
/// alternatives, which Algorithm 1 keeps below C) and the cutoff pointers
/// (all below C) then merge, so the stream stays in descending confidence.
/// Must not outlive the Upi or be used across tree modifications (it wraps
/// a btree::Cursor).
class UpiPtqCursor : public ResultCursor {
 public:
  UpiPtqCursor(const Upi* upi, std::string_view value, double qt,
               bool topk_mode);

 private:
  enum class Phase { kHeap, kCutoff, kDone };
  bool Produce(PtqMatch* out) override;
  bool NextHeap(PtqMatch* out);
  bool NextCutoff(PtqMatch* out);
  /// Emits the heap cursor's entry, whose decoded key is `key`.
  bool EmitHeap(const UpiKey& key, PtqMatch* out);
  /// Heap phase exhausted: collect cutoff pointers if this query consults
  /// them (QT < C, or top-k mode with a non-empty cutoff index).
  void EnterCutoffPhase();

  const Upi* upi_ = nullptr;
  std::string value_;
  std::string prefix_;
  double qt_ = 0.0;
  bool topk_mode_ = false;
  Phase phase_ = Phase::kHeap;
  btree::Cursor heap_;
  std::vector<CutoffIndex::PointerEntry> pointers_;
  // The PTQ cutoff phase fetches its sorted pointers through one forward
  // lookup, one per row; top-k's collected order keeps per-key lookups.
  btree::SortedLookup sorted_fetch_;
  size_t ptr_idx_ = 0;
};

std::unique_ptr<ResultCursor> Upi::OpenPtq(std::string_view value,
                                           double qt) const {
  return std::make_unique<UpiPtqCursor>(this, value, qt, /*topk_mode=*/false);
}

std::unique_ptr<ResultCursor> Upi::OpenTopK(std::string_view value,
                                            size_t k) const {
  // The k bound is the consumer stopping: the cutoff phase runs only when
  // the heap ran short of k.
  auto cursor = std::make_unique<UpiPtqCursor>(this, value, /*qt=*/0.0,
                                               /*topk_mode=*/true);
  cursor->SetLimit(k);
  return cursor;
}

UpiPtqCursor::UpiPtqCursor(const Upi* upi, std::string_view value, double qt,
                           bool topk_mode)
    : upi_(upi),
      value_(value),
      prefix_(UpiKeyPrefix(value)),
      qt_(qt),
      topk_mode_(topk_mode),
      sorted_fetch_(upi->heap_.get()) {
  // Open the heap file, then one index descent to the start of the value's
  // clustered region.
  upi_->OpenFile(upi_->heap_file());
  heap_ = upi_->heap_->Seek(prefix_);
}

bool UpiPtqCursor::Produce(PtqMatch* out) {
  for (;;) {
    switch (phase_) {
      case Phase::kHeap:
        if (NextHeap(out)) return true;
        if (phase_ == Phase::kDone) return false;
        break;  // moved to the cutoff phase; retry there
      case Phase::kCutoff:
        return NextCutoff(out);
      case Phase::kDone:
        return false;
    }
  }
}

bool UpiPtqCursor::NextHeap(PtqMatch* out) {
  if (!heap_.Valid() ||
      heap_.key().substr(0, prefix_.size()) != prefix_) {
    EnterCutoffPhase();
    return false;
  }
  UpiKey key;
  Status st = DecodeUpiKey(heap_.key(), &key);
  if (!st.ok()) {
    status_ = st;
    phase_ = Phase::kDone;
    return false;
  }
  if (!topk_mode_ && key.prob < qt_) {
    // Probability-descending order: nothing further in the heap qualifies.
    EnterCutoffPhase();
    return false;
  }
  if (topk_mode_ && key.prob < upi_->options_.cutoff &&
      upi_->cutoff_->num_entries() > 0) {
    // A cutoff pointer may outrank this entry: merge from here on.
    EnterCutoffPhase();
    return false;
  }
  return EmitHeap(key, out);
}

bool UpiPtqCursor::EmitHeap(const UpiKey& key, PtqMatch* out) {
  Status st = out->tuple.Assign(heap_.value());
  if (!st.ok()) {
    status_ = st;
    phase_ = Phase::kDone;
    return false;
  }
  out->id = key.id;
  out->confidence = key.prob;
  heap_.Next();
  return true;
}

void UpiPtqCursor::EnterCutoffPhase() {
  // PTQ consults the cutoff index only when QT < C (Algorithm 2); top-k
  // consults it whenever the heap ran short of k and it has entries —
  // both conditions arise here only because the consumer kept pulling.
  bool consult = topk_mode_ ? upi_->cutoff_->num_entries() > 0
                            : qt_ < upi_->options_.cutoff;
  if (!consult) {
    phase_ = Phase::kDone;
    return;
  }
  upi_->OpenFile(upi_->cutoff_->file());
  Status st = upi_->cutoff_->CollectPointers(value_, topk_mode_ ? 0.0 : qt_,
                                             &pointers_);
  if (!st.ok()) {
    status_ = st;
    phase_ = Phase::kDone;
    return;
  }
  if (!topk_mode_) {
    // Bitmap-scan style: fetch in heap order (top-k fetches in collected
    // order).
    std::sort(pointers_.begin(), pointers_.end(),
              [](const CutoffIndex::PointerEntry& a,
                 const CutoffIndex::PointerEntry& b) {
                return a.heap_key < b.heap_key;
              });
  }
  phase_ = Phase::kCutoff;
}

bool UpiPtqCursor::NextCutoff(PtqMatch* out) {
  if (topk_mode_ && heap_.Valid() &&
      heap_.key().substr(0, prefix_.size()) == prefix_) {
    // Top-k merges the heap's entries below C with the pointers, in result
    // order: confidence descending, ties by TupleId.
    UpiKey key;
    Status st = DecodeUpiKey(heap_.key(), &key);
    if (!st.ok()) {
      status_ = st;
      phase_ = Phase::kDone;
      return false;
    }
    if (ptr_idx_ >= pointers_.size()) return EmitHeap(key, out);
    const UpiKey& next = pointers_[ptr_idx_].entry;
    if (key.prob > next.prob || (key.prob == next.prob && key.id < next.id)) {
      return EmitHeap(key, out);
    }
  }
  if (ptr_idx_ >= pointers_.size()) {
    phase_ = Phase::kDone;
    return false;
  }
  const CutoffIndex::PointerEntry& p = pointers_[ptr_idx_++];
  out->id = p.entry.id;
  out->confidence = p.entry.prob;
  Status st = upi_->FetchHeapTuple(
      p.heap_key, topk_mode_ ? nullptr : &sorted_fetch_, &out->tuple);
  if (!st.ok()) {
    status_ = st;
    phase_ = Phase::kDone;
    return false;
  }
  return true;
}

}  // namespace upi::core
