#include "baseline/secondary_utree.h"

#include <algorithm>

namespace upi::baseline {

using catalog::Tuple;
using catalog::ValueType;
using rtree::ObjectEntry;

Result<std::unique_ptr<SecondaryUtree>> SecondaryUtree::Build(
    storage::DbEnv* env, std::string name, const UnclusteredTable& table,
    int location_column, const std::vector<Tuple>& tuples) {
  std::unique_ptr<SecondaryUtree> ut(new SecondaryUtree());
  std::vector<ObjectEntry> entries;
  entries.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    if (location_column < 0 ||
        static_cast<size_t>(location_column) >= t.values().size() ||
        t.Get(location_column).type() != ValueType::kGaussian2D) {
      return Status::InvalidArgument("location column must be Gaussian2D");
    }
    const auto& g = t.Get(location_column).gaussian();
    ObjectEntry e;
    double x0, y0, x1, y1;
    g.Mbr(&x0, &y0, &x1, &y1);
    e.mbr = rtree::Rect{x0, y0, x1, y1};
    e.id = t.id();
    UPI_ASSIGN_OR_RETURN(storage::Rid rid, table.RidOf(t.id()));
    e.payload = PackRid(rid);
    e.mean = g.mean();
    e.sigma = g.sigma();
    e.bound = g.bound_radius();
    entries.push_back(e);
  }
  storage::NewFiles files(env);
  UPI_ASSIGN_OR_RETURN(storage::PageFile* file,
                       files.Create(name + ".utree", kPageSize));
  UPI_ASSIGN_OR_RETURN(
      rtree::RTree built,
      rtree::RTree::BulkBuild(env->MakePager(file),
                              rtree::RTreeOptions{kPageSize, 0.9},
                              &ut->locator_, std::move(entries),
                              [](uint64_t, const ObjectEntry&) -> Status {
                                return Status::OK();
                              }));
  ut->rtree_ = std::make_unique<rtree::RTree>(std::move(built));
  // Only the R-tree went through the pool: other tables' pages stay as they
  // are.
  env->pool()->FlushFile(file);
  files.Keep();
  return ut;
}

Status SecondaryUtree::QueryRange(const UnclusteredTable& table,
                                  prob::Point center, double radius, double qt,
                                  std::vector<core::PtqMatch>* out) const {
  struct Hit {
    storage::Rid rid;
    catalog::TupleId id;
    double prob;
  };
  std::vector<Hit> hits;
  UPI_RETURN_NOT_OK(rtree_->SearchCircle(
      center, radius, [&](const ObjectEntry& e, uint64_t) {
        if (e.UpperBoundInCircle(center, radius) < qt) return;
        double p = e.ProbInCircle(center, radius);
        if (p >= qt) hits.push_back(Hit{UnpackRid(e.payload), e.id, p});
      }));
  // Bitmap-style: sort RIDs before the heap fetches; they are still spread
  // across the whole unclustered heap.
  std::sort(hits.begin(), hits.end(),
            [](const Hit& a, const Hit& b) { return a.rid < b.rid; });
  std::string bytes;
  const storage::HeapFile* heap = table.heap();
  for (const Hit& h : hits) {
    UPI_RETURN_NOT_OK(heap->Read(h.rid, &bytes));
    core::PtqMatch m;
    m.id = h.id;
    m.confidence = h.prob;
    UPI_RETURN_NOT_OK(m.tuple.Assign(bytes));
    out->push_back(std::move(m));
  }
  return Status::OK();
}

}  // namespace upi::baseline
