#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "rtree/node_path.h"
#include "rtree/rect.h"
#include "rtree/rtree.h"
#include "storage/db_env.h"

namespace upi::rtree {
namespace {

TEST(RectTest, AreaUnionEnlargement) {
  Rect a{0, 0, 2, 2}, b{1, 1, 4, 3};
  EXPECT_DOUBLE_EQ(a.Area(), 4.0);
  Rect u = a.Union(b);
  EXPECT_TRUE(u == (Rect{0, 0, 4, 3}));
  EXPECT_DOUBLE_EQ(a.Enlargement(b), 12.0 - 4.0);
  EXPECT_DOUBLE_EQ(a.Margin(), 4.0);
}

TEST(RectTest, EmptyRectIdentity) {
  Rect e = Rect::Empty();
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_DOUBLE_EQ(e.Area(), 0.0);
  Rect a{1, 2, 3, 4};
  EXPECT_TRUE(e.Union(a) == a);
  EXPECT_TRUE(a.Union(e) == a);
  EXPECT_FALSE(e.Intersects(a));
}

TEST(RectTest, IntersectsAndContains) {
  Rect a{0, 0, 10, 10};
  EXPECT_TRUE(a.Intersects(Rect{5, 5, 15, 15}));
  EXPECT_FALSE(a.Intersects(Rect{11, 0, 12, 10}));
  EXPECT_TRUE(a.Contains(Rect{1, 1, 9, 9}));
  EXPECT_FALSE(a.Contains(Rect{1, 1, 11, 9}));
  EXPECT_TRUE(a.ContainsPoint({10, 10}));
  EXPECT_FALSE(a.ContainsPoint({10.1, 10}));
}

TEST(RectTest, MinMaxDist) {
  Rect a{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(a.MinDist({5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(a.MinDist({13, 14}), 5.0);  // 3-4-5 triangle
  EXPECT_TRUE(a.IntersectsCircle({13, 14}, 5.0));
  EXPECT_FALSE(a.IntersectsCircle({13, 14}, 4.9));
  EXPECT_DOUBLE_EQ(a.MaxDist({0, 0}), std::sqrt(200.0));
}

TEST(RectTest, SerializeRoundTrip) {
  Rect a{-5.5, 0.25, 3.75, 1e6};
  std::string buf;
  a.Serialize(&buf);
  ASSERT_EQ(buf.size(), Rect::kSerializedSize);
  EXPECT_TRUE(Rect::Deserialize(buf.data()) == a);
}

TEST(NodeLocatorTest, InitialLabelsAscending) {
  NodeLocator loc;
  uint64_t prev = 0;
  for (int i = 0; i < 10; ++i) {
    uint64_t l = loc.AssignInitial(i, 10);
    EXPECT_GT(l, prev);
    prev = l;
  }
}

TEST(NodeLocatorTest, SplitLabelsLandBetween) {
  NodeLocator loc;
  uint64_t a = loc.AssignInitial(0, 3);
  uint64_t b = loc.AssignInitial(1, 3);
  uint64_t mid = loc.AssignAfter(a);
  EXPECT_GT(mid, a);
  EXPECT_LT(mid, b);
  // Splitting repeatedly keeps inserting between.
  uint64_t mid2 = loc.AssignAfter(a);
  EXPECT_GT(mid2, a);
  EXPECT_LT(mid2, mid);
  // Splitting the last label extends past it.
  uint64_t tail = loc.AssignAfter(b);
  EXPECT_GT(tail, b);
}

TEST(NodeLocatorTest, HeapKeyOrderFollowsLabels) {
  std::string k1 = EncodeLeafHeapKey(5, 100);
  std::string k2 = EncodeLeafHeapKey(5, 200);
  std::string k3 = EncodeLeafHeapKey(6, 1);
  EXPECT_LT(k1, k2);
  EXPECT_LT(k2, k3);
  uint64_t label;
  catalog::TupleId id;
  DecodeLeafHeapKey(k2, &label, &id);
  EXPECT_EQ(label, 5u);
  EXPECT_EQ(id, 200u);
}

// ---------------------------------------------------------------------------

struct Fx {
  storage::DbEnv env;
  storage::PageFile* file;
  NodeLocator locator;

  Fx() { file = env.CreateFile("rtree", 4096).ValueOrDie(); }

  ObjectEntry MakeEntry(catalog::TupleId id, Point mean, double sigma = 5.0,
                        double bound = 15.0) {
    ObjectEntry e;
    e.id = id;
    e.mean = mean;
    e.sigma = sigma;
    e.bound = bound;
    e.mbr = Rect{mean.x - bound, mean.y - bound, mean.x + bound, mean.y + bound};
    return e;
  }
};

TEST(RTreeTest, InsertAndSearchSmall) {
  Fx fx;
  RTree tree(fx.env.MakePager(fx.file), RTreeOptions{4096, 0.9}, &fx.locator);
  auto no_move = [](catalog::TupleId, uint64_t, uint64_t) {
    return Status::OK();
  };
  uint64_t label;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree.Insert(fx.MakeEntry(i, {i * 10.0, i * 10.0}), &label,
                            no_move)
                    .ok());
  }
  EXPECT_EQ(tree.num_entries(), 20u);
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  std::set<catalog::TupleId> found;
  ASSERT_TRUE(tree.SearchCircle({50, 50}, 30, [&](const ObjectEntry& e,
                                                  uint64_t) {
    found.insert(e.id);
  }).ok());
  // Objects 4,5,6 are within 30 (+bound 15) of (50,50).
  EXPECT_TRUE(found.contains(5));
  EXPECT_FALSE(found.contains(15));
}

TEST(RTreeTest, SplitsReportMoves) {
  Fx fx;
  RTree tree(fx.env.MakePager(fx.file), RTreeOptions{4096, 0.9}, &fx.locator);
  std::map<catalog::TupleId, uint64_t> location;
  auto on_move = [&](catalog::TupleId id, uint64_t from, uint64_t to) {
    EXPECT_EQ(location[id], from);
    location[id] = to;
    return Status::OK();
  };
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    uint64_t label;
    Point p{rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)};
    ASSERT_TRUE(tree.Insert(fx.MakeEntry(i, p), &label, on_move).ok());
    location[i] = label;
  }
  ASSERT_TRUE(tree.ValidateInvariants().ok())
      << tree.ValidateInvariants().ToString();
  EXPECT_GT(tree.height(), 1u);
  // Every entry's tracked label must match the leaf it is found in.
  std::map<catalog::TupleId, uint64_t> found;
  ASSERT_TRUE(tree.SearchRect(Rect{-100, -100, 1100, 1100},
                              [&](const ObjectEntry& e, uint64_t label) {
                                found[e.id] = label;
                              })
                  .ok());
  ASSERT_EQ(found.size(), 500u);
  for (const auto& [id, label] : found) {
    EXPECT_EQ(location[id], label) << "entry " << id;
  }
}

TEST(RTreeTest, BulkBuildValidAndSearchable) {
  Fx fx;
  std::vector<ObjectEntry> entries;
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    entries.push_back(
        fx.MakeEntry(i, {rng.UniformDouble(0, 5000), rng.UniformDouble(0, 5000)}));
  }
  auto entries_copy = entries;
  std::vector<std::pair<uint64_t, catalog::TupleId>> placements;
  RTree tree = RTree::BulkBuild(
                   fx.env.MakePager(fx.file), RTreeOptions{4096, 0.9},
                   &fx.locator, std::move(entries),
                   [&](uint64_t label, const ObjectEntry& e) -> Status {
                     placements.push_back({label, e.id});
                     return Status::OK();
                   })
                   .ValueOrDie();
  EXPECT_EQ(tree.num_entries(), 3000u);
  EXPECT_EQ(placements.size(), 3000u);
  ASSERT_TRUE(tree.ValidateInvariants().ok())
      << tree.ValidateInvariants().ToString();
  // Exhaustive search returns exactly the input set.
  std::set<catalog::TupleId> found;
  ASSERT_TRUE(tree.SearchRect(Rect{-100, -100, 5100, 5100},
                              [&](const ObjectEntry& e, uint64_t) {
                                found.insert(e.id);
                              })
                  .ok());
  EXPECT_EQ(found.size(), 3000u);
  // Circle search agrees with a linear scan.
  Point qc{2500, 2500};
  double qr = 400;
  std::set<catalog::TupleId> via_tree, via_scan;
  ASSERT_TRUE(tree.SearchCircle(qc, qr, [&](const ObjectEntry& e, uint64_t) {
    via_tree.insert(e.id);
  }).ok());
  for (const auto& e : entries_copy) {
    if (e.mbr.IntersectsCircle(qc, qr)) via_scan.insert(e.id);
  }
  EXPECT_EQ(via_tree, via_scan);
}

TEST(RTreeTest, BulkBuildPlacementsSpatiallyCoherent) {
  // Neighboring labels should contain spatially close entries (the property
  // the continuous UPI's heap clustering relies on).
  Fx fx;
  std::vector<ObjectEntry> entries;
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    entries.push_back(
        fx.MakeEntry(i, {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)}));
  }
  std::map<uint64_t, std::vector<Point>> by_label;
  RTree tree = RTree::BulkBuild(
                   fx.env.MakePager(fx.file), RTreeOptions{4096, 0.9},
                   &fx.locator, std::move(entries),
                   [&](uint64_t label, const ObjectEntry& e) -> Status {
                     by_label[label].push_back(e.mean);
                     return Status::OK();
                   })
                   .ValueOrDie();
  (void)tree;
  // Mean intra-leaf spread must be far below the dataset diameter.
  double total_spread = 0;
  int leaves = 0;
  for (const auto& [label, pts] : by_label) {
    double min_x = 1e18, max_x = -1e18, min_y = 1e18, max_y = -1e18;
    for (const auto& p : pts) {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
    total_spread += (max_x - min_x) + (max_y - min_y);
    ++leaves;
  }
  EXPECT_LT(total_spread / leaves, 600.0);  // dataset spans 1000+1000
}

TEST(RTreeTest, ProbabilityBoundsBracketExact) {
  Fx fx;
  ObjectEntry e = fx.MakeEntry(1, {100, 100}, 10.0, 30.0);
  for (double dx : {0.0, 20.0, 50.0}) {
    for (double r : {10.0, 40.0, 80.0}) {
      Point c{100 + dx, 100};
      double lo = e.LowerBoundInCircle(c, r);
      double hi = e.UpperBoundInCircle(c, r);
      double p = e.ProbInCircle(c, r);
      EXPECT_LE(lo, p + 1e-9);
      EXPECT_GE(hi, p - 1e-9);
    }
  }
}

}  // namespace
}  // namespace upi::rtree
