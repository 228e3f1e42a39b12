#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/coding.h"
#include "prob/gaussian2d.h"

namespace upi::rtree {

using storage::PageId;
using storage::kInvalidPage;

// ---------------------------------------------------------------------------
// ObjectEntry probability bounds
// ---------------------------------------------------------------------------

double ObjectEntry::LowerBoundInCircle(Point c, double r) const {
  return prob::ConstrainedGaussian2D(mean, sigma, bound).LowerBoundInCircle(c, r);
}

double ObjectEntry::UpperBoundInCircle(Point c, double r) const {
  return prob::ConstrainedGaussian2D(mean, sigma, bound).UpperBoundInCircle(c, r);
}

double ObjectEntry::ProbInCircle(Point c, double r) const {
  return prob::ConstrainedGaussian2D(mean, sigma, bound).ProbInCircle(c, r);
}

// ---------------------------------------------------------------------------
// Node (de)serialization
// ---------------------------------------------------------------------------

struct RTree::Node {
  bool is_leaf = true;
  uint64_t label = 0;  // leaf only
  std::vector<ObjectEntry> entries;
  struct Child {
    Rect mbr;
    PageId page;
  };
  std::vector<Child> children;

  size_t Count() const { return is_leaf ? entries.size() : children.size(); }

  Rect ComputeMbr() const {
    Rect r = Rect::Empty();
    if (is_leaf) {
      for (const auto& e : entries) r = r.Union(e.mbr);
    } else {
      for (const auto& c : children) r = r.Union(c.mbr);
    }
    return r;
  }

  void Serialize(std::string* out) const {
    out->clear();
    out->push_back(is_leaf ? '\x01' : '\x00');
    out->append(3, '\x00');
    PutFixed32(out, static_cast<uint32_t>(Count()));
    PutFixed64BE(out, label);
    if (is_leaf) {
      for (const auto& e : entries) {
        e.mbr.Serialize(out);
        PutFixed64BE(out, e.id);
        PutFixed64BE(out, e.payload);
        AppendOrderedDouble(out, e.mean.x);
        AppendOrderedDouble(out, e.mean.y);
        AppendOrderedDouble(out, e.sigma);
        AppendOrderedDouble(out, e.bound);
      }
    } else {
      for (const auto& c : children) {
        c.mbr.Serialize(out);
        PutFixed32(out, c.page);
      }
    }
  }

  static Status Deserialize(std::string_view page, Node* out) {
    if (page.size() < 16) return Status::Corruption("rtree node too small");
    out->is_leaf = page[0] == '\x01';
    uint32_t count = GetFixed32(page.data() + 4);
    out->label = GetFixed64BE(page.data() + 8);
    out->entries.clear();
    out->children.clear();
    const char* p = page.data() + 16;
    const char* limit = page.data() + page.size();
    for (uint32_t i = 0; i < count; ++i) {
      if (out->is_leaf) {
        if (p + ObjectEntry::kSerializedSize > limit) {
          return Status::Corruption("truncated rtree leaf entry");
        }
        ObjectEntry e;
        e.mbr = Rect::Deserialize(p);
        p += Rect::kSerializedSize;
        e.id = GetFixed64BE(p);
        p += 8;
        e.payload = GetFixed64BE(p);
        p += 8;
        e.mean.x = DecodeOrderedDouble(p);
        e.mean.y = DecodeOrderedDouble(p + 8);
        p += 16;
        e.sigma = DecodeOrderedDouble(p);
        p += 8;
        e.bound = DecodeOrderedDouble(p);
        p += 8;
        out->entries.push_back(e);
      } else {
        if (p + Rect::kSerializedSize + 4 > limit) {
          return Status::Corruption("truncated rtree child entry");
        }
        Child c;
        c.mbr = Rect::Deserialize(p);
        p += Rect::kSerializedSize;
        c.page = GetFixed32(p);
        p += 4;
        out->children.push_back(c);
      }
    }
    return Status::OK();
  }
};

struct RTree::SplitResult {
  bool split = false;
  Rect right_mbr;
  PageId right_page = kInvalidPage;
};

// ---------------------------------------------------------------------------

RTree::RTree(storage::Pager pager, RTreeOptions options, NodeLocator* locator)
    : pager_(pager), options_(options), locator_(locator) {
  Node root;
  root.is_leaf = true;
  root.label = locator_->AssignInitial(0, 1);
  storage::PageRef ref = pager_.New(&root_);
  root.Serialize(ref.mutable_data());
}

size_t RTree::LeafCapacity() const {
  return (options_.page_size - 16) / ObjectEntry::kSerializedSize;
}

size_t RTree::InternalCapacity() const {
  return (options_.page_size - 16) / (Rect::kSerializedSize + 4);
}

Status RTree::ReadNode(PageId id, Node* out) const {
  storage::PageRef ref = pager_.Get(id);
  return Node::Deserialize(*ref.data(), out);
}

void RTree::WriteNode(PageId id, const Node& node) {
  storage::PageRef ref = pager_.Get(id);
  node.Serialize(ref.mutable_data());
  UPI_CHECK(ref.data()->size() <= pager_.page_size(),
            "serialized R-tree node overflows its page");
}

// ---------------------------------------------------------------------------
// Quadratic split (Guttman 1984)
// ---------------------------------------------------------------------------

namespace {

/// Splits `rects` indices into two groups by the quadratic method. Returns
/// group assignment (false = group A, true = group B).
std::vector<bool> QuadraticSplit(const std::vector<Rect>& rects) {
  const size_t n = rects.size();
  std::vector<bool> group(n, false);
  // Seeds: the pair wasting the most area.
  size_t seed_a = 0, seed_b = 1;
  double worst = -1.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double waste =
          rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }
  Rect mbr_a = rects[seed_a], mbr_b = rects[seed_b];
  size_t count_a = 1, count_b = 1;
  group[seed_b] = true;
  std::vector<bool> assigned(n, false);
  assigned[seed_a] = assigned[seed_b] = true;
  const size_t min_fill = std::max<size_t>(1, n / 3);
  for (size_t done = 2; done < n; ++done) {
    // Force-assign if one group must take all the rest to reach min fill.
    size_t remaining = n - done;
    size_t pick = n;
    bool to_b = false;
    if (count_a + remaining == min_fill || count_a + remaining < min_fill) {
      for (size_t i = 0; i < n; ++i) {
        if (!assigned[i]) {
          pick = i;
          to_b = false;
          break;
        }
      }
    } else if (count_b + remaining <= min_fill) {
      for (size_t i = 0; i < n; ++i) {
        if (!assigned[i]) {
          pick = i;
          to_b = true;
          break;
        }
      }
    } else {
      // Choose the entry with the strongest preference.
      double best_diff = -1.0;
      for (size_t i = 0; i < n; ++i) {
        if (assigned[i]) continue;
        double da = mbr_a.Enlargement(rects[i]);
        double db = mbr_b.Enlargement(rects[i]);
        double diff = std::abs(da - db);
        if (diff > best_diff) {
          best_diff = diff;
          pick = i;
          to_b = db < da || (db == da && count_b < count_a);
        }
      }
    }
    assigned[pick] = true;
    group[pick] = to_b;
    if (to_b) {
      mbr_b = mbr_b.Union(rects[pick]);
      ++count_b;
    } else {
      mbr_a = mbr_a.Union(rects[pick]);
      ++count_a;
    }
  }
  return group;
}

}  // namespace

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Status RTree::Insert(
    const ObjectEntry& entry, uint64_t* label,
    const std::function<Status(catalog::TupleId, uint64_t, uint64_t)>& on_move) {
  Rect root_mbr;
  SplitResult split;
  UPI_RETURN_NOT_OK(InsertRec(root_, entry, label, &root_mbr, &split, on_move));
  if (split.split) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.children.push_back(Node::Child{root_mbr, root_});
    new_root.children.push_back(Node::Child{split.right_mbr, split.right_page});
    PageId new_root_id;
    storage::PageRef ref = pager_.New(&new_root_id);
    new_root.Serialize(ref.mutable_data());
    root_ = new_root_id;
    ++height_;
  }
  ++num_entries_;
  return Status::OK();
}

Status RTree::InsertRec(
    PageId page_id, const ObjectEntry& entry, uint64_t* label, Rect* mbr_out,
    SplitResult* split,
    const std::function<Status(catalog::TupleId, uint64_t, uint64_t)>& on_move) {
  Node node;
  UPI_RETURN_NOT_OK(ReadNode(page_id, &node));

  if (node.is_leaf) {
    node.entries.push_back(entry);
    *label = node.label;
    if (node.entries.size() <= LeafCapacity()) {
      WriteNode(page_id, node);
      *mbr_out = node.ComputeMbr();
      return Status::OK();
    }
    // Quadratic split; the new (right) leaf gets a label placed immediately
    // after the old one in heap order, and its entries are "moved".
    std::vector<Rect> rects;
    rects.reserve(node.entries.size());
    for (const auto& e : node.entries) rects.push_back(e.mbr);
    std::vector<bool> group = QuadraticSplit(rects);
    Node right;
    right.is_leaf = true;
    right.label = locator_->AssignAfter(node.label);
    std::vector<ObjectEntry> keep;
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (group[i]) {
        right.entries.push_back(node.entries[i]);
      } else {
        keep.push_back(node.entries[i]);
      }
    }
    node.entries = std::move(keep);
    // Report moves (the freshly inserted entry may itself land right).
    for (const auto& e : right.entries) {
      if (e.id == entry.id) {
        *label = right.label;
      } else {
        UPI_RETURN_NOT_OK(on_move(e.id, node.label, right.label));
      }
    }
    if (*label == right.label && !group.empty()) {
      // The new entry went right; it was never under the old label, so no
      // move event for it.
    }
    PageId right_id;
    {
      storage::PageRef ref = pager_.New(&right_id);
      right.Serialize(ref.mutable_data());
    }
    WriteNode(page_id, node);
    split->split = true;
    split->right_mbr = right.ComputeMbr();
    split->right_page = right_id;
    *mbr_out = node.ComputeMbr();
    return Status::OK();
  }

  // Choose the child needing least enlargement (ties: smaller area).
  size_t best = 0;
  double best_enl = 1e300, best_area = 1e300;
  for (size_t i = 0; i < node.children.size(); ++i) {
    double enl = node.children[i].mbr.Enlargement(entry.mbr);
    double area = node.children[i].mbr.Area();
    if (enl < best_enl || (enl == best_enl && area < best_area)) {
      best = i;
      best_enl = enl;
      best_area = area;
    }
  }
  Rect child_mbr;
  SplitResult child_split;
  UPI_RETURN_NOT_OK(InsertRec(node.children[best].page, entry, label, &child_mbr,
                              &child_split, on_move));
  node.children[best].mbr = child_mbr;
  if (child_split.split) {
    node.children.push_back(
        Node::Child{child_split.right_mbr, child_split.right_page});
  }
  if (node.children.size() <= InternalCapacity()) {
    WriteNode(page_id, node);
    *mbr_out = node.ComputeMbr();
    return Status::OK();
  }
  // Split internal node.
  std::vector<Rect> rects;
  for (const auto& c : node.children) rects.push_back(c.mbr);
  std::vector<bool> group = QuadraticSplit(rects);
  Node right;
  right.is_leaf = false;
  std::vector<Node::Child> keep;
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (group[i]) {
      right.children.push_back(node.children[i]);
    } else {
      keep.push_back(node.children[i]);
    }
  }
  node.children = std::move(keep);
  PageId right_id;
  {
    storage::PageRef ref = pager_.New(&right_id);
    right.Serialize(ref.mutable_data());
  }
  WriteNode(page_id, node);
  split->split = true;
  split->right_mbr = right.ComputeMbr();
  split->right_page = right_id;
  *mbr_out = node.ComputeMbr();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

Status RTree::SearchRec(
    PageId page_id, const std::function<bool(const Rect&)>& overlaps,
    const std::function<void(const ObjectEntry&, uint64_t)>& fn) const {
  Node node;
  UPI_RETURN_NOT_OK(ReadNode(page_id, &node));
  if (node.is_leaf) {
    for (const auto& e : node.entries) {
      if (overlaps(e.mbr)) fn(e, node.label);
    }
    return Status::OK();
  }
  for (const auto& c : node.children) {
    if (overlaps(c.mbr)) {
      UPI_RETURN_NOT_OK(SearchRec(c.page, overlaps, fn));
    }
  }
  return Status::OK();
}

Status RTree::SearchCircle(
    Point center, double radius,
    const std::function<void(const ObjectEntry&, uint64_t)>& fn) const {
  return SearchRec(
      root_,
      [&](const Rect& r) { return r.IntersectsCircle(center, radius); }, fn);
}

Status RTree::SearchRect(
    const Rect& rect,
    const std::function<void(const ObjectEntry&, uint64_t)>& fn) const {
  return SearchRec(root_, [&](const Rect& r) { return r.Intersects(rect); }, fn);
}

// ---------------------------------------------------------------------------
// Bulk build (Sort-Tile-Recursive)
// ---------------------------------------------------------------------------

Result<RTree> RTree::BulkBuild(
    storage::Pager pager, RTreeOptions options, NodeLocator* locator,
    std::vector<ObjectEntry> entries,
    const std::function<Status(uint64_t, const ObjectEntry&)>& on_place) {
  RTree tree(pager, options, locator);
  if (entries.empty()) return tree;
  // The constructor made a root leaf; rebuild from scratch over it.
  size_t leaf_fill = std::max<size_t>(
      2, static_cast<size_t>(tree.LeafCapacity() * options.fill_factor));
  size_t n = entries.size();
  size_t num_leaves = (n + leaf_fill - 1) / leaf_fill;
  size_t num_slices = static_cast<size_t>(std::ceil(std::sqrt(
      static_cast<double>(num_leaves))));
  size_t slice_size = (n + num_slices - 1) / num_slices;

  std::sort(entries.begin(), entries.end(),
            [](const ObjectEntry& a, const ObjectEntry& b) {
              return a.mean.x < b.mean.x;
            });
  for (size_t s = 0; s * slice_size < n; ++s) {
    auto begin = entries.begin() + s * slice_size;
    auto end = entries.begin() + std::min(n, (s + 1) * slice_size);
    std::sort(begin, end, [](const ObjectEntry& a, const ObjectEntry& b) {
      return a.mean.y < b.mean.y;
    });
  }

  // Pack leaves in order, assigning spatially ordered labels.
  struct Built {
    Rect mbr;
    PageId page;
  };
  std::vector<Built> level;
  size_t leaf_index = 0;
  for (size_t off = 0; off < n; off += leaf_fill, ++leaf_index) {
    Node leaf;
    leaf.is_leaf = true;
    leaf.label = locator->AssignInitial(leaf_index + 1, num_leaves + 1);
    for (size_t i = off; i < std::min(n, off + leaf_fill); ++i) {
      leaf.entries.push_back(entries[i]);
      UPI_RETURN_NOT_OK(on_place(leaf.label, entries[i]));
    }
    PageId pid;
    storage::PageRef ref = pager.New(&pid);
    leaf.Serialize(ref.mutable_data());
    level.push_back(Built{leaf.ComputeMbr(), pid});
  }

  uint32_t height = 1;
  size_t internal_fill = std::max<size_t>(
      2, static_cast<size_t>(tree.InternalCapacity() * options.fill_factor));
  while (level.size() > 1) {
    std::vector<Built> next;
    for (size_t off = 0; off < level.size(); off += internal_fill) {
      Node inner;
      inner.is_leaf = false;
      for (size_t i = off; i < std::min(level.size(), off + internal_fill); ++i) {
        inner.children.push_back(Node::Child{level[i].mbr, level[i].page});
      }
      PageId pid;
      storage::PageRef ref = pager.New(&pid);
      inner.Serialize(ref.mutable_data());
      next.push_back(Built{inner.ComputeMbr(), pid});
    }
    level = std::move(next);
    ++height;
  }

  tree.root_ = level[0].page;
  tree.height_ = height;
  tree.num_entries_ = n;
  return tree;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

Status RTree::ValidateRec(PageId page_id, uint32_t depth, const Rect& bound,
                          uint64_t* entries) const {
  Node node;
  UPI_RETURN_NOT_OK(ReadNode(page_id, &node));
  if (node.is_leaf) {
    if (depth != height_) return Status::Corruption("uneven rtree leaf depth");
    for (const auto& e : node.entries) {
      if (!bound.Contains(e.mbr) && !(bound.IsEmpty() && node.entries.empty())) {
        return Status::Corruption("leaf entry outside parent MBR");
      }
    }
    *entries += node.entries.size();
    return Status::OK();
  }
  if (node.children.empty()) return Status::Corruption("empty internal rtree node");
  for (const auto& c : node.children) {
    if (!bound.Contains(c.mbr)) {
      return Status::Corruption("child MBR outside parent MBR");
    }
    UPI_RETURN_NOT_OK(ValidateRec(c.page, depth + 1, c.mbr, entries));
  }
  return Status::OK();
}

Status RTree::ValidateInvariants() const {
  Node root;
  UPI_RETURN_NOT_OK(ReadNode(root_, &root));
  Rect bound = root.ComputeMbr();
  uint64_t entries = 0;
  if (root.is_leaf) {
    if (height_ != 1) return Status::Corruption("leaf root but height != 1");
    entries = root.entries.size();
  } else {
    for (const auto& c : root.children) {
      if (!bound.Contains(c.mbr)) return Status::Corruption("root child MBR");
      UPI_RETURN_NOT_OK(ValidateRec(c.page, 2, c.mbr, &entries));
    }
  }
  if (entries != num_entries_) {
    return Status::Corruption("rtree entry count mismatch: " +
                              std::to_string(entries) + " vs " +
                              std::to_string(num_entries_));
  }
  return Status::OK();
}

}  // namespace upi::rtree
