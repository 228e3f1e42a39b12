// Robustness / failure-injection tests: corrupted pages and truncated
// records must surface as Status errors, never as crashes or silent wrong
// answers; codecs must reject malformed input at every truncation point.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "btree/node.h"
#include "catalog/tuple.h"
#include "common/coding.h"
#include "common/random.h"
#include "core/secondary_index.h"
#include "core/upi_key.h"
#include "datagen/cartel.h"
#include "datagen/dblp.h"
#include "prob/discrete.h"

namespace upi {
namespace {

TEST(NodeCodecTest, RoundTripLeafAndInternal) {
  btree::Node leaf;
  leaf.is_leaf = true;
  leaf.right_sibling = 42;
  leaf.entries.push_back({"alpha", "1"});
  leaf.entries.push_back({std::string("k\0key", 5), std::string(300, 'v')});
  std::string page;
  leaf.Serialize(&page);
  btree::Node out;
  ASSERT_TRUE(btree::Node::Deserialize(page, &out).ok());
  EXPECT_TRUE(out.is_leaf);
  EXPECT_EQ(out.right_sibling, 42u);
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_EQ(out.entries[1].key, leaf.entries[1].key);
  EXPECT_EQ(out.SerializedSize(), page.size());

  btree::Node inner;
  inner.is_leaf = false;
  inner.children.push_back({"", 7});
  inner.children.push_back({"m", 9});
  page.clear();
  inner.Serialize(&page);
  ASSERT_TRUE(btree::Node::Deserialize(page, &out).ok());
  EXPECT_FALSE(out.is_leaf);
  ASSERT_EQ(out.children.size(), 2u);
  EXPECT_EQ(out.children[1].child, 9u);
}

// The truncation and garbage cases run each page through both parsers: the
// decoding one (Node::Deserialize, the write paths) and NodeView (the read
// paths). Every page lives in its own exact-size allocation, so under ASan a
// read past the page's end aborts instead of reading a neighbour.

btree::Node SampleNode(bool leaf) {
  btree::Node node;
  node.is_leaf = leaf;
  for (int i = 0; i < 8; ++i) {
    std::string key = i == 0 && !leaf ? "" : "key" + std::to_string(i);
    if (leaf) {
      node.entries.push_back({key, std::string(20, 'v')});
    } else {
      node.children.push_back({key, static_cast<storage::PageId>(100 + i)});
    }
  }
  return node;
}

/// Runs every NodeView reader over a parsed page.
size_t ExerciseView(const btree::NodeView& view) {
  size_t walked = 0;
  view.Walk([&](const btree::EntryView& e, size_t) {
    walked += e.key.size() + e.value.size() + 1;
    return true;
  });
  if (view.is_leaf()) {
    size_t offset = 0;
    walked += view.LowerBound("key4", &offset);
    std::string_view value;
    walked += view.Find("key4", &value) ? value.size() : 0;
  } else {
    walked += view.ChildFor("key4") + view.FirstChild();
  }
  return walked;
}

TEST(NodeCodecTest, EveryTruncationPointFailsCleanly) {
  for (bool leaf : {true, false}) {
    std::string page;
    SampleNode(leaf).Serialize(&page);
    for (size_t cut = 0; cut < page.size(); ++cut) {
      std::vector<char> bytes(page.begin(), page.begin() + cut);
      std::string_view truncated(bytes.data(), bytes.size());
      btree::NodeView view;
      Status st = btree::NodeView::Parse(truncated, &view);
      EXPECT_EQ(st.code(), StatusCode::kCorruption)
          << (leaf ? "leaf" : "internal") << " truncated at " << cut;
      btree::Node out;
      EXPECT_EQ(btree::Node::Deserialize(truncated, &out).code(),
                StatusCode::kCorruption)
          << (leaf ? "leaf" : "internal") << " truncated at " << cut;
    }
    std::vector<char> bytes(page.begin(), page.end());
    btree::NodeView view;
    ASSERT_TRUE(btree::NodeView::Parse({bytes.data(), bytes.size()}, &view).ok());
    EXPECT_EQ(view.is_leaf(), leaf);
    EXPECT_EQ(view.count(), 8u);
    EXPECT_GT(ExerciseView(view), 0u);
  }
}

TEST(NodeCodecTest, ViewLookupsMatchTheDecodedNode) {
  btree::Node leaf = SampleNode(true);
  std::string page;
  leaf.Serialize(&page);
  btree::NodeView view;
  ASSERT_TRUE(btree::NodeView::Parse(page, &view).ok());
  for (std::string probe : {"", "key0", "key3", "key35", "key7", "zzz"}) {
    size_t offset = 0;
    uint32_t idx = view.LowerBound(probe, &offset);
    EXPECT_EQ(idx, leaf.LowerBound(probe)) << probe;
    std::string_view value;
    bool exact = idx < leaf.entries.size() && leaf.entries[idx].key == probe;
    EXPECT_EQ(view.Find(probe, &value), exact) << probe;
    if (idx < leaf.entries.size()) {
      btree::EntryView e;
      ASSERT_GT(btree::DecodeEntry(page, offset, /*is_leaf=*/true, &e), 0u);
      EXPECT_EQ(e.key, leaf.entries[idx].key) << probe;
    }
  }
  btree::Node inner = SampleNode(false);
  inner.Serialize(&page);
  ASSERT_TRUE(btree::NodeView::Parse(page, &view).ok());
  for (std::string probe : {"", "key0", "key1", "key35", "key7", "zzz"}) {
    EXPECT_EQ(view.ChildFor(probe), inner.children[inner.ChildIndex(probe)].child)
        << probe;
  }
  EXPECT_EQ(view.FirstChild(), inner.children[0].child);
}

TEST(NodeCodecTest, RandomGarbageNeverCrashes) {
  Rng rng(99);
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<char> bytes(rng.Uniform(200));
    for (char& c : bytes) c = static_cast<char>(rng.Uniform(256));
    if (bytes.size() >= btree::kNodeHeaderSize) {
      // Half leaf, half internal, with plausible entry counts so some pages
      // parse and reach the lookups.
      bytes[0] = trial % 2 == 0 ? '\x01' : '\x00';
      if (trial % 4 < 2) {
        bytes[4] = static_cast<char>(rng.Uniform(6));
        bytes[5] = bytes[6] = bytes[7] = '\0';
      }
    }
    std::string_view page(bytes.data(), bytes.size());
    btree::NodeView view;
    if (btree::NodeView::Parse(page, &view).ok()) (void)ExerciseView(view);
    btree::Node out;
    (void)btree::Node::Deserialize(page, &out);
    storage::PageId sibling;
    (void)btree::NodeView::PeekRightSibling(page, &sibling);
  }
}

/// A tuple holding every value type.
catalog::Tuple EveryValueType() {
  auto dist = prob::DiscreteDistribution::Make({{"Brown", 0.8}, {"MIT", 0.2}})
                  .ValueOrDie();
  return catalog::Tuple(
      7, 0.9,
      {catalog::Value::Null(), catalog::Value::Int64(-5),
       catalog::Value::Double(2.5), catalog::Value::String("Alice"),
       catalog::Value::Discrete(dist),
       catalog::Value::Gaussian(prob::ConstrainedGaussian2D({1, 2}, 3, 9))});
}

// Every read of a serialized tuple fails cleanly at every truncation point:
// the full decode, the one-column decode of each column, and the validation
// walk a read runs when it produces a row. Each cut is copied into a buffer
// of exactly its size, so the sanitizer build catches a read past its end.
TEST(TupleCodecTest, EveryTruncationPointFailsCleanly) {
  const catalog::Tuple t = EveryValueType();
  std::string buf;
  t.Serialize(&buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    SCOPED_TRACE("truncated at " + std::to_string(cut));
    std::vector<char> bytes(buf.begin(), buf.begin() + cut);
    const std::string_view truncated(bytes.data(), bytes.size());
    const catalog::TupleView view(truncated);
    EXPECT_EQ(view.Decode().status().code(), StatusCode::kCorruption);
    for (size_t col = 0; col < t.values().size(); ++col) {
      EXPECT_EQ(view.Column(col).status().code(), StatusCode::kCorruption)
          << "column " << col;
    }
    EXPECT_EQ(catalog::TupleView::Validate(truncated).code(),
              StatusCode::kCorruption);
    catalog::EncodedTuple row;
    EXPECT_EQ(row.Assign(truncated).code(), StatusCode::kCorruption);
    EXPECT_TRUE(row.bytes().empty());
  }
  std::vector<char> bytes(buf.begin(), buf.end());
  const catalog::TupleView whole({bytes.data(), bytes.size()});
  ASSERT_TRUE(catalog::TupleView::Validate(whole.bytes()).ok());
  Result<catalog::Tuple> decoded = whole.Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value() == t);
  for (size_t col = 0; col < t.values().size(); ++col) {
    Result<catalog::Value> v = whole.Column(col);
    ASSERT_TRUE(v.ok()) << "column " << col;
    EXPECT_TRUE(v.value() == t.Get(col)) << "column " << col;
  }
  EXPECT_EQ(whole.Column(t.values().size()).status().code(),
            StatusCode::kInvalidArgument);
}

// Seeded property over generated DBLP authors and publications and Cartel
// observations: each column decoded alone equals that column of the full
// decode, and the header read in place equals the decoded id and existence.
TEST(TupleCodecTest, OneColumnDecodesMatchTheFullDecode) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    datagen::DblpConfig dblp;
    dblp.num_authors = 300;
    dblp.num_publications = 300;
    dblp.num_institutions = 40;
    dblp.seed = seed;
    datagen::DblpGenerator dblp_gen(dblp);
    std::vector<catalog::Tuple> tuples = dblp_gen.GenerateAuthors();
    std::vector<catalog::Tuple> pubs = dblp_gen.GeneratePublications(tuples);
    datagen::CartelConfig cartel;
    cartel.num_observations = 300;
    cartel.seed = seed;
    std::vector<catalog::Tuple> obs =
        datagen::CartelGenerator(cartel).GenerateObservations();
    tuples.insert(tuples.end(), pubs.begin(), pubs.end());
    tuples.insert(tuples.end(), obs.begin(), obs.end());
    for (const catalog::Tuple& t : tuples) {
      const catalog::EncodedTuple row(t);
      ASSERT_TRUE(catalog::TupleView::Validate(row.bytes()).ok()) << t.id();
      Result<catalog::Tuple> full = row.Decode();
      ASSERT_TRUE(full.ok()) << t.id();
      ASSERT_TRUE(full.value() == t) << t.id();
      EXPECT_EQ(row.id(), full.value().id());
      EXPECT_EQ(row.existence(), full.value().existence());
      for (size_t col = 0; col < full.value().values().size(); ++col) {
        Result<catalog::Value> v = row.Column(col);
        ASSERT_TRUE(v.ok()) << t.id() << " column " << col;
        EXPECT_TRUE(v.value() == full.value().Get(col))
            << t.id() << " column " << col;
      }
    }
  }
}

TEST(UpiKeyCodecTest, TruncationRejected) {
  std::string key = core::EncodeUpiKey("MIT", 0.5, 12);
  core::UpiKey out;
  for (size_t cut = 0; cut < key.size(); ++cut) {
    EXPECT_FALSE(core::DecodeUpiKey(std::string_view(key.data(), cut), &out).ok());
  }
  EXPECT_TRUE(core::DecodeUpiKey(key, &out).ok());
}

TEST(SecondaryPointerCodecTest, TruncationRejected) {
  std::vector<core::SecondaryPointer> ptrs = {{"Brown", 0.72}, {"MIT", 0.18}};
  std::string buf;
  core::SecondaryIndex::EncodePointers(ptrs, true, &buf);
  std::vector<core::SecondaryPointer> out;
  bool has_cutoff;
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    EXPECT_FALSE(core::SecondaryIndex::DecodePointers(
                     std::string_view(buf.data(), cut), &out, &has_cutoff)
                     .ok())
        << "truncation at " << cut;
  }
  EXPECT_TRUE(
      core::SecondaryIndex::DecodePointers(buf, &out, &has_cutoff).ok());
}

TEST(OrderedStringCodecTest, RandomRoundTripProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string in(rng.Uniform(40), '\0');
    for (char& c : in) c = static_cast<char>(rng.Uniform(256));
    std::string enc;
    AppendOrderedString(&enc, in);
    const char* p = enc.data();
    std::string out;
    ASSERT_TRUE(DecodeOrderedString(&p, enc.data() + enc.size(), &out).ok());
    EXPECT_EQ(out, in);
    // Order preservation against a second random string.
    std::string in2(rng.Uniform(40), '\0');
    for (char& c : in2) c = static_cast<char>(rng.Uniform(256));
    std::string enc2;
    AppendOrderedString(&enc2, in2);
    EXPECT_EQ(in < in2, enc < enc2) << "ordering violated";
  }
}

TEST(QuantizeProbTest, IdempotentAndMonotone) {
  Rng rng(11);
  double prev_q = -1.0;
  for (double p = 0.0; p <= 1.0; p += 0.001) {
    double q = QuantizeProb(p);
    EXPECT_GE(q, prev_q);          // monotone
    EXPECT_NEAR(q, p, 1e-9);       // close to input
    EXPECT_DOUBLE_EQ(QuantizeProb(q), q);  // idempotent
    prev_q = q;
  }
  for (int i = 0; i < 1000; ++i) {
    double p = rng.NextDouble();
    std::string enc;
    AppendProbDesc(&enc, QuantizeProb(p));
    EXPECT_DOUBLE_EQ(DecodeProbDesc(enc.data()), QuantizeProb(p))
        << "quantized probabilities must round-trip exactly";
  }
}

}  // namespace
}  // namespace upi
