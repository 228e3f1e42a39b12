#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/cost_model.h"
#include "core/fractured_upi.h"
#include "core/upi.h"
#include "datagen/dblp.h"
#include "engine/planner.h"
#include "sim/device_profile.h"
#include "storage/db_env.h"

namespace upi::core {
namespace {

constexpr uint64_t kMB = 1024 * 1024;

TableStats MakeStats(uint64_t bytes = 100 * kMB, uint32_t h = 4,
                     uint32_t nfrac = 10) {
  TableStats s;
  s.table_bytes = bytes;
  s.num_leaf_pages = bytes / 8192;
  s.btree_height = h;
  s.num_fractures = nfrac;
  s.page_size = 8192;
  return s;
}

CostModel Spinning(TableStats stats) {
  return CostModel(sim::DeviceProfile::SpinningDisk(), stats);
}

TEST(CostModelTest, CostScanMatchesTable6) {
  CostModel m = Spinning(MakeStats(10ull * 1024 * kMB));
  // Paper Table 6: Costscan = Tread * Stable = 20 ms/MB * 10 GB.
  EXPECT_NEAR(m.CostScanMs(), 20.0 * 10.0 * 1024.0, 1e-6);
}

TEST(CostModelTest, FracturedFormula) {
  // Costfrac = Costscan*sel + Nfrac*(Costinit + H*Tseek).
  CostModel m = Spinning(MakeStats(100 * kMB, 4, 10));
  double expected = 2000.0 * 0.5 + 10.0 * (100.0 + 4 * 10.0);
  EXPECT_NEAR(m.FracturedQueryMs(0.5), expected, 1e-6);
}

TEST(CostModelTest, FracturedCostLinearInNfrac) {
  double prev = 0;
  for (uint32_t n : {1u, 5u, 10u, 20u}) {
    CostModel m = Spinning(MakeStats(100 * kMB, 4, n));
    double cost = m.FracturedQueryMs(0.01);
    EXPECT_GT(cost, prev);
    prev = cost;
  }
  CostModel m1 = Spinning(MakeStats(100 * kMB, 4, 1));
  CostModel m11 = Spinning(MakeStats(100 * kMB, 4, 11));
  // Ten extra fractures cost exactly 10 * (Costinit + H*Tseek).
  EXPECT_NEAR(m11.FracturedQueryMs(0.2) - m1.FracturedQueryMs(0.2),
              10 * (100.0 + 40.0), 1e-6);
}

TEST(CostModelTest, MergeCostIsReadPlusWrite) {
  CostModel m = Spinning(MakeStats(100 * kMB));
  EXPECT_NEAR(m.MergeMs(), 100.0 * (20.0 + 50.0), 1e-6);
}

TEST(CostModelTest, CeilingIsCostScan) {
  // Section 6.3: a saturated sorted sweep degenerates to a full table scan.
  CostModel m = Spinning(MakeStats());
  EXPECT_DOUBLE_EQ(m.SaturationCeilingMs(), m.CostScanMs());
}

TEST(CostModelTest, DeviceCalibratedSlope) {
  // f'(0) = ceiling * k / 2 must equal one isolated pointer dereference.
  sim::CostParams p;
  CostModel m(sim::DeviceProfile::SpinningDisk(p), MakeStats());
  double per_pointer = p.min_seek_ms + p.ReadMs(8192);
  EXPECT_NEAR(m.SaturationCeilingMs() * m.SigmoidK() / 2.0, per_pointer, 1e-9);
  // Small pointer counts cost about per_pointer each.
  EXPECT_NEAR(m.PointerFollowMs(10), 10 * per_pointer,
              0.05 * 10 * per_pointer);
}

TEST(CostModelTest, PaperHeuristicCalibration) {
  // The paper's rule: f(0.05 * Nleaf) = 0.99 * ceiling.
  CostModel m = Spinning(MakeStats());
  double x0 = 0.05 * m.stats().num_leaf_pages;
  double k = m.PaperHeuristicK();
  double e = std::exp(-k * x0);
  EXPECT_NEAR(m.SaturationCeilingMs() * (1 - e) / (1 + e),
              0.99 * m.SaturationCeilingMs(),
              0.001 * m.SaturationCeilingMs());
}

TEST(CostModelTest, SigmoidShape) {
  CostModel m = Spinning(MakeStats());
  EXPECT_DOUBLE_EQ(m.PointerFollowMs(0), 0.0);
  // Monotone nondecreasing, bounded by the ceiling.
  double prev = 0;
  for (double x : {10.0, 100.0, 1000.0, 1e4, 1e5, 1e6}) {
    double v = m.PointerFollowMs(x);
    EXPECT_GE(v, prev);
    EXPECT_LE(v, m.SaturationCeilingMs() * (1 + 1e-9));
    prev = v;
  }
  // Saturation: huge pointer counts cost (nearly) the same.
  EXPECT_NEAR(m.PointerFollowMs(1e6), m.PointerFollowMs(1e5),
              0.02 * m.SaturationCeilingMs());
}

TEST(CostModelTest, CutoffFormulaAddsTwoLookups) {
  CostModel m = Spinning(MakeStats(100 * kMB, 4, 1));
  double base = m.CostScanMs() * 0.1;
  double expect = base + 2 * (100.0 + 40.0) + m.PointerFollowMs(500);
  EXPECT_NEAR(m.CutoffQueryMs(0.1, 500), expect, 1e-6);
}

TEST(CostModelTest, StatsOfRealUpi) {
  datagen::DblpConfig cfg;
  cfg.num_authors = 2000;
  cfg.seed = 4;
  datagen::DblpGenerator gen(cfg);
  storage::DbEnv env;
  UpiOptions opt;
  opt.cluster_column = datagen::AuthorCols::kInstitution;
  auto upi = Upi::Build(&env, "a", datagen::DblpGenerator::AuthorSchema(), opt,
                        {}, gen.GenerateAuthors())
                 .ValueOrDie();
  TableStats s = TableStats::Of(*upi);
  EXPECT_GT(s.table_bytes, 0u);
  EXPECT_GT(s.num_leaf_pages, 10u);
  EXPECT_GE(s.btree_height, 2u);
  EXPECT_EQ(s.num_fractures, 1u);
}

// ------------------------- Device-profile pricing ---------------------------

TEST(DeviceProfileCostTest, FractureTaxCollapsesOnFlash) {
  // The Nfrac * (Costinit + H * Tseek) deterioration term — the whole reason
  // merges exist on the spinning disk — is ~two orders of magnitude smaller
  // per fracture on flash. This is what defers merges, with no special case.
  TableStats s = MakeStats(100 * kMB, 4, 10);
  CostModel hdd{sim::DeviceProfile::SpinningDisk(), s};
  CostModel ssd{sim::DeviceProfile::Ssd(), s};
  EXPECT_GT(hdd.LookupOverheadMs(), 50.0 * ssd.LookupOverheadMs());
}

TEST(DeviceProfileCostTest, MergeGcPressureAmplifiesWriteHalfOnly) {
  TableStats s = MakeStats(100 * kMB);
  sim::DeviceProfile prof = sim::DeviceProfile::Ssd();
  CostModel m{prof, s};
  double read_half = 100.0 * prof.cost.read_ms_per_mb;
  double write_half = 100.0 * prof.cost.write_ms_per_mb;
  EXPECT_DOUBLE_EQ(m.MergeMs(0.0), read_half + write_half);
  EXPECT_DOUBLE_EQ(m.MergeMs(1.0),
                   read_half + write_half * (1.0 + prof.gc_write_amp_max));
  EXPECT_DOUBLE_EQ(m.MergeMs(0.5),
                   read_half + write_half * (1.0 + 0.5 * prof.gc_write_amp_max));
  // GC pressure is meaningless on spinning disks: the amp factor is zero.
  CostModel hdd = Spinning(s);
  EXPECT_EQ(hdd.MergeMs(1.0), hdd.MergeMs());
}

// The tentpole acceptance pin: one table, one query, two devices, two
// different winning plans — discovered by the cost model, not hard-coded.
// On the spinning disk a ~600-pointer secondary sweep saturates (hundreds of
// short seeks approach a sequential scan, and the scan needs only one seek
// instead of two index descents), so the planner sweeps the heap. On flash
// the same 600 dereferences cost ~0.02 ms each, far below the scan.
class DeviceProfilePlanFlipTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::DblpConfig cfg;
    cfg.num_authors = 30000;
    // Many institutions scatter the country matches across many clustered
    // regions: the spinning-disk sweep saturates at a full scan while the
    // flash sweep stays tens of milliseconds.
    cfg.num_institutions = 6000;
    cfg.seed = 7;
    datagen::DblpGenerator gen(cfg);
    authors_ = gen.GenerateAuthors();
    UpiOptions opt;
    opt.cluster_column = datagen::AuthorCols::kInstitution;
    path_ = Upi::Build(&env_, "authors",
                       datagen::DblpGenerator::AuthorSchema(), opt,
                       {datagen::AuthorCols::kCountry}, authors_)
                .ValueOrDie();
    value_ = datagen::FindValueWithApproxCount(
        authors_, datagen::AuthorCols::kCountry, 900);
  }

  storage::DbEnv env_;
  std::vector<catalog::Tuple> authors_;
  std::unique_ptr<Upi> path_;
  std::string value_;
};

TEST_F(DeviceProfilePlanFlipTest, SecondaryQueryFlipsWinnerBetweenProfiles) {
  engine::QueryPlanner hdd(path_.get());  // Table 6 spinning disk
  engine::QueryPlanner ssd(path_.get(), sim::DeviceProfile::Ssd());
  engine::Plan on_hdd =
      hdd.PlanSecondary(datagen::AuthorCols::kCountry, value_, 0.05);
  engine::Plan on_ssd =
      ssd.PlanSecondary(datagen::AuthorCols::kCountry, value_, 0.05);
  EXPECT_EQ(on_hdd.kind, engine::PlanKind::kHeapScan);
  EXPECT_TRUE(on_ssd.kind == engine::PlanKind::kSecondaryFirstPointer ||
              on_ssd.kind == engine::PlanKind::kSecondaryTailored)
      << on_ssd.Explain();
  ASSERT_NE(on_hdd.kind, on_ssd.kind) << "hdd:\n"
                                      << on_hdd.Explain() << "ssd:\n"
                                      << on_ssd.Explain();
  // The flip is visible in the EXPLAIN output, chosen line and all.
  EXPECT_NE(on_hdd.Explain().find("chosen: heap-scan"), std::string::npos);
  EXPECT_NE(on_ssd.Explain().find("chosen: secondary"), std::string::npos);
}

// ----------------------------- Advisor -------------------------------------

class AdvisorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::DblpConfig cfg;
    cfg.num_authors = 5000;
    cfg.num_institutions = 100;
    cfg.seed = 9;
    datagen::DblpGenerator gen(cfg);
    tuples_ = gen.GenerateAuthors();
    hist_ = std::make_unique<histogram::ProbHistogram>(20);
    for (const auto& t : tuples_) {
      const auto& dist = t.Get(datagen::AuthorCols::kInstitution).discrete();
      bool first = true;
      for (const auto& a : dist.alternatives()) {
        hist_->Add(a.value, t.existence() * a.prob, first);
        first = false;
      }
    }
    est_ = std::make_unique<histogram::SelectivityEstimator>(hist_.get());
    advisor_ = std::make_unique<Advisor>(sim::DeviceProfile::SpinningDisk(),
                                         est_.get(),
                                         /*avg_entry_bytes=*/300.0,
                                         /*page_size=*/8192);
    popular_ = datagen::DblpGenerator(cfg).PopularInstitution();
  }

  std::vector<catalog::Tuple> tuples_;
  std::unique_ptr<histogram::ProbHistogram> hist_;
  std::unique_ptr<histogram::SelectivityEstimator> est_;
  std::unique_ptr<Advisor> advisor_;
  std::string popular_;
};

TEST_F(AdvisorFixture, LargerCutoffShrinksHeap) {
  auto r0 = advisor_->Evaluate(0.0, {}, 1e18);
  auto r3 = advisor_->Evaluate(0.3, {}, 1e18);
  EXPECT_LT(r3.expected_heap_bytes, r0.expected_heap_bytes);
}

TEST_F(AdvisorFixture, HighQtWorkloadToleratesLargeCutoff) {
  // All queries at QT=0.5: a C=0.4 index never touches the cutoff index, so
  // its smaller heap should win over C=0.
  std::vector<WorkloadQuery> wl = {{popular_, 0.5, 1.0}};
  auto rec = advisor_->RecommendCutoff({0.0, 0.1, 0.2, 0.3, 0.4}, wl, 1e18);
  EXPECT_GE(rec.cutoff, 0.2);
  EXPECT_TRUE(rec.feasible);
}

TEST_F(AdvisorFixture, LowQtWorkloadPrefersSmallCutoff) {
  // All queries at QT=0.02: any C > 0.02 pays pointer chasing.
  std::vector<WorkloadQuery> wl = {{popular_, 0.02, 1.0}};
  auto rec = advisor_->RecommendCutoff({0.0, 0.1, 0.2, 0.3, 0.4}, wl, 1e18);
  EXPECT_LE(rec.cutoff, 0.02);
}

TEST_F(AdvisorFixture, StorageBudgetForcesCutoff) {
  std::vector<WorkloadQuery> wl = {{popular_, 0.02, 1.0}};
  auto unconstrained = advisor_->Evaluate(0.0, wl, 1e18);
  // Budget below the full-duplication size forces a nonzero cutoff.
  auto rec = advisor_->RecommendCutoff(
      {0.0, 0.1, 0.2, 0.3, 0.4}, wl, unconstrained.expected_heap_bytes * 0.6);
  EXPECT_GT(rec.cutoff, 0.0);
}

TEST_F(AdvisorFixture, FracturesBeforeMergeMonotone) {
  uint32_t tight = advisor_->FracturesBeforeMerge(500, 0.01, 100 * kMB, 4);
  uint32_t loose = advisor_->FracturesBeforeMerge(5000, 0.01, 100 * kMB, 4);
  EXPECT_LE(tight, loose);
  EXPECT_GE(tight, 1u);
}

}  // namespace
}  // namespace upi::core
