// Unit tests for the coverage substrate: plan construction, recorder
// bitmaps, masking MC/DC semantics, merge, and report math.
#include <gtest/gtest.h>

#include "actors/spec.h"
#include "interp/interpreter.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

FlatModel logicModel(const std::string& op, int inputs) {
  static std::vector<std::unique_ptr<Tiny>> keepAlive;
  auto t = std::make_unique<Tiny>();
  for (int k = 1; k <= inputs; ++k) {
    t->inport("In" + std::to_string(k), k, DataType::Bool);
  }
  Actor& l = t->actor("L", "LogicalOperator");
  l.params().set("op", op);
  l.params().setInt("inputs", inputs);
  t->outport("Out1", 1);
  for (int k = 1; k <= inputs; ++k) {
    t->wire("In" + std::to_string(k), "L", k);
  }
  t->wire("L", "Out1");
  FlatModel fm = t->flatten();
  keepAlive.push_back(std::move(t));
  return fm;
}

CoveragePlan planFor(const FlatModel& fm) {
  return CoveragePlan::build(
      fm, [](const FlatActor& fa) { return covTraitsFor(fa); });
}

TEST(CoveragePlan, EnumeratesPointsPerTraits) {
  FlatModel fm = logicModel("AND", 3);
  CoveragePlan plan = planFor(fm);
  // 5 actors (3 inports + logic + outport), all actor-coverable.
  EXPECT_EQ(plan.totalPoints(CovMetric::Actor), 5);
  // The logic actor: decision 2 outcomes, 3 conditions (x2 slots), MC/DC 3.
  EXPECT_EQ(plan.totalPoints(CovMetric::Decision), 2);
  EXPECT_EQ(plan.totalPoints(CovMetric::Condition), 6);
  EXPECT_EQ(plan.totalPoints(CovMetric::MCDC), 3);
  const FlatActor* l = fm.findByPath("T_L");
  EXPECT_GE(plan.info(l->id).decisionBase, 0);
  EXPECT_EQ(plan.info(l->id).numConditions, 3);
}

TEST(CoveragePlan, DataStoreMemoryNotActorCoverable) {
  Tiny t;
  t.inport("In1", 1, DataType::I32);
  Actor& dsm = t.actor("Mem", "DataStoreMemory");
  dsm.params().set("store", "q");
  dsm.setDtype(DataType::I32);
  Actor& wr = t.actor("Wr", "DataStoreWrite");
  wr.params().set("store", "q");
  t.wire("In1", "Wr");
  FlatModel fm = t.flatten();
  CoveragePlan plan = planFor(fm);
  EXPECT_EQ(plan.totalPoints(CovMetric::Actor), 2);  // In1 + Wr, not Mem
}

// Drives the logic actor with an explicit input sequence and checks the
// masking-MC/DC bitmaps.
CoverageRecorder runLogic(const std::vector<std::vector<double>>& seqs,
                          const FlatModel& fm) {
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = seqs[0].size();
  TestCaseSpec tests;
  for (const auto& s : seqs) {
    PortStimulus ps;
    ps.sequence = s;
    tests.ports.push_back(ps);
  }
  Interpreter interp(fm, opt);
  auto res = interp.run(tests);
  return res.bitmaps;
}

TEST(Mcdc, AndMaskingSemantics) {
  FlatModel fm = logicModel("AND", 2);
  CoveragePlan plan = planFor(fm);
  const ActorCovInfo& info = plan.info(fm.findByPath("T_L")->id);

  // Step 1: (1,1) -> both conditions shown true-independent.
  // Step 2: (0,1) -> condition 0 shown false-independent (other is true).
  // Condition 1 never shown false-independent (we never see (1,0)).
  auto bits = runLogic({{1, 0}, {1, 1}}, fm);
  const auto& mcdc = bits.bits(CovMetric::MCDC);
  EXPECT_EQ(mcdc[static_cast<size_t>(info.mcdcBase + 0)], 1);  // c0 true
  EXPECT_EQ(mcdc[static_cast<size_t>(info.mcdcBase + 1)], 1);  // c0 false
  EXPECT_EQ(mcdc[static_cast<size_t>(info.mcdcBase + 2)], 1);  // c1 true
  EXPECT_EQ(mcdc[static_cast<size_t>(info.mcdcBase + 3)], 0);  // c1 false
  EXPECT_EQ(bits.coveredPoints(plan, CovMetric::MCDC), 1);  // only c0 complete
}

TEST(Mcdc, OrMaskingRequiresOthersFalse) {
  FlatModel fm = logicModel("OR", 2);
  CoveragePlan plan = planFor(fm);
  const ActorCovInfo& info = plan.info(fm.findByPath("T_L")->id);
  // OR masking: a condition is independent only when all others are false.
  // Step 0 (1,0): c0 independent, shown true. Step 1 (0,0): both
  // independent, shown false. c1 is never seen true while c0 is false.
  auto bits = runLogic({{1, 0}, {0, 0}}, fm);
  const auto& mcdc = bits.bits(CovMetric::MCDC);
  EXPECT_EQ(mcdc[static_cast<size_t>(info.mcdcBase + 0)], 1);
  EXPECT_EQ(mcdc[static_cast<size_t>(info.mcdcBase + 1)], 1);
  EXPECT_EQ(mcdc[static_cast<size_t>(info.mcdcBase + 2)], 0);
  EXPECT_EQ(mcdc[static_cast<size_t>(info.mcdcBase + 3)], 1);
}

TEST(Mcdc, XorAlwaysIndependent) {
  FlatModel fm = logicModel("XOR", 2);
  CoveragePlan plan = planFor(fm);
  // One step (1,0): every condition demonstrates independence at its value.
  auto bits = runLogic({{1}, {0}}, fm);
  const ActorCovInfo& info = plan.info(fm.findByPath("T_L")->id);
  const auto& mcdc = bits.bits(CovMetric::MCDC);
  EXPECT_EQ(mcdc[static_cast<size_t>(info.mcdcBase + 0)], 1);  // c0 true
  EXPECT_EQ(mcdc[static_cast<size_t>(info.mcdcBase + 3)], 1);  // c1 false
}

TEST(Coverage, ConditionSlotsTrackBothDirections) {
  FlatModel fm = logicModel("AND", 2);
  CoveragePlan plan = planFor(fm);
  auto bits = runLogic({{1, 1}, {1, 1}}, fm);
  // c0 always true, never false: one of its two slots set.
  EXPECT_EQ(bits.coveredPoints(plan, CovMetric::Condition), 2);
  auto bits2 = runLogic({{1, 0}, {0, 1}}, fm);
  EXPECT_EQ(bits2.coveredPoints(plan, CovMetric::Condition), 4);
}

TEST(Coverage, MergeIsUnion) {
  FlatModel fm = logicModel("AND", 2);
  CoveragePlan plan = planFor(fm);
  auto a = runLogic({{1}, {1}}, fm);
  auto b = runLogic({{0}, {0}}, fm);
  int ca = a.coveredPoints(plan, CovMetric::Condition);
  a.merge(b);
  EXPECT_GT(a.coveredPoints(plan, CovMetric::Condition), ca);
  EXPECT_EQ(a.coveredPoints(plan, CovMetric::Condition), 4);
}

TEST(Coverage, ReportPercentMath) {
  CoverageReport::Entry e;
  e.covered = 3;
  e.total = 4;
  EXPECT_DOUBLE_EQ(e.percent(), 75.0);
  CoverageReport::Entry empty;
  EXPECT_DOUBLE_EQ(empty.percent(), 100.0);  // no points -> fully covered
}

TEST(Coverage, MetricNamesRoundTrip) {
  for (CovMetric m : kAllCovMetrics) {
    auto back = covMetricFromName(covMetricName(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(covMetricFromName("branch").has_value());
}

TEST(Coverage, ListUncoveredEnumeratesEveryPointWhenEmpty) {
  FlatModel fm = logicModel("AND", 2);
  CoveragePlan plan = planFor(fm);
  auto all = listUncovered(fm, plan, CoverageRecorder{});
  // One entry per SLOT (MC/DC and condition count both directions), so the
  // listing matches slot totals, not report points.
  size_t expected = 0;
  for (CovMetric m : kAllCovMetrics) {
    expected += static_cast<size_t>(plan.totalSlots(m));
  }
  EXPECT_EQ(all.size(), expected);
  for (const auto& u : all) {
    EXPECT_GE(u.actorId, 0);
    EXPECT_FALSE(u.actorPath.empty());
    EXPECT_FALSE(u.outcome.empty());
    EXPECT_GE(u.slot, 0);
    EXPECT_LT(u.slot, plan.totalSlots(u.metric));
  }
}

TEST(Coverage, ListUncoveredShrinksAsPointsAreHit) {
  FlatModel fm = logicModel("AND", 2);
  CoveragePlan plan = planFor(fm);
  auto before = listUncovered(fm, plan, CoverageRecorder{}).size();
  auto bits = runLogic({{1, 0}, {1, 1}}, fm);
  auto after = listUncovered(fm, plan, bits);
  EXPECT_LT(after.size(), before);
  // Every listed point is genuinely unset in the bitmaps.
  for (const auto& u : after) {
    EXPECT_EQ(bits.bits(u.metric)[static_cast<size_t>(u.slot)], 0)
        << u.actorPath << ": " << u.outcome;
  }
  // Full coverage empties the listing.
  auto rest = runLogic({{0, 1}, {1, 0}}, fm);
  bits.merge(rest);
  EXPECT_TRUE(listUncovered(fm, plan, bits).empty());
}

TEST(Coverage, DecisionOutcomesOfSaturation) {
  Tiny t;
  t.inport("In1", 1);
  Actor& sat = t.actor("S", "Saturation");
  sat.params().setDouble("min", 0.25);
  sat.params().setDouble("max", 0.75);
  t.outport("Out1", 1);
  t.wire("In1", "S");
  t.wire("S", "Out1");
  FlatModel fm = t.flatten();
  CoveragePlan plan = planFor(fm);
  EXPECT_EQ(plan.totalPoints(CovMetric::Decision), 3);

  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 3;
  TestCaseSpec tests;
  PortStimulus ps;
  ps.sequence = {0.1, 0.5, 0.9};  // below / within / above
  tests.ports = {ps};
  Interpreter interp(fm, opt);
  auto res = interp.run(tests);
  EXPECT_EQ(res.coverage.of(CovMetric::Decision).covered, 3);
}

}  // namespace
}  // namespace accmos
