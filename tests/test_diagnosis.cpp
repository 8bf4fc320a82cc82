// Unit tests for the diagnosis substrate: kind tables, plan construction
// (type+operator dependence, §3.2.B), and the aggregating sink.
#include <gtest/gtest.h>

#include "actors/spec.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

TEST(DiagKinds, NamesRoundTrip) {
  for (DiagKind k : kAllDiagKinds) {
    auto parsed = diagKindFromName(diagKindName(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(diagKindFromName("bogus").has_value());
}

DiagnosisPlan planFor(const FlatModel& fm) {
  return DiagnosisPlan::build(
      fm, [&](const FlatActor& fa) { return diagKindsFor(fm, fa); });
}

TEST(DiagnosisPlan, ProductOperatorDecidesDivisionCheck) {
  // Paper §3.2.B: a Product with '/' needs division-by-zero; with '*' it
  // does not.
  for (bool div : {true, false}) {
    Tiny t;
    t.inport("In1", 1, DataType::I32);
    t.inport("In2", 2, DataType::I32);
    Actor& p = t.actor("P", "Product");
    p.params().set("ops", div ? "*/" : "**");
    p.setDtype(DataType::I32);
    t.outport("Out1", 1);
    t.wire("In1", "P", 1);
    t.wire("In2", "P", 2);
    t.wire("P", "Out1");
    FlatModel fm = t.flatten();
    DiagnosisPlan plan = planFor(fm);
    const FlatActor* fa = fm.findByPath("T_P");
    EXPECT_EQ(plan.enabled(fa->id, DiagKind::DivisionByZero), div);
    EXPECT_TRUE(plan.enabled(fa->id, DiagKind::WrapOnOverflow));
    EXPECT_FALSE(plan.enabled(fa->id, DiagKind::NanInf));
  }
}

TEST(DiagnosisPlan, TypeRelationshipDecidesDowncast) {
  Tiny t;
  t.inport("In1", 1, DataType::I32);
  t.inport("In2", 2, DataType::I32);
  Actor& p = t.actor("P", "Sum");
  p.params().set("ops", "++");
  p.setDtype(DataType::I16);  // narrower than inputs
  t.outport("Out1", 1);
  t.wire("In1", "P", 1);
  t.wire("In2", "P", 2);
  t.wire("P", "Out1");
  FlatModel fm = t.flatten();
  DiagnosisPlan plan = planFor(fm);
  const FlatActor* fa = fm.findByPath("T_P");
  EXPECT_TRUE(plan.enabled(fa->id, DiagKind::Downcast));
  EXPECT_GT(plan.totalChecks(), 0);
}

TEST(DiagnosisPlan, FloatActorsGetNanInfNotWrap) {
  Tiny t;
  t.inport("In1", 1);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 2.0);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");
  FlatModel fm = t.flatten();
  DiagnosisPlan plan = planFor(fm);
  const FlatActor* fa = fm.findByPath("T_G");
  EXPECT_TRUE(plan.enabled(fa->id, DiagKind::NanInf));
  EXPECT_FALSE(plan.enabled(fa->id, DiagKind::WrapOnOverflow));
}

TEST(DiagnosticSink, AggregatesPerActorKindMessage) {
  DiagnosticSink sink;
  sink.report(3, "M_A", DiagKind::WrapOnOverflow, 100);
  sink.report(3, "M_A", DiagKind::WrapOnOverflow, 50);
  sink.report(3, "M_A", DiagKind::WrapOnOverflow, 200);
  sink.report(3, "M_A", DiagKind::Downcast, 120);
  sink.report(5, "M_B", DiagKind::Custom, 10, "range");
  sink.report(5, "M_B", DiagKind::Custom, 11, "spike");

  EXPECT_TRUE(sink.any());
  EXPECT_EQ(sink.eventKinds(), 4u);
  EXPECT_EQ(sink.totalEvents(), 6u);
  EXPECT_EQ(sink.firstEventStep(), 10u);
  EXPECT_EQ(sink.firstEventStep(DiagKind::WrapOnOverflow), 50u);
  EXPECT_EQ(sink.firstEventStepFor("M_A"), 50u);
  EXPECT_FALSE(sink.firstEventStep(DiagKind::OutOfBounds).has_value());

  auto sorted = sink.sorted();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].firstStep, 10u);  // sorted by first step
  EXPECT_EQ(sorted[0].message, "range");

  sink.clear();
  EXPECT_FALSE(sink.any());
}

TEST(CustomDiagnostic, ConvenienceConstructors) {
  auto r = rangeDiagnostic("M_A", "r", -1.0, 1.0);
  EXPECT_EQ(r.kind, CustomDiagnostic::Kind::Range);
  EXPECT_EQ(r.minValue, -1.0);
  EXPECT_EQ(r.maxValue, 1.0);
  auto s = suddenChangeDiagnostic("M_A", "s", 0.5);
  EXPECT_EQ(s.kind, CustomDiagnostic::Kind::SuddenChange);
  EXPECT_EQ(s.maxDelta, 0.5);
}

// End-to-end: every diagnostic kind can actually fire in the interpreter.
TEST(DiagnosisEndToEnd, AllKindsFire) {
  // Division by zero + wrap (int product), downcast+precision (conversion),
  // out-of-bounds (index), NaN (float log of negative), assertion.
  Tiny t;
  t.inport("In1", 1, DataType::I32);  // stimulus includes 0
  t.inport("In2", 2);                 // f64 in [-1, 1]
  Actor& p = t.actor("Div", "Product");
  p.params().set("ops", "*/");
  p.setDtype(DataType::I32);
  t.wire("In1", "Div", 1);
  t.wire("In1", "Div", 2);
  Actor& conv = t.actor("Narrow", "DataTypeConversion");
  conv.setDtype(DataType::I8);
  t.wire("In2", "Narrow");
  Actor& lg = t.actor("Log", "Math");
  lg.params().set("op", "log");
  t.wire("In2", "Log");
  Actor& mux = t.actor("M", "Mux");
  mux.params().setInt("inputs", 2);
  mux.setWidth(2);
  t.wire("In2", "M", 1);
  t.wire("In2", "M", 2);
  t.actor("Idx", "IndexVector");
  t.wire("In1", "Idx", 1);
  t.wire("M", "Idx", 2);
  Actor& cmp = t.actor("C", "CompareToConstant");
  cmp.params().set("op", "<");
  cmp.params().setDouble("value", 0.99);
  t.wire("In2", "C");
  t.actor("Assert", "Assertion");
  t.wire("C", "Assert");
  t.outport("Out1", 1);
  t.wire("Log", "Out1");

  TestCaseSpec tests;
  tests.seed = 3;
  tests.ports = {PortStimulus{-3.0, 3.0, {}}, PortStimulus{-1.0, 1.0, {}}};
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 3000;
  auto res = simulate(t.model(), opt, tests);

  EXPECT_NE(res.findDiag("T_Div", DiagKind::DivisionByZero), nullptr);
  EXPECT_NE(res.findDiag("T_Narrow", DiagKind::Downcast), nullptr);
  EXPECT_NE(res.findDiag("T_Narrow", DiagKind::PrecisionLoss), nullptr);
  EXPECT_NE(res.findDiag("T_Log", DiagKind::NanInf), nullptr);
  EXPECT_NE(res.findDiag("T_Idx", DiagKind::OutOfBounds), nullptr);
  EXPECT_NE(res.findDiag("T_Assert", DiagKind::AssertionFailed), nullptr);
}

}  // namespace
}  // namespace accmos
