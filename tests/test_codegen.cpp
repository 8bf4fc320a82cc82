// End-to-end tests of the AccMoS pipeline: instrumentation, code synthesis,
// compilation, execution, and parity of the recovered results with the
// interpreting engine.
#include <gtest/gtest.h>

#include "bench_models/sample_overflow.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "codegen/emitter.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

// A small model exercising arithmetic, branching, logic, state and I/O.
Tiny mixedModel() {
  Tiny t("Mixed");
  t.inport("In1", 1);
  t.inport("In2", 2);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 2.5);
  t.actor("Add", "Sum").params().set("ops", "+-");
  Actor& cmp = t.actor("Cmp", "CompareToConstant");
  cmp.params().set("op", ">");
  cmp.params().setDouble("value", 0.5);
  Actor& logic = t.actor("L", "LogicalOperator");
  logic.params().set("op", "AND");
  logic.params().setInt("inputs", 2);
  Actor& cmp2 = t.actor("Cmp2", "CompareToConstant");
  cmp2.params().set("op", "<");
  cmp2.params().setDouble("value", 0.8);
  Actor& sw = t.actor("Sw", "Switch");
  sw.params().set("criteria", "~=0");
  t.actor("Del", "UnitDelay");
  t.outport("Out1", 1);
  t.outport("Out2", 2);

  t.wire("In1", "G");
  t.wire("G", "Add", 1);
  t.wire("In2", "Add", 2);
  t.wire("In1", "Cmp");
  t.wire("In2", "Cmp2");
  t.wire("Cmp", "L", 1);
  t.wire("Cmp2", "L", 2);
  t.wire("Add", "Sw", 1);
  t.wire("L", "Sw", 2);
  t.wire("In2", "Sw", 3);
  t.wire("Sw", "Del");
  t.wire("Del", "Out1");
  t.wire("Add", "Out2");
  return t;
}

TEST(Codegen, GeneratedSourceHasPaperStructure) {
  Tiny t = mixedModel();
  Simulator sim(t.model());
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 10;
  AccMoSEngine engine(sim.flatModel(), opt, TestCaseSpec{});
  const std::string& src = engine.generatedSource();
  // The three structural pieces of paper Fig. 5; the simulation entry is
  // the run ABI's accmos_run — one shared library, no main().
  EXPECT_NE(src.find("Model_Init"), std::string::npos);
  EXPECT_NE(src.find("Model_Exe"), std::string::npos);
  EXPECT_NE(src.find("extern \"C\" int accmos_run("), std::string::npos);
  EXPECT_EQ(src.find("main("), std::string::npos);
  // Instrumentation: coverage bitmap writes and a generated diagnostic
  // function ("implementation defined elsewhere, call at a location").
  EXPECT_NE(src.find("accmos_cov_actor["), std::string::npos);
  EXPECT_NE(src.find("diagnose_"), std::string::npos);
  // Test-case import.
  EXPECT_NE(src.find("accmos_fill_inputs"), std::string::npos);
}

TEST(Codegen, MatchesInterpreterOnMixedModel) {
  Tiny t = mixedModel();
  auto sse = test::runOn(t.model(), Engine::SSE, 500);
  auto acc = test::runOn(t.model(), Engine::AccMoS, 500);
  EXPECT_EQ(acc.stepsExecuted, 500u);
  test::expectSameOutputs(sse, acc, "AccMoS vs SSE");
  // Identical coverage percentages (same plans, same bitmaps).
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(sse.coverage.of(m).covered, acc.coverage.of(m).covered)
        << covMetricName(m);
    EXPECT_EQ(sse.coverage.of(m).total, acc.coverage.of(m).total);
  }
  // Identical diagnostics.
  ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size());
  for (size_t k = 0; k < sse.diagnostics.size(); ++k) {
    EXPECT_EQ(sse.diagnostics[k].actorPath, acc.diagnostics[k].actorPath);
    EXPECT_EQ(sse.diagnostics[k].kind, acc.diagnostics[k].kind);
    EXPECT_EQ(sse.diagnostics[k].firstStep, acc.diagnostics[k].firstStep);
    EXPECT_EQ(sse.diagnostics[k].count, acc.diagnostics[k].count);
  }
}

TEST(Codegen, DetectsSampleModelOverflowLikeInterpreter) {
  auto model = sampleOverflowModel();
  SimOptions opt;
  opt.maxSteps = 50000;
  opt.stopOnDiagnostic = true;
  TestCaseSpec tests = sampleOverflowStimulus();
  // Scale up so the overflow happens within the step budget.
  tests.ports[0].max = 200000.0;
  tests.ports[1].max = 200000.0;

  opt.engine = Engine::SSE;
  auto sse = simulate(*model, opt, tests);
  opt.engine = Engine::AccMoS;
  auto acc = simulate(*model, opt, tests);

  ASSERT_TRUE(sse.firstDiagStep().has_value());
  ASSERT_TRUE(acc.firstDiagStep().has_value());
  EXPECT_EQ(*sse.firstDiagStep(), *acc.firstDiagStep());
  EXPECT_TRUE(sse.stoppedEarly);
  EXPECT_TRUE(acc.stoppedEarly);
  EXPECT_NE(acc.findDiag("Sample", DiagKind::WrapOnOverflow), nullptr);
}

TEST(Codegen, CollectAndCustomDiagnostics) {
  Tiny t = mixedModel();
  SimOptions opt;
  opt.maxSteps = 200;
  opt.collectList = {"Mixed_Add"};
  CustomDiagnostic cd;
  cd.actorPath = "Mixed_Sw";
  cd.name = "sudden-change";
  cd.kind = CustomDiagnostic::Kind::SuddenChange;
  cd.maxDelta = 0.4;
  opt.customDiagnostics = {cd};

  opt.engine = Engine::SSE;
  auto sse = simulate(t.model(), opt, TestCaseSpec{});
  opt.engine = Engine::AccMoS;
  auto acc = simulate(t.model(), opt, TestCaseSpec{});

  ASSERT_EQ(sse.collected.size(), acc.collected.size());
  ASSERT_FALSE(acc.collected.empty());
  for (size_t k = 0; k < sse.collected.size(); ++k) {
    EXPECT_EQ(sse.collected[k].path, acc.collected[k].path);
    EXPECT_EQ(sse.collected[k].count, acc.collected[k].count);
    EXPECT_EQ(sse.collected[k].last, acc.collected[k].last);
  }
  const DiagRecord* sseCd = sse.findDiag("Mixed_Sw", DiagKind::Custom);
  const DiagRecord* accCd = acc.findDiag("Mixed_Sw", DiagKind::Custom);
  ASSERT_NE(sseCd, nullptr);
  ASSERT_NE(accCd, nullptr);
  EXPECT_EQ(sseCd->firstStep, accCd->firstStep);
  EXPECT_EQ(sseCd->count, accCd->count);
}

TEST(Codegen, ExpressionCustomDiagnosticNeedsCppCondition) {
  Tiny t = mixedModel();
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  CustomDiagnostic cd;
  cd.actorPath = "Mixed_Add";
  cd.name = "cb-only";
  cd.kind = CustomDiagnostic::Kind::Expression;
  cd.callback = [](double, double, uint64_t) { return false; };
  opt.customDiagnostics = {cd};
  EXPECT_THROW(simulate(t.model(), opt, TestCaseSpec{}), ModelError);
}

TEST(Codegen, CompileErrorCarriesLog) {
  CompilerDriver driver;
  EXPECT_THROW(driver.compile("int f( {", "bad", "-O0"), CompileError);
}

TEST(Codegen, UninstrumentedCodeOmitsInstrumentation) {
  Tiny t = mixedModel();
  Simulator sim(t.model());
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.coverage = false;
  opt.diagnosis = false;
  AccMoSEngine engine(sim.flatModel(), opt, TestCaseSpec{});
  const std::string& src = engine.generatedSource();
  EXPECT_EQ(src.find("accmos_cov_actor["), std::string::npos);
  EXPECT_EQ(src.find("diagnose_"), std::string::npos);
  auto res = engine.run();
  EXPECT_FALSE(res.hasCoverage);
  EXPECT_TRUE(res.diagnostics.empty());
}

// Step-local signals become locals of Model_Exe; signals whose value
// outlives a step stay members. Four signals probe the rule: the output of
// an enabled subsystem, read while the subsystem is disabled (held, so a
// member); a root outport fed by an unguarded actor (read after the loop,
// so a member); a monitored signal and a custom-diagnosed signal (locals,
// read by the collect and the custom check inside Model_Exe).
Tiny localisationModel() {
  Tiny t("Loc");
  t.inport("In1", 1);
  t.inport("In2", 2);
  Actor& en = t.actor("En", "CompareToConstant");
  en.params().set("op", ">");
  en.params().setDouble("value", 0.5);
  Actor& sub = t.actor("S", "EnabledSubsystem");
  System& inner = sub.makeSubsystem();
  inner.addActor("In1", "Inport").params().setInt("port", 1);
  inner.addActor("G", "Gain").params().setDouble("gain", 2.0);
  inner.connect("In1", 1, "G", 1);
  inner.addActor("Out1", "Outport").params().setInt("port", 1);
  inner.connect("G", 1, "Out1", 1);
  t.actor("Hold", "Sum").params().set("ops", "++");
  t.actor("Mon", "Gain").params().setDouble("gain", 0.5);
  t.actor("Cd", "Sum").params().set("ops", "+-");
  t.actor("Term", "Terminator");
  t.outport("Out1", 1);
  t.wire("In2", "En");
  t.wire("In1", "S", 1);
  t.wire("En", "S", 2);
  t.wire("S", "Hold", 1);
  t.wire("In1", "Hold", 2);
  t.wire("Hold", "Out1");
  t.wire("Hold", "Mon");
  t.wire("Mon", "Cd", 1);
  t.wire("In2", "Cd", 2);
  t.wire("Cd", "Term");
  return t;
}

TEST(Codegen, StepLocalSignalsMatchInterpreterAndHeldSignalsStayMembers) {
  Tiny t = localisationModel();
  SimOptions opt;
  opt.collectList = {"Loc_Mon"};
  opt.customDiagnostics = {rangeDiagnostic("Loc_Cd", "band", -1.0, 4.0)};
  TestCaseSpec tests;
  tests.ports.resize(2);
  tests.ports[0].sequence = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  tests.ports[1].sequence = {1.0, 0.0, 0.0, 1.0, 0.0};  // disabled 2 of 5

  for (uint64_t steps = 1; steps <= 12; ++steps) {
    opt.maxSteps = steps;
    opt.engine = Engine::SSE;
    auto sse = simulate(t.model(), opt, tests);
    opt.engine = Engine::AccMoS;
    auto acc = simulate(t.model(), opt, tests);
    test::expectIdenticalResults(sse, acc,
                                 "after " + std::to_string(steps) + " steps");
    if (steps == 12) {
      EXPECT_NE(acc.findDiag("Loc_Cd", DiagKind::Custom), nullptr);
      ASSERT_EQ(acc.collected.size(), 1u);
      EXPECT_EQ(acc.collected[0].count, steps);
    }
  }

  Simulator sim(t.model());
  const FlatModel& fm = sim.flatModel();
  AccMoSEngine engine(fm, opt, tests);
  const std::string& src = engine.generatedSource();
  const size_t exe = src.find("void Model_Exe(");
  ASSERT_NE(exe, std::string::npos);
  // A signal's first mention is its declaration: before Model_Exe for a
  // member of the state struct, inside it for a local.
  auto isMember = [&](const std::string& path) {
    const FlatActor* fa = fm.findByPath(path);
    EXPECT_NE(fa, nullptr) << path;
    if (fa == nullptr) return false;
    const size_t decl = src.find(" " + signalSymbol(fa->outputs[0]) + "[");
    EXPECT_NE(decl, std::string::npos) << path;
    return decl < exe;
  };
  EXPECT_TRUE(isMember("Loc_S_G")) << "held enabled-subsystem output";
  EXPECT_TRUE(isMember("Loc_Hold")) << "root outport input";
  EXPECT_TRUE(isMember("Loc_In1")) << "root inport output";
  EXPECT_FALSE(isMember("Loc_Mon")) << "monitored step-local signal";
  EXPECT_FALSE(isMember("Loc_Cd")) << "custom-diagnosed step-local signal";
  EXPECT_FALSE(isMember("Loc_En")) << "enable signal";
}

}  // namespace
}  // namespace accmos
