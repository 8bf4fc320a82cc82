// Cross-engine differential tests: for the same model and stimulus, the
// four engines (SSE interpreter, SSEac bytecode, SSErac closures, and
// AccMoS generated code) must produce bit-identical outputs, and the two
// instrumented engines identical coverage and diagnostics.
//
// This is the property the paper's whole method rests on: code-based
// simulation must be a faithful replacement for the interpreting engine.
#include <gtest/gtest.h>

#include "bench_models/sample_overflow.h"
#include "bench_models/suite.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

// In-process engines (cheap — parameterized over the whole suite).
class InProcessDifferential
    : public ::testing::TestWithParam<BenchModelInfo> {};

TEST_P(InProcessDifferential, FastModesMatchInterpreterOutputs) {
  const BenchModelInfo& info = GetParam();
  auto model = buildBenchmarkModel(info.name);
  TestCaseSpec tests = benchStimulus(info.name);
  auto sse = test::runOn(*model, Engine::SSE, 1500, tests);
  auto ac = test::runOn(*model, Engine::SSEac, 1500, tests);
  auto rac = test::runOn(*model, Engine::SSErac, 1500, tests);
  test::expectSameOutputs(sse, ac, info.name + " SSEac");
  test::expectSameOutputs(sse, rac, info.name + " SSErac");
  EXPECT_EQ(sse.stepsExecuted, ac.stepsExecuted);
  EXPECT_EQ(sse.stepsExecuted, rac.stepsExecuted);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, InProcessDifferential, ::testing::ValuesIn(benchmarkSuite()),
    [](const ::testing::TestParamInfo<BenchModelInfo>& info) {
      return info.param.name;
    });

// AccMoS involves a compile per case; run it on a subset plus the sample
// and error-injected models.
TEST(AccMoSDifferential, MatchesInterpreterOnBenchmarks) {
  for (const char* name : {"CSEV", "TWC", "SPV"}) {
    auto model = buildBenchmarkModel(name);
    TestCaseSpec tests = benchStimulus(name);
    auto sse = test::runOn(*model, Engine::AccMoS, 1000, tests);
    auto acc = test::runOn(*model, Engine::SSE, 1000, tests);
    test::expectSameOutputs(sse, acc, std::string(name) + " AccMoS");
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(sse.coverage.of(m).covered, acc.coverage.of(m).covered)
          << name << " " << covMetricName(m);
    }
  }
}

TEST(AccMoSDifferential, MatchesInterpreterOnInjectedCsev) {
  auto model = buildCsevWithInjectedErrors();
  TestCaseSpec tests = benchStimulus("CSEV");
  auto sse = test::runOn(*model, Engine::SSE, 5000, tests);
  auto acc = test::runOn(*model, Engine::AccMoS, 5000, tests);
  test::expectSameOutputs(sse, acc, "injected CSEV");
  ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size());
  for (size_t k = 0; k < sse.diagnostics.size(); ++k) {
    EXPECT_EQ(sse.diagnostics[k].actorPath, acc.diagnostics[k].actorPath);
    EXPECT_EQ(sse.diagnostics[k].kind, acc.diagnostics[k].kind);
    EXPECT_EQ(sse.diagnostics[k].firstStep, acc.diagnostics[k].firstStep);
    EXPECT_EQ(sse.diagnostics[k].count, acc.diagnostics[k].count);
  }
}

// Per-actor-type differential micro-models: every type with every engine.
struct TypeCase {
  std::string label;
  std::function<void(Tiny&)> build;
};

void buildChainCommon(Tiny& t, const std::string& opName) {
  t.wire("In1", opName);
  t.wire(opName, "Out1");
}

std::vector<TypeCase> typeCases() {
  std::vector<TypeCase> cases;
  auto add = [&](const std::string& label, std::function<void(Tiny&)> fn) {
    cases.push_back(TypeCase{label, std::move(fn)});
  };

  auto unary = [&](const std::string& label, const std::string& type,
                   std::function<void(Actor&)> cfg = nullptr,
                   DataType out = DataType::F64) {
    add(label, [=](Tiny& t) {
      t.inport("In1", 1);
      Actor& a = t.actor("Op", type);
      a.setDtype(out);
      if (cfg) cfg(a);
      t.outport("Out1", 1);
      buildChainCommon(t, "Op");
    });
  };

  unary("GainF64", "Gain",
        [](Actor& a) { a.params().setDouble("gain", 1.7); });
  unary("GainI32", "Gain",
        [](Actor& a) {
          a.params().setDouble("gain", 3.0);
          a.setDtype(DataType::I32);
        },
        DataType::I32);
  unary("Bias", "Bias", [](Actor& a) { a.params().setDouble("bias", -2.5); });
  unary("Abs", "Abs");
  unary("Sign", "Sign");
  unary("UnaryMinus", "UnaryMinus");
  unary("Sqrt", "Sqrt");
  unary("MathExp", "Math", [](Actor& a) { a.params().set("op", "exp"); });
  unary("MathLog", "Math", [](Actor& a) { a.params().set("op", "log"); });
  unary("MathSquare", "Math",
        [](Actor& a) { a.params().set("op", "square"); });
  unary("MathRecip", "Math",
        [](Actor& a) { a.params().set("op", "reciprocal"); });
  unary("TrigSin", "Trigonometry",
        [](Actor& a) { a.params().set("op", "sin"); });
  unary("TrigTanh", "Trigonometry",
        [](Actor& a) { a.params().set("op", "tanh"); });
  unary("RoundFloor", "Rounding",
        [](Actor& a) { a.params().set("op", "floor"); });
  unary("RoundFix", "Rounding", [](Actor& a) { a.params().set("op", "fix"); });
  unary("Poly", "Polynomial",
        [](Actor& a) { a.params().set("coeffs", "1.5,-2,0.25"); });
  unary("Quantizer", "Quantizer",
        [](Actor& a) { a.params().setDouble("interval", 0.3); });
  unary("Saturation", "Saturation", [](Actor& a) {
    a.params().setDouble("min", 0.2);
    a.params().setDouble("max", 0.7);
  });
  unary("DeadZone", "DeadZone", [](Actor& a) {
    a.params().setDouble("start", 0.3);
    a.params().setDouble("end", 0.6);
  });
  unary("WrapToZero", "WrapToZero",
        [](Actor& a) { a.params().setDouble("threshold", 0.5); });
  unary("Relay", "Relay", [](Actor& a) {
    a.params().setDouble("onPoint", 0.7);
    a.params().setDouble("offPoint", 0.3);
    a.params().setDouble("onValue", 5.0);
    a.params().setDouble("offValue", -5.0);
  });
  unary("RateLimiter", "RateLimiter", [](Actor& a) {
    a.params().setDouble("rising", 0.05);
    a.params().setDouble("falling", -0.05);
  });
  unary("UnitDelay", "UnitDelay",
        [](Actor& a) { a.params().setDouble("initial", 9.5); });
  unary("Memory", "Memory");
  unary("Delay3", "Delay", [](Actor& a) {
    a.params().setInt("length", 3);
    a.params().setDouble("initial", -1.0);
  });
  unary("Integrator", "DiscreteIntegrator",
        [](Actor& a) { a.params().setDouble("gain", 0.25); });
  unary("IntegratorI32", "DiscreteIntegrator",
        [](Actor& a) {
          a.params().setDouble("gain", 2.0);
          a.setDtype(DataType::I32);
        },
        DataType::I32);
  unary("Derivative", "DiscreteDerivative");
  unary("Filter", "DiscreteFilter", [](Actor& a) {
    a.params().set("num", "0.4,0.3");
    a.params().set("den", "1,-0.3");
  });
  unary("Zoh", "ZeroOrderHold",
        [](Actor& a) { a.params().setInt("sample", 5); });
  unary("Lookup1D", "Lookup1D", [](Actor& a) {
    a.params().set("x", "0,0.25,0.5,0.75,1");
    a.params().set("y", "0,2,1,5,3");
  });
  unary("Lookup1DNearest", "Lookup1D", [](Actor& a) {
    a.params().set("x", "0,0.5,1");
    a.params().set("y", "1,2,3");
    a.params().set("method", "nearest");
  });
  unary("ConvertToI16", "DataTypeConversion",
        [](Actor& a) { a.setDtype(DataType::I16); }, DataType::I16);
  unary("ConvertToF32", "DataTypeConversion",
        [](Actor& a) { a.setDtype(DataType::F32); }, DataType::F32);
  unary("CompareGt", "CompareToConstant",
        [](Actor& a) {
          a.params().set("op", ">");
          a.params().setDouble("value", 0.4);
        },
        DataType::Bool);
  unary("CompareZero", "CompareToZero",
        [](Actor& a) { a.params().set("op", ">="); }, DataType::Bool);

  auto binary = [&](const std::string& label, const std::string& type,
                    std::function<void(Actor&)> cfg = nullptr,
                    DataType out = DataType::F64) {
    add(label, [=](Tiny& t) {
      t.inport("In1", 1);
      t.inport("In2", 2);
      Actor& a = t.actor("Op", type);
      a.setDtype(out);
      if (cfg) cfg(a);
      t.outport("Out1", 1);
      t.wire("In1", "Op", 1);
      t.wire("In2", "Op", 2);
      t.wire("Op", "Out1");
    });
  };
  binary("SumF64", "Sum", [](Actor& a) { a.params().set("ops", "+-"); });
  binary("SumI8", "Sum",
         [](Actor& a) {
           a.params().set("ops", "++");
           a.setDtype(DataType::I8);
         },
         DataType::I8);
  binary("ProductDiv", "Product",
         [](Actor& a) { a.params().set("ops", "*/"); });
  binary("ProductI32Div", "Product",
         [](Actor& a) {
           a.params().set("ops", "*/");
           a.setDtype(DataType::I32);
         },
         DataType::I32);
  binary("MathPow", "Math", [](Actor& a) { a.params().set("op", "pow"); });
  binary("MathMod", "Math", [](Actor& a) { a.params().set("op", "mod"); });
  binary("MathRem", "Math", [](Actor& a) { a.params().set("op", "rem"); });
  binary("MathHypot", "Math", [](Actor& a) { a.params().set("op", "hypot"); });
  binary("Atan2", "Trigonometry",
         [](Actor& a) { a.params().set("op", "atan2"); });
  binary("MinMaxMin", "MinMax", [](Actor& a) {
    a.params().set("op", "min");
    a.params().setInt("inputs", 2);
  });
  binary("RelLt", "RelationalOperator",
         [](Actor& a) { a.params().set("op", "<"); }, DataType::Bool);
  binary("RelEq", "RelationalOperator",
         [](Actor& a) { a.params().set("op", "=="); }, DataType::Bool);
  binary("Lookup2D", "Lookup2D", [](Actor& a) {
    a.params().set("x", "0,0.5,1");
    a.params().set("y", "0,1");
    a.params().set("z", "0,1,2,3,4,5");
  });

  // Logic over thresholded inputs.
  for (const char* lop : {"AND", "OR", "NAND", "NOR", "XOR", "NXOR"}) {
    add(std::string("Logic") + lop, [lop](Tiny& t) {
      t.inport("In1", 1);
      t.inport("In2", 2);
      Actor& c1 = t.actor("C1", "CompareToConstant");
      c1.params().set("op", ">");
      c1.params().setDouble("value", 0.5);
      Actor& c2 = t.actor("C2", "CompareToConstant");
      c2.params().set("op", ">");
      c2.params().setDouble("value", 0.25);
      Actor& l = t.actor("Op", "LogicalOperator");
      l.params().set("op", lop);
      l.params().setInt("inputs", 2);
      t.outport("Out1", 1);
      t.wire("In1", "C1");
      t.wire("In2", "C2");
      t.wire("C1", "Op", 1);
      t.wire("C2", "Op", 2);
      t.wire("Op", "Out1");
    });
  }
  add("LogicNot", [](Tiny& t) {
    t.inport("In1", 1);
    Actor& c1 = t.actor("C1", "CompareToConstant");
    c1.params().set("op", ">");
    c1.params().setDouble("value", 0.5);
    Actor& l = t.actor("Op", "LogicalOperator");
    l.params().set("op", "NOT");
    t.outport("Out1", 1);
    t.wire("In1", "C1");
    t.wire("C1", "Op");
    t.wire("Op", "Out1");
  });

  // Integer bit ops on converted inputs.
  add("BitwiseXorShift", [](Tiny& t) {
    t.inport("In1", 1);
    t.inport("In2", 2);
    Actor& g1 = t.actor("G1", "Gain");
    g1.params().setDouble("gain", 1000.0);
    Actor& k1 = t.actor("K1", "DataTypeConversion");
    k1.setDtype(DataType::I32);
    Actor& g2 = t.actor("G2", "Gain");
    g2.params().setDouble("gain", 997.0);
    Actor& k2 = t.actor("K2", "DataTypeConversion");
    k2.setDtype(DataType::I32);
    Actor& bx = t.actor("Bx", "BitwiseOperator");
    bx.params().set("op", "XOR");
    bx.setDtype(DataType::I32);
    Actor& sh = t.actor("Op", "ShiftArithmetic");
    sh.params().set("direction", "left");
    sh.params().setInt("bits", 3);
    sh.setDtype(DataType::I32);
    t.outport("Out1", 1);
    t.wire("In1", "G1");
    t.wire("G1", "K1");
    t.wire("In2", "G2");
    t.wire("G2", "K2");
    t.wire("K1", "Bx", 1);
    t.wire("K2", "Bx", 2);
    t.wire("Bx", "Op");
    t.wire("Op", "Out1");
  });

  // Routing.
  add("SwitchGt0", [](Tiny& t) {
    t.inport("In1", 1);
    t.inport("In2", 2);
    Actor& b = t.actor("B", "Bias");
    b.params().setDouble("bias", -0.5);
    Actor& sw = t.actor("Op", "Switch");
    sw.params().set("criteria", ">0");
    t.outport("Out1", 1);
    t.wire("In2", "B");
    t.wire("In1", "Op", 1);
    t.wire("B", "Op", 2);
    t.wire("In2", "Op", 3);
    t.wire("Op", "Out1");
  });
  add("MultiportSwitch", [](Tiny& t) {
    t.inport("In1", 1);
    t.inport("In2", 2);
    Actor& g = t.actor("G", "Gain");
    g.params().setDouble("gain", 4.0);
    Actor& k = t.actor("K", "DataTypeConversion");
    k.setDtype(DataType::I32);
    Actor& c = t.actor("C", "Constant");
    c.params().setDouble("value", 42.0);
    Actor& mp = t.actor("Op", "MultiportSwitch");
    mp.params().setInt("cases", 2);
    t.outport("Out1", 1);
    t.wire("In1", "G");
    t.wire("G", "K");
    t.wire("K", "Op", 1);
    t.wire("In2", "Op", 2);
    t.wire("C", "Op", 3);
    t.wire("Op", "Out1");
  });
  add("MuxDemuxSelector", [](Tiny& t) {
    t.inport("In1", 1);
    t.inport("In2", 2);
    Actor& mux = t.actor("M", "Mux");
    mux.params().setInt("inputs", 2);
    mux.setWidth(2);
    Actor& sel = t.actor("Sel", "Selector");
    sel.params().set("indices", "2,1,2");
    sel.setWidth(3);
    t.actor("S", "SumOfElements");
    t.outport("Out1", 1);
    t.wire("In1", "M", 1);
    t.wire("In2", "M", 2);
    t.wire("M", "Sel");
    t.wire("Sel", "S");
    t.wire("S", "Out1");
  });
  add("IndexVector", [](Tiny& t) {
    t.inport("In1", 1);
    t.inport("In2", 2);
    Actor& g = t.actor("G", "Gain");
    g.params().setDouble("gain", 3.0);
    Actor& k = t.actor("K", "DataTypeConversion");
    k.setDtype(DataType::I32);
    Actor& mux = t.actor("M", "Mux");
    mux.params().setInt("inputs", 2);
    mux.setWidth(2);
    t.actor("Op", "IndexVector");
    t.outport("Out1", 1);
    t.wire("In1", "G");
    t.wire("G", "K");
    t.wire("In1", "M", 1);
    t.wire("In2", "M", 2);
    t.wire("K", "Op", 1);
    t.wire("M", "Op", 2);
    t.wire("Op", "Out1");
  });

  // Sources (no inputs; an Inport still drives the stimulus stream).
  auto source = [&](const std::string& label, const std::string& type,
                    std::function<void(Actor&)> cfg = nullptr,
                    DataType out = DataType::F64) {
    add(label, [=](Tiny& t) {
      t.inport("In1", 1);
      Actor& s = t.actor("Src", type);
      s.setDtype(out);
      if (cfg) cfg(s);
      Actor& sum = t.actor("Mix", "Sum");
      sum.params().set("ops", "++");
      t.outport("Out1", 1);
      t.wire("Src", "Mix", 1);
      t.wire("In1", "Mix", 2);
      t.wire("Mix", "Out1");
    });
  };
  source("Constant", "Constant",
         [](Actor& a) { a.params().setDouble("value", 2.25); });
  source("Step", "Step", [](Actor& a) {
    a.params().setDouble("stepTime", 50.0);
    a.params().setDouble("before", -1.0);
    a.params().setDouble("after", 3.0);
  });
  source("Ramp", "Ramp", [](Actor& a) {
    a.params().setDouble("start", 10.0);
    a.params().setDouble("slope", 0.125);
  });
  source("SineWave", "SineWave", [](Actor& a) {
    a.params().setDouble("amplitude", 2.0);
    a.params().setDouble("freq", 0.01);
  });
  source("Pulse", "PulseGenerator", [](Actor& a) {
    a.params().setInt("period", 7);
    a.params().setDouble("duty", 0.4);
  });
  source("Clock", "Clock");
  source("Ground", "Ground");
  source("Random", "RandomNumber", [](Actor& a) {
    a.params().setInt("seed", 99);
    a.params().setDouble("min", -2.0);
    a.params().setDouble("max", 2.0);
  });

  add("CounterMod", [](Tiny& t) {
    t.inport("In1", 1);
    Actor& c = t.actor("Cnt", "Counter");
    c.setDtype(DataType::I32);
    c.params().setInt("max", 17);
    Actor& k = t.actor("K", "DataTypeConversion");
    k.setDtype(DataType::F64);
    Actor& sum = t.actor("Mix", "Sum");
    sum.params().set("ops", "++");
    t.outport("Out1", 1);
    t.wire("Cnt", "K");
    t.wire("K", "Mix", 1);
    t.wire("In1", "Mix", 2);
    t.wire("Mix", "Out1");
  });

  // Vector-width path through an element-wise chain.
  add("VectorChain", [](Tiny& t) {
    Actor& in = t.inport("In1", 1);
    in.setWidth(4);
    Actor& g = t.actor("G", "Gain");
    g.params().setDouble("gain", 0.5);
    g.setWidth(4);
    Actor& a = t.actor("A", "Abs");
    a.setWidth(4);
    t.actor("S", "SumOfElements");
    t.outport("Out1", 1);
    t.wire("In1", "G");
    t.wire("G", "A");
    t.wire("A", "S");
    t.wire("S", "Out1");
  });

  return cases;
}

class TypeDifferential : public ::testing::TestWithParam<TypeCase> {};

TEST_P(TypeDifferential, AllInProcessEnginesAgree) {
  Tiny t("M");
  GetParam().build(t);
  TestCaseSpec tests;
  tests.seed = 1234;
  tests.defaultPort.min = -1.0;
  tests.defaultPort.max = 1.0;
  auto sse = test::runOn(t.model(), Engine::SSE, 400, tests);
  auto ac = test::runOn(t.model(), Engine::SSEac, 400, tests);
  auto rac = test::runOn(t.model(), Engine::SSErac, 400, tests);
  test::expectSameOutputs(sse, ac, GetParam().label + " ac");
  test::expectSameOutputs(sse, rac, GetParam().label + " rac");
}

INSTANTIATE_TEST_SUITE_P(
    Actors, TypeDifferential, ::testing::ValuesIn(typeCases()),
    [](const ::testing::TestParamInfo<TypeCase>& info) {
      return info.param.label;
    });

// AccMoS parity for the same micro-model set: batch several per generated
// program run by concatenating cases into one model would change semantics;
// instead sample a representative subset (compilation cost bounded).
TEST(TypeDifferentialAccMoS, RepresentativeSubsetMatches) {
  std::vector<std::string> wanted = {
      "SumI8",        "ProductI32Div", "MathMod",     "LogicXOR",
      "SwitchGt0",    "MultiportSwitch", "MuxDemuxSelector",
      "IndexVector",  "UnitDelay",     "Integrator",  "Filter",
      "Lookup1D",     "Lookup2D",      "ConvertToI16", "Relay",
      "RateLimiter",  "BitwiseXorShift", "Random",    "VectorChain",
      "CounterMod",
  };
  auto cases = typeCases();
  int tested = 0;
  for (const auto& c : cases) {
    if (std::find(wanted.begin(), wanted.end(), c.label) == wanted.end()) {
      continue;
    }
    Tiny t("M");
    c.build(t);
    TestCaseSpec tests;
    tests.seed = 77;
    tests.defaultPort.min = -1.0;
    tests.defaultPort.max = 1.0;
    auto sse = test::runOn(t.model(), Engine::SSE, 300, tests);
    auto acc = test::runOn(t.model(), Engine::AccMoS, 300, tests);
    test::expectSameOutputs(sse, acc, c.label + " AccMoS");
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(sse.coverage.of(m).covered, acc.coverage.of(m).covered)
          << c.label << " " << covMetricName(m);
    }
    ASSERT_EQ(sse.diagnostics.size(), acc.diagnostics.size()) << c.label;
    for (size_t k = 0; k < sse.diagnostics.size(); ++k) {
      EXPECT_EQ(sse.diagnostics[k].kind, acc.diagnostics[k].kind) << c.label;
      EXPECT_EQ(sse.diagnostics[k].count, acc.diagnostics[k].count) << c.label;
      EXPECT_EQ(sse.diagnostics[k].firstStep, acc.diagnostics[k].firstStep)
          << c.label;
    }
    ++tested;
  }
  EXPECT_EQ(tested, static_cast<int>(wanted.size()));
}

}  // namespace
}  // namespace accmos
