// Golden-value semantics tests for the calculation actors, including the
// wrap/diagnostic behaviours the paper's templates implement.
#include <gtest/gtest.h>

#include <cmath>

#include "actor_test_util.h"

namespace accmos {
namespace {

using test::binary;
using test::evalOnce;
using test::evalSteps;
using test::Tiny;
using test::unary;

TEST(Sum, FloatOpsString) {
  Tiny t = binary("Sum", [](Actor& a) { a.params().set("ops", "+-"); });
  EXPECT_EQ(evalOnce(t, {5.0, 2.0}).f(0), 3.0);
  EXPECT_EQ(evalOnce(t, {1.5, -2.5}).f(0), 4.0);
}

TEST(Sum, ThreeInputs) {
  Tiny t;
  t.inport("In1", 1);
  t.inport("In2", 2);
  t.inport("In3", 3);
  Actor& s = t.actor("Op", "Sum");
  s.params().set("ops", "-++");
  t.outport("Out1", 1);
  t.wire("In1", "Op", 1);
  t.wire("In2", "Op", 2);
  t.wire("In3", "Op", 3);
  t.wire("Op", "Out1");
  // 0 - 2 + 3 + 4 = 5.
  EXPECT_EQ(evalOnce(t, {2.0, 3.0, 4.0}).f(0), 5.0);
}

TEST(Sum, IntegerWrapDiagnosed) {
  Tiny t = binary("Sum", [](Actor& a) { a.params().set("ops", "++"); },
                  DataType::I32, DataType::I32);
  TestCaseSpec tests;
  PortStimulus p1;
  p1.sequence = {2000000000.0};
  tests.ports = {p1, p1};
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 1;
  auto res = simulate(t.model(), opt, tests);
  EXPECT_LT(res.finalOutputs[0].i(0), 0);  // wrapped negative (paper Fig. 4)
  const DiagRecord* d = res.findDiag("T_Op", DiagKind::WrapOnOverflow);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->firstStep, 0u);
}

TEST(Sum, BadOpsRejected) {
  Tiny t = binary("Sum", [](Actor& a) { a.params().set("ops", "+%"); });
  EXPECT_THROW(t.flatten(), ModelError);
}

TEST(Product, DivideAndMultiply) {
  Tiny t = binary("Product", [](Actor& a) { a.params().set("ops", "*/"); });
  EXPECT_EQ(evalOnce(t, {6.0, 2.0}).f(0), 3.0);
}

TEST(Product, IntegerDivisionByZero) {
  Tiny t = binary("Product", [](Actor& a) { a.params().set("ops", "*/"); },
                  DataType::I32, DataType::I32);
  TestCaseSpec tests;
  PortStimulus num;
  num.sequence = {7.0};
  PortStimulus den;
  den.sequence = {0.0};
  tests.ports = {num, den};
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 1;
  auto res = simulate(t.model(), opt, tests);
  EXPECT_EQ(res.finalOutputs[0].i(0), 0);  // defined result
  EXPECT_NE(res.findDiag("T_Op", DiagKind::DivisionByZero), nullptr);
}

TEST(Product, IntegerTruncatedDivision) {
  Tiny t = binary("Product", [](Actor& a) { a.params().set("ops", "*/"); },
                  DataType::I32, DataType::I32);
  EXPECT_EQ(evalOnce(t, {7.0, 2.0}).i(0), 3);
  EXPECT_EQ(evalOnce(t, {-7.0, 2.0}).i(0), -3);
}

TEST(Gain, FloatAndIntegerDomains) {
  Tiny tf = unary("Gain", [](Actor& a) { a.params().setDouble("gain", 2.5); });
  EXPECT_EQ(evalOnce(tf, {4.0}).f(0), 10.0);
  Tiny ti = unary("Gain", [](Actor& a) { a.params().setDouble("gain", 3.0); },
                  DataType::I16, DataType::I16);
  EXPECT_EQ(evalOnce(ti, {100.0}).i(0), 300);
}

TEST(AbsSign, Semantics) {
  Tiny ta = unary("Abs");
  EXPECT_EQ(evalOnce(ta, {-3.5}).f(0), 3.5);
  EXPECT_EQ(evalOnce(ta, {3.5}).f(0), 3.5);
  Tiny ti = unary("Abs", nullptr, DataType::I8, DataType::I8);
  // |INT8_MIN| wraps back to INT8_MIN: the classic wrap diagnostic case.
  TestCaseSpec tests;
  PortStimulus p;
  p.sequence = {-128.0};
  tests.ports = {p};
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 1;
  auto res = simulate(ti.model(), opt, tests);
  EXPECT_EQ(res.finalOutputs[0].i(0), -128);
  EXPECT_NE(res.findDiag("T_Op", DiagKind::WrapOnOverflow), nullptr);

  Tiny ts = unary("Sign");
  EXPECT_EQ(evalOnce(ts, {-7.0}).f(0), -1.0);
  EXPECT_EQ(evalOnce(ts, {0.0}).f(0), 0.0);
  EXPECT_EQ(evalOnce(ts, {0.3}).f(0), 1.0);
}

TEST(MathOps, ElementaryFunctions) {
  Tiny te = unary("Math", [](Actor& a) { a.params().set("op", "exp"); });
  EXPECT_DOUBLE_EQ(evalOnce(te, {1.0}).f(0), std::exp(1.0));
  Tiny tl = unary("Math", [](Actor& a) { a.params().set("op", "log"); });
  EXPECT_DOUBLE_EQ(evalOnce(tl, {std::exp(2.0)}).f(0), 2.0);
  Tiny ts = unary("Math", [](Actor& a) { a.params().set("op", "square"); });
  EXPECT_EQ(evalOnce(ts, {-3.0}).f(0), 9.0);
  Tiny tr = unary("Math",
                  [](Actor& a) { a.params().set("op", "reciprocal"); });
  EXPECT_EQ(evalOnce(tr, {4.0}).f(0), 0.25);
}

TEST(MathOps, ModAndRemSigns) {
  // Simulink mod follows the divisor's sign; rem the dividend's.
  Tiny tm = binary("Math", [](Actor& a) { a.params().set("op", "mod"); });
  EXPECT_EQ(evalOnce(tm, {-7.0, 3.0}).f(0), 2.0);
  EXPECT_EQ(evalOnce(tm, {7.0, -3.0}).f(0), -2.0);
  Tiny tr = binary("Math", [](Actor& a) { a.params().set("op", "rem"); });
  EXPECT_EQ(evalOnce(tr, {-7.0, 3.0}).f(0), -1.0);
  EXPECT_EQ(evalOnce(tr, {7.0, -3.0}).f(0), 1.0);
}

TEST(MathOps, LogOfNegativeDiagnosesNanInf) {
  Tiny t = unary("Math", [](Actor& a) { a.params().set("op", "log"); });
  TestCaseSpec tests;
  PortStimulus p;
  p.sequence = {-1.0};
  tests.ports = {p};
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 1;
  auto res = simulate(t.model(), opt, tests);
  EXPECT_NE(res.findDiag("T_Op", DiagKind::NanInf), nullptr);
}

TEST(MathOps, UnknownOpRejected) {
  Tiny t = unary("Math", [](Actor& a) { a.params().set("op", "cbrt"); });
  test::expectInvalid(t);
}

TEST(Trigonometry, SinCosAtan2) {
  Tiny ts = unary("Trigonometry", [](Actor& a) { a.params().set("op", "sin"); });
  EXPECT_DOUBLE_EQ(evalOnce(ts, {M_PI / 2}).f(0), 1.0);
  Tiny ta = binary("Trigonometry",
                   [](Actor& a) { a.params().set("op", "atan2"); });
  EXPECT_DOUBLE_EQ(evalOnce(ta, {1.0, 1.0}).f(0), M_PI / 4);
}

TEST(MinMax, SelectsExtremes) {
  Tiny tmin = binary("MinMax", [](Actor& a) {
    a.params().set("op", "min");
    a.params().setInt("inputs", 2);
  });
  EXPECT_EQ(evalOnce(tmin, {3.0, -1.0}).f(0), -1.0);
  Tiny tmax = binary("MinMax", [](Actor& a) {
    a.params().set("op", "max");
    a.params().setInt("inputs", 2);
  });
  EXPECT_EQ(evalOnce(tmax, {3.0, -1.0}).f(0), 3.0);
}

TEST(Rounding, AllModes) {
  struct Case {
    const char* op;
    double in;
    double out;
  };
  const Case cases[] = {
      {"floor", 2.7, 2.0},  {"floor", -2.1, -3.0}, {"ceil", 2.1, 3.0},
      {"ceil", -2.7, -2.0}, {"fix", 2.9, 2.0},     {"fix", -2.9, -2.0},
      {"round", 2.5, 2.0},  {"round", 3.5, 4.0},
  };
  for (const auto& c : cases) {
    Tiny t = unary("Rounding", [&](Actor& a) { a.params().set("op", c.op); });
    EXPECT_EQ(evalOnce(t, {c.in}).f(0), c.out) << c.op << "(" << c.in << ")";
  }
}

TEST(Polynomial, HornerEvaluation) {
  // 2x^2 - 3x + 1 at x=4: 32 - 12 + 1 = 21.
  Tiny t = unary("Polynomial",
                 [](Actor& a) { a.params().set("coeffs", "2,-3,1"); });
  EXPECT_EQ(evalOnce(t, {4.0}).f(0), 21.0);
}

TEST(Reductions, SumProductDotOfVectors) {
  Tiny t;
  Actor& in = t.inport("In1", 1);
  in.setWidth(3);
  t.actor("Op", "SumOfElements");
  t.outport("Out1", 1);
  t.wire("In1", "Op");
  t.wire("Op", "Out1");
  // Vector elements draw sequentially from the cycled sequence.
  TestCaseSpec tests;
  PortStimulus p;
  p.sequence = {1.0};  // all elements 1
  tests.ports = {p};
  auto res = test::runOn(t.model(), Engine::SSE, 1, tests);
  EXPECT_EQ(res.finalOutputs[0].f(0), 3.0);

  Tiny tp;
  Actor& in2 = tp.inport("In1", 1);
  in2.setWidth(3);
  tp.actor("Op", "ProductOfElements");
  tp.outport("Out1", 1);
  tp.wire("In1", "Op");
  tp.wire("Op", "Out1");
  TestCaseSpec tests2;
  PortStimulus p2;
  p2.sequence = {2.0};
  tests2.ports = {p2};
  auto res2 = test::runOn(tp.model(), Engine::SSE, 1, tests2);
  EXPECT_EQ(res2.finalOutputs[0].f(0), 8.0);
}

TEST(DotProduct, RequiresEqualWidths) {
  Tiny t;
  Actor& a = t.inport("In1", 1);
  a.setWidth(2);
  Actor& b = t.inport("In2", 2);
  b.setWidth(3);
  t.actor("Op", "DotProduct");
  t.outport("Out1", 1);
  t.wire("In1", "Op", 1);
  t.wire("In2", "Op", 2);
  t.wire("Op", "Out1");
  FlatModel fm = t.flatten();
  EXPECT_THROW(validateFlatModel(fm), ModelError);
}

TEST(UnaryMinus, IntMinWraps) {
  Tiny t = unary("UnaryMinus", nullptr, DataType::I16, DataType::I16);
  TestCaseSpec tests;
  PortStimulus p;
  p.sequence = {-32768.0};
  tests.ports = {p};
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 1;
  auto res = simulate(t.model(), opt, tests);
  EXPECT_EQ(res.finalOutputs[0].i(0), -32768);
  EXPECT_NE(res.findDiag("T_Op", DiagKind::WrapOnOverflow), nullptr);
}

TEST(Sqrt, NegativeInputDiagnosed) {
  Tiny t = unary("Sqrt");
  TestCaseSpec tests;
  PortStimulus p;
  p.sequence = {-4.0};
  tests.ports = {p};
  SimOptions opt;
  opt.engine = Engine::SSE;
  opt.maxSteps = 1;
  auto res = simulate(t.model(), opt, tests);
  EXPECT_NE(res.findDiag("T_Op", DiagKind::NanInf), nullptr);
}

TEST(Bias, AddsConstant) {
  Tiny t = unary("Bias", [](Actor& a) { a.params().setDouble("bias", -1.5); });
  EXPECT_EQ(evalOnce(t, {4.0}).f(0), 2.5);
}

// The runtime preamble declares the libm functions by hand instead of
// including <cmath>. One model per op that the Math, Trigonometry,
// Rounding and Abs templates can emit runs compiled and on SSE, over
// (finite) inputs that reach each function's domain edges, where the
// results turn NaN or infinite.
TEST(CompiledLibm, EveryEmittedFunctionMatchesSse) {
  const std::vector<double> a = {-2.5, -1.0, -0.5,    -0.0, 0.0, 0.25,
                                 0.5,  1.0,  1.5,     2.5,  710.0,
                                 -1e-310, 3.0e9, -1e308};
  const std::vector<double> b = {2.0, -3.0, 0.0, 0.5, -1.5, 7.0, -0.0};
  auto run = [&](const std::string& type, const std::string& op,
                 bool twoInputs) {
    auto cfg = [&](Actor& x) {
      if (!op.empty()) x.params().set("op", op);
    };
    Tiny t = twoInputs ? binary(type, cfg) : unary(type, cfg);
    test::expectCompiledMatchesSse(
        t, twoInputs ? std::vector<std::vector<double>>{a, b}
                     : std::vector<std::vector<double>>{a},
        type + " " + op);
  };
  for (const char* op : {"exp", "log", "log10", "sqrt", "square",
                         "reciprocal"}) {
    run("Math", op, false);
  }
  for (const char* op : {"pow", "hypot", "mod", "rem"}) run("Math", op, true);
  for (const char* op : {"sin", "cos", "tan", "asin", "acos", "atan", "sinh",
                         "cosh", "tanh"}) {
    run("Trigonometry", op, false);
  }
  run("Trigonometry", "atan2", true);
  for (const char* op : {"round", "floor", "ceil", "fix"}) {
    run("Rounding", op, false);
  }
  run("Abs", "", false);
}

}  // namespace
}  // namespace accmos
