// Shared helpers for the test suite: tiny-model construction and
// cross-engine result comparison.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "actors/spec.h"
#include "graph/flatten.h"
#include "ir/model.h"
#include "sim/simulator.h"

namespace accmos::test {

// Fluent builder for small test models.
class Tiny {
 public:
  explicit Tiny(const std::string& name = "T") : model_(name) {}

  // Adds an actor, returns a param-setting handle.
  Actor& actor(const std::string& name, const std::string& type,
               System* sys = nullptr) {
    return (sys != nullptr ? *sys : model_.root()).addActor(name, type);
  }

  Actor& inport(const std::string& name, int port,
                DataType t = DataType::F64) {
    Actor& a = actor(name, "Inport");
    a.params().setInt("port", port);
    a.setDtype(t);
    return a;
  }

  Actor& outport(const std::string& name, int port) {
    Actor& a = actor(name, "Outport");
    a.params().setInt("port", port);
    return a;
  }

  void wire(const std::string& from, int fromPort, const std::string& to,
            int toPort) {
    model_.root().connect(from, fromPort, to, toPort);
  }
  void wire(const std::string& from, const std::string& to, int toPort = 1) {
    model_.root().connect(from, 1, to, toPort);
  }

  Model& model() { return model_; }

  FlatModel flatten() { return accmos::flatten(model_, Registry::instance()); }

 private:
  Model model_;
};

// Constant -> op -> Outport scaffold for single-actor semantics tests.
// Returns the model; the op actor is named "Op".
inline std::unique_ptr<Tiny> unaryConstModel(const std::string& type,
                                             double input,
                                             DataType inType = DataType::F64) {
  auto t = std::make_unique<Tiny>();
  Actor& c = t->actor("C", "Constant");
  c.params().setDouble("value", input);
  c.setDtype(inType);
  t->actor("Op", type);
  t->outport("Out1", 1);
  t->wire("C", "Op");
  t->wire("Op", "Out1");
  return t;
}

// Expects the model to be rejected by flatten-time or validation-time
// structural checks.
inline void expectInvalid(Tiny& t) {
  EXPECT_THROW(
      {
        FlatModel fm = t.flatten();
        validateFlatModel(fm);
      },
      ModelError);
}

// Runs the model on the given engine for `steps` with default options.
inline SimulationResult runOn(Model& m, Engine engine, uint64_t steps,
                              const TestCaseSpec& tests = TestCaseSpec{}) {
  SimOptions opt;
  opt.engine = engine;
  opt.maxSteps = steps;
  if (engine == Engine::SSEac || engine == Engine::SSErac) {
    opt.coverage = false;
    opt.diagnosis = false;
  }
  return simulate(m, opt, tests);
}

// Same, with explicit control over the pre-engine optimization pipeline —
// the opt-mode differential tests compare optimize=true against the
// optimize=false baseline.
inline SimulationResult runOn(Model& m, Engine engine, uint64_t steps,
                              bool optimize, const TestCaseSpec& tests) {
  SimOptions opt;
  opt.engine = engine;
  opt.maxSteps = steps;
  opt.optimize = optimize;
  if (engine == Engine::SSEac || engine == Engine::SSErac) {
    opt.coverage = false;
    opt.diagnosis = false;
  }
  return simulate(m, opt, tests);
}

// Asserts two output vectors are identical (bit-exact).
inline void expectSameOutputs(const SimulationResult& a,
                              const SimulationResult& b,
                              const std::string& label) {
  ASSERT_EQ(a.finalOutputs.size(), b.finalOutputs.size()) << label;
  for (size_t k = 0; k < a.finalOutputs.size(); ++k) {
    EXPECT_EQ(a.finalOutputs[k], b.finalOutputs[k])
        << label << " output " << k << ": " << a.finalOutputs[k].toString()
        << " vs " << b.finalOutputs[k].toString();
  }
}

// The whole-result comparison the AccMoS backends are held to. Everything
// the result protocol carries must agree bit-exactly; only the timing
// fields and execMode may differ.
inline void expectIdenticalResults(const SimulationResult& a,
                                   const SimulationResult& b,
                                   const std::string& label) {
  EXPECT_EQ(a.stepsExecuted, b.stepsExecuted) << label;
  EXPECT_EQ(a.stoppedEarly, b.stoppedEarly) << label;
  expectSameOutputs(a, b, label);
  ASSERT_EQ(a.hasCoverage, b.hasCoverage) << label;
  if (a.hasCoverage) {
    EXPECT_EQ(a.coverage.toString(), b.coverage.toString()) << label;
    for (CovMetric m : kAllCovMetrics) {
      EXPECT_EQ(a.bitmaps.bits(m), b.bitmaps.bits(m))
          << label << " bitmap " << covMetricName(m);
    }
  }
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size()) << label;
  for (size_t k = 0; k < a.diagnostics.size(); ++k) {
    const DiagRecord& da = a.diagnostics[k];
    const DiagRecord& db = b.diagnostics[k];
    EXPECT_EQ(da.actorPath, db.actorPath) << label << " diag " << k;
    EXPECT_EQ(da.kind, db.kind) << label << " diag " << k;
    EXPECT_EQ(da.message, db.message) << label << " diag " << k;
    EXPECT_EQ(da.firstStep, db.firstStep) << label << " diag " << k;
    EXPECT_EQ(da.count, db.count) << label << " diag " << k;
  }
  ASSERT_EQ(a.collected.size(), b.collected.size()) << label;
  for (size_t k = 0; k < a.collected.size(); ++k) {
    EXPECT_EQ(a.collected[k].path, b.collected[k].path) << label;
    EXPECT_EQ(a.collected[k].last, b.collected[k].last) << label;
    EXPECT_EQ(a.collected[k].count, b.collected[k].count) << label;
  }
}

}  // namespace accmos::test
