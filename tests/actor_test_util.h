// Helpers for single-actor semantics tests: build a tiny model around one
// actor, drive it with explicit sequences, and read the output.
#pragma once

#include "codegen/accmos_engine.h"
#include "interp/interpreter.h"
#include "test_util.h"

namespace accmos::test {

// Runs `steps` simulation steps with the given per-port sequences (cycled)
// and returns the final value of Out1.
inline Value evalSteps(Tiny& t, const std::vector<std::vector<double>>& seqs,
                       uint64_t steps) {
  TestCaseSpec tests;
  for (const auto& s : seqs) {
    PortStimulus ps;
    ps.sequence = s;
    tests.ports.push_back(ps);
  }
  auto res = runOn(t.model(), Engine::SSE, steps, tests);
  return res.finalOutputs.at(0);
}

// One step with scalar inputs; returns the scalar output.
inline Value evalOnce(Tiny& t, const std::vector<double>& inputs) {
  std::vector<std::vector<double>> seqs;
  for (double v : inputs) seqs.push_back({v});
  return evalSteps(t, seqs, 1);
}

// Runs the model for every step count 1..N of the given per-port
// sequences on SSE and on one compiled AccMoS library and requires
// identical observations after each: a per-step check of the generated
// code against the interpreter.
inline void expectCompiledMatchesSse(
    Tiny& t, const std::vector<std::vector<double>>& seqs,
    const std::string& label) {
  TestCaseSpec tests;
  uint64_t steps = 0;
  for (const auto& s : seqs) {
    PortStimulus ps;
    ps.sequence = s;
    tests.ports.push_back(ps);
    steps = std::max<uint64_t>(steps, s.size());
  }
  Simulator sim(t.model());
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = steps;
  AccMoSEngine engine(sim.flatModel(), opt, tests);
  opt.engine = Engine::SSE;
  for (uint64_t k = 1; k <= steps; ++k) {
    opt.maxSteps = k;
    expectIdenticalResults(Interpreter(sim.flatModel(), opt).run(tests),
                           engine.run(k),
                           label + " after " + std::to_string(k) + " steps");
  }
}

// Builds In1..InN -> Op -> Out1 with a config hook.
inline Tiny unary(const std::string& type,
                  const std::function<void(Actor&)>& cfg = nullptr,
                  DataType inT = DataType::F64,
                  DataType outT = DataType::F64) {
  Tiny t;
  t.inport("In1", 1, inT);
  Actor& a = t.actor("Op", type);
  a.setDtype(outT);
  if (cfg) cfg(a);
  t.outport("Out1", 1);
  t.wire("In1", "Op");
  t.wire("Op", "Out1");
  return t;
}

inline Tiny binary(const std::string& type,
                   const std::function<void(Actor&)>& cfg = nullptr,
                   DataType inT = DataType::F64,
                   DataType outT = DataType::F64) {
  Tiny t;
  t.inport("In1", 1, inT);
  t.inport("In2", 2, inT);
  Actor& a = t.actor("Op", type);
  a.setDtype(outT);
  if (cfg) cfg(a);
  t.outport("Out1", 1);
  t.wire("In1", "Op", 1);
  t.wire("In2", "Op", 2);
  t.wire("Op", "Out1");
  return t;
}

}  // namespace accmos::test
