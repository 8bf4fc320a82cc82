#include "sim/simulator.h"

#include "actors/spec.h"
#include "codegen/accmos_engine.h"
#include "graph/flatten.h"
#include "interp/compiled.h"
#include "interp/interpreter.h"
#include "opt/pipeline.h"
#include "sim/tiered_engine.h"

namespace accmos {
namespace {

SimulationResult dispatch(const FlatModel& fm, const SimOptions& opt,
                          const TestCaseSpec& tests) {
  switch (opt.engine) {
    case Engine::AccMoS:
      if (opt.tier != Tier::Native) {
        // Tiered single run: under Auto this answers on whichever tier is
        // ready first (a warm compile cache makes it native; a cold one
        // interpreted, withdrawing interest in the async compile on
        // return); under Interp it never compiles.
        TieredEngine tiered(fm, opt, tests);
        return tiered.run();
      }
      return runAccMoS(fm, opt, tests);
    case Engine::SSE:
      return runInterpreter(fm, opt, tests);
    case Engine::SSEac:
      return runAccelerator(fm, opt, tests);
    case Engine::SSErac:
      return runRapidAccelerator(fm, opt, tests);
  }
  throw ModelError("unknown engine");
}

}  // namespace

Simulator::Simulator(const Model& model)
    : fm_(flatten(model, Registry::instance())) {
  validateFlatModel(fm_);
}

SimulationResult Simulator::run(const SimOptions& opt,
                                const TestCaseSpec& tests) const {
  bool fastMode = opt.engine == Engine::SSEac || opt.engine == Engine::SSErac;
  if (fastMode) {
    if (opt.coverage || opt.diagnosis) {
      throw ModelError(std::string(engineName(opt.engine)) +
                       " cannot perform error diagnosis or coverage "
                       "collection; set coverage=false and diagnosis=false");
    }
    if (!opt.collectList.empty() || !opt.customDiagnostics.empty()) {
      throw ModelError(std::string(engineName(opt.engine)) +
                       " cannot monitor signals or run custom diagnoses");
    }
    if (opt.stopOnDiagnostic) {
      throw ModelError(std::string(engineName(opt.engine)) +
                       " cannot stop on diagnostics (none are produced)");
    }
  }
  if (opt.optimize) {
    OptStats st;
    FlatModel optimized = optimizeModel(fm_, opt, &st);
    SimulationResult res = dispatch(optimized, opt, tests);
    res.optStats = st;
    return res;
  }
  return dispatch(fm_, opt, tests);
}

SimulationResult simulate(const Model& model, const SimOptions& opt,
                          const TestCaseSpec& tests) {
  return Simulator(model).run(opt, tests);
}

}  // namespace accmos
