// Simulation-oriented instrumentation and simulation code synthesis
// (paper §3.2-3.3, Algorithm 1, Figure 5).
//
// The Emitter walks the flattened model in execution order, expands each
// actor through its code template (ActorSpec::emit), weaves in the
// instrumentation the plans call for — actor/condition/decision/MC-DC
// coverage marks, per-actor diagnostic functions, signal-monitor calls,
// custom signal diagnoses — and composes the model system function, a
// Model_Init, the simulation loop with the stimulus generator, and the
// accmos_model_info / accmos_run entry points of the run ABI (run_abi.h), which take the run parameters (steps, budget, seed,
// deadline, step budget) per call. Nothing of a run's parameters is
// emitted, so the source — and its compile-cache key — depends only on the
// flattened model, the instrumentation plans, the stimulus shape and the
// fault plan.
#pragma once

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "actors/spec.h"
#include "codegen/fault.h"
#include "cov/coverage.h"
#include "diag/diagnosis.h"
#include "sim/options.h"
#include "sim/testcase.h"

namespace accmos {

class Emitter : public EmitSink {
 public:
  // Plans may be null to generate uninstrumented code (used by the ablation
  // benches; the paper's AccMoS always instruments).
  Emitter(const FlatModel& fm, const SimOptions& opt,
          const TestCaseSpec& tests, const CoveragePlan* covPlan,
          const DiagnosisPlan* diagPlan);

  // Returns the complete C++ source of the simulation program.
  std::string generate();

  // Monitored signals in emission order (the results parser needs it).
  const std::vector<int>& collectSignals() const { return collectSignals_; }

  // ---- EmitSink --------------------------------------------------------
  void line(const std::string& stmt) override;
  void updateLine(const std::string& stmt) override;
  void updateLinePre(const std::string& stmt) override;
  void diagCall(
      const std::vector<std::pair<DiagKind, std::string>>& flags) override;
  void diagCallInUpdate(
      const std::vector<std::pair<DiagKind, std::string>>& flags) override;
  std::string covDecisionStmt(const std::string& outcomeExpr) override;
  std::string covConditionStmt(int condIdx,
                               const std::string& boolExpr) override;
  std::string covMcdcStmt(int condIdx, const std::string& valExpr) override;
  bool covOn() const override { return covPlan_ != nullptr; }
  bool diagOn(DiagKind kind) const override;
  std::string freshVar(const std::string& hint) override;

 private:
  // Static geometry the ABI functions validate against.
  struct AbiGeom {
    int covLen[4];
    const char* covArr[4];
    size_t collectValsLen;
    size_t outValsLen;
    size_t numActors;
    size_t numCustom;
  };
  AbiGeom abiGeom() const;

  // Generated-program sections. All simulation state that outlives a step
  // lives in one `struct accmos_model`; emitDeclarations/emitDiagFn/
  // emitFillInputs/emitModelInit/emitModelExe/emitSimLoop produce its
  // members, so every accmos_run() call through the shared library ABI
  // executes against a private, zero-initialized instance. Step-local
  // signals are locals of Model_Exe (stepLocal_).
  void emitConstTables(std::ostringstream& os);
  void emitDeclarations(std::ostringstream& os);
  void emitDiagFn(std::ostringstream& os);
  void emitFillInputs(std::ostringstream& os);
  void emitModelInit(std::ostringstream& os);
  void emitModelExe(std::ostringstream& os);
  void emitSimLoop(std::ostringstream& os);
  void emitAbi(std::ostringstream& os);

  // accmos_run's caller-buffer validation against the model geometry, and
  // its copy of the state instance `M` into the result `res`.
  void emitResultChecks(std::ostringstream& os);
  void emitResultExtract(std::ostringstream& os);

  std::string makeDiagFunction(
      const std::vector<std::pair<DiagKind, std::string>>& flags);
  std::string storeFromDouble(DataType t, const std::string& dst,
                              const std::string& expr) const;
  static std::string sanitize(const std::string& name);

  const FlatModel& fm_;
  SimOptions opt_;
  TestCaseSpec tests_;
  const CoveragePlan* covPlan_;
  const DiagnosisPlan* diagPlan_;
  // Deterministic fault injection (ACCMOS_FAULT): hang/crash directives
  // change the emitted source — and therefore the compile-cache key — so
  // a faulted build can never leak into a fault-free run. Captured at
  // construction so one Emitter is internally consistent.
  FaultPlan faults_;
  // Per signal: true when it is a local of Model_Exe rather than a member.
  std::vector<bool> stepLocal_;

  // Per-actor emission state.
  const FlatActor* current_ = nullptr;
  std::vector<std::string> body_;        // eval-phase lines of current actor
  std::vector<std::string> updPre_;      // update-phase declarations
  std::vector<std::string> upd_;         // update-phase lines
  int varCounter_ = 0;

  // Accumulated across actors.
  std::ostringstream evalSection_;
  std::ostringstream updateSection_;
  std::vector<std::string> diagFuncs_;
  std::vector<int> collectSignals_;
};

}  // namespace accmos
