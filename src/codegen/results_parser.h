// Decodes generated-simulator results back into the SimulationResult
// structure the in-process engines produce — what makes AccMoS-vs-SSE
// results directly comparable in the tests and in the Table 2/3 benches.
//
// One decoder, two transports:
//   decodeBinaryResults — the caller-owned buffers an accmos_run() call
//                         filled, in-process (ExecMode::Dlopen).
//   decodeRunnerFile    — the result file accmos_runner wrote after running
//                         the same library in a child process
//                         (ExecMode::Process); validated, then handed to
//                         decodeBinaryResults.
// The two backends therefore produce bit-identical SimulationResults; the
// differential tests in tests/test_exec_modes.cpp hold them to it.
#pragma once

#include <string>
#include <vector>

#include "codegen/run_abi.h"
#include "cov/coverage.h"
#include "graph/flat_model.h"
#include "ir/model.h"
#include "sim/options.h"
#include "sim/result.h"

namespace accmos {

// Malformed, truncated or out-of-range result data. A ModelError so
// pipeline-level handlers see it.
class ResultParseError : public ModelError {
 public:
  explicit ResultParseError(const std::string& what) : ModelError(what) {}
};

// Compares a library's reported geometry with what the host's
// instrumentation plans expect (`covPlan` null when coverage is off).
// Returns "" when they agree, else a description of the first mismatch —
// buffers sized from a disagreeing library would be read wrongly.
std::string geometryMismatch(const AccmosModelInfo& info, const FlatModel& fm,
                             const CoveragePlan* covPlan,
                             const std::vector<int>& collectSignals,
                             size_t numCustom);

// Decodes the caller-owned buffers of a completed accmos_run() call.
// `collectSignals` must be the emitter's monitored-signal list; `covPlan`
// may be null when the program was generated without coverage. Counts,
// capacities, actor ids, diagnostic kinds and custom indices are
// range-checked: any violation throws ResultParseError, never returns a
// partial result.
SimulationResult decodeBinaryResults(
    const AccmosRunResult& res, const FlatModel& fm,
    const CoveragePlan* covPlan, const std::vector<int>& collectSignals,
    const std::vector<CustomDiagnostic>& custom);

// Decodes the bytes of an accmos_runner result file (layout in run_abi.h).
// The file crossed a process boundary from a child that may have died
// mid-write, so before decoding it is checked for exact length, magic,
// ABI version, a geometry matching the host plans (geometryMismatch) and
// diagnostic counts within their capacities. A run status other than OK
// or ETIMEOUT also throws ResultParseError.
SimulationResult decodeRunnerFile(const std::string& bytes,
                                  const FlatModel& fm,
                                  const CoveragePlan* covPlan,
                                  const std::vector<int>& collectSignals,
                                  const std::vector<CustomDiagnostic>& custom);

}  // namespace accmos
