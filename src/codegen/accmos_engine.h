// The AccMoS engine: the full pipeline of the paper — simulation-oriented
// instrumentation, simulation code synthesis, compilation, execution, and
// result recovery.
//
// The generated code is compiled once, -shared -fPIC, into one library
// that both execution backends run (SimOptions::execMode,
// docs/EXECUTION.md):
//   Dlopen  — the library is loaded once with dlopen, and every run() is
//             an in-process accmos_run() call filling caller-owned binary
//             buffers. Zero subprocess on the hot path. Falls back to
//             Process automatically if the library cannot be loaded.
//   Process — each run() spawns accmos_runner, which loads the same
//             library in a child process, calls accmos_run and writes the
//             same buffers to a result file.
// Both backends decode with decodeBinaryResults and produce bit-identical
// SimulationResults.
#pragma once

#include <atomic>
#include <memory>
#include <optional>

#include "cov/coverage.h"
#include "diag/diagnosis.h"
#include "graph/flat_model.h"
#include "sim/failure.h"
#include "sim/options.h"
#include "sim/result.h"
#include "sim/testcase.h"

namespace accmos {

enum class ArtifactKind : uint8_t;

// The emit phase of the pipeline, detached from compilation: everything
// AccMoSEngine derives from (model, options, stimulus) before the compiler
// runs. Produced by AccMoSEngine::generate() and movable into an engine
// later, so a caller (the tiered engine) can emit once, start the compile
// asynchronously, and construct the engine when the binary is ready
// without re-emitting.
struct GeneratedModel {
  CoveragePlan covPlan;
  std::vector<int> collectSignals;
  std::string source;
  double generateSeconds = 0.0;
};

class AccMoSEngine {
 public:
  // Builds the plans and generates + compiles the simulation program once;
  // run() can then execute it repeatedly (with step/budget overrides) —
  // mirroring how a generated simulator is reused across test campaigns.
  AccMoSEngine(const FlatModel& fm, const SimOptions& opt,
               const TestCaseSpec& tests);

  // Same, from an already-emitted GeneratedModel (skips the emit phase).
  // `gen` must come from generate() with the same (fm, opt, tests).
  AccMoSEngine(const FlatModel& fm, const SimOptions& opt,
               const TestCaseSpec& tests, GeneratedModel&& gen);

  // Validates the model/spec/options and runs the emitter — the pure
  // front half of the constructor. Throws ModelError exactly where the
  // constructor would.
  static GeneratedModel generate(const FlatModel& fm, const SimOptions& opt,
                                 const TestCaseSpec& tests);

  // The artifact the constructor will ask the compiler for under `opt` —
  // always a shared library, plus extra flags (the batch-lane define). Exposed so an async
  // pre-compile (TieredEngine) addresses the exact cache entry the engine
  // construction will then hit; any drift here would make the hand-over a
  // silent recompile.
  static ArtifactKind artifactPlan(const SimOptions& opt,
                                   std::string* extraFlags);

  ~AccMoSEngine();

  AccMoSEngine(const AccMoSEngine&) = delete;
  AccMoSEngine& operator=(const AccMoSEngine&) = delete;

  // Executes the compiled simulation. maxSteps/timeBudget default to the
  // options used at construction; pass nonzero values to override. The
  // stimulus seed can be overridden per run — the generated program takes
  // it as an argument, so one compiled simulator serves a whole campaign.
  // Thread-safe in both exec modes: concurrent campaign/gen workers share
  // one engine (and, in dlopen mode, one loaded library).
  SimulationResult run(uint64_t maxStepsOverride = 0,
                       double timeBudgetOverride = -1.0,
                       std::optional<uint64_t> seedOverride = std::nullopt);

  // Executes one simulation per seed, fusing them through the library's
  // accmos_run_batch kernel in chunks of up to batchLanes() lanes.
  // Results are returned in seed order and are bit-identical to calling
  // run() once per seed — the batch kernel is a throughput optimization,
  // never an observable one (the differential suites enforce this).
  // Falls back to per-seed scalar run() — and therefore reports "dlopen"
  // or "process" in SimulationResult::execMode instead of "dlopen-batch" —
  // when the engine has no loaded library, the library has no batch
  // capability (missing symbol, compiled batchless), batching is disabled
  // (SimOptions::batchLanes == 0), or the ACCMOS_FAULT=batch-fail test
  // hook is set. Thread-safe like run().
  std::vector<SimulationResult> runBatch(
      const std::vector<uint64_t>& seeds, uint64_t maxStepsOverride = 0,
      double timeBudgetOverride = -1.0);

  // Fault-contained single run: never throws for per-run faults. The
  // degradation ladder (docs/ROBUSTNESS.md) is
  //   dlopen -> subprocess -> structured failure:
  // an in-process run that crashes (caught by the signal guard) or hangs
  // (retired by its ABI deadline / step budget) earns the engine a strike
  // and is retried exactly once on the subprocess backend — the runner on
  // the already-compiled library, so no fallback ever compiles — whose
  // host-side watchdog can kill even an uncooperative child. If that
  // attempt also fails, the returned SimulationResult has failed == true
  // and a populated RunFailure instead of observations — campaigns and the
  // generator record it and move on. Results that timed out carry
  // wall-clock-dependent partial observations, so containment reports them
  // as FailureKind::Timeout rather than merging nondeterministic data.
  SimulationResult runContained(
      uint64_t maxStepsOverride = 0, double timeBudgetOverride = -1.0,
      std::optional<uint64_t> seedOverride = std::nullopt);

  // Fault-contained runBatch(): same ladder per seed. A crash inside the
  // fused kernel takes the whole chunk down (lanes share one state struct
  // instance lifetime), so the chunk degrades to per-seed runContained();
  // a lane retired by the shared batch deadline gets one solo scalar retry
  // with a fresh deadline — a seed that can finish within the deadline on
  // its own therefore produces bit-identical results for any lane count.
  std::vector<SimulationResult> runBatchContained(
      const std::vector<uint64_t>& seeds, uint64_t maxStepsOverride = 0,
      double timeBudgetOverride = -1.0);

  // Quarantine: after two strikes (in-process crash or hang) the engine
  // stops using the dlopen library for the rest of its lifetime and routes
  // every run through the subprocess backend, where the OS cleans up
  // whatever a fault leaves behind. Monotonic — there is no parole.
  int strikes() const { return strikes_.load(std::memory_order_relaxed); }
  bool quarantined() const { return strikes() >= 2; }

  // Lanes a runBatch() call will actually fuse per kernel invocation:
  // the loaded library's capability, or 0 when runBatch() would take the
  // scalar fallback (evaluated per call — the batch-fail fault hook is
  // read here, not at construction).
  uint64_t batchLanes() const;

  const std::string& generatedSource() const { return source_; }
  double generateSeconds() const { return generateSeconds_; }
  double compileSeconds() const { return compileSeconds_; }
  // Wall time spent loading the shared library (0 in process mode).
  double loadSeconds() const { return loadSeconds_; }
  // True when the compiled simulator came from the content-addressed cache
  // (compileSeconds is then the cache-verification time, near zero).
  bool compileCacheHit() const { return compileCacheHit_; }
  const std::string& exePath() const { return exePath_; }
  // Backend actually in use — Process either by request or because the
  // dlopen backend fell back.
  ExecMode execModeUsed() const { return execModeUsed_; }
  const CoveragePlan* coveragePlan() const {
    return opt_.coverage ? &covPlan_ : nullptr;
  }

 private:
  SimulationResult runInProcess(uint64_t steps, double budget, uint64_t seed);
  SimulationResult runSubprocess(uint64_t steps, double budget,
                                 uint64_t seed);
  // One fused kernel call over n <= batchLanes() consecutive seeds,
  // appending n finished results to `out`. `contained` selects which
  // scalar path (run / runContained) absorbs kernel crashes and
  // deadline-retired lanes.
  void runBatchChunk(const uint64_t* seeds, size_t n, uint64_t steps,
                     double budget, bool contained,
                     std::vector<SimulationResult>& out);
  // Common result tail: coverage report + generate/compile/load timings.
  void finishResult(SimulationResult& r) const;

  void strike() { strikes_.fetch_add(1, std::memory_order_relaxed); }
  // Whether a run may use the loaded library right now (loaded and not
  // quarantined).
  bool libUsable() const;
  SimulationResult failedResult(FailureKind kind, uint64_t seed, int signal,
                                int retries, const char* backend,
                                std::string message) const;

  const FlatModel& fm_;
  SimOptions opt_;
  TestCaseSpec tests_;
  CoveragePlan covPlan_;
  std::vector<int> collectSignals_;
  std::string source_;
  std::string exePath_;  // the compiled library (usually a cache entry)
  std::string libPath_;  // this engine's private copy, loaded and run
  double generateSeconds_ = 0.0;
  double compileSeconds_ = 0.0;
  double loadSeconds_ = 0.0;
  bool compileCacheHit_ = false;
  ExecMode execModeUsed_ = ExecMode::Process;
  std::unique_ptr<class CompilerDriver> driver_;
  std::unique_ptr<class ModelLib> lib_;  // set in dlopen mode only
  // Keeps a pool-compiled artifact's workspace alive for this engine's
  // lifetime when the binary could not be published to the cache
  // (CompileOutput::keepAlive).
  std::shared_ptr<void> artifactKeepAlive_;
  std::atomic<int> strikes_{0};
};

// One-shot convenience.
SimulationResult runAccMoS(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& tests);

}  // namespace accmos
