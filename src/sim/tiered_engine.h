// Tiered execution front-end for the AccMoS engine (docs/EXECUTION.md,
// "Tiered execution"): browser-JIT style cold-start elimination. Under
// Tier::Auto the model is emitted once, the optimizing compile is handed to
// the background compile pool (CompilerDriver::compileAsync), and runs are
// answered immediately on the resident SSE interpreter; the first run to
// observe the finished compile constructs the native engine (a compile-cache
// hit — the async job published the artifact) and atomically hot-swaps it
// in, so every later run goes native.
//
// Soundness: all engines are observation-equivalent (the differential
// suites prove it), so WHERE the swap lands moves only timings — outputs,
// coverage bitmaps, diagnostics and monitors are bit-identical per seed
// across tiers, and the campaign's seed-order merge stays deterministic for
// any worker count x swap point. SimulationResult::execMode truthfully
// reports the tier that ran each seed ("interp" vs "dlopen" / "process").
//
// Tier::Auto and Tier::Interp silently harden to Tier::Native when a run
// needs the generated code or the real compiler (see mustForceNative in
// the .cpp): cooperative deadlines, Expression custom diagnostics,
// ACCMOS_FAULT directives that target emitted code or the compiler, or
// (Auto only) a disabled compile cache — the async artifact hand-over
// rides on the cache.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "graph/flat_model.h"
#include "sim/options.h"
#include "sim/result.h"
#include "sim/testcase.h"

namespace accmos {

class Interpreter;

class TieredEngine {
 public:
  // Never blocks on the compiler unless the effective policy is Native.
  // Under Auto the constructor emits the source and enqueues the compile;
  // under Interp it does neither. `fm` must outlive the engine.
  TieredEngine(const FlatModel& fm, const SimOptions& opt,
               const TestCaseSpec& tests);
  ~TieredEngine();

  TieredEngine(const TieredEngine&) = delete;
  TieredEngine& operator=(const TieredEngine&) = delete;

  // One simulation (throwing variant, for single-run callers). `worker`
  // selects the per-worker interpreter instance for the interp tier —
  // Interpreter is stateful and NOT thread-safe, so concurrent callers
  // must pass distinct worker indices (the native tier ignores it;
  // AccMoSEngine::run is thread-safe).
  SimulationResult run(std::optional<uint64_t> seedOverride = std::nullopt,
                       size_t worker = 0);

  // Fault-contained single run (the campaign entry point, once per seed;
  // it checks for the finished compile every call, so the hot-swap lands
  // between two seeds): delegates to
  // AccMoSEngine::runContained on the native tier; the interp tier has no
  // generated code to contain.
  SimulationResult runContained(
      std::optional<uint64_t> seedOverride = std::nullopt, size_t worker = 0);

  // The effective policy after hardening rules (see header comment).
  Tier policy() const { return policy_; }
  // Non-blocking: has the native engine been adopted (hot-swap happened /
  // Native policy)? After a failed compile this stays false forever and
  // every run degrades to the interpreter.
  bool nativeReady() const {
    return native_.load(std::memory_order_acquire) != nullptr;
  }
  bool nativeFailed() const {
    return !nativeReady() && nativeDead_.load(std::memory_order_acquire);
  }
  // The adopted native engine, or nullptr (does not trigger adoption).
  AccMoSEngine* native() { return native_.load(std::memory_order_acquire); }

  // Cost breakdown. compileWaitSeconds is wall time runs actually BLOCKED
  // on the compiler: the whole synchronous construction under Native, only
  // the post-ready adoption (cache-verify + dlopen) under Auto, zero under
  // Interp. compileSeconds under Auto is the async job's real compile time
  // (spent on the pool, overlapped with interpreted runs, NOT blocking).
  double generateSeconds() const;
  double compileSeconds() const;
  double loadSeconds() const;
  double compileWaitSeconds() const;
  bool compileCacheHit() const;
  const std::string& nativeError() const;  // empty unless nativeFailed()

  // Approximate bytes this engine keeps resident: the generated source it
  // holds plus the on-disk size of the adopted native artifact (the mapped
  // shared library). The model-library pool (src/serve)
  // charges entries against its byte budget with this — an estimate is
  // fine, eviction only needs a consistent relative measure.
  size_t residentBytes() const;

  // Runs answered by each tier so far.
  uint64_t interpRuns() const {
    return interpRuns_.load(std::memory_order_relaxed);
  }
  uint64_t nativeRuns() const {
    return nativeRuns_.load(std::memory_order_relaxed);
  }

 private:
  // Non-blocking adoption: returns the native engine, constructing it
  // under buildMutex_ if the async compile just finished. Never waits for
  // an unfinished compile; a failed compile marks the native tier dead.
  AccMoSEngine* maybeNative();
  SimulationResult interpRun(uint64_t seed, size_t worker);
  Interpreter* interpFor(size_t worker);

  const FlatModel& fm_;
  SimOptions opt_;
  TestCaseSpec tests_;
  Tier policy_ = Tier::Native;

  // Auto: the emitted model awaiting its engine, and the async compile.
  GeneratedModel gen_;
  std::unique_ptr<CompilerDriver> driver_;
  CompileHandle handle_;

  std::unique_ptr<AccMoSEngine> nativeOwned_;
  std::atomic<AccMoSEngine*> native_{nullptr};
  std::atomic<bool> nativeDead_{false};

  mutable std::mutex buildMutex_;  // adoption + the stats it writes
  std::string nativeError_;
  double generateSeconds_ = 0.0;
  double compileSecondsAsync_ = 0.0;
  bool cacheHitAsync_ = false;
  double compileWaitSeconds_ = 0.0;

  std::atomic<uint64_t> interpRuns_{0};
  std::atomic<uint64_t> nativeRuns_{0};

  std::mutex interpMutex_;
  std::vector<std::unique_ptr<Interpreter>> interps_;  // index = worker
};

}  // namespace accmos
