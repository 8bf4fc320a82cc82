#include "codegen/accmos_engine.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "actors/spec.h"
#include "codegen/compiler_driver.h"
#include "codegen/emitter.h"
#include "codegen/fault.h"
#include "codegen/model_lib.h"
#include "codegen/results_parser.h"
#include "codegen/run_guard.h"

namespace accmos {

namespace {

// Test hook (ACCMOS_FAULT=batch-fail): forces
// runBatch() onto the per-seed scalar fallback so the fallback matrix can
// be exercised without manufacturing a defective library.
bool batchForcedToFail() { return faultPlanFromEnv().batchFail; }

// Seconds on the steady clock's epoch — the SAME clock the generated
// code's accmos_now_s() reads, so host-computed absolute deadlines compare
// directly inside the in-process step loop.
double steadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

GeneratedModel AccMoSEngine::generate(const FlatModel& fm,
                                      const SimOptions& opt,
                                      const TestCaseSpec& tests) {
  validateFlatModel(fm);
  // The emitter bakes the stimulus shape (ports, ranges, sequences) into
  // the generated code; the seed is a run-time argument.
  tests.validate();
  for (const auto& cd : opt.customDiagnostics) {
    if (cd.kind == CustomDiagnostic::Kind::Expression &&
        cd.cppCondition.empty()) {
      throw ModelError(
          "custom diagnostic '" + cd.name +
          "': Expression diagnostics need a cppCondition for the AccMoS "
          "engine (callbacks cannot be compiled into generated code)");
    }
    if (fm.findByPath(cd.actorPath) == nullptr) {
      throw ModelError("custom diagnostic '" + cd.name +
                       "' references unknown actor path '" + cd.actorPath +
                       "'");
    }
  }
  GeneratedModel gen;
  if (opt.coverage) {
    gen.covPlan = CoveragePlan::build(
        fm, [](const FlatActor& fa) { return covTraitsFor(fa); });
  }
  DiagnosisPlan diagPlan;
  if (opt.diagnosis) {
    diagPlan = DiagnosisPlan::build(
        fm, [&](const FlatActor& fa) { return diagKindsFor(fm, fa); });
  }

  auto t0 = std::chrono::steady_clock::now();
  Emitter emitter(fm, opt, tests, opt.coverage ? &gen.covPlan : nullptr,
                  opt.diagnosis ? &diagPlan : nullptr);
  gen.source = emitter.generate();
  gen.collectSignals = emitter.collectSignals();
  auto t1 = std::chrono::steady_clock::now();
  gen.generateSeconds = std::chrono::duration<double>(t1 - t0).count();
  return gen;
}

ArtifactKind AccMoSEngine::artifactPlan(const SimOptions& opt,
                                        std::string* extraFlags) {
  if (extraFlags != nullptr) extraFlags->clear();
  // The batch kernel is compiled in via -DACCMOS_BATCH_LANES=N, not by
  // changing the generated source, so the flag must be part of the
  // compile-cache identity (CompilerDriver::cacheKey hashes extraFlags):
  // a cached batchless artifact is never served to a batch-requesting
  // engine, and vice versa. The process backend runs scalar only, so it
  // builds the same library as a dlopen single run.
  if (opt.execMode == ExecMode::Dlopen && opt.batchLanes > 0 &&
      extraFlags != nullptr) {
    *extraFlags = "-DACCMOS_BATCH_LANES=" + std::to_string(opt.batchLanes);
  }
  return ArtifactKind::SharedLib;
}

AccMoSEngine::AccMoSEngine(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& tests)
    : AccMoSEngine(fm, opt, tests, generate(fm, opt, tests)) {}

AccMoSEngine::AccMoSEngine(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& tests, GeneratedModel&& gen)
    : fm_(fm),
      opt_(opt),
      tests_(tests),
      covPlan_(std::move(gen.covPlan)),
      collectSignals_(std::move(gen.collectSignals)),
      source_(std::move(gen.source)),
      generateSeconds_(gen.generateSeconds) {
  driver_ = std::make_unique<CompilerDriver>(opt_.workDir);
  driver_->setKeep(opt_.keepGeneratedCode || !opt_.workDir.empty());
  driver_->setCacheEnabled(opt_.compileCache);

  // One artifact serves both backends: the dlopen backend loads the
  // library in-process, the process backend (and the fault ladder's
  // fallback) hands it to accmos_runner. artifactPlan() decides the extra
  // flags so an async pre-compile (TieredEngine) targets the identical
  // cache entry. A compile failure propagates: there is nothing else to
  // run.
  std::string extraFlags;
  ArtifactKind kind = artifactPlan(opt_, &extraFlags);
  auto compiled = driver_->compile(source_, "model_" + fm_.modelName,
                                   opt_.optFlag, kind, extraFlags);
  compileSeconds_ = compiled.seconds;
  compileCacheHit_ = compiled.cacheHit;
  artifactKeepAlive_ = compiled.keepAlive;
  exePath_ = compiled.exePath;

  // Run a private per-engine copy, never the shared cache entry directly:
  // the dynamic linker dedups loads by pathname and inode, so dlopening a
  // cache path that an earlier engine already mapped would hand back the
  // old library even after the entry was healed or replaced. The copy
  // lives in this engine's unique work dir, serves the runner too, and is
  // cleaned up with the engine.
  namespace fs = std::filesystem;
  libPath_ =
      (fs::path(driver_->dir()) / ("model_" + fm_.modelName + ".load.so"))
          .string();
  try {
    fs::copy_file(compiled.exePath, libPath_,
                  fs::copy_options::overwrite_existing);
  } catch (const fs::filesystem_error& e) {
    throw CompileError("cannot stage the model library: " +
                       std::string(e.what()));
  }
  if (opt_.execMode != ExecMode::Dlopen) return;

  // A library dlopen cannot load degrades to the process backend rather
  // than failing the engine.
  try {
    lib_ = std::make_unique<ModelLib>(libPath_);
  } catch (const CompileError&) {
    return;
  }
  // A library whose geometry disagrees with our plans would have its
  // buffers sized wrongly on either backend, so fail closed.
  if (std::string why =
          geometryMismatch(lib_->info(), fm_, coveragePlan(), collectSignals_,
                           opt_.customDiagnostics.size());
      !why.empty()) {
    throw CompileError("generated model library " + exePath_ +
                       " does not match the host's instrumentation plans: " +
                       why);
  }
  loadSeconds_ = lib_->loadSeconds();
  execModeUsed_ = ExecMode::Dlopen;
}

bool AccMoSEngine::libUsable() const { return lib_ && !quarantined(); }

AccMoSEngine::~AccMoSEngine() = default;

SimulationResult AccMoSEngine::runInProcess(uint64_t steps, double budget,
                                            uint64_t seed) {
  const AccmosModelInfo& info = lib_->info();

  // Caller-owned buffers, sized once from the library's geometry. All
  // locals — concurrent run() calls never share state.
  std::vector<uint8_t> cov[4];
  std::vector<AccmosDiagRec> diags(
      static_cast<size_t>(info.numActors * info.numDiagKinds));
  std::vector<AccmosCustomRec> customs(static_cast<size_t>(info.numCustom));
  std::vector<uint64_t> collectCounts(static_cast<size_t>(info.numCollect));
  std::vector<uint64_t> collectVals(static_cast<size_t>(info.collectValsLen));
  std::vector<uint64_t> outVals(static_cast<size_t>(info.outValsLen));

  AccmosRunArgs args;
  std::memset(&args, 0, sizeof(args));
  args.structSize = static_cast<uint32_t>(sizeof(AccmosRunArgs));
  args.abiVersion = ACCMOS_ABI_VERSION;
  args.maxSteps = steps;
  args.timeBudgetSec = budget;
  args.seed = seed;
  args.deadlineSeconds =
      opt_.runTimeoutSec > 0.0 ? steadyNowSeconds() + opt_.runTimeoutSec : 0.0;
  args.stepBudget = opt_.stepBudget;

  AccmosRunResult res;
  std::memset(&res, 0, sizeof(res));
  res.structSize = static_cast<uint32_t>(sizeof(AccmosRunResult));
  res.abiVersion = ACCMOS_ABI_VERSION;
  for (int m = 0; m < 4; ++m) {
    cov[m].resize(static_cast<size_t>(info.covLen[m]));
    res.cov[m] = cov[m].empty() ? nullptr : cov[m].data();
    res.covLen[m] = info.covLen[m];
  }
  res.diags = diags.empty() ? nullptr : diags.data();
  res.diagCap = diags.size();
  res.customs = customs.empty() ? nullptr : customs.data();
  res.customCap = customs.size();
  res.collectCounts = collectCounts.empty() ? nullptr : collectCounts.data();
  res.numCollect = collectCounts.size();
  res.collectVals = collectVals.empty() ? nullptr : collectVals.data();
  res.collectValsLen = collectVals.size();
  res.outVals = outVals.empty() ? nullptr : outVals.data();
  res.outValsLen = outVals.size();

  // The guard turns a fatal signal inside the generated code into a typed
  // exception (best effort — see run_guard.h); callers strike the engine
  // toward quarantine and retry on the subprocess backend.
  GuardedCallResult g = runGuarded([&]() { return lib_->run(args, res); });
  if (g.crashed) {
    throw SimCrashError("in-process model run crashed with signal " +
                            std::to_string(g.signal) + " (library " +
                            lib_->path() + ")",
                        g.signal);
  }
  int rc = g.rc;
  // ETIMEOUT is a *retired* run, not a broken one: the generated loop
  // observed its deadline or step budget, extraction still ran, and
  // res.timedOut is set — decode normally.
  if (rc != ACCMOS_ABI_OK && rc != ACCMOS_ABI_ETIMEOUT) {
    throw CompileError("in-process model run failed with ABI status " +
                       std::to_string(rc) + " (library " + lib_->path() +
                       ")");
  }
  SimulationResult result = decodeBinaryResults(
      res, fm_, coveragePlan(), collectSignals_, opt_.customDiagnostics);
  result.execMode = std::string(execModeName(ExecMode::Dlopen));
  return result;
}

SimulationResult AccMoSEngine::runSubprocess(uint64_t steps, double budget,
                                             uint64_t seed) {
  // Workers share one engine (and a caller-chosen work dir may be shared
  // between processes), so every run gets its own result file.
  static std::atomic<uint64_t> runCounter{0};
  const std::string out =
      (std::filesystem::path(driver_->dir()) /
       ("run_" + std::to_string(::getpid()) + "_" +
        std::to_string(runCounter.fetch_add(1)) + ".res"))
          .string();
  struct RemoveOnExit {
    const std::string& path;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  } removeOnExit{out};

  // The deadline crosses the process boundary as a RELATIVE timeout
  // (monotonic epochs differ between processes); the runner computes its
  // own absolute deadline. The driver additionally arms its host-side
  // watchdog with the same timeout as a backstop for genuine hangs.
  // Seconds travel at full precision: std::to_string's six decimals would
  // turn a sub-microsecond budget into 0, i.e. unlimited.
  auto secs = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  driver_->run(ACCMOS_RUNNER_PATH,
               {libPath_, out, std::to_string(steps), secs(budget),
                std::to_string(seed), secs(opt_.runTimeoutSec),
                std::to_string(opt_.stepBudget)},
               opt_.runTimeoutSec);
  std::ifstream in(out, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  SimulationResult result = decodeRunnerFile(
      bytes, fm_, coveragePlan(), collectSignals_, opt_.customDiagnostics);
  result.execMode = std::string(execModeName(ExecMode::Process));
  return result;
}

void AccMoSEngine::finishResult(SimulationResult& r) const {
  if (opt_.coverage) {
    r.coverage = makeReport(covPlan_, r.bitmaps);
    r.hasCoverage = true;
  }
  r.generateSeconds = generateSeconds_;
  r.compileSeconds = compileSeconds_;
  r.loadSeconds = loadSeconds_;
}

SimulationResult AccMoSEngine::run(uint64_t maxStepsOverride,
                                   double timeBudgetOverride,
                                   std::optional<uint64_t> seedOverride) {
  uint64_t steps = maxStepsOverride != 0 ? maxStepsOverride : opt_.maxSteps;
  double budget =
      timeBudgetOverride >= 0.0 ? timeBudgetOverride : opt_.timeBudgetSec;
  uint64_t seed = seedOverride.value_or(tests_.seed);
  SimulationResult result = libUsable() ? runInProcess(steps, budget, seed)
                                        : runSubprocess(steps, budget, seed);
  finishResult(result);
  return result;
}

SimulationResult AccMoSEngine::failedResult(FailureKind kind, uint64_t seed,
                                            int signal, int retries,
                                            const char* backend,
                                            std::string message) const {
  SimulationResult r;
  r.failed = true;
  r.timedOut = kind == FailureKind::Timeout;
  r.failure.kind = kind;
  r.failure.seed = seed;
  r.failure.signal = signal;
  r.failure.retries = retries;
  r.failure.backend = backend;
  r.failure.message = std::move(message);
  r.execMode = backend;
  return r;
}

SimulationResult AccMoSEngine::runContained(
    uint64_t maxStepsOverride, double timeBudgetOverride,
    std::optional<uint64_t> seedOverride) {
  const uint64_t steps =
      maxStepsOverride != 0 ? maxStepsOverride : opt_.maxSteps;
  const double budget =
      timeBudgetOverride >= 0.0 ? timeBudgetOverride : opt_.timeBudgetSec;
  const uint64_t seed = seedOverride.value_or(tests_.seed);

  int retries = 0;
  if (libUsable()) {
    try {
      SimulationResult r = runInProcess(steps, budget, seed);
      if (!r.timedOut) {
        finishResult(r);
        return r;
      }
      // Cooperative in-process hang: a timed-out run's partial
      // observations depend on wall-clock timing, so they are never
      // merged. Strike, then give the seed its one subprocess retry.
      strike();
    } catch (const SimCrashError&) {
      strike();
    } catch (const ModelError&) {
      // ABI status failure / undecodable result — retry out-of-process
      // without striking (nothing suggests in-process state damage).
    }
    retries = 1;
  }

  try {
    SimulationResult r = runSubprocess(steps, budget, seed);
    if (r.timedOut) {
      return failedResult(
          FailureKind::Timeout, seed, 0, retries, "process",
          "run retired at its wall-clock deadline / step budget");
    }
    finishResult(r);
    return r;
  } catch (const SimTimeoutError& e) {
    return failedResult(FailureKind::Timeout, seed, 0, retries, "process",
                        e.what());
  } catch (const SimCrashError& e) {
    return failedResult(FailureKind::Crash, seed, e.terminatingSignal(),
                        retries, "process", e.what());
  } catch (const CompileError& e) {
    return failedResult(FailureKind::CompileError, seed, 0, retries,
                        "process", e.what());
  } catch (const ModelError& e) {
    return failedResult(FailureKind::AbiMismatch, seed, 0, retries, "process",
                        e.what());
  }
}

uint64_t AccMoSEngine::batchLanes() const {
  if (!libUsable() || batchForcedToFail()) return 0;
  return lib_->batchLanes();
}

void AccMoSEngine::runBatchChunk(const uint64_t* seeds, size_t n,
                                 uint64_t steps, double budget,
                                 bool contained,
                                 std::vector<SimulationResult>& out) {
  const AccmosModelInfo& info = lib_->info();
  const size_t diagStride =
      static_cast<size_t>(info.numActors * info.numDiagKinds);

  // One strided arena per buffer kind for the whole chunk — lane l's view
  // is [l * stride, (l+1) * stride). Against n scalar runs this replaces
  // ~10n allocations with ~10 and is a real part of the batch win on
  // short runs; the library only ever sees the per-lane views.
  std::vector<uint8_t> cov[4];
  for (int m = 0; m < 4; ++m) {
    cov[m].resize(static_cast<size_t>(info.covLen[m]) * n);
  }
  std::vector<AccmosDiagRec> diags(diagStride * n);
  std::vector<AccmosCustomRec> customs(static_cast<size_t>(info.numCustom) *
                                       n);
  std::vector<uint64_t> collectCounts(static_cast<size_t>(info.numCollect) *
                                      n);
  std::vector<uint64_t> collectVals(
      static_cast<size_t>(info.collectValsLen) * n);
  std::vector<uint64_t> outVals(static_cast<size_t>(info.outValsLen) * n);
  std::vector<AccmosRunResult> laneRes(n);

  for (size_t l = 0; l < n; ++l) {
    AccmosRunResult& r = laneRes[l];
    std::memset(&r, 0, sizeof(r));
    r.structSize = static_cast<uint32_t>(sizeof(AccmosRunResult));
    r.abiVersion = ACCMOS_ABI_VERSION;
    for (int m = 0; m < 4; ++m) {
      const size_t len = static_cast<size_t>(info.covLen[m]);
      r.cov[m] = len > 0 ? &cov[m][l * len] : nullptr;
      r.covLen[m] = info.covLen[m];
    }
    r.diags = diagStride > 0 ? &diags[l * diagStride] : nullptr;
    r.diagCap = diagStride;
    r.customs =
        info.numCustom > 0 ? &customs[l * info.numCustom] : nullptr;
    r.customCap = info.numCustom;
    r.collectCounts =
        info.numCollect > 0 ? &collectCounts[l * info.numCollect] : nullptr;
    r.numCollect = info.numCollect;
    r.collectVals = info.collectValsLen > 0
                        ? &collectVals[l * info.collectValsLen]
                        : nullptr;
    r.collectValsLen = info.collectValsLen;
    r.outVals = info.outValsLen > 0 ? &outVals[l * info.outValsLen] : nullptr;
    r.outValsLen = info.outValsLen;
  }

  AccmosBatchRunArgs args;
  std::memset(&args, 0, sizeof(args));
  args.structSize = static_cast<uint32_t>(sizeof(AccmosBatchRunArgs));
  args.abiVersion = ACCMOS_ABI_VERSION;
  args.numLanes = n;
  args.maxSteps = steps;
  args.timeBudgetSec = budget;
  args.seeds = seeds;
  args.deadlineSeconds =
      opt_.runTimeoutSec > 0.0 ? steadyNowSeconds() + opt_.runTimeoutSec : 0.0;
  args.stepBudget = opt_.stepBudget;

  AccmosBatchRunResult bres;
  std::memset(&bres, 0, sizeof(bres));
  bres.structSize = static_cast<uint32_t>(sizeof(AccmosBatchRunResult));
  bres.abiVersion = ACCMOS_ABI_VERSION;
  bres.numLanes = n;
  bres.lanes = laneRes.data();

  // A crash inside the fused kernel takes the whole chunk down (the guard
  // recovers control, but every lane's results are suspect): strike once —
  // it is one faulting kernel call — and degrade the chunk to the scalar
  // path, where the faulting seed is isolated from its chunk-mates.
  GuardedCallResult g =
      runGuarded([&]() { return lib_->runBatch(args, bres); });
  if (g.crashed) strike();
  int rc = g.crashed ? -1 : g.rc;
  if (rc != ACCMOS_ABI_OK && rc != ACCMOS_ABI_ETIMEOUT) {
    // Crash, or a geometry rejection that load-time cross-checks should
    // have caught — either way the contract is "batch never changes
    // observations", so degrade to the scalar path for this chunk instead
    // of failing the campaign.
    for (size_t l = 0; l < n; ++l) {
      out.push_back(contained ? runContained(steps, budget, seeds[l])
                              : run(steps, budget, seeds[l]));
    }
    return;
  }
  for (size_t l = 0; l < n; ++l) {
    SimulationResult r = decodeBinaryResults(
        laneRes[l], fm_, coveragePlan(), collectSignals_,
        opt_.customDiagnostics);
    if (contained && r.timedOut) {
      // The batch deadline is shared: a lane may have been retired only
      // because a sibling hogged the fused loop. One solo scalar retry
      // with a fresh deadline makes survival a per-seed property — a seed
      // that finishes within the deadline on its own yields bit-identical
      // results at any lane count; one that cannot is a genuine Timeout.
      out.push_back(runContained(steps, budget, seeds[l]));
      continue;
    }
    r.execMode = kExecModeDlopenBatch;
    finishResult(r);
    out.push_back(std::move(r));
  }
}

std::vector<SimulationResult> AccMoSEngine::runBatch(
    const std::vector<uint64_t>& seeds, uint64_t maxStepsOverride,
    double timeBudgetOverride) {
  uint64_t steps = maxStepsOverride != 0 ? maxStepsOverride : opt_.maxSteps;
  double budget =
      timeBudgetOverride >= 0.0 ? timeBudgetOverride : opt_.timeBudgetSec;
  std::vector<SimulationResult> out;
  out.reserve(seeds.size());
  const uint64_t lanes = batchLanes();
  if (lanes == 0) {
    // Scalar fallback: no library (subprocess backend), a batchless
    // library, batching disabled, or the batch-fail fault hook. Each
    // result's execMode reports what actually ran.
    for (uint64_t seed : seeds) {
      out.push_back(run(steps, budget, seed));
    }
    return out;
  }
  for (size_t base = 0; base < seeds.size();
       base += static_cast<size_t>(lanes)) {
    const size_t n =
        std::min<size_t>(static_cast<size_t>(lanes), seeds.size() - base);
    runBatchChunk(&seeds[base], n, steps, budget, /*contained=*/false, out);
  }
  return out;
}

std::vector<SimulationResult> AccMoSEngine::runBatchContained(
    const std::vector<uint64_t>& seeds, uint64_t maxStepsOverride,
    double timeBudgetOverride) {
  uint64_t steps = maxStepsOverride != 0 ? maxStepsOverride : opt_.maxSteps;
  double budget =
      timeBudgetOverride >= 0.0 ? timeBudgetOverride : opt_.timeBudgetSec;
  std::vector<SimulationResult> out;
  out.reserve(seeds.size());
  for (size_t base = 0; base < seeds.size();) {
    const uint64_t lanes = batchLanes();  // re-read: quarantine may trip
    if (lanes == 0) {
      out.push_back(runContained(steps, budget, seeds[base]));
      ++base;
      continue;
    }
    const size_t n =
        std::min<size_t>(static_cast<size_t>(lanes), seeds.size() - base);
    runBatchChunk(&seeds[base], n, steps, budget, /*contained=*/true, out);
    base += n;
  }
  return out;
}

SimulationResult runAccMoS(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& tests) {
  AccMoSEngine engine(fm, opt, tests);
  return engine.run();
}

}  // namespace accmos
