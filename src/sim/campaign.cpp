#include "sim/campaign.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <tuple>

#include "actors/spec.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "interp/interpreter.h"
#include "opt/pipeline.h"
#include "sim/interrupt.h"
#include "sim/tiered_engine.h"

namespace accmos {
namespace {

void mergeDiagnostics(std::map<std::tuple<int, DiagKind, std::string>,
                               DiagRecord>& merged,
                      const std::vector<DiagRecord>& records) {
  for (const auto& rec : records) {
    auto key = std::make_tuple(rec.actorId, rec.kind, rec.message);
    auto it = merged.find(key);
    if (it == merged.end()) {
      merged.emplace(key, rec);
    } else {
      it->second.count += rec.count;
      it->second.firstStep = std::min(it->second.firstStep, rec.firstStep);
    }
  }
}

size_t resolveWorkers(const SimOptions& opt, size_t numJobs) {
  size_t workers = opt.campaign.workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min(workers, numJobs);
}

void checkInstrumentedEngine(const SimOptions& opt) {
  if (opt.engine != Engine::SSE && opt.engine != Engine::AccMoS) {
    throw ModelError(
        "test campaigns need an instrumented engine (SSE or AccMoS)");
  }
  if (!opt.coverage) {
    throw ModelError("test campaigns accumulate coverage; enable it");
  }
}

// Contained stand-in for a spec whose simulator never built: the whole
// shape failed to compile, so every spec of that shape gets this failure.
SimulationResult compileFailedResult(uint64_t seed, const std::string& msg) {
  SimulationResult r;
  r.failed = true;
  r.failure.kind = FailureKind::CompileError;
  r.failure.seed = seed;
  r.failure.backend = "compile";
  r.failure.message = msg;
  return r;
}

}  // namespace

SpecEvaluator::SpecEvaluator(const FlatModel& fm, const SimOptions& opt)
    : fm_(fm), opt_(opt) {
  checkInstrumentedEngine(opt_);
}

SpecEvaluator::~SpecEvaluator() = default;

TieredEngine* SpecEvaluator::engineFor(const TestCaseSpec& spec) {
  std::string key = spec.shapeKey();
  auto it = engines_.find(key);
  if (it != engines_.end()) return it->second.get();
  auto engine = std::make_unique<TieredEngine>(fm_, opt_, spec);
  ++enginesBuilt_;
  return engines_.emplace(std::move(key), std::move(engine))
      .first->second.get();
}

double SpecEvaluator::generateSeconds() const {
  double s = 0.0;
  for (const auto& [key, e] : engines_) s += e->generateSeconds();
  return s;
}

double SpecEvaluator::compileSeconds() const {
  double s = 0.0;
  for (const auto& [key, e] : engines_) s += e->compileSeconds();
  return s;
}

double SpecEvaluator::loadSeconds() const {
  double s = 0.0;
  for (const auto& [key, e] : engines_) s += e->loadSeconds();
  return s;
}

double SpecEvaluator::compileWaitSeconds() const {
  double s = 0.0;
  for (const auto& [key, e] : engines_) s += e->compileWaitSeconds();
  return s;
}

bool SpecEvaluator::allCompileCacheHits() const {
  for (const auto& [key, e] : engines_) {
    if (!e->compileCacheHit()) return false;
  }
  return true;
}

size_t SpecEvaluator::residentBytes() const {
  size_t bytes = 0;
  for (const auto& [key, e] : engines_) bytes += e->residentBytes();
  return bytes;
}

// Runs every spec, storing the result at the spec's index. With more than
// one worker, specs are claimed one at a time from a shared counter by a
// pool of threads: the SSE engine gets one persistent interpreter instance
// per worker; the AccMoS engine's runs are thread-safe in both exec modes,
// so workers call the per-shape engines directly — concurrent calls into
// one loaded library (dlopen mode) or concurrent child processes each
// writing to their own pipe (process mode). Result k lands at out[k], so
// the spec-order merge downstream is deterministic for any worker count.
// The first exception thrown by any worker is rethrown on the caller.
std::vector<SimulationResult> SpecEvaluator::evaluate(
    const std::vector<TestCaseSpec>& specs, std::vector<uint8_t>* done) {
  if (specs.empty()) {
    throw ModelError("spec batch evaluation needs at least one test case");
  }
  for (const auto& spec : specs) spec.validate();
  if (done != nullptr) done->assign(specs.size(), 0);

  // Time-to-first-result is measured from here: the serial engine build
  // below is exactly the synchronous compile that Tier::Auto overlaps
  // away, so it must count against the metric. Reset per call so a pooled
  // evaluator reports each batch's own latency (callers never overlap
  // evaluate() calls on one evaluator; the pool serializes per entry).
  const auto evalStart = std::chrono::steady_clock::now();
  firstResultSeen_.store(false, std::memory_order_relaxed);
  auto markFirstResult = [&] {
    if (!firstResultSeen_.exchange(true, std::memory_order_relaxed)) {
      firstResultSeconds_ = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - evalStart)
                                .count();
    }
  };

  // AccMoS: build (or reuse) the per-shape engines serially before the
  // fan-out — compilation already parallelizes poorly and the serial order
  // keeps construction bookkeeping deterministic (under Tier::Auto the
  // construction only emits and enqueues, so this loop is cheap and the
  // compiles overlap the runs below). A shape whose simulator cannot be
  // compiled does not abort the batch: every spec of that shape is marked
  // with the compile failure (engineOf == nullptr) and reported as a
  // contained CompileError result; other shapes run normally.
  std::vector<TieredEngine*> engineOf;
  std::vector<std::string> buildError(specs.size());
  if (opt_.engine == Engine::AccMoS) {
    engineOf.reserve(specs.size());
    std::map<std::string, std::string> failedShapes;
    for (size_t k = 0; k < specs.size(); ++k) {
      const std::string key = specs[k].shapeKey();
      auto fit = failedShapes.find(key);
      if (fit != failedShapes.end()) {
        engineOf.push_back(nullptr);
        buildError[k] = fit->second;
        continue;
      }
      try {
        engineOf.push_back(engineFor(specs[k]));
      } catch (const CompileError& e) {
        failedShapes.emplace(key, e.what());
        engineOf.push_back(nullptr);
        buildError[k] = e.what();
      }
    }
  }

  size_t workers = resolveWorkers(opt_, specs.size());
  if (opt_.engine == Engine::SSE) {
    if (interps_.size() < workers) interps_.resize(workers);
  }

  std::vector<SimulationResult> out(specs.size());
  auto runRange = [&](size_t worker, std::atomic<size_t>& next,
                      std::exception_ptr& error, std::mutex& errMutex) {
    for (;;) {
      // Interruptible batches stop CLAIMING here but always finish a
      // claimed spec, so claims — handed out by the monotonic counter —
      // cover a prefix of the spec order and every claim completes: the
      // finished set is a contiguous prefix, which makes the partial
      // merge downstream well-defined.
      if (done != nullptr && interruptRequested()) break;
      size_t k = next.fetch_add(1);
      if (k >= specs.size()) break;
      try {
        if (opt_.engine == Engine::SSE) {
          auto& interp = interps_[worker];
          if (!interp) interp = std::make_unique<Interpreter>(fm_, opt_);
          out[k] = interp->run(specs[k]);
        } else if (engineOf[k] == nullptr) {
          out[k] = compileFailedResult(specs[k].seed, buildError[k]);
        } else {
          // Contained execution never throws for per-run faults — a hung
          // or crashed seed comes back as a failed result and its
          // neighbours are unaffected.
          out[k] = engineOf[k]->runContained(specs[k].seed, worker);
        }
        markFirstResult();
        if (done != nullptr) (*done)[k] = 1;
      } catch (...) {
        std::lock_guard<std::mutex> lock(errMutex);
        if (!error) error = std::current_exception();
        return;
      }
    }
  };

  std::atomic<size_t> next{0};
  std::exception_ptr error;
  std::mutex errMutex;
  if (workers <= 1) {
    runRange(0, next, error, errMutex);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] { runRange(w, next, error, errMutex); });
    }
    for (auto& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
  return out;
}

// Merge strictly in spec order: coverage-bitmap unions, diagnostic
// deduplication and the per-spec cumulative reports are computed exactly
// as a sequential run would, so the campaign outcome is independent of the
// execution interleaving that produced `results` — worker pools, tier
// swaps, or shard processes (src/dist) all feed the same merge.
CampaignResult mergeSpecResults(const FlatModel& model,
                                const std::vector<TestCaseSpec>& specs,
                                const std::vector<SimulationResult>& results,
                                size_t completed, const OptStats& optStats) {
  CampaignResult out;
  out.optStats = optStats;

  CoveragePlan plan = CoveragePlan::build(
      model, [](const FlatActor& fa) { return covTraitsFor(fa); });
  out.mergedBitmaps = CoverageRecorder(plan);
  completed = std::min(completed, specs.size());
  out.interrupted = completed < specs.size();

  std::map<std::tuple<int, DiagKind, std::string>, DiagRecord> merged;
  out.perSeed.reserve(completed);
  for (size_t k = 0; k < completed; ++k) {
    const SimulationResult& res = results[k];
    if (res.failed) {
      // Contained failure: record it, contribute nothing to the merge.
      // Survivor contributions stay bit-identical to a fault-free
      // campaign over the survivors because the merge below is strictly
      // spec-ordered and a skipped seed leaves no trace in the bitmaps.
      RunFailure f = res.failure;
      f.seed = specs[k].seed;
      f.index = k;
      out.failures.push_back(std::move(f));
      CampaignSeedResult sr;
      sr.seed = specs[k].seed;
      sr.failed = true;
      sr.execMode = res.execMode;
      sr.cumulative = makeReport(plan, out.mergedBitmaps);
      out.perSeed.push_back(std::move(sr));
      continue;
    }
    out.mergedBitmaps.merge(res.bitmaps);
    mergeDiagnostics(merged, res.diagnostics);
    out.totalExecSeconds += res.execSeconds;

    CampaignSeedResult sr;
    sr.seed = specs[k].seed;
    sr.steps = res.stepsExecuted;
    sr.execSeconds = res.execSeconds;
    sr.coverage = res.coverage;
    sr.cumulative = makeReport(plan, out.mergedBitmaps);
    sr.diagnosticKinds = res.diagnostics.size();
    sr.execMode = res.execMode;
    if (res.execMode == kExecModeInterp) {
      ++out.interpSeeds;
    } else if (!res.execMode.empty()) {
      ++out.nativeSeeds;
    }
    out.perSeed.push_back(std::move(sr));
  }
  // Where the hot-swap landed, in merge order: only meaningful when both
  // tiers answered seeds.
  if (out.interpSeeds > 0 && out.nativeSeeds > 0) {
    for (size_t k = 0; k < out.perSeed.size(); ++k) {
      const CampaignSeedResult& sr = out.perSeed[k];
      if (!sr.failed && !sr.execMode.empty() &&
          sr.execMode != kExecModeInterp) {
        out.tierSwapIndex = static_cast<long long>(k);
        break;
      }
    }
  }

  out.cumulative = makeReport(plan, out.mergedBitmaps);
  for (const auto& [key, rec] : merged) out.diagnostics.push_back(rec);
  std::sort(out.diagnostics.begin(), out.diagnostics.end(),
            [](const DiagRecord& a, const DiagRecord& b) {
              return std::tie(a.firstStep, a.actorPath) <
                     std::tie(b.firstStep, b.actorPath);
            });
  return out;
}

CampaignResult runCampaignSpecsOn(
    const FlatModel& model, SpecEvaluator& evaluator, const SimOptions& opt,
    const std::vector<TestCaseSpec>& specs, const OptStats& optStats,
    std::optional<std::chrono::steady_clock::time_point> wallStart) {
  checkInstrumentedEngine(opt);
  if (specs.empty()) {
    throw ModelError("test campaign needs at least one test case");
  }

  const auto wall0 = wallStart.value_or(std::chrono::steady_clock::now());

  // One-off cost fields are reported as deltas across this call, so a
  // warm pooled evaluator (daemon repeat request) truthfully reports zero
  // generation/compile/load work; a fresh evaluator reports the classic
  // totals since every counter starts at zero.
  const size_t built0 = evaluator.enginesBuilt();
  const double generate0 = evaluator.generateSeconds();
  const double compile0 = evaluator.compileSeconds();
  const double load0 = evaluator.loadSeconds();
  const double wait0 = evaluator.compileWaitSeconds();

  const auto evalStart = std::chrono::steady_clock::now();
  std::vector<uint8_t> done;
  std::vector<SimulationResult> results = evaluator.evaluate(specs, &done);

  // A cooperative interrupt stops the batch after a prefix of the specs;
  // the merge then covers exactly that prefix (partial results are
  // flushed, and each prefix row matches the uninterrupted campaign's).
  size_t completed = 0;
  while (completed < specs.size() && done[completed] != 0) ++completed;

  CampaignResult out = mergeSpecResults(model, specs, results, completed,
                                        optStats);
  out.workersUsed = resolveWorkers(opt, specs.size());
  out.generateSeconds = evaluator.generateSeconds() - generate0;
  out.compileSeconds = evaluator.compileSeconds() - compile0;
  out.loadSeconds = evaluator.loadSeconds() - load0;
  out.compileWaitSeconds = evaluator.compileWaitSeconds() - wait0;
  out.compileCacheHit =
      evaluator.enginesBuilt() > built0 && evaluator.allCompileCacheHits();
  if (evaluator.timeToFirstResultSeconds() >= 0.0) {
    // Campaign-relative: the flatten/optimize prelude plus the evaluator's
    // own start-to-first-result span.
    out.timeToFirstResultSeconds =
        std::chrono::duration<double>(evalStart - wall0).count() +
        evaluator.timeToFirstResultSeconds();
  }
  auto wall1 = std::chrono::steady_clock::now();
  out.wallSeconds = std::chrono::duration<double>(wall1 - wall0).count();
  return out;
}

CampaignResult runCampaignSpecs(const FlatModel& fm, const SimOptions& opt,
                                const std::vector<TestCaseSpec>& specs) {
  checkInstrumentedEngine(opt);
  if (specs.empty()) {
    throw ModelError("test campaign needs at least one test case");
  }

  const auto wall0 = std::chrono::steady_clock::now();

  // Optimize once for the whole campaign; every spec runs the same model,
  // so the pipeline cost amortizes exactly like the one-off compiles.
  OptStats optStats;
  FlatModel optimized;
  const FlatModel* model = &fm;
  if (opt.optimize) {
    optimized = optimizeModel(fm, opt, &optStats);
    model = &optimized;
  }

  SpecEvaluator evaluator(*model, opt);
  return runCampaignSpecsOn(*model, evaluator, opt, specs, optStats, wall0);
}

CampaignResult runCampaign(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& baseTests,
                           const std::vector<uint64_t>& seeds) {
  if (seeds.empty()) throw ModelError("test campaign needs at least one seed");
  std::vector<TestCaseSpec> specs(seeds.size(), baseTests);
  for (size_t k = 0; k < seeds.size(); ++k) specs[k].seed = seeds[k];
  return runCampaignSpecs(fm, opt, specs);
}

}  // namespace accmos
