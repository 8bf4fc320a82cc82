// Test campaigns: run a model under many stimulus seeds and accumulate the
// union of coverage — the workflow the paper motivates coverage collection
// with ("validating that test cases are comprehensive enough to cover
// different parts of models", §3.2.A).
//
// With Engine::AccMoS the model is generated and compiled once and the
// simulator re-run per seed — in-process accmos_run() calls into one
// dlopen'd library by default, child processes in ExecMode::Process —
// which is exactly how a generated simulator amortizes over a campaign.
//
// Campaigns scale across cores: `SimOptions::campaign.workers` fans the
// seeds out over a worker pool (N concurrent executions of the one
// compiled binary, or one interpreter instance per worker for SSE). Each
// worker claims one seed at a time and runs it through the library's
// scalar accmos_run kernel (docs/EXECUTION.md). Per-seed results are
// collected and then merged in seed order, so the outcome — per-seed
// reports, merged bitmaps, deduplicated diagnostics — is bit-identical to
// the sequential run for any worker count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/flat_model.h"
#include "opt/stats.h"
#include "sim/failure.h"
#include "sim/options.h"
#include "sim/result.h"
#include "sim/testcase.h"

namespace accmos {

struct CampaignSeedResult {
  uint64_t seed = 0;
  uint64_t steps = 0;
  double execSeconds = 0.0;
  CoverageReport coverage;          // this seed alone
  CoverageReport cumulative;        // union up to and including this seed
  size_t diagnosticKinds = 0;       // distinct (actor, kind) events
  // Execution backend that answered this seed: "interp" when the
  // interpreter tier served it (SimOptions::tier), "dlopen" / "process"
  // for native runs; empty for SSE campaigns.
  std::string execMode;
  // This seed's run was contained as a failure (timeout, crash, compile
  // failure): it contributed nothing to the merge, and the matching
  // RunFailure sits in CampaignResult::failures. The row is kept so
  // perSeed[k] always describes specs[k].
  bool failed = false;
};

struct CampaignResult {
  std::vector<CampaignSeedResult> perSeed;
  CoverageReport cumulative;
  CoverageRecorder mergedBitmaps;
  // All diagnostics observed across seeds (deduplicated per actor/kind/
  // message; firstStep is the earliest across seeds, count the sum).
  std::vector<DiagRecord> diagnostics;
  double totalExecSeconds = 0.0;      // sum of per-seed execution time
  double wallSeconds = 0.0;           // wall clock for the whole campaign
  double generateSeconds = 0.0;       // AccMoS one-off costs
  double compileSeconds = 0.0;
  double loadSeconds = 0.0;           // AccMoS dlopen mode: library loads
  bool compileCacheHit = false;       // AccMoS: every binary came cached
  // Tiered execution (SimOptions::tier, docs/EXECUTION.md). Wall seconds
  // workers actually BLOCKED on the compiler: equals compileSeconds under
  // Tier::Native (the synchronous build), near zero under Tier::Auto
  // (the compile overlaps interpreted runs on the background pool).
  double compileWaitSeconds = 0.0;
  // Wall seconds from campaign start until the first per-seed result was
  // available — the cold-start latency tiering attacks.
  double timeToFirstResultSeconds = 0.0;
  // First spec index answered by the compiled simulator when earlier
  // specs ran interpreted — where the hot-swap landed in merge order.
  // -1 when no swap happened (all-native, all-interp, or SSE).
  long long tierSwapIndex = -1;
  size_t interpSeeds = 0;             // seeds answered by the interp tier
  size_t nativeSeeds = 0;             // seeds answered by the native tier
  size_t workersUsed = 1;
  // Contained per-seed failures, in seed (spec) order. A campaign never
  // aborts because one seed hung or crashed: the failed seed is recorded
  // here, excluded from the coverage/diagnostic merge, and every surviving
  // seed's contribution is bit-identical to a fault-free campaign over the
  // survivors — for any worker count.
  std::vector<RunFailure> failures;
  // The optimization pipeline runs once per campaign (not per seed);
  // ran == false when SimOptions::optimize was off.
  OptStats optStats;

  // A cooperative interrupt (SIGINT/SIGTERM → sim/interrupt.h) stopped the
  // campaign early. perSeed/failures/merges then cover exactly the specs
  // that finished — always a contiguous prefix of the batch, because
  // workers claim chunks from a monotonic counter and complete every chunk
  // they claim — and every reported row is bit-identical to the same row
  // of an uninterrupted campaign. The CLI flushes these partial results
  // and exits with its documented interrupt code (docs/ROBUSTNESS.md).
  bool interrupted = false;
};

// Runs `opt.maxSteps` steps per seed for each seed in `seeds`, using
// `baseTests` for the port ranges/sequences (the seed field is overridden).
// Only the instrumented engines (SSE, AccMoS) are supported; throws
// ModelError otherwise or when coverage is disabled.
CampaignResult runCampaign(const FlatModel& fm, const SimOptions& opt,
                           const TestCaseSpec& baseTests,
                           const std::vector<uint64_t>& seeds);

// Runs a *heterogeneous* batch as a campaign: each spec carries its own
// ranges/sequences and seed (the workload the coverage-guided generator
// produces, where candidates are mutants of many base specs, not seeds of
// one). The model is optimized once, every spec runs for opt.maxSteps over
// the worker pool, and results are merged strictly in spec order — the
// outcome is bit-identical for any worker count. `perSeed` holds one row
// per spec, in spec order; its `seed` field is the spec's seed.
CampaignResult runCampaignSpecs(const FlatModel& fm, const SimOptions& opt,
                                const std::vector<TestCaseSpec>& specs);

class SpecEvaluator;

// The spec-order merge under every campaign entry point, callable on its
// own: given per-spec results for `specs` (result k describes spec k) and
// the count of completed leading specs (`completed` < specs.size() marks
// the campaign interrupted), folds the first `completed` results into a
// CampaignResult exactly as a sequential single-process run would —
// bitmap unions, diagnostic dedup, per-spec cumulative reports, contained
// failures, tier counters. The shard coordinator (src/dist) concatenates
// per-shard result vectors and calls this, which is what makes a sharded
// campaign bit-identical to a single-process one: both run the very same
// merge over the very same per-spec results in the very same order.
// Timing / one-off-cost fields (wallSeconds, compileSeconds, ...) are the
// caller's to fill; optStats is copied through.
CampaignResult mergeSpecResults(const FlatModel& model,
                                const std::vector<TestCaseSpec>& specs,
                                const std::vector<SimulationResult>& results,
                                size_t completed, const OptStats& optStats);

// The campaign loop over a CALLER-OWNED evaluator — the resident-service
// entry point. `model` must be the (already optimized, if desired) model
// the evaluator was constructed on, and `optStats` whatever the caller's
// one-time optimization pass reported. One-off cost fields of the result
// (generate/compile/load/compileWait seconds, enginesBuilt-derived
// compileCacheHit) are DELTAS across this call: with a fresh evaluator
// they equal the classic totals (runCampaignSpecs delegates here), while
// a pooled evaluator whose engines are already warm reports them as zero
// — the accmosd warm-hit guarantee made visible in the result itself.
// The run is cooperatively interruptible (see CampaignResult::interrupted).
// `wallStart` backdates wallSeconds/timeToFirstResult to include caller
// prelude work (flatten/optimize); omitted, the clock starts here.
CampaignResult runCampaignSpecsOn(
    const FlatModel& model, SpecEvaluator& evaluator, const SimOptions& opt,
    const std::vector<TestCaseSpec>& specs, const OptStats& optStats,
    std::optional<std::chrono::steady_clock::time_point> wallStart =
        std::nullopt);

// The batch-evaluation primitive under runCampaignSpecs, reusable across
// batches: the coverage-guided generator holds one evaluator for the whole
// search so compiled simulators persist between iterations.
//
// The model is used exactly as given — no optimization pass is applied
// here; callers that want the pipeline run it once up front (as
// runCampaignSpecs does). For Engine::SSE each worker keeps one persistent
// interpreter instance. For Engine::AccMoS one simulator is generated and
// compiled per distinct stimulus *shape* (TestCaseSpec::shapeKey — the
// generated source never carries the seed, a runtime argument), cached
// for the evaluator's lifetime, and executed concurrently — in the default
// dlopen exec mode all workers call into the one loaded shared library
// (its accmos_run ABI is reentrant), in process mode each run is a child
// process; the content-addressed compile cache absorbs repeated shapes
// across evaluators and runs.
//
// Each AccMoS shape is fronted by a TieredEngine, so under
// SimOptions::tier == Auto the evaluator starts answering specs on the
// interpreter tier while the per-shape compiles proceed on the background
// pool, hot-swapping to the compiled simulator mid-batch (Tier::Native
// keeps the classic synchronous build).
class SpecEvaluator {
 public:
  // Throws ModelError unless `opt` names an instrumented engine (SSE or
  // AccMoS) with coverage enabled.
  SpecEvaluator(const FlatModel& fm, const SimOptions& opt);
  ~SpecEvaluator();

  SpecEvaluator(const SpecEvaluator&) = delete;
  SpecEvaluator& operator=(const SpecEvaluator&) = delete;

  // Validates and runs every spec for opt.maxSteps, fanning the batch over
  // opt.campaign.workers workers; out[k] is spec k's result regardless of
  // worker count or interleaving.
  //
  // When `done` is non-null the batch becomes cooperatively interruptible:
  // workers stop claiming new specs once interruptRequested()
  // (sim/interrupt.h) reads true, finish every spec already claimed, and
  // done->at(k) is set for exactly the completed specs — always a
  // contiguous prefix, because claims come from a monotonic counter.
  // A null `done` (the default, and what the deterministic generator loop
  // uses) ignores the interrupt flag entirely.
  std::vector<SimulationResult> evaluate(const std::vector<TestCaseSpec>& specs,
                                         std::vector<uint8_t>* done = nullptr);

  // Re-targets the worker count for subsequent evaluate() calls. The
  // daemon's model-library pool keeps one evaluator per model and serves
  // requests with differing worker counts from it — legal because worker
  // count never changes observations, only scheduling.
  void setWorkers(size_t workers) { opt_.campaign.workers = workers; }

  // The per-shape compiled engine for `spec`, building (or async-enqueuing
  // under Tier::Auto) on first use. Exposed for the daemon's single-run
  // path, which answers `client run` straight off the pooled engine;
  // batch callers go through evaluate(). AccMoS only.
  class TieredEngine* engineFor(const TestCaseSpec& spec);

  // Approximate bytes held resident by the cached per-shape engines
  // (generated sources + loaded artifacts) — what the model-library pool
  // charges against its byte budget.
  size_t residentBytes() const;

  // AccMoS bookkeeping (all zero / true for SSE). Computed over the live
  // per-shape engines rather than snapshotted at construction, because
  // under Tier::Auto the compile cost only becomes known when the async
  // build finishes mid-batch.
  size_t enginesBuilt() const { return enginesBuilt_; }
  double generateSeconds() const;
  double compileSeconds() const;
  double loadSeconds() const;
  // Wall seconds workers actually blocked on the compiler (see
  // CampaignResult::compileWaitSeconds).
  double compileWaitSeconds() const;
  bool allCompileCacheHits() const;
  // Wall seconds from the start of the most recent evaluate() call until
  // its first spec result landed; negative before any evaluate() ran.
  // Per-call (not lifetime) so a pooled evaluator reports each request's
  // own cold/warm latency.
  double timeToFirstResultSeconds() const { return firstResultSeconds_; }

 private:
  const FlatModel& fm_;
  SimOptions opt_;
  std::map<std::string, std::unique_ptr<class TieredEngine>> engines_;
  std::vector<std::unique_ptr<class Interpreter>> interps_;  // per worker
  size_t enginesBuilt_ = 0;
  std::atomic<bool> firstResultSeen_{false};
  double firstResultSeconds_ = -1.0;
};

}  // namespace accmos
