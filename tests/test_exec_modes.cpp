// The AccMoS execution paths (docs/EXECUTION.md) held to one contract:
// the batched dlopen kernel (accmos_run_batch), the scalar dlopen
// in-process backend and the subprocess backend must produce bit-identical
// SimulationResults — outputs, coverage bitmaps, diagnostics, monitors —
// for single runs, campaigns at any worker count and any batch lane width,
// and heterogeneous generator-style spec batches. Plus the backend
// plumbing itself: the batch fallback matrix (batchless library, batching
// disabled, the batch-fail fault hook — all degrade to scalar with
// execMode reporting what actually ran), automatic fallback to Process
// when dlopen is unavailable, ModelLib rejecting unloadable files, and the
// ACCMOS_EXEC_MODE / ACCMOS_BATCH environment defaults.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_models/sample_overflow.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "codegen/model_lib.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

namespace fs = std::filesystem;
using test::Tiny;

// Sets (or, with nullptr, clears) an environment variable for the
// enclosing scope only; the previous value is restored on exit, so these
// tests behave the same under an ambient ACCMOS_EXEC_MODE (CI runs the
// whole suite under both backends).
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

SimOptions modeOptions(ExecMode mode, uint64_t steps = 300) {
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = steps;
  opt.optFlag = "-O1";  // cheap compiles; the backends behave the same
  opt.execMode = mode;
  // These tests assert which native backend ran (execMode strings,
  // loadSeconds); an ambient ACCMOS_TIER=interp/auto would answer runs on
  // the interpreter tier instead. The tiered suite is test_tiered.cpp.
  opt.tier = Tier::Native;
  return opt;
}

// Execution-mode string a batched multi-seed entry point should report
// under the dlopen backend given the configured lane width.
const char* dlopenBatchMode(size_t lanes) {
  return lanes > 0 ? kExecModeDlopenBatch : "dlopen";
}

// The Sample model ships overflow-triggering stimulus: a run produces real
// diagnostics, so the differential covers the diagnostic records too.
TEST(ExecModes, SingleRunsAgreeOnTheSampleModel) {
  auto model = sampleOverflowModel();
  TestCaseSpec tests = sampleOverflowStimulus();
  tests.ports[0].max = 1e6;  // scale up so the overflow fires in-budget
  tests.ports[1].max = 1e6;

  SimulationResult dl =
      simulate(*model, modeOptions(ExecMode::Dlopen, 10000), tests);
  SimulationResult pr =
      simulate(*model, modeOptions(ExecMode::Process, 10000), tests);

  EXPECT_EQ(dl.execMode, "dlopen");
  EXPECT_EQ(pr.execMode, "process");
  EXPECT_GT(dl.loadSeconds, 0.0);
  EXPECT_EQ(pr.loadSeconds, 0.0);
  EXPECT_FALSE(dl.diagnostics.empty()) << "Sample model should overflow";
  test::expectIdenticalResults(dl, pr, "sample model");
}

// Signal monitors and compiled custom diagnostics cross the binary ABI
// through dedicated records; both backends must decode them identically.
TEST(ExecModes, MonitorsAndCustomDiagnosticsAgree) {
  Tiny t;
  t.inport("In1", 1);
  Actor& g = t.actor("G", "Gain");
  g.params().setDouble("gain", 2.0);
  t.outport("Out1", 1);
  t.wire("In1", "G");
  t.wire("G", "Out1");

  CustomDiagnostic cd;
  cd.actorPath = "T_G";  // flat path: model name + actor name
  cd.name = "spike";
  cd.kind = CustomDiagnostic::Kind::Range;
  cd.minValue = -0.5;
  cd.maxValue = 0.5;  // default stimulus is [0,1) * gain 2 -> fires often

  auto run = [&](ExecMode mode) {
    SimOptions opt = modeOptions(mode);
    opt.collectList.push_back("T_G");
    opt.customDiagnostics.push_back(cd);
    TestCaseSpec tests;
    tests.seed = 42;
    return simulate(t.model(), opt, tests);
  };
  SimulationResult dl = run(ExecMode::Dlopen);
  SimulationResult pr = run(ExecMode::Process);

  ASSERT_EQ(dl.collected.size(), 1u);
  EXPECT_GT(dl.collected[0].count, 0u);
  EXPECT_NE(dl.findDiag("T_G", DiagKind::Custom), nullptr);
  test::expectIdenticalResults(dl, pr, "monitors+custom");
}

// Campaigns fan concurrent runs over one engine: in dlopen mode that is
// many threads calling accmos_run() into one loaded library. The merged
// outcome must be identical across backends and worker counts.
TEST(ExecModes, CampaignsAgreeAcrossBackendsAndWorkerCounts) {
  auto model = sampleOverflowModel();
  TestCaseSpec base = sampleOverflowStimulus();
  Simulator sim(*model);
  std::vector<uint64_t> seeds = {1000, 1037, 1074, 1111, 1148, 1185};

  CampaignResult ref;  // dlopen, 1 worker
  bool haveRef = false;
  for (ExecMode mode : {ExecMode::Dlopen, ExecMode::Process}) {
    for (size_t workers : {1u, 2u, 4u}) {
      SimOptions opt = modeOptions(mode, 200);
      opt.campaign.workers = workers;
      CampaignResult cr = runCampaign(sim.flatModel(), opt, base, seeds);
      if (!haveRef) {
        ref = cr;
        haveRef = true;
        EXPECT_GT(ref.loadSeconds, 0.0);
        continue;
      }
      std::string label = std::string(execModeName(mode)) + "/w" +
                          std::to_string(workers);
      EXPECT_EQ(cr.cumulative.toString(), ref.cumulative.toString()) << label;
      ASSERT_EQ(cr.perSeed.size(), ref.perSeed.size()) << label;
      for (size_t k = 0; k < cr.perSeed.size(); ++k) {
        EXPECT_EQ(cr.perSeed[k].coverage.toString(),
                  ref.perSeed[k].coverage.toString())
            << label << " seed " << cr.perSeed[k].seed;
        EXPECT_EQ(cr.perSeed[k].cumulative.toString(),
                  ref.perSeed[k].cumulative.toString())
            << label << " seed " << cr.perSeed[k].seed;
      }
      ASSERT_EQ(cr.diagnostics.size(), ref.diagnostics.size()) << label;
      for (size_t k = 0; k < cr.diagnostics.size(); ++k) {
        EXPECT_EQ(cr.diagnostics[k].actorPath, ref.diagnostics[k].actorPath);
        EXPECT_EQ(cr.diagnostics[k].firstStep, ref.diagnostics[k].firstStep);
        EXPECT_EQ(cr.diagnostics[k].count, ref.diagnostics[k].count);
      }
      for (CovMetric m : kAllCovMetrics) {
        EXPECT_EQ(cr.mergedBitmaps.bits(m), ref.mergedBitmaps.bits(m))
            << label << " merged bitmap " << covMetricName(m);
      }
    }
  }
}

// The generator's workload: a heterogeneous spec batch where different
// stimulus shapes compile different simulators (seed-only variants share
// one). Replaying the batch must give the same per-spec results on the
// subprocess backend, the scalar dlopen backend (lanes 0) and the batched
// dlopen kernel (lanes 3 — smaller than the batch, so same-shape specs
// fuse and the lone odd shape runs as a one-lane batch).
TEST(ExecModes, HeterogeneousSpecBatchesAgree) {
  auto model = sampleOverflowModel();
  Simulator sim(*model);
  TestCaseSpec base = sampleOverflowStimulus();

  std::vector<TestCaseSpec> specs;
  for (uint64_t seed : {7u, 8u}) {  // one shape, two seeds
    TestCaseSpec s = base;
    s.seed = seed;
    specs.push_back(s);
  }
  TestCaseSpec wide = base;  // a second shape
  wide.defaultPort.min = -2.0;
  wide.defaultPort.max = 2.0;
  for (auto& p : wide.ports) {
    p.min = -2.0;
    p.max = 2.0;
    p.sequence.clear();
  }
  wide.seed = 9;
  specs.push_back(wide);

  auto runBatch = [&](ExecMode mode, size_t lanes) {
    SimOptions opt = modeOptions(mode, 200);
    opt.optimize = false;  // SpecEvaluator takes the model as given
    opt.campaign.workers = 2;
    opt.batchLanes = lanes;
    SpecEvaluator evaluator(sim.flatModel(), opt);
    auto out = evaluator.evaluate(specs);
    EXPECT_EQ(evaluator.enginesBuilt(), 2u) << "two stimulus shapes";
    return out;
  };
  auto pr = runBatch(ExecMode::Process, 0);
  ASSERT_EQ(pr.size(), specs.size());
  for (size_t lanes : {0u, 3u}) {
    auto dl = runBatch(ExecMode::Dlopen, lanes);
    ASSERT_EQ(dl.size(), specs.size());
    for (size_t k = 0; k < specs.size(); ++k) {
      std::string label =
          "lanes " + std::to_string(lanes) + " spec " + std::to_string(k);
      test::expectIdenticalResults(dl[k], pr[k], label);
      EXPECT_EQ(dl[k].execMode, dlopenBatchMode(lanes)) << label;
      EXPECT_EQ(pr[k].execMode, "process") << label;
    }
  }
}

// The tentpole differential on single runs: AccMoSEngine::runBatch() fused
// through the accmos_run_batch kernel vs the scalar dlopen run() vs the
// subprocess backend, one seed at a time. Every metric must agree
// bit-exactly; only the batch path may report "dlopen-batch".
TEST(ExecModes, BatchedSingleRunsAgreeWithScalarAndProcess) {
  auto model = sampleOverflowModel();
  TestCaseSpec tests = sampleOverflowStimulus();
  tests.ports[0].max = 1e6;  // scale up so the overflow fires in-budget
  tests.ports[1].max = 1e6;
  Simulator sim(*model);

  SimOptions batchOpt = modeOptions(ExecMode::Dlopen, 10000);
  batchOpt.batchLanes = 4;
  AccMoSEngine batched(sim.flatModel(), batchOpt, tests);
  ASSERT_EQ(batched.batchLanes(), 4u) << "library should carry the kernel";

  SimOptions scalarOpt = modeOptions(ExecMode::Dlopen, 10000);
  scalarOpt.batchLanes = 0;
  AccMoSEngine scalar(sim.flatModel(), scalarOpt, tests);
  EXPECT_EQ(scalar.batchLanes(), 0u) << "batchless library";

  AccMoSEngine process(sim.flatModel(), modeOptions(ExecMode::Process, 10000),
                       tests);

  bool sawDiagnostics = false;
  for (uint64_t seed : {1u, 5u, 42u}) {
    std::string label = "seed " + std::to_string(seed);
    std::vector<SimulationResult> bt = batched.runBatch({seed});
    ASSERT_EQ(bt.size(), 1u) << label;
    EXPECT_EQ(bt[0].execMode, kExecModeDlopenBatch) << label;
    SimulationResult sc = scalar.run(0, -1.0, seed);
    EXPECT_EQ(sc.execMode, "dlopen") << label;
    SimulationResult pr = process.run(0, -1.0, seed);
    EXPECT_EQ(pr.execMode, "process") << label;
    test::expectIdenticalResults(bt[0], sc, label + " batch vs scalar");
    test::expectIdenticalResults(bt[0], pr, label + " batch vs process");
    sawDiagnostics |= !bt[0].diagnostics.empty();
  }
  EXPECT_TRUE(sawDiagnostics) << "sample model should overflow somewhere";
}

// Campaigns over the batched kernel: 6 seeds swept across lane widths
// {1, 3, 8, 5} — one-lane batches, a width that splits the seed list
// unevenly, a width wider than the whole campaign, and a non-divisor with
// a short tail chunk — times worker counts {1, 2, 4}. Every combination
// must reproduce the subprocess reference bit-exactly.
TEST(ExecModes, BatchedCampaignsAgreeAcrossLanesAndWorkerCounts) {
  auto model = sampleOverflowModel();
  TestCaseSpec base = sampleOverflowStimulus();
  Simulator sim(*model);
  std::vector<uint64_t> seeds = {1000, 1037, 1074, 1111, 1148, 1185};

  SimOptions refOpt = modeOptions(ExecMode::Process, 200);
  refOpt.batchLanes = 0;
  CampaignResult ref = runCampaign(sim.flatModel(), refOpt, base, seeds);

  for (size_t lanes : {1u, 3u, 8u, 5u}) {
    for (size_t workers : {1u, 2u, 4u}) {
      SimOptions opt = modeOptions(ExecMode::Dlopen, 200);
      opt.batchLanes = lanes;
      opt.campaign.workers = workers;
      CampaignResult cr = runCampaign(sim.flatModel(), opt, base, seeds);
      std::string label =
          "lanes " + std::to_string(lanes) + "/w" + std::to_string(workers);
      EXPECT_EQ(cr.cumulative.toString(), ref.cumulative.toString()) << label;
      ASSERT_EQ(cr.perSeed.size(), ref.perSeed.size()) << label;
      for (size_t k = 0; k < cr.perSeed.size(); ++k) {
        EXPECT_EQ(cr.perSeed[k].steps, ref.perSeed[k].steps)
            << label << " seed " << cr.perSeed[k].seed;
        EXPECT_EQ(cr.perSeed[k].coverage.toString(),
                  ref.perSeed[k].coverage.toString())
            << label << " seed " << cr.perSeed[k].seed;
        EXPECT_EQ(cr.perSeed[k].cumulative.toString(),
                  ref.perSeed[k].cumulative.toString())
            << label << " seed " << cr.perSeed[k].seed;
        EXPECT_EQ(cr.perSeed[k].diagnosticKinds,
                  ref.perSeed[k].diagnosticKinds)
            << label << " seed " << cr.perSeed[k].seed;
      }
      ASSERT_EQ(cr.diagnostics.size(), ref.diagnostics.size()) << label;
      for (size_t k = 0; k < cr.diagnostics.size(); ++k) {
        EXPECT_EQ(cr.diagnostics[k].actorPath, ref.diagnostics[k].actorPath)
            << label;
        EXPECT_EQ(cr.diagnostics[k].firstStep, ref.diagnostics[k].firstStep)
            << label;
        EXPECT_EQ(cr.diagnostics[k].count, ref.diagnostics[k].count) << label;
      }
      for (CovMetric m : kAllCovMetrics) {
        EXPECT_EQ(cr.mergedBitmaps.bits(m), ref.mergedBitmaps.bits(m))
            << label << " merged bitmap " << covMetricName(m);
      }
    }
  }
}

// The batch fallback matrix: every way runBatch() can be denied the fused
// kernel must degrade to per-seed scalar runs with identical results, and
// SimulationResult::execMode must report the path that actually ran.
TEST(ExecModes, BatchFallbackMatrixDegradesToScalar) {
  auto model = sampleOverflowModel();
  TestCaseSpec tests = sampleOverflowStimulus();
  Simulator sim(*model);
  std::vector<uint64_t> seeds = {3, 4, 5};

  // Reference: the fused kernel.
  SimOptions batchOpt = modeOptions(ExecMode::Dlopen, 300);
  batchOpt.batchLanes = 4;
  AccMoSEngine batched(sim.flatModel(), batchOpt, tests);
  ASSERT_EQ(batched.batchLanes(), 4u);
  std::vector<SimulationResult> ref = batched.runBatch(seeds);
  ASSERT_EQ(ref.size(), seeds.size());
  for (const auto& r : ref) EXPECT_EQ(r.execMode, kExecModeDlopenBatch);

  auto expectScalarFallback = [&](AccMoSEngine& engine, const char* mode,
                                  const std::string& label) {
    EXPECT_EQ(engine.batchLanes(), 0u) << label;
    std::vector<SimulationResult> out = engine.runBatch(seeds);
    ASSERT_EQ(out.size(), seeds.size()) << label;
    for (size_t k = 0; k < out.size(); ++k) {
      EXPECT_EQ(out[k].execMode, mode) << label;
      test::expectIdenticalResults(out[k], ref[k],
                             label + " seed " + std::to_string(seeds[k]));
    }
  };

  {
    // Library compiled without the kernel (batchLanes == 0 at compile
    // time): runBatch() must notice the missing capability, not trust the
    // option. Also covers "library without the accmos_run_batch symbol" —
    // a batchless compile exports no such symbol.
    SimOptions opt = modeOptions(ExecMode::Dlopen, 300);
    opt.batchLanes = 0;
    AccMoSEngine engine(sim.flatModel(), opt, tests);
    expectScalarFallback(engine, "dlopen", "batchless library");
  }
  {
    // batch-fail: the hook that simulates a defective kernel; read per
    // call, so an engine built with the capability still falls back.
    EnvGuard fail("ACCMOS_FAULT", "batch-fail");
    expectScalarFallback(batched, "dlopen", "batch-fail");
  }
  // ...and the hook releases: the same engine batches again.
  EXPECT_EQ(batched.batchLanes(), 4u);
  {
    // dlopen unavailable entirely: runBatch() degrades all the way to the
    // subprocess backend.
    EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
    SimOptions opt = modeOptions(ExecMode::Dlopen, 300);
    opt.batchLanes = 4;
    AccMoSEngine engine(sim.flatModel(), opt, tests);
    EXPECT_EQ(engine.execModeUsed(), ExecMode::Process);
    expectScalarFallback(engine, "process", "dlopen failure");
  }
}

// ACCMOS_BATCH picks the default lane width for options constructed after
// it is set; 0/off disables batching, numbers clamp to 64.
TEST(ExecModes, EnvironmentSelectsTheDefaultBatchLanes) {
  EnvGuard clear("ACCMOS_BATCH", nullptr);
  EXPECT_EQ(defaultBatchLanes(), 8u);
  {
    EnvGuard env("ACCMOS_BATCH", "0");
    EXPECT_EQ(defaultBatchLanes(), 0u);
    SimOptions opt;
    EXPECT_EQ(opt.batchLanes, 0u);
  }
  {
    EnvGuard env("ACCMOS_BATCH", "off");
    EXPECT_EQ(defaultBatchLanes(), 0u);
  }
  {
    EnvGuard env("ACCMOS_BATCH", "on");
    EXPECT_EQ(defaultBatchLanes(), 8u);
  }
  {
    EnvGuard env("ACCMOS_BATCH", "16");
    EXPECT_EQ(defaultBatchLanes(), 16u);
    SimOptions opt;
    EXPECT_EQ(opt.batchLanes, 16u);
  }
  {
    EnvGuard env("ACCMOS_BATCH", "4096");
    EXPECT_EQ(defaultBatchLanes(), 64u) << "clamped";
  }
  EXPECT_EQ(defaultBatchLanes(), 8u);
}

// The time budget is a soft stop checked every 1024 steps, so any budget
// shorter than 1024 steps' work stops both backends at exactly step 1024.
// The process backend must receive it at full precision: a sub-microsecond
// budget printed with six decimals reads as 0, i.e. unlimited.
TEST(ExecModes, SubMicrosecondBudgetReachesTheRunner) {
  auto t = test::unaryConstModel("Abs", -3.0);
  for (ExecMode mode : {ExecMode::Dlopen, ExecMode::Process}) {
    SimOptions opt = modeOptions(mode, 200000);
    opt.timeBudgetSec = 1e-7;
    SimulationResult r = simulate(t->model(), opt, TestCaseSpec{});
    EXPECT_EQ(r.stepsExecuted, 1024u) << execModeName(mode);
  }
}

// When the library cannot be loaded the engine must degrade to the
// subprocess backend, not fail — same results, execMode records the truth.
TEST(ExecModes, DlopenFailureFallsBackToProcess) {
  auto t = test::unaryConstModel("Abs", -3.0);
  Simulator sim(t->model());
  TestCaseSpec tests;

  SimulationResult clean =
      simulate(t->model(), modeOptions(ExecMode::Dlopen), tests);
  EXPECT_EQ(clean.execMode, "dlopen");

  EnvGuard fail("ACCMOS_FAULT", "dlopen-fail");
  AccMoSEngine engine(sim.flatModel(), modeOptions(ExecMode::Dlopen),
                      tests);
  EXPECT_EQ(engine.execModeUsed(), ExecMode::Process);
  EXPECT_EQ(engine.loadSeconds(), 0.0);
  SimulationResult fb = engine.run();
  EXPECT_EQ(fb.execMode, "process");
  test::expectSameOutputs(clean, fb, "fallback");
}

// ModelLib must reject files dlopen cannot load with a catchable
// CompileError naming the path, never a crash or a null handle.
TEST(ExecModes, ModelLibRejectsUnloadableFiles) {
  fs::path garbage = fs::temp_directory_path() /
                     ("accmos_not_a_lib_" + std::to_string(::getpid()) +
                      ".so");
  {
    std::ofstream out(garbage);
    out << "this is not an ELF shared object\n";
  }
  try {
    ModelLib lib(garbage.string());
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find(garbage.string()),
              std::string::npos)
        << e.what();
  }
  fs::remove(garbage);
  EXPECT_THROW(ModelLib("/nonexistent/path/model.so"), CompileError);
}

// ACCMOS_EXEC_MODE picks the default backend for options constructed after
// it is set; anything but "process" means dlopen.
TEST(ExecModes, EnvironmentSelectsTheDefaultBackend) {
  EnvGuard clear("ACCMOS_EXEC_MODE", nullptr);
  EXPECT_EQ(defaultExecMode(), ExecMode::Dlopen);
  {
    EnvGuard env("ACCMOS_EXEC_MODE", "process");
    EXPECT_EQ(defaultExecMode(), ExecMode::Process);
    SimOptions opt;
    EXPECT_EQ(opt.execMode, ExecMode::Process);
  }
  {
    EnvGuard env("ACCMOS_EXEC_MODE", "dlopen");
    EXPECT_EQ(defaultExecMode(), ExecMode::Dlopen);
  }
  EXPECT_EQ(defaultExecMode(), ExecMode::Dlopen);
}

}  // namespace
}  // namespace accmos
