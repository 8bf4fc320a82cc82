// The AccMoS execution paths (docs/EXECUTION.md) held to one contract:
// the dlopen in-process backend and the subprocess backend run the same
// scalar library and must produce bit-identical SimulationResults —
// outputs, coverage bitmaps, diagnostics, monitors — for single runs,
// per-seed runs on one engine, campaigns at any worker count, and
// heterogeneous generator-style spec batches. Plus the backend plumbing
// itself: automatic fallback to Process when dlopen is unavailable,
// ModelLib rejecting unloadable files, and the ACCMOS_EXEC_MODE
// environment default.
#include <gtest/gtest.h>

#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
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

// The generator's workload: a heterogeneous spec batch where different
// stimulus shapes compile different simulators (seed-only variants share
// one). Replaying the batch must give the same per-spec results on the
// subprocess and the dlopen backend.
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

  auto evaluate = [&](ExecMode mode) {
    SimOptions opt = modeOptions(mode, 200);
    opt.optimize = false;  // SpecEvaluator takes the model as given
    opt.campaign.workers = 2;
    SpecEvaluator evaluator(sim.flatModel(), opt);
    auto out = evaluator.evaluate(specs);
    EXPECT_EQ(evaluator.enginesBuilt(), 2u) << "two stimulus shapes";
    return out;
  };
  auto pr = evaluate(ExecMode::Process);
  auto dl = evaluate(ExecMode::Dlopen);
  ASSERT_EQ(pr.size(), specs.size());
  ASSERT_EQ(dl.size(), specs.size());
  for (size_t k = 0; k < specs.size(); ++k) {
    std::string label = "spec " + std::to_string(k);
    test::expectIdenticalResults(dl[k], pr[k], label);
    EXPECT_EQ(dl[k].execMode, "dlopen") << label;
    EXPECT_EQ(pr[k].execMode, "process") << label;
  }
}

// Per-seed runs on one long-lived engine per backend: the seed override
// travels at run time, so the dlopen and subprocess engines must agree
// bit-exactly on every seed, diagnostics included.
TEST(ExecModes, SeedOverridesAgreeAcrossBackends) {
  auto model = sampleOverflowModel();
  TestCaseSpec tests = sampleOverflowStimulus();
  tests.ports[0].max = 1e6;  // scale up so the overflow fires in-budget
  tests.ports[1].max = 1e6;
  Simulator sim(*model);

  AccMoSEngine dlopen(sim.flatModel(), modeOptions(ExecMode::Dlopen, 10000),
                      tests);
  AccMoSEngine process(sim.flatModel(), modeOptions(ExecMode::Process, 10000),
                       tests);

  bool sawDiagnostics = false;
  for (uint64_t seed : {1u, 5u, 42u}) {
    std::string label = "seed " + std::to_string(seed);
    SimulationResult dl = dlopen.run(0, -1.0, seed);
    EXPECT_EQ(dl.execMode, "dlopen") << label;
    SimulationResult pr = process.run(0, -1.0, seed);
    EXPECT_EQ(pr.execMode, "process") << label;
    test::expectIdenticalResults(dl, pr, label + " dlopen vs process");
    sawDiagnostics |= !dl.diagnostics.empty();
  }
  EXPECT_TRUE(sawDiagnostics) << "sample model should overflow somewhere";
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

// The generated code reads its deadline clock with
// clock_gettime(CLOCK_MONOTONIC); the host computes
// AccmosRunArgs::deadlineSeconds from std::chrono::steady_clock. The
// contract in run_abi.h needs the two to be one clock.
TEST(ExecModes, SteadyClockIsClockMonotonic) {
  for (int k = 0; k < 5; ++k) {
    const double host =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    struct timespec ts;
    ASSERT_EQ(::clock_gettime(CLOCK_MONOTONIC, &ts), 0);
    const double mono = static_cast<double>(ts.tv_sec) +
                        static_cast<double>(ts.tv_nsec) / 1e9;
    EXPECT_LT(std::abs(mono - host), 1e-3) << host << " vs " << mono;
  }
}

// A deadline that has already passed retires a dlopen run at the first
// poll, within 256 steps, with ACCMOS_ABI_ETIMEOUT.
TEST(ExecModes, PastDeadlineRetiresWithinTheFirstPoll) {
  auto t = test::unaryConstModel("Abs", -3.0);
  Simulator sim(t->model());
  AccMoSEngine engine(sim.flatModel(), modeOptions(ExecMode::Dlopen),
                      TestCaseSpec{});
  ModelLib lib(engine.exePath());
  const AccmosModelInfo& info = lib.info();

  AccmosRunArgs args{};
  args.structSize = static_cast<uint32_t>(sizeof(AccmosRunArgs));
  args.abiVersion = ACCMOS_ABI_VERSION;
  args.maxSteps = 1000000;
  args.deadlineSeconds =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count() -
      1.0;

  std::vector<uint8_t> cov[4];
  std::vector<AccmosDiagRec> diags(
      static_cast<size_t>(info.numActors * info.numDiagKinds));
  std::vector<AccmosCustomRec> customs(static_cast<size_t>(info.numCustom));
  std::vector<uint64_t> collectCounts(static_cast<size_t>(info.numCollect));
  std::vector<uint64_t> collectVals(static_cast<size_t>(info.collectValsLen));
  std::vector<uint64_t> outVals(static_cast<size_t>(info.outValsLen));
  AccmosRunResult res{};
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

  EXPECT_EQ(lib.run(args, res), ACCMOS_ABI_ETIMEOUT);
  EXPECT_EQ(res.timedOut, 1u);
  EXPECT_GT(res.stepsExecuted, 0u);
  EXPECT_LE(res.stepsExecuted, 256u);
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
