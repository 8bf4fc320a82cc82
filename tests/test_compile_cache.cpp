// The content-addressed compile cache: identical (source, flags) hits the
// cache and skips the compiler; different opt level or source misses; a
// corrupted or truncated cached binary is detected by the size+hash
// sidecar and falls back to a recompile — never to executing the damaged
// file. The source carries no run parameters, so sweeping seeds and step
// counts hits one entry. One artifact per model: campaigns, process runs
// and fault-ladder fallbacks run the library a single run compiled and
// never invoke the compiler again.
// Plus the CompilerDriver error-path regression: uncompilable source
// surfaces compiler stderr through a catchable ModelError.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_models/sample_overflow.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "opt/pipeline.h"
#include "parser/model_io.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace accmos {
namespace {

namespace fs = std::filesystem;
using test::Tiny;

// Each test gets a private cache directory via ACCMOS_CACHE_DIR, so hits
// and misses are fully deterministic regardless of prior runs.
class CompileCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("accmos_cache_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(dir_);
    ::setenv("ACCMOS_CACHE_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("ACCMOS_CACHE_DIR");
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

std::unique_ptr<Tiny> gainModel(double gain) {
  auto t = std::make_unique<Tiny>();
  t->inport("In1", 1);
  Actor& g = t->actor("G", "Gain");
  g.params().setDouble("gain", gain);
  t->outport("Out1", 1);
  t->wire("In1", "G");
  t->wire("G", "Out1");
  return t;
}

SimOptions accOptions(const std::string& optFlag = "-O1") {
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 50;
  opt.optFlag = optFlag;  // cheap to compile; the cache behaves the same
  return opt;
}

TEST_F(CompileCacheTest, SecondConstructionHitsAndReusesBinary) {
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  SimOptions opt = accOptions();
  TestCaseSpec tests;

  AccMoSEngine cold(sim.flatModel(), opt, tests);
  EXPECT_FALSE(cold.compileCacheHit());
  EXPECT_GT(cold.compileSeconds(), 0.0);
  auto coldRes = cold.run();

  AccMoSEngine warm(sim.flatModel(), opt, tests);
  EXPECT_TRUE(warm.compileCacheHit());
  EXPECT_LT(warm.compileSeconds(), cold.compileSeconds());
  EXPECT_LT(warm.compileSeconds(), 0.1);  // verification, not compilation
  // The binary path is the cache entry, shared across constructions.
  EXPECT_EQ(warm.exePath(), cold.exePath());
  EXPECT_NE(warm.exePath().find(dir_.string()), std::string::npos);

  auto warmRes = warm.run();
  test::expectSameOutputs(coldRes, warmRes, "cache hit");
  EXPECT_EQ(coldRes.stepsExecuted, warmRes.stepsExecuted);
}

TEST_F(CompileCacheTest, DifferentOptLevelMisses) {
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  TestCaseSpec tests;
  AccMoSEngine o1(sim.flatModel(), accOptions("-O1"), tests);
  AccMoSEngine o0(sim.flatModel(), accOptions("-O0"), tests);
  EXPECT_FALSE(o1.compileCacheHit());
  EXPECT_FALSE(o0.compileCacheHit());
  EXPECT_NE(o1.exePath(), o0.exePath());
  // Each opt level now has its own entry; both hit on reconstruction.
  AccMoSEngine o1again(sim.flatModel(), accOptions("-O1"), tests);
  EXPECT_TRUE(o1again.compileCacheHit());
}

TEST_F(CompileCacheTest, DifferentSourceMisses) {
  auto a = gainModel(2.0);
  auto b = gainModel(3.0);  // different parameter -> different source
  Simulator simA(a->model());
  Simulator simB(b->model());
  TestCaseSpec tests;
  AccMoSEngine ea(simA.flatModel(), accOptions(), tests);
  AccMoSEngine eb(simB.flatModel(), accOptions(), tests);
  EXPECT_FALSE(ea.compileCacheHit());
  EXPECT_FALSE(eb.compileCacheHit());
  EXPECT_NE(ea.exePath(), eb.exePath());
}

TEST_F(CompileCacheTest, CorruptedEntryFallsBackToRecompile) {
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  SimOptions opt = accOptions();
  TestCaseSpec tests;
  AccMoSEngine cold(sim.flatModel(), opt, tests);
  auto coldRes = cold.run();

  // Truncate the cached binary behind the cache's back.
  fs::path bin;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bin") bin = entry.path();
  }
  ASSERT_FALSE(bin.empty());
  auto size = fs::file_size(bin);
  fs::resize_file(bin, size / 2);

  // The sidecar no longer matches: detected as a miss, recompiled, and the
  // entry is healed for the construction after that.
  AccMoSEngine recompiled(sim.flatModel(), opt, tests);
  EXPECT_FALSE(recompiled.compileCacheHit());
  auto res = recompiled.run();
  test::expectSameOutputs(coldRes, res, "recompiled after corruption");

  AccMoSEngine healed(sim.flatModel(), opt, tests);
  EXPECT_TRUE(healed.compileCacheHit());
}

TEST_F(CompileCacheTest, TruncatedToZeroAlsoRecovers) {
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  SimOptions opt = accOptions();
  TestCaseSpec tests;
  AccMoSEngine cold(sim.flatModel(), opt, tests);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bin") {
      std::ofstream wipe(entry.path(), std::ios::trunc);  // 0 bytes
    }
  }
  AccMoSEngine recompiled(sim.flatModel(), opt, tests);
  EXPECT_FALSE(recompiled.compileCacheHit());
  auto res = recompiled.run();
  EXPECT_EQ(res.stepsExecuted, opt.maxSteps);
}

TEST_F(CompileCacheTest, OptOutDisablesReuse) {
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  SimOptions opt = accOptions();
  opt.compileCache = false;
  TestCaseSpec tests;
  AccMoSEngine first(sim.flatModel(), opt, tests);
  AccMoSEngine second(sim.flatModel(), opt, tests);
  EXPECT_FALSE(first.compileCacheHit());
  EXPECT_FALSE(second.compileCacheHit());
  // Nothing was published to the cache directory.
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 0u);
}

// The optimizer changes the generated source (folded/eliminated actors emit
// differently), so optimized and unoptimized emissions must land in
// distinct cache entries — sharing one would execute the wrong binary.
TEST_F(CompileCacheTest, OptimizedEmissionGetsItsOwnCacheEntry) {
  auto t = std::make_unique<Tiny>();
  Actor& c = t->actor("C", "Constant");
  c.params().setDouble("value", 3.0);
  Actor& g = t->actor("G", "Gain");
  g.params().setDouble("gain", 2.0);
  t->outport("Out1", 1);
  t->wire("C", "G");
  t->wire("G", "Out1");
  Simulator sim(t->model());
  SimOptions opt = accOptions();
  opt.coverage = false;  // let folding + DCE actually rewrite the model
  opt.diagnosis = false;
  TestCaseSpec tests;

  OptStats st;
  FlatModel optimized = optimizeModel(sim.flatModel(), opt, &st);
  ASSERT_GT(st.actorsFolded, 0) << "expected G to fold to a Constant";

  AccMoSEngine plain(sim.flatModel(), opt, tests);
  AccMoSEngine opted(optimized, opt, tests);
  EXPECT_NE(plain.generatedSource(), opted.generatedSource());
  EXPECT_NE(CompilerDriver::cacheKey(plain.generatedSource(), opt.optFlag),
            CompilerDriver::cacheKey(opted.generatedSource(), opt.optFlag));
  EXPECT_NE(plain.exePath(), opted.exePath());
  EXPECT_FALSE(plain.compileCacheHit());
  EXPECT_FALSE(opted.compileCacheHit());

  // Different binaries, identical observable behaviour.
  auto a = plain.run();
  auto b = opted.run();
  test::expectSameOutputs(a, b, "optimized vs plain emission");
}

TEST_F(CompileCacheTest, CacheKeyIsStable) {
  // Content addressing: the key is a pure function of source + flags.
  EXPECT_EQ(CompilerDriver::cacheKey("int main(){}", "-O2"),
            CompilerDriver::cacheKey("int main(){}", "-O2"));
  EXPECT_NE(CompilerDriver::cacheKey("int main(){}", "-O2"),
            CompilerDriver::cacheKey("int main(){}", "-O3"));
  EXPECT_NE(CompilerDriver::cacheKey("int main(){}", "-O2"),
            CompilerDriver::cacheKey("int main(){ }", "-O2"));
}

// Every compile produces the one artifact kind, a shared library, under
// one content address: the kind argument is the default, the output is an
// ELF shared object (e_type ET_DYN), and a recompile of the same source
// hits the entry.
TEST_F(CompileCacheTest, SharedLibIsTheOnlyArtifact) {
  const std::string src = "int f(){ return 0; }";
  EXPECT_EQ(CompilerDriver::cacheKey(src, "-O2"),
            CompilerDriver::cacheKey(src, "-O2", ArtifactKind::SharedLib));

  CompilerDriver driver;
  auto lib = driver.compile(src, "only", "-O0");
  EXPECT_FALSE(lib.cacheHit);
  std::string head(18, '\0');
  std::ifstream(lib.exePath, std::ios::binary).read(head.data(), 18);
  EXPECT_EQ(head.substr(0, 4), "\x7f" "ELF");
  EXPECT_EQ(head[16], 3) << "not ET_DYN";
  auto again = driver.compile(src, "only", "-O0", ArtifactKind::SharedLib);
  EXPECT_TRUE(again.cacheHit);
  EXPECT_EQ(again.exePath, lib.exePath);
}

// In1 -> Gain -> Saturation -> Out1: a model with decision coverage, whose
// outputs depend on the stimulus seed.
std::unique_ptr<Tiny> saturatedGainModel() {
  auto t = std::make_unique<Tiny>();
  t->inport("In1", 1);
  Actor& g = t->actor("G", "Gain");
  g.params().setDouble("gain", 2.0);
  Actor& s = t->actor("S", "Saturation");
  s.params().setDouble("min", 0.5);
  s.params().setDouble("max", 1.5);
  t->outport("Out1", 1);
  t->wire("In1", "G");
  t->wire("G", "S");
  t->wire("S", "Out1");
  return t;
}

// A native single run on the given backend. The tier is pinned so an
// ambient ACCMOS_TIER cannot answer it on the interpreter.
SimOptions singleRunOptions(ExecMode mode) {
  SimOptions opt = accOptions();
  opt.execMode = mode;
  opt.tier = Tier::Native;
  return opt;
}

size_t cacheEntries(const fs::path& dir) {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".bin") ++n;
  }
  return n;
}

// The generated source — and with it the compile-cache key — is a function
// of the model, the instrumentation, the stimulus shape and the fault plan.
// Seed, steps, budget, deadline and step budget travel at run time, so
// sweeping them must never recompile.
TEST_F(CompileCacheTest, GeneratedSourceIgnoresRunParameters) {
  auto t = saturatedGainModel();
  Simulator sim(t->model());
  const SimOptions opt = accOptions();
  const TestCaseSpec tests;
  auto sourceOf = [&](const SimOptions& o, const TestCaseSpec& tc) {
    return AccMoSEngine::generate(sim.flatModel(), o, tc).source;
  };
  const std::string base = sourceOf(opt, tests);
  const uint64_t baseKey = CompilerDriver::cacheKey(base, opt.optFlag);

  using Edit = std::function<void(SimOptions&, TestCaseSpec&)>;
  const std::vector<std::pair<std::string, Edit>> runParams = {
      {"seed", [](SimOptions&, TestCaseSpec& tc) { tc.seed = 987654321; }},
      {"maxSteps", [](SimOptions& o, TestCaseSpec&) { o.maxSteps = 12345; }},
      {"timeBudgetSec",
       [](SimOptions& o, TestCaseSpec&) { o.timeBudgetSec = 2.5; }},
      {"runTimeoutSec",
       [](SimOptions& o, TestCaseSpec&) { o.runTimeoutSec = 7.0; }},
      {"stepBudget", [](SimOptions& o, TestCaseSpec&) { o.stepBudget = 99; }},
  };
  for (const auto& [name, edit] : runParams) {
    SimOptions o = opt;
    TestCaseSpec tc = tests;
    edit(o, tc);
    const std::string src = sourceOf(o, tc);
    // EXPECT_TRUE, not EXPECT_EQ: a mismatch would print both sources.
    EXPECT_TRUE(src == base) << name << " leaked into the generated source";
    EXPECT_EQ(CompilerDriver::cacheKey(src, o.optFlag), baseKey) << name;
  }

  // Negative control: what the source is made of still changes the key.
  const std::vector<std::pair<std::string, Edit>> shapeParams = {
      {"stimulus range",
       [](SimOptions&, TestCaseSpec& tc) { tc.defaultPort.max = 4.0; }},
      {"coverage", [](SimOptions& o, TestCaseSpec&) { o.coverage = false; }},
      {"custom diagnostic",
       [](SimOptions& o, TestCaseSpec&) {
         CustomDiagnostic cd;
         cd.actorPath = "T_G";
         cd.name = "spike";
         cd.kind = CustomDiagnostic::Kind::Range;
         cd.minValue = -0.5;
         cd.maxValue = 0.5;
         o.customDiagnostics.push_back(cd);
       }},
  };
  for (const auto& [name, edit] : shapeParams) {
    SimOptions o = opt;
    TestCaseSpec tc = tests;
    edit(o, tc);
    EXPECT_NE(CompilerDriver::cacheKey(sourceOf(o, tc), o.optFlag), baseKey)
        << name << " must be part of the generated source";
  }
}

// A warm single run with a fresh seed and step count is a cache hit on
// both backends: no compiler invocation, and the observations still match
// the SSE interpreter's. Both backends run the one scalar library, so only
// the first cold run (dlopen) compiles.
TEST_F(CompileCacheTest, WarmSingleRunWithNewSeedAndStepsDoesNotCompile) {
  auto t = saturatedGainModel();
  for (ExecMode mode : {ExecMode::Dlopen, ExecMode::Process}) {
    const std::string label(execModeName(mode));
    SimOptions opt = singleRunOptions(mode);
    TestCaseSpec tests;
    tests.seed = 11;
    const uint64_t cold0 = CompilerDriver::compilerInvocations();
    SimulationResult cold = simulate(t->model(), opt, tests);
    EXPECT_EQ(CompilerDriver::compilerInvocations() - cold0,
              mode == ExecMode::Dlopen ? 1u : 0u)
        << label;
    const size_t entries = cacheEntries(dir_);

    opt.maxSteps = 77;
    tests.seed = 12345;
    const uint64_t warm0 = CompilerDriver::compilerInvocations();
    SimulationResult warm = simulate(t->model(), opt, tests);
    EXPECT_EQ(CompilerDriver::compilerInvocations() - warm0, 0u) << label;
    EXPECT_EQ(cacheEntries(dir_), entries) << label;
    EXPECT_LT(warm.compileSeconds, 0.1) << label << ": verification only";
    EXPECT_EQ(warm.execMode, label);
    EXPECT_EQ(warm.stepsExecuted, 77u) << label;

    SimOptions sseOpt = opt;
    sseOpt.engine = Engine::SSE;
    test::expectIdenticalResults(simulate(t->model(), sseOpt, tests), warm,
                                 label + " warm run vs SSE");
  }
}

// Every model compiles one library: a campaign after single runs of the
// same model is a compile-cache hit, and its per-seed results are the
// single runs folded through the campaign's own merge.
TEST_F(CompileCacheTest, CampaignReusesTheSingleRunLibrary) {
  auto t = saturatedGainModel();
  Simulator sim(t->model());
  SimOptions opt = singleRunOptions(ExecMode::Dlopen);
  opt.campaign.workers = 2;

  std::vector<TestCaseSpec> specs(8);
  std::vector<uint64_t> seeds;
  std::vector<SimulationResult> singles;
  const uint64_t inv0 = CompilerDriver::compilerInvocations();
  for (size_t k = 0; k < specs.size(); ++k) {
    specs[k].seed = 300 + 7 * k;
    seeds.push_back(specs[k].seed);
    singles.push_back(sim.run(opt, specs[k]));
    EXPECT_EQ(singles.back().execMode, "dlopen");
  }
  EXPECT_EQ(CompilerDriver::compilerInvocations() - inv0, 1u);
  EXPECT_EQ(cacheEntries(dir_), 1u);

  const uint64_t inv1 = CompilerDriver::compilerInvocations();
  CampaignResult campaign =
      runCampaign(sim.flatModel(), opt, TestCaseSpec{}, seeds);
  EXPECT_EQ(CompilerDriver::compilerInvocations() - inv1, 0u)
      << "the campaign must reuse the single-run library";
  EXPECT_EQ(cacheEntries(dir_), 1u);
  ASSERT_EQ(campaign.perSeed.size(), singles.size());
  for (const auto& row : campaign.perSeed) EXPECT_EQ(row.execMode, "dlopen");

  // Folding the single runs through the campaign's own merge must give
  // the campaign's result: same rows, bitmaps and diagnostics.
  OptStats optStats;
  const FlatModel model =
      opt.optimize ? optimizeModel(sim.flatModel(), opt, &optStats)
                   : sim.flatModel();
  const CampaignResult fromSingles =
      mergeSpecResults(model, specs, singles, specs.size(), optStats);
  for (size_t k = 0; k < singles.size(); ++k) {
    const CampaignSeedResult& a = campaign.perSeed[k];
    const CampaignSeedResult& b = fromSingles.perSeed[k];
    EXPECT_EQ(a.seed, b.seed) << k;
    EXPECT_EQ(a.steps, b.steps) << k;
    EXPECT_EQ(a.coverage.toString(), b.coverage.toString()) << k;
    EXPECT_EQ(a.cumulative.toString(), b.cumulative.toString()) << k;
    EXPECT_EQ(a.diagnosticKinds, b.diagnosticKinds) << k;
  }
  for (CovMetric m : kAllCovMetrics) {
    EXPECT_EQ(campaign.mergedBitmaps.bits(m), fromSingles.mergedBitmaps.bits(m))
        << covMetricName(m);
  }
  ASSERT_EQ(campaign.diagnostics.size(), fromSingles.diagnostics.size());
  for (size_t k = 0; k < campaign.diagnostics.size(); ++k) {
    EXPECT_EQ(campaign.diagnostics[k].actorPath,
              fromSingles.diagnostics[k].actorPath);
    EXPECT_EQ(campaign.diagnostics[k].kind, fromSingles.diagnostics[k].kind);
    EXPECT_EQ(campaign.diagnostics[k].firstStep,
              fromSingles.diagnostics[k].firstStep);
    EXPECT_EQ(campaign.diagnostics[k].count, fromSingles.diagnostics[k].count);
  }
}

// Regression for the error paths: a deliberately uncompilable source must
// produce a CompileError (a ModelError) whose message carries the
// compiler's actual stderr, not just an exit code.
TEST_F(CompileCacheTest, UncompilableSourceSurfacesCompilerStderr) {
  CompilerDriver driver;
  try {
    driver.compile("int f() { return not_a_symbol; }", "broken", "-O0");
    FAIL() << "expected CompileError";
  } catch (const ModelError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("compiler output"), std::string::npos) << msg;
    EXPECT_NE(msg.find("not_a_symbol"), std::string::npos)
        << "compiler stderr not surfaced: " << msg;
  }
  // A failed compilation must not poison the cache.
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 0u);
}

TEST_F(CompileCacheTest, MissingBinaryRunFails) {
  CompilerDriver driver;
  EXPECT_THROW(driver.run((fs::path(driver.dir()) / "nonexistent").string(),
                          {"1", "0", "1"}),
               CompileError);
}

// Scoped environment override (same idiom as test_fault_containment.cpp).
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

// Cross-process single-flight: two separate processes cold-compile the
// SAME model against ONE shared cache directory at the same time. The
// lockfile claim in CompilerDriver must hold the pair to exactly one
// compiler invocation — the loser waits on the winner's publication and
// loads the published artifact instead of duplicating the compile. This
// is the guarantee the shard coordinator (src/dist) leans on for its
// "one compile fleet-wide" cold path.
//
// The compiler is $CXX (part of the cache key), so a wrapper script that
// appends a line per invocation — identical in both processes, keeping
// their keys equal — makes the fleet-wide invocation count observable.
TEST_F(CompileCacheTest, CrossProcessColdCompileIsSingleFlight) {
  // The model both processes will compile, stimulus embedded.
  auto t = gainModel(2.0);
  const fs::path modelPath = dir_ / "race_model.xml";
  TestCaseSpec stimulus;
  writeModelToFile(t->model(), modelPath.string(), &stimulus);

  // A $CXX wrapper that logs each invocation, then runs the real thing.
  const fs::path log = dir_ / "cxx_invocations.log";
  const fs::path wrapper = dir_ / "cxx_wrapper.sh";
  {
    std::ofstream w(wrapper);
    w << "#!/bin/sh\n"
      << "echo invoked >> " << log.string() << "\n"
      << "exec c++ \"$@\"\n";
  }
  fs::permissions(wrapper, fs::perms::owner_all | fs::perms::group_read |
                               fs::perms::others_read);
  EnvGuard cxx("CXX", wrapper.string().c_str());
  // Stretch the winner's compile so the loser reliably lands in the
  // wait-on-lock path rather than slipping in after publication.
  EnvGuard fault("ACCMOS_FAULT", "slow-compile:400");

  // Two concurrent CLI processes, both cold against the shared store
  // (ACCMOS_CACHE_DIR from the fixture is inherited). --tier=native: an
  // inherited ACCMOS_TIER=interp|auto would answer on the interpreter and
  // never (or only sometimes) compile.
  auto spawnRun = [&](const fs::path& out) {
    pid_t pid = ::fork();
    if (pid == 0) {
      int fd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execl(ACCMOS_CLI_PATH, ACCMOS_CLI_PATH, "run", modelPath.c_str(),
              "--engine=accmos", "--steps=50", "--opt=-O0",
              "--tier=native", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    return pid;
  };
  const pid_t a = spawnRun(dir_ / "race_a.out");
  const pid_t b = spawnRun(dir_ / "race_b.out");
  ASSERT_GT(a, 0);
  ASSERT_GT(b, 0);

  int statusA = 0, statusB = 0;
  ASSERT_EQ(::waitpid(a, &statusA, 0), a);
  ASSERT_EQ(::waitpid(b, &statusB, 0), b);
  EXPECT_TRUE(WIFEXITED(statusA) && WEXITSTATUS(statusA) == 0)
      << "first racer failed, status " << statusA;
  EXPECT_TRUE(WIFEXITED(statusB) && WEXITSTATUS(statusB) == 0)
      << "second racer failed, status " << statusB;

  // Exactly one compiler invocation between the two processes.
  size_t invocations = 0;
  {
    std::ifstream in(log);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) ++invocations;
    }
  }
  EXPECT_EQ(invocations, 1u)
      << "cold racers must share one compile via the cross-process claim";

  // The artifact was published (sidecar included) and the claim lockfile
  // did not leak.
  bool sawBin = false, sawLock = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bin") sawBin = true;
    if (entry.path().extension() == ".lock") sawLock = true;
  }
  EXPECT_TRUE(sawBin);
  EXPECT_FALSE(sawLock) << "claim lockfile left behind after publication";

  // Both racers ran to completion off the one artifact: their simulation
  // output (steps, coverage, diagnostics — everything but timing lines)
  // must be identical.
  auto observationLines = [](const fs::path& p) {
    std::vector<std::string> lines;
    std::ifstream in(p);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("codegen", 0) == 0) continue;  // timing line
      if (line.rfind("exec", 0) == 0) continue;
      lines.push_back(line);
    }
    return lines;
  };
  EXPECT_EQ(observationLines(dir_ / "race_a.out"),
            observationLines(dir_ / "race_b.out"));
}

// One artifact per model: the process backend runs the very library a
// dlopen run compiled. On a fresh cache a dlopen simulate() then a
// process simulate() of the same model make no further compiler
// invocation, add no cache entry, and observe identically.
TEST_F(CompileCacheTest, ProcessRunReusesTheDlopenLibrary) {
  EnvGuard fault("ACCMOS_FAULT", nullptr);
  auto model = sampleOverflowModel();
  TestCaseSpec tests = sampleOverflowStimulus();
  tests.ports[0].max = 1e6;  // scale up so the overflow fires in-budget
  tests.ports[1].max = 1e6;
  SimOptions opt = accOptions("-O0");
  opt.maxSteps = 10000;
  opt.tier = Tier::Native;  // an ambient ACCMOS_TIER must not dodge compiles
  auto countBins = [&] {
    size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      n += e.path().extension() == ".bin";
    }
    return n;
  };

  opt.execMode = ExecMode::Dlopen;
  SimulationResult dl = simulate(*model, opt, tests);
  ASSERT_EQ(dl.execMode, "dlopen");
  const size_t bins = countBins();
  EXPECT_EQ(bins, 1u);

  const uint64_t before = CompilerDriver::compilerInvocations();
  opt.execMode = ExecMode::Process;
  SimulationResult pr = simulate(*model, opt, tests);
  EXPECT_EQ(pr.execMode, "process");
  EXPECT_EQ(CompilerDriver::compilerInvocations() - before, 0u);
  EXPECT_EQ(countBins(), bins);
  EXPECT_FALSE(dl.diagnostics.empty()) << "Sample model should overflow";
  test::expectIdenticalResults(dl, pr, "dlopen then process");
}

// The fault ladder never compiles: an engine quarantined by in-process
// crashes serves every subprocess fallback run with the runner on the
// library it already built.
TEST_F(CompileCacheTest, QuarantinedEngineFallbackNeverCompiles) {
  EnvGuard fault("ACCMOS_FAULT", "crash@10");
  auto t = gainModel(2.0);
  Simulator sim(t->model());
  SimOptions opt = accOptions("-O0");
  opt.execMode = ExecMode::Dlopen;
  AccMoSEngine engine(sim.flatModel(), opt, TestCaseSpec{});
  ASSERT_EQ(engine.execModeUsed(), ExecMode::Dlopen);

  const uint64_t before = CompilerDriver::compilerInvocations();
  for (int k = 0; k < 3; ++k) {
    SimulationResult r = engine.runContained();
    ASSERT_TRUE(r.failed) << k;
    EXPECT_EQ(r.failure.kind, FailureKind::Crash) << k;
    EXPECT_EQ(r.failure.signal, SIGSEGV) << k;
    EXPECT_EQ(r.failure.backend, "process") << k;
  }
  EXPECT_TRUE(engine.quarantined());
  EXPECT_EQ(CompilerDriver::compilerInvocations() - before, 0u);
}

}  // namespace
}  // namespace accmos
