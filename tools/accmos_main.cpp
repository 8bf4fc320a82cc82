// The accmos command-line tool: the packaged entry point of the pipeline.
//
//   accmos info <model.xml>                     model inventory
//   accmos gen <model.xml> [-o out.cpp]         emit simulation code
//   accmos gen <model.xml> --budget=N [...]     coverage-guided test-case
//                                               generation (src/gen)
//   accmos run <model.xml> [options]            simulate and report
//   accmos campaign <model.xml> [--seeds=N] [--steps=M] [--engine=E]
//                   [--workers=W]             multi-seed coverage campaign
//                                             (W workers; 0 = all cores)
//                   [--shards=N]              fan the campaign over N
//                                             shard-worker processes
//                                             sharing one compile cache;
//                                             results bit-identical to
//                                             --shards=0 (docs/CAMPAIGNS.md)
//   accmos shard-worker                       internal: one shard of a
//                                             --shards campaign, spawned
//                                             by the coordinator with the
//                                             frame protocol on fd 0
//   accmos export-suite <dir>                   write the benchmark models
//   accmos serve --socket=PATH                  resident simulation daemon
//                [--pool-budget=BYTES]          (accmosd, docs/SERVICE.md);
//                [--request-workers=N]          0 budget = unbounded pool
//   accmos client <run|campaign> <model.xml> --socket=PATH [options]
//   accmos client <stats|shutdown> --socket=PATH
//                                               run against a daemon: same
//                                               options, output and exit
//                                               codes as local execution
//   accmos --version                            build/ABI/protocol identity
//
// run options:
//   --engine=accmos|sse|sseac|sserac   (default accmos)
//   --steps=N                          (default 100000)
//   --budget=SECONDS                   wall-clock budget (0 = unlimited)
//   --tests=FILE.csv                   explicit test vectors
//   --seed=N                           random-stimulus seed (default 1)
//   --collect=ACTORPATH                monitor an actor (repeatable)
//   --no-coverage --no-diagnosis       disable instrumentation
//   --stop-on-diagnostic               halt at the first error
//   --show-uncovered                   list every unreached coverage point
//   --opt=-O2                          compiler flag for generated code
//   --no-opt                           skip the model optimization pipeline
//                                      (also: env ACCMOS_NO_OPT=1)
//   --exec-mode=dlopen|process         AccMoS execution backend (default
//                                      dlopen; also: env ACCMOS_EXEC_MODE)
//   --tier=native|auto|interp          tiered execution (docs/EXECUTION.md):
//                                      auto answers runs on the interpreter
//                                      while the compile proceeds in the
//                                      background, then hot-swaps to native;
//                                      interp never compiles (default
//                                      native; also: env ACCMOS_TIER)
//   --timeout=SECONDS                  per-run wall-clock deadline: the
//                                      generated code retires the run
//                                      cooperatively, the process backend
//                                      adds a kill-on-expiry watchdog
//   --step-budget=N                    retire a run after N steps even if
//                                      --steps asked for more
//
// Exit codes (docs/ROBUSTNESS.md):
//   0  success            1  internal error        2  usage error
//   3  run finished with diagnostics               4  model load/parse error
//   5  generated-code compile error                6  generated model crashed
//   7  run timed out (deadline or step budget)
//   8  campaign/testgen completed but contained per-seed failures
//   9  campaign interrupted (SIGINT/SIGTERM): partial results were flushed
//
// gen --budget options (testgen mode; presence of --budget selects it):
//   --budget=N           candidate evaluations (the search budget)
//   --batch=B            candidates per feedback iteration (default 8)
//   --gen-seed=S         generator seed: reproduces the search bit-exactly
//   --target-metric=M    actor|condition|decision|mcdc (default: all)
//   --corpus-dir=DIR     export corpus (.spec/.csv + MANIFEST.tsv)
//   --engine=sse|accmos  evaluation engine (default accmos)
//   --steps=N --workers=W --no-opt --show-uncovered   as above
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "actors/spec.h"
#include "bench_models/sample_overflow.h"
#include "bench_models/suite.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "dist/shard.h"
#include "gen/generator.h"
#include "opt/pipeline.h"
#include "parser/model_io.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/version.h"
#include "sim/campaign.h"
#include "sim/failure.h"
#include "sim/interrupt.h"
#include "sim/simulator.h"

namespace accmos::cli {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: accmos <info|gen|run|export-suite> <args>\n"
               "  accmos info <model.xml>\n"
               "  accmos gen <model.xml> [-o out.cpp]\n"
               "  accmos gen <model.xml> --budget=N [--batch=B] "
               "[--gen-seed=S]\n"
               "             [--target-metric=actor|condition|decision|mcdc]\n"
               "             [--corpus-dir=DIR] [--engine=sse|accmos] "
               "[--steps=N]\n"
               "             [--workers=W] [--no-opt] "
               "[--show-uncovered]\n"
               "  accmos run <model.xml> [--engine=E] [--steps=N] "
               "[--budget=S]\n"
               "             [--tests=F.csv] [--seed=N] [--collect=PATH]...\n"
               "             [--no-coverage] [--no-diagnosis] "
               "[--stop-on-diagnostic] [--opt=-O3] [--no-opt] "
               "[--exec-mode=dlopen|process] [--tier=native|auto|interp] "
               "[--timeout=SEC] [--step-budget=N] [--show-uncovered]\n"
               "  accmos campaign <model.xml> [--seeds=N] [--steps=M] "
               "[--engine=accmos|sse] [--workers=W] [--shards=N] "
               "[--no-opt] [--exec-mode=dlopen|process] "
               "[--tier=native|auto|interp] [--timeout=SEC] "
               "[--step-budget=N] [--show-uncovered]\n"
               "  accmos export-suite <directory>\n"
               "  accmos serve --socket=PATH [--pool-budget=BYTES] "
               "[--request-workers=N]\n"
               "  accmos client <run|campaign> <model.xml> --socket=PATH "
               "[run/campaign options]\n"
               "  accmos client <stats|shutdown> --socket=PATH\n"
               "  accmos --version\n"
               "exit codes: 0 ok, 1 internal, 2 usage, 3 diagnostics, "
               "4 model-load, 5 compile,\n"
               "            6 crash, 7 timeout, 8 campaign with contained "
               "failures, 9 interrupted\n");
  return 2;
}

bool flagValue(const std::string& arg, const char* name, std::string* out) {
  std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

// Model loading wrapped so mainImpl can give load/parse problems their own
// exit code (4) — distinct from compile (5) and runtime (6/7) failures,
// which can only happen after the model demonstrably loaded.
LoadedModel loadModelCli(const std::string& path) {
  try {
    return loadModelFromFile(path);
  } catch (const ModelLoadError&) {
    throw;
  } catch (const std::exception& e) {
    throw ModelLoadError("cannot load model " + path + ": " + e.what());
  }
}

std::unique_ptr<Model> readModelCli(const std::string& path) {
  try {
    return readModelFromFile(path);
  } catch (const ModelLoadError&) {
    throw;
  } catch (const std::exception& e) {
    throw ModelLoadError("cannot load model " + path + ": " + e.what());
  }
}

void printFailures(const std::vector<RunFailure>& failures) {
  for (const auto& f : failures) {
    std::printf("failure  : %s\n", f.summary().c_str());
  }
}

// --tier=native|auto|interp; returns false (after printing) on a bad value.
bool parseTier(const std::string& v, SimOptions* opt) {
  if (v == "native") {
    opt->tier = Tier::Native;
  } else if (v == "auto") {
    opt->tier = Tier::Auto;
  } else if (v == "interp") {
    opt->tier = Tier::Interp;
  } else {
    std::fprintf(stderr, "tier must be native, auto or interp, not '%s'\n",
                 v.c_str());
    return false;
  }
  return true;
}

// --exec-mode=dlopen|process; returns false (after printing) on a bad value.
bool parseExecMode(const std::string& v, SimOptions* opt) {
  if (v == "dlopen") {
    opt->execMode = ExecMode::Dlopen;
  } else if (v == "process") {
    opt->execMode = ExecMode::Process;
  } else {
    std::fprintf(stderr, "exec mode must be dlopen or process, not '%s'\n",
                 v.c_str());
    return false;
  }
  return true;
}

// SIGINT/SIGTERM raise the cooperative interrupt flag (sim/interrupt.h):
// campaign workers finish the seed chunks they already claimed, the CLI
// flushes the partial results and exits with code 9; accmosd drains
// in-flight requests and shuts down like `client shutdown`. Installed only
// for the cooperative commands (campaign, serve) — everything else keeps
// the default terminate-on-signal behaviour.
void onInterruptSignal(int) { requestInterrupt(); }

void installInterruptHandlers() {
  std::signal(SIGINT, onInterruptSignal);
  std::signal(SIGTERM, onInterruptSignal);
}

// Raw file bytes — the model text a client ships to the daemon verbatim
// (the daemon parses it; the pool keys on the exact text).
std::string readFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ModelLoadError("cannot read model " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Resolves accumulated bitmaps back to the coverage points never reached.
// Rebuilds the plan the engine recorded against: the optimization pipeline
// (when on) must run here exactly as it did before the engine, since slot
// layout follows the optimized actor set.
void printUncovered(const FlatModel& fm, const SimOptions& opt,
                    const CoverageRecorder& bitmaps) {
  FlatModel optimized;
  const FlatModel* model = &fm;
  if (opt.optimize) {
    optimized = optimizeModel(fm, opt);
    model = &optimized;
  }
  CoveragePlan plan = CoveragePlan::build(
      *model, [](const FlatActor& fa) { return covTraitsFor(fa); });
  auto uncovered = listUncovered(*model, plan, bitmaps);
  std::printf("uncovered: %zu point(s)\n", uncovered.size());
  for (const auto& u : uncovered) {
    std::printf("  [%s] %s: %s\n",
                std::string(covMetricName(u.metric)).c_str(),
                u.actorPath.c_str(), u.outcome.c_str());
  }
}

int cmdInfo(const std::string& path) {
  auto model = readModelCli(path);
  Simulator sim(*model);
  const FlatModel& fm = sim.flatModel();
  std::printf("model        : %s\n", model->name().c_str());
  std::printf("actors       : %d (flattened: %zu)\n", model->countActors(),
              fm.actors.size());
  std::printf("subsystems   : %d\n", model->countSubsystems());
  std::printf("signals      : %zu\n", fm.signals.size());
  std::printf("inports      : %zu\n", fm.rootInports.size());
  std::printf("outports     : %zu\n", fm.rootOutports.size());
  std::printf("data stores  : %zu\n", fm.dataStores.size());
  // Type histogram.
  std::vector<std::pair<std::string, int>> hist;
  for (const auto& fa : fm.actors) {
    bool found = false;
    for (auto& [ty, n] : hist) {
      if (ty == fa.type()) {
        ++n;
        found = true;
      }
    }
    if (!found) hist.emplace_back(fa.type(), 1);
  }
  std::sort(hist.begin(), hist.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("actor types  :");
  for (const auto& [ty, n] : hist) std::printf(" %s:%d", ty.c_str(), n);
  std::printf("\n");
  return 0;
}

int cmdGen(const std::string& path, const std::string& outPath) {
  auto model = readModelCli(path);
  Simulator sim(*model);
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  AccMoSEngine engine(sim.flatModel(), opt, TestCaseSpec{});
  if (outPath.empty() || outPath == "-") {
    std::fputs(engine.generatedSource().c_str(), stdout);
  } else {
    std::ofstream out(outPath);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
      return 1;
    }
    out << engine.generatedSource();
    std::printf("wrote %s (%zu bytes)\n", outPath.c_str(),
                engine.generatedSource().size());
  }
  return 0;
}

// accmos gen --budget=N: the coverage-guided test-case generation loop
// (src/gen) instead of source emission.
int cmdTestGen(const std::string& path,
               const std::vector<std::string>& args) {
  SimOptions opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 10000;
  gen::GenOptions gopt;
  bool showUncovered = false;
  std::string v;
  for (const auto& arg : args) {
    if (flagValue(arg, "--budget", &v)) {
      gopt.budget = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flagValue(arg, "--batch", &v)) {
      gopt.batch = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flagValue(arg, "--gen-seed", &v)) {
      gopt.genSeed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flagValue(arg, "--target-metric", &v)) {
      auto m = covMetricFromName(v);
      if (!m) {
        std::fprintf(stderr,
                     "unknown metric '%s' (actor|condition|decision|mcdc)\n",
                     v.c_str());
        return 2;
      }
      gopt.targetMetric = *m;
    } else if (flagValue(arg, "--corpus-dir", &v)) {
      gopt.corpusDir = v;
    } else if (flagValue(arg, "--engine", &v)) {
      if (v == "accmos") opt.engine = Engine::AccMoS;
      else if (v == "sse") opt.engine = Engine::SSE;
      else {
        std::fprintf(stderr, "generation engine must be accmos or sse\n");
        return 2;
      }
    } else if (flagValue(arg, "--steps", &v)) {
      opt.maxSteps = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flagValue(arg, "--workers", &v)) {
      opt.campaign.workers = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flagValue(arg, "--exec-mode", &v)) {
      if (!parseExecMode(v, &opt)) return 2;
    } else if (flagValue(arg, "--tier", &v)) {
      if (!parseTier(v, &opt)) return 2;
    } else if (flagValue(arg, "--timeout", &v)) {
      opt.runTimeoutSec = std::strtod(v.c_str(), nullptr);
    } else if (flagValue(arg, "--step-budget", &v)) {
      opt.stepBudget = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--no-opt") {
      opt.optimize = false;
    } else if (arg == "--show-uncovered") {
      showUncovered = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }

  LoadedModel loaded = loadModelCli(path);
  if (loaded.stimulus) gopt.base = *loaded.stimulus;
  Simulator sim(*loaded.model);
  gen::GenResult gr = gen::runGeneration(sim.flatModel(), opt, gopt);

  std::string target = gopt.targetMetric
                           ? std::string(covMetricName(*gopt.targetMetric))
                           : std::string("all metrics");
  std::printf("testgen  : budget %zu on %s, gen-seed %llu, target %s\n",
              gopt.budget, std::string(engineName(opt.engine)).c_str(),
              static_cast<unsigned long long>(gopt.genSeed), target.c_str());
  std::printf("optimize : %s\n", gr.optStats.summary().c_str());
  std::printf("%-5s %6s %6s %6s %8s %8s %8s %8s   (cumulative)\n", "iter",
              "eval", "kept", "corpus", "actor", "cond", "dec", "mcdc");
  for (const auto& it : gr.trajectory) {
    std::printf("%-5zu %6zu %6zu %6zu %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
                it.iteration, it.evaluated, it.accepted, it.corpusSize,
                it.cumulative.of(CovMetric::Actor).percent(),
                it.cumulative.of(CovMetric::Condition).percent(),
                it.cumulative.of(CovMetric::Decision).percent(),
                it.cumulative.of(CovMetric::MCDC).percent());
  }
  std::printf("coverage : %s%s\n", gr.finalCoverage.toString().c_str(),
              gr.saturated ? " (saturated before budget)" : "");
  std::printf("corpus   : %zu case(s) kept of %zu evaluated, %zu distinct "
              "diagnostic kind(s)\n",
              gr.corpus.size(), gr.evaluations, gr.diagKinds);
  printFailures(gr.failures);
  if (gr.enginesBuilt > 0) {
    std::printf("codegen  : %zu distinct stimulus shape(s) compiled, "
                "%.3fs compile-wait\n",
                gr.enginesBuilt, gr.compileWaitSeconds);
  }
  if (!gopt.corpusDir.empty()) {
    std::printf("exported : %s (MANIFEST.tsv + entry_*.spec/.csv)\n",
                gopt.corpusDir.c_str());
  }
  if (showUncovered) {
    std::printf("uncovered: %zu point(s)\n", gr.uncovered.size());
    for (const auto& u : gr.uncovered) {
      std::printf("  [%s] %s: %s\n",
                  std::string(covMetricName(u.metric)).c_str(),
                  u.actorPath.c_str(), u.outcome.c_str());
    }
  }
  return gr.failures.empty() ? 0 : 8;
}

// Parsed `run` command line, shared between local `accmos run` and
// `accmos client run` so both accept identical options.
struct RunArgs {
  SimOptions opt;
  TestCaseSpec tests;
  bool showUncovered = false;
  bool explicitTests = false;  // --tests/--seed override embedded stimulus
};

// Returns 0 on success, 2 (after printing) on a bad flag.
int parseRunArgs(const std::vector<std::string>& args, RunArgs* ra) {
  SimOptions& opt = ra->opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 100000;
  std::string v;
  for (const auto& arg : args) {
    if (flagValue(arg, "--engine", &v)) {
      if (v == "accmos") opt.engine = Engine::AccMoS;
      else if (v == "sse") opt.engine = Engine::SSE;
      else if (v == "sseac") opt.engine = Engine::SSEac;
      else if (v == "sserac") opt.engine = Engine::SSErac;
      else {
        std::fprintf(stderr, "unknown engine '%s'\n", v.c_str());
        return 2;
      }
    } else if (flagValue(arg, "--steps", &v)) {
      opt.maxSteps = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flagValue(arg, "--budget", &v)) {
      opt.timeBudgetSec = std::strtod(v.c_str(), nullptr);
    } else if (flagValue(arg, "--tests", &v)) {
      ra->tests = TestCaseSpec::fromCsv(v);
      ra->explicitTests = true;
    } else if (flagValue(arg, "--seed", &v)) {
      ra->tests.seed = std::strtoull(v.c_str(), nullptr, 10);
      ra->explicitTests = true;
    } else if (flagValue(arg, "--collect", &v)) {
      opt.collectList.push_back(v);
    } else if (flagValue(arg, "--opt", &v)) {
      opt.optFlag = v;
    } else if (flagValue(arg, "--exec-mode", &v)) {
      if (!parseExecMode(v, &opt)) return 2;
    } else if (flagValue(arg, "--tier", &v)) {
      if (!parseTier(v, &opt)) return 2;
    } else if (flagValue(arg, "--timeout", &v)) {
      opt.runTimeoutSec = std::strtod(v.c_str(), nullptr);
    } else if (flagValue(arg, "--step-budget", &v)) {
      opt.stepBudget = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--no-coverage") {
      opt.coverage = false;
    } else if (arg == "--no-diagnosis") {
      opt.diagnosis = false;
    } else if (arg == "--no-opt") {
      opt.optimize = false;
    } else if (arg == "--stop-on-diagnostic") {
      opt.stopOnDiagnostic = true;
    } else if (arg == "--show-uncovered") {
      ra->showUncovered = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (opt.engine == Engine::SSEac || opt.engine == Engine::SSErac) {
    opt.coverage = false;
    opt.diagnosis = false;
  }
  return 0;
}

// The run report, shared between local and client execution so the two
// paths print byte-identical output for identical results (the CI daemon
// smoke test diffs them). Returns the exit code.
int printRunResult(const SimulationResult& res, const SimOptions& opt);

int cmdRun(const std::string& path, const std::vector<std::string>& args) {
  RunArgs ra;
  if (int rc = parseRunArgs(args, &ra); rc != 0) return rc;
  const SimOptions& opt = ra.opt;

  LoadedModel loaded = loadModelCli(path);
  // An embedded <stimulus> is the default; --tests/--seed override it.
  if (loaded.stimulus && !ra.explicitTests) ra.tests = *loaded.stimulus;
  Simulator sim(*loaded.model);
  auto res = sim.run(opt, ra.tests);

  int code = printRunResult(res, opt);
  if (ra.showUncovered) {
    if (!res.hasCoverage) {
      std::fprintf(stderr,
                   "--show-uncovered needs coverage (an instrumented "
                   "engine, without --no-coverage)\n");
      return 2;
    }
    printUncovered(sim.flatModel(), opt, res.bitmaps);
  }
  return code;
}

int printRunResult(const SimulationResult& res, const SimOptions& opt) {
  std::printf("engine   : %s\n",
              std::string(engineName(opt.engine)).c_str());
  std::printf("optimize : %s\n", res.optStats.summary().c_str());
  std::printf("steps    : %llu%s%s\n",
              static_cast<unsigned long long>(res.stepsExecuted),
              res.stoppedEarly ? " (stopped early)" : "",
              res.timedOut ? " (timed out: deadline/step budget)" : "");
  std::printf("exec     : %.4fs (%.1f ns/step)\n", res.execSeconds,
              res.stepsExecuted > 0
                  ? 1e9 * res.execSeconds /
                        static_cast<double>(res.stepsExecuted)
                  : 0.0);
  if (res.generateSeconds > 0.0 || res.compileSeconds > 0.0) {
    std::printf("codegen  : %.3fs generate + %.3fs compile",
                res.generateSeconds, res.compileSeconds);
    if (res.loadSeconds > 0.0) std::printf(" + %.3fs load", res.loadSeconds);
    if (!res.execMode.empty()) std::printf(" [%s]", res.execMode.c_str());
    std::printf("\n");
  } else if (!res.execMode.empty()) {
    // Interpreter-tier runs have no codegen cost line to carry the mode.
    std::printf("mode     : %s\n", res.execMode.c_str());
  }
  if (res.hasCoverage) {
    std::printf("coverage : %s\n", res.coverage.toString().c_str());
  }
  for (size_t k = 0; k < res.finalOutputs.size(); ++k) {
    std::printf("out[%zu]   : %s\n", k + 1,
                res.finalOutputs[k].toString().c_str());
  }
  for (const auto& c : res.collected) {
    std::printf("monitor  : %s last=%s x%llu\n", c.path.c_str(),
                c.last.toString().c_str(),
                static_cast<unsigned long long>(c.count));
  }
  if (res.diagnostics.empty()) {
    std::printf("diagnosis: clean\n");
  }
  for (const auto& d : res.diagnostics) {
    std::printf("diagnosis: [%s] %s first@%llu x%llu %s\n",
                std::string(diagKindName(d.kind)).c_str(),
                d.actorPath.c_str(),
                static_cast<unsigned long long>(d.firstStep),
                static_cast<unsigned long long>(d.count),
                d.message.c_str());
  }
  // A retired (timed-out) run outranks "finished with diagnostics": its
  // observations stop at the retirement point, so they are not the full
  // story the diagnostics exit code promises.
  if (res.timedOut) return 7;
  return res.diagnostics.empty() ? 0 : 3;
}

// Parsed `campaign` command line, shared between local `accmos campaign`
// and `accmos client campaign`.
struct CampaignArgs {
  SimOptions opt;
  int numSeeds = 8;
  bool showUncovered = false;
  size_t shards = 0;  // > 0: fan out over shard-worker processes
};

int parseCampaignArgs(const std::vector<std::string>& args,
                      CampaignArgs* ca) {
  SimOptions& opt = ca->opt;
  opt.engine = Engine::AccMoS;
  opt.maxSteps = 100000;
  std::string v;
  for (const auto& arg : args) {
    if (flagValue(arg, "--seeds", &v)) {
      ca->numSeeds = static_cast<int>(std::strtol(v.c_str(), nullptr, 10));
    } else if (flagValue(arg, "--steps", &v)) {
      opt.maxSteps = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flagValue(arg, "--workers", &v)) {
      opt.campaign.workers = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flagValue(arg, "--shards", &v)) {
      ca->shards = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flagValue(arg, "--engine", &v)) {
      if (v == "accmos") opt.engine = Engine::AccMoS;
      else if (v == "sse") opt.engine = Engine::SSE;
      else {
        std::fprintf(stderr, "campaign engine must be accmos or sse\n");
        return 2;
      }
    } else if (flagValue(arg, "--exec-mode", &v)) {
      if (!parseExecMode(v, &opt)) return 2;
    } else if (flagValue(arg, "--tier", &v)) {
      if (!parseTier(v, &opt)) return 2;
    } else if (flagValue(arg, "--timeout", &v)) {
      opt.runTimeoutSec = std::strtod(v.c_str(), nullptr);
    } else if (flagValue(arg, "--step-budget", &v)) {
      opt.stepBudget = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--no-opt") {
      opt.optimize = false;
    } else if (arg == "--show-uncovered") {
      ca->showUncovered = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  return 0;
}

// The campaign seed schedule: deterministic, so a client can reconstruct
// the exact spec batch `accmos campaign --seeds=N` would run locally.
std::vector<uint64_t> campaignSeeds(int numSeeds) {
  std::vector<uint64_t> seeds;
  for (int k = 0; k < numSeeds; ++k) seeds.push_back(1000 + 37 * k);
  return seeds;
}

// The campaign report, shared between local and client execution so the
// two paths print byte-identical tables for identical results (the CI
// daemon smoke test diffs them). Returns the exit code, including 9 for
// an interrupted (partial) campaign.
int printCampaign(const CampaignResult& cr, const SimOptions& opt,
                  int numSeeds) {
  std::printf("campaign : %d seeds x %llu steps on %s, %zu worker(s)\n",
              numSeeds, static_cast<unsigned long long>(opt.maxSteps),
              std::string(engineName(opt.engine)).c_str(), cr.workersUsed);
  std::printf("optimize : %s\n", cr.optStats.summary().c_str());
  std::printf("%-10s %8s %8s %8s %8s   (cumulative)\n", "seed", "actor",
              "cond", "dec", "mcdc");
  for (const auto& sr : cr.perSeed) {
    std::printf("%-10llu %7.1f%% %7.1f%% %7.1f%% %7.1f%%%s\n",
                static_cast<unsigned long long>(sr.seed),
                sr.cumulative.of(CovMetric::Actor).percent(),
                sr.cumulative.of(CovMetric::Condition).percent(),
                sr.cumulative.of(CovMetric::Decision).percent(),
                sr.cumulative.of(CovMetric::MCDC).percent(),
                sr.failed ? "   FAILED" : "");
  }
  std::printf("exec     : %.3fs total, %.3fs wall", cr.totalExecSeconds,
              cr.wallSeconds);
  if (cr.compileSeconds > 0.0) {
    std::printf(" (+%.3fs one-off generate+compile, %.3fs compile-wait%s%s)",
                cr.generateSeconds + cr.compileSeconds, cr.compileWaitSeconds,
                cr.loadSeconds > 0.0 ? ", dlopen" : "",
                cr.compileCacheHit ? ", cached" : "");
  }
  if (opt.engine == Engine::AccMoS && opt.tier != Tier::Native) {
    std::printf("\ntier     : %s — %zu interp + %zu native seed(s), "
                "first result %.3fs",
                std::string(tierName(opt.tier)).c_str(), cr.interpSeeds,
                cr.nativeSeeds, cr.timeToFirstResultSeconds);
    if (cr.tierSwapIndex >= 0) {
      std::printf(", hot-swap at seed index %lld", cr.tierSwapIndex);
    }
  }
  std::printf("\ndiagnosis: %zu distinct event(s) across the campaign\n",
              cr.diagnostics.size());
  for (const auto& d : cr.diagnostics) {
    std::printf("  [%s] %s earliest@%llu x%llu\n",
                std::string(diagKindName(d.kind)).c_str(),
                d.actorPath.c_str(),
                static_cast<unsigned long long>(d.firstStep),
                static_cast<unsigned long long>(d.count));
  }
  printFailures(cr.failures);
  if (cr.interrupted) {
    std::printf("interrupt: stopped early — %zu of %d seed(s) finished; "
                "partial results above are bit-identical to the same "
                "prefix of a full campaign\n",
                cr.perSeed.size(), numSeeds);
    return 9;
  }
  // The campaign itself completed — per-seed faults were contained — but
  // the merged result is missing the failed seeds' contributions.
  return cr.failures.empty() ? 0 : 8;
}

int cmdCampaign(const std::string& path,
                const std::vector<std::string>& args) {
  CampaignArgs ca;
  if (int rc = parseCampaignArgs(args, &ca); rc != 0) return rc;
  LoadedModel loaded = loadModelCli(path);
  TestCaseSpec base = loaded.stimulus.value_or(TestCaseSpec{});
  Simulator sim(*loaded.model);

  // Ctrl-C / SIGTERM stop the campaign cooperatively: finished seeds are
  // flushed below and the exit code says the table is a prefix. With
  // --shards the coordinator forwards the signal to every worker process
  // and merges the contiguous prefix they flush — same contract, same
  // exit code, across process boundaries.
  installInterruptHandlers();
  CampaignResult cr;
  if (ca.shards > 0) {
    std::vector<TestCaseSpec> specs;
    for (uint64_t seed : campaignSeeds(ca.numSeeds)) {
      specs.push_back(base);
      specs.back().seed = seed;
    }
    dist::ShardOptions so;
    so.shards = ca.shards;
    dist::ShardStats st;
    cr = dist::runShardedCampaign(readFileText(path), ca.opt, specs, so, &st);
    int code = printCampaign(cr, ca.opt, ca.numSeeds);
    std::printf("shards   : %zu shard(s), %llu fleet compiler "
                "invocation(s)%s\n",
                st.shards,
                static_cast<unsigned long long>(st.fleetCompilerInvocations),
                st.deadWorkers > 0 ? " — WORKER DEATHS CONTAINED" : "");
    if (ca.showUncovered) {
      printUncovered(sim.flatModel(), ca.opt, cr.mergedBitmaps);
    }
    return code;
  }
  cr = runCampaign(sim.flatModel(), ca.opt, base, campaignSeeds(ca.numSeeds));
  int code = printCampaign(cr, ca.opt, ca.numSeeds);
  if (ca.showUncovered) {
    printUncovered(sim.flatModel(), ca.opt, cr.mergedBitmaps);
  }
  return code;
}

int cmdExportSuite(const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const auto& info : benchmarkSuite()) {
    auto model = buildBenchmarkModel(info.name);
    std::string path = dir + "/" + info.name + ".xml";
    TestCaseSpec stim = benchStimulus(info.name);
    writeModelToFile(*model, path, &stim);
    std::printf("wrote %-24s (%d actors, %d subsystems)\n", path.c_str(),
                info.actors, info.subsystems);
  }
  auto sample = sampleOverflowModel();
  TestCaseSpec sampleStim = sampleOverflowStimulus();
  writeModelToFile(*sample, dir + "/Sample.xml", &sampleStim);
  auto injected = buildCsevWithInjectedErrors();
  TestCaseSpec csevStim = benchStimulus("CSEV");
  writeModelToFile(*injected, dir + "/CSEV_injected.xml", &csevStim);
  std::printf("wrote %s and %s\n", (dir + "/Sample.xml").c_str(),
              (dir + "/CSEV_injected.xml").c_str());
  return 0;
}

// accmos serve --socket=PATH: run accmosd in the foreground until a
// `client shutdown` request or SIGTERM/SIGINT (graceful either way).
int cmdServe(const std::vector<std::string>& args) {
  serve::ServeOptions sopt;
  std::string v;
  for (const auto& arg : args) {
    if (flagValue(arg, "--socket", &v)) {
      sopt.socketPath = v;
    } else if (flagValue(arg, "--pool-budget", &v)) {
      sopt.poolBudgetBytes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flagValue(arg, "--request-workers", &v)) {
      sopt.requestWorkers = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (sopt.socketPath.empty()) {
    std::fprintf(stderr, "serve needs --socket=PATH\n");
    return 2;
  }

  installInterruptHandlers();
  serve::Daemon daemon(sopt);
  std::printf("accmosd  : accmos %s protocol v%u, listening on %s\n",
              serve::kAccmosVersion, serve::kProtocolVersion,
              sopt.socketPath.c_str());
  std::printf("accmosd  : %zu request worker(s), pool budget %llu bytes%s\n",
              daemon.scheduler().workers(),
              static_cast<unsigned long long>(sopt.poolBudgetBytes),
              sopt.poolBudgetBytes == 0 ? " (unbounded)" : "");
  std::fflush(stdout);
  daemon.run();
  serve::PoolStats ps = daemon.poolStats();
  std::printf("accmosd  : shut down cleanly (%llu request(s) served, "
              "pool %llu hit(s) / %llu miss(es) / %llu eviction(s))\n",
              static_cast<unsigned long long>(daemon.scheduler().executed()),
              static_cast<unsigned long long>(ps.hits),
              static_cast<unsigned long long>(ps.misses),
              static_cast<unsigned long long>(ps.evictions));
  return 0;
}

void printServiceLine(const serve::ServiceMeta& meta) {
  std::printf("service  : pool %s (%llu entr%s, %llu byte(s) resident, "
              "%llu hit(s), %llu miss(es), %llu eviction(s))\n",
              meta.poolHit ? "hit" : "miss",
              static_cast<unsigned long long>(meta.pool.entries),
              meta.pool.entries == 1 ? "y" : "ies",
              static_cast<unsigned long long>(meta.pool.residentBytes),
              static_cast<unsigned long long>(meta.pool.hits),
              static_cast<unsigned long long>(meta.pool.misses),
              static_cast<unsigned long long>(meta.pool.evictions));
}

int cmdClientRun(const std::string& socketPath, const std::string& path,
                 const std::vector<std::string>& args) {
  RunArgs ra;
  if (int rc = parseRunArgs(args, &ra); rc != 0) return rc;
  if (ra.opt.engine == Engine::SSEac || ra.opt.engine == Engine::SSErac) {
    std::fprintf(stderr,
                 "the daemon serves instrumented engines only "
                 "(accmos or sse)\n");
    return 2;
  }
  // Load locally too: parse errors keep their local exit code (4) without
  // a round-trip, and the embedded <stimulus> default matches `accmos run`.
  std::string text = readFileText(path);
  LoadedModel loaded = loadModelCli(path);
  if (loaded.stimulus && !ra.explicitTests) ra.tests = *loaded.stimulus;

  serve::ServeClient client(socketPath);
  serve::ServiceMeta meta;
  SimulationResult res = client.run(text, ra.opt, ra.tests, &meta);
  int code = printRunResult(res, ra.opt);
  printServiceLine(meta);
  if (ra.showUncovered) {
    if (!res.hasCoverage) {
      std::fprintf(stderr,
                   "--show-uncovered needs coverage (an instrumented "
                   "engine, without --no-coverage)\n");
      return 2;
    }
    Simulator sim(*loaded.model);
    printUncovered(sim.flatModel(), ra.opt, res.bitmaps);
  }
  return code;
}

int cmdClientCampaign(const std::string& socketPath, const std::string& path,
                      const std::vector<std::string>& args) {
  CampaignArgs ca;
  if (int rc = parseCampaignArgs(args, &ca); rc != 0) return rc;
  if (ca.shards > 0) {
    std::fprintf(stderr,
                 "--shards is a local coordinator mode; the daemon already "
                 "schedules requests across its own workers\n");
    return 2;
  }
  std::string text = readFileText(path);
  LoadedModel loaded = loadModelCli(path);
  TestCaseSpec base = loaded.stimulus.value_or(TestCaseSpec{});

  // The exact spec batch runCampaign() would build locally, so the daemon
  // merge is bit-identical to `accmos campaign` on the same flags.
  std::vector<TestCaseSpec> specs;
  for (uint64_t seed : campaignSeeds(ca.numSeeds)) {
    specs.push_back(base);
    specs.back().seed = seed;
  }

  serve::ServeClient client(socketPath);
  serve::ServiceMeta meta;
  CampaignResult cr = client.campaign(text, ca.opt, specs, &meta);
  int code = printCampaign(cr, ca.opt, ca.numSeeds);
  printServiceLine(meta);
  if (ca.showUncovered) {
    Simulator sim(*loaded.model);
    printUncovered(sim.flatModel(), ca.opt, cr.mergedBitmaps);
  }
  return code;
}

int cmdClientStats(const std::string& socketPath) {
  serve::ServeClient client(socketPath);
  serve::Json s = client.stats();
  std::printf("daemon   : accmos %s (ABI v%llu)\n",
              client.daemonVersion().c_str(),
              static_cast<unsigned long long>(client.daemonAbi()));
  const serve::Json& pool = s.at("pool", "$");
  std::printf("pool     : %llu entr%s, %llu byte(s) resident of %llu "
              "budget, %llu hit(s), %llu miss(es), %llu eviction(s)\n",
              static_cast<unsigned long long>(
                  pool.at("entries", "$.pool").asU64("$.pool.entries")),
              pool.at("entries", "$.pool").asU64("$.pool.entries") == 1
                  ? "y"
                  : "ies",
              static_cast<unsigned long long>(
                  pool.at("residentBytes", "$.pool")
                      .asU64("$.pool.residentBytes")),
              static_cast<unsigned long long>(
                  pool.at("byteBudget", "$.pool").asU64("$.pool.byteBudget")),
              static_cast<unsigned long long>(
                  pool.at("hits", "$.pool").asU64("$.pool.hits")),
              static_cast<unsigned long long>(
                  pool.at("misses", "$.pool").asU64("$.pool.misses")),
              static_cast<unsigned long long>(
                  pool.at("evictions", "$.pool").asU64("$.pool.evictions")));
  const serve::Json& sched = s.at("scheduler", "$");
  std::printf("requests : %llu executed on %llu worker(s), peak %llu "
              "in flight\n",
              static_cast<unsigned long long>(
                  sched.at("executed", "$.scheduler")
                      .asU64("$.scheduler.executed")),
              static_cast<unsigned long long>(
                  sched.at("workers", "$.scheduler")
                      .asU64("$.scheduler.workers")),
              static_cast<unsigned long long>(
                  sched.at("peakInFlight", "$.scheduler")
                      .asU64("$.scheduler.peakInFlight")));
  std::printf("compiler : %llu invocation(s) over the daemon's lifetime\n",
              static_cast<unsigned long long>(
                  s.at("compilerInvocations", "$")
                      .asU64("$.compilerInvocations")));
  return 0;
}

// accmos client <run|campaign|stats|shutdown> [model] --socket=PATH [...]
int cmdClient(const std::vector<std::string>& argsAll) {
  if (argsAll.empty()) return usage();
  const std::string sub = argsAll[0];
  std::string socketPath;
  std::string v;
  std::vector<std::string> rest;
  for (size_t k = 1; k < argsAll.size(); ++k) {
    if (flagValue(argsAll[k], "--socket", &v)) {
      socketPath = v;
    } else {
      rest.push_back(argsAll[k]);
    }
  }
  if (socketPath.empty()) {
    std::fprintf(stderr, "client needs --socket=PATH\n");
    return 2;
  }
  if (sub == "stats" && rest.empty()) return cmdClientStats(socketPath);
  if (sub == "shutdown" && rest.empty()) {
    serve::ServeClient client(socketPath);
    client.shutdown();
    std::printf("accmosd at %s acknowledged shutdown\n", socketPath.c_str());
    return 0;
  }
  if ((sub == "run" || sub == "campaign") && !rest.empty() &&
      rest[0].rfind("--", 0) != 0) {
    std::string path = rest[0];
    rest.erase(rest.begin());
    return sub == "run" ? cmdClientRun(socketPath, path, rest)
                        : cmdClientCampaign(socketPath, path, rest);
  }
  return usage();
}

int mainImpl(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  try {
    if (cmd == "--version" || cmd == "version") {
      std::fputs(serve::buildInfo().c_str(), stdout);
      return 0;
    }
    if (cmd == "serve") {
      std::vector<std::string> args(argv + 2, argv + argc);
      return cmdServe(args);
    }
    if (cmd == "client" && argc >= 3) {
      std::vector<std::string> args(argv + 2, argv + argc);
      return cmdClient(args);
    }
    if (cmd == "info" && argc == 3) return cmdInfo(argv[2]);
    if (cmd == "gen" && argc >= 3) {
      // --budget selects the coverage-guided test-case generation mode;
      // without it, gen keeps its original meaning (emit simulation code).
      std::vector<std::string> args(argv + 3, argv + argc);
      for (const auto& arg : args) {
        if (arg.rfind("--budget=", 0) == 0) return cmdTestGen(argv[2], args);
      }
      std::string out;
      for (int k = 3; k < argc; ++k) {
        if (std::strcmp(argv[k], "-o") == 0 && k + 1 < argc) out = argv[k + 1];
      }
      return cmdGen(argv[2], out);
    }
    if (cmd == "run" && argc >= 3) {
      std::vector<std::string> args(argv + 3, argv + argc);
      return cmdRun(argv[2], args);
    }
    if (cmd == "campaign" && argc >= 3) {
      std::vector<std::string> args(argv + 3, argv + argc);
      return cmdCampaign(argv[2], args);
    }
    if (cmd == "shard-worker" && argc == 2) {
      // Internal mode: one shard of a --shards campaign. The coordinator
      // holds the other end of the socketpair on our fd 0; cooperative
      // interrupt handlers make a forwarded SIGTERM flush the prefix.
      installInterruptHandlers();
      return dist::runShardWorker(0);
    }
    if (cmd == "export-suite" && argc == 3) return cmdExportSuite(argv[2]);
  } catch (const ModelLoadError& e) {
    std::fprintf(stderr, "accmos: %s\n", e.what());
    return 4;
  } catch (const SimTimeoutError& e) {
    std::fprintf(stderr, "accmos: %s\n", e.what());
    return 7;
  } catch (const SimCrashError& e) {
    std::fprintf(stderr, "accmos: %s\n", e.what());
    return 6;
  } catch (const CompileError& e) {
    std::fprintf(stderr, "accmos: %s\n", e.what());
    return 5;
  } catch (const serve::ProtocolError& e) {
    // Transport/handshake trouble between `accmos client` and accmosd —
    // an environment problem, not a simulation outcome.
    std::fprintf(stderr, "accmos: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "accmos: %s\n", e.what());
    return 1;
  }
  return usage();
}

}  // namespace
}  // namespace accmos::cli

int main(int argc, char** argv) { return accmos::cli::mainImpl(argc, argv); }
