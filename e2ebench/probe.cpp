// Layer probe for the end-to-end benchmark (run.py). It calls each layer's
// public functions and times the calls from outside, so the benchmark can
// split request time by layer without tracing inside src/.
//
//   e2e_probe replica MODEL
//       Reads "SEED STEPS" lines on stdin. For each, replays the pipeline of
//       `accmos run MODEL --engine=accmos --seed=SEED --steps=STEPS
//       --show-uncovered` in-process (parse, flatten, optimize, emit, cache
//       key, compile or cache lookup, load, exec) and prints one JSON line
//       with the per-layer timings and the observation lines the CLI prints.
//
//   e2e_probe campaign --accmos BIN --model MODEL --base B --specs N
//                      --steps S --workers W --seconds T --setups K
//                      --trace 0|1 --ref FILE
//       The campaign workload. Run from a scratch directory: each set-up
//       starts `BIN serve --socket=d.sock --request-workers=1` on an empty
//       compile cache (./cacheK) and ends when the first campaign returns;
//       the last daemon then serves a closed loop of identical campaigns
//       for T seconds, each checked against FILE. Prints one JSON object of
//       raw samples. With --trace 1 the loop is split into an untraced and
//       a traced phase; the traced phase adds per-layer replicas.
//
//   e2e_probe campaign-ref MODEL BASE SPECS STEPS WORKERS
//       Prints the observations of the same campaign on the SSE
//       interpreter: the reference the campaign workload is checked against.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "actors/spec.h"
#include "codegen/accmos_engine.h"
#include "codegen/compiler_driver.h"
#include "cov/coverage.h"
#include "graph/flatten.h"
#include "opt/pipeline.h"
#include "parser/model_io.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "sim/campaign.h"

extern char** environ;

namespace accmos::e2e {
namespace {

using serve::Json;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string stripTrailingNewlines(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

// The observation lines `accmos run --show-uncovered` prints (steps,
// coverage, outputs, monitors, diagnostics, unreached coverage points), in
// the CLI's format, so one reference file checks both the CLI and this
// in-process replica.
std::string runObservations(const SimulationResult& res,
                            const FlatModel& model) {
  std::ostringstream os;
  os << "steps    : " << res.stepsExecuted
     << (res.stoppedEarly ? " (stopped early)" : "")
     << (res.timedOut ? " (timed out: deadline/step budget)" : "") << "\n";
  if (res.hasCoverage) os << "coverage : " << res.coverage.toString() << "\n";
  for (size_t k = 0; k < res.finalOutputs.size(); ++k) {
    os << "out[" << k + 1 << "]   : " << res.finalOutputs[k].toString()
       << "\n";
  }
  for (const auto& c : res.collected) {
    os << "monitor  : " << c.path << " last=" << c.last.toString() << " x"
       << c.count << "\n";
  }
  if (res.diagnostics.empty()) os << "diagnosis: clean\n";
  for (const auto& d : res.diagnostics) {
    os << "diagnosis: [" << diagKindName(d.kind) << "] " << d.actorPath
       << " first@" << d.firstStep << " x" << d.count << " " << d.message
       << "\n";
  }
  CoveragePlan plan = CoveragePlan::build(
      model, [](const FlatActor& fa) { return covTraitsFor(fa); });
  auto uncovered = listUncovered(model, plan, res.bitmaps);
  os << "uncovered: " << uncovered.size() << " point(s)\n";
  for (const auto& u : uncovered) {
    os << "  [" << covMetricName(u.metric) << "] " << u.actorPath << ": "
       << u.outcome << "\n";
  }
  return stripTrailingNewlines(os.str());
}

// ---- replica ------------------------------------------------------------

Json replicaRun(const std::string& modelPath, uint64_t seed, uint64_t steps) {
  SimOptions opt;  // `accmos run` defaults: full instrumentation, opt on
  opt.engine = Engine::AccMoS;
  opt.maxSteps = steps;
  TestCaseSpec tests;  // --seed replaces the embedded stimulus
  tests.seed = seed;

  Json out = Json::object();
  auto t = Clock::now();
  LoadedModel loaded = loadModelFromFile(modelPath);
  out.set("parse_ms", Json::number(1e3 * secondsSince(t)));
  out.set("model_kb", Json::number(
      static_cast<double>(std::filesystem::file_size(modelPath)) / 1024.0));

  t = Clock::now();
  FlatModel flat = flatten(*loaded.model, Registry::instance());
  validateFlatModel(flat);
  out.set("flatten_ms", Json::number(1e3 * secondsSince(t)));
  out.set("actors", Json::u64(flat.actors.size()));

  t = Clock::now();
  FlatModel model = optimizeModel(flat, opt);
  out.set("optimize_ms", Json::number(1e3 * secondsSince(t)));
  out.set("actors_after", Json::u64(model.actors.size()));

  t = Clock::now();
  GeneratedModel gen = AccMoSEngine::generate(model, opt, tests);
  out.set("emit_ms", Json::number(1e3 * secondsSince(t)));
  out.set("source_kb",
          Json::number(static_cast<double>(gen.source.size()) / 1024.0));

  // The compile call below computes the key again: this span is a child
  // of compile, timed on its own to show what a cache lookup costs.
  t = Clock::now();
  std::string extraFlags;
  ArtifactKind kind = AccMoSEngine::artifactPlan(opt, &extraFlags);
  CompilerDriver::cacheKey(gen.source, opt.optFlag, kind, extraFlags);
  out.set("key_ms", Json::number(1e3 * secondsSince(t)));

  const uint64_t invocations0 = CompilerDriver::compilerInvocations();
  AccMoSEngine engine(model, opt, tests, std::move(gen));
  out.set("compile_s", Json::number(engine.compileSeconds()));
  out.set("load_ms", Json::number(1e3 * engine.loadSeconds()));
  out.set("cache_hit", Json::boolean(engine.compileCacheHit()));
  out.set("compiler_invocations",
          Json::u64(CompilerDriver::compilerInvocations() - invocations0));

  t = Clock::now();
  SimulationResult res = engine.run();
  const double execS = secondsSince(t);
  out.set("step_ns", Json::number(
      res.stepsExecuted > 0
          ? 1e9 * execS / static_cast<double>(res.stepsExecuted)
          : 0.0));

  t = Clock::now();
  std::string obs = runObservations(res, model);
  out.set("report_ms", Json::number(1e3 * secondsSince(t)));
  out.set("exit", Json::u64(res.timedOut ? 7 : res.diagnostics.empty() ? 0 : 3));
  out.set("obs", Json::str(obs));
  return out;
}

int cmdReplica(const std::string& modelPath) {
  uint64_t seed = 0;
  uint64_t steps = 0;
  while (std::cin >> seed >> steps) {
    Json out;
    try {
      out = replicaRun(modelPath, seed, steps);
    } catch (const std::exception& e) {
      out = Json::object();
      out.set("error", Json::str(e.what()));
    }
    std::cout << out.write() << std::endl;
  }
  return 0;
}

// ---- campaign -------------------------------------------------------------

// Every option is required (run.py passes them all).
struct CampaignArgs {
  std::string accmos;
  std::string model;
  uint64_t base = 0;
  size_t specs = 0;
  uint64_t steps = 0;
  size_t workers = 0;
  double seconds = 0.0;
  int setups = 0;
  bool trace = false;
  std::string ref;
};

// The spec batch: the model's embedded stimulus under seeds BASE + 37k,
// the schedule `accmos campaign` uses, moved to a workload-chosen base.
std::vector<TestCaseSpec> campaignSpecs(const std::string& modelPath,
                                        uint64_t base, size_t n) {
  LoadedModel loaded = loadModelFromFile(modelPath);
  TestCaseSpec stim = loaded.stimulus.value_or(TestCaseSpec{});
  std::vector<TestCaseSpec> specs;
  for (size_t k = 0; k < n; ++k) {
    specs.push_back(stim);
    specs.back().seed = base + 37 * k;
  }
  return specs;
}

SimOptions campaignOptions(Engine engine, uint64_t steps, size_t workers) {
  SimOptions opt;  // default lanes and tier, full instrumentation
  opt.engine = engine;
  opt.maxSteps = steps;
  opt.campaign.workers = workers;
  return opt;
}

std::string campaignObservationText(const CampaignResult& cr) {
  return serve::campaignObservations(cr).write();
}

// One `accmos serve` process; the destructor stops it and waits for it.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& accmos, const std::string& socket) {
    std::vector<std::string> args = {accmos, "serve", "--socket=" + socket,
                                     "--request-workers=1"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, "daemon.log",
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    int rc = posix_spawn(&pid_, accmos.c_str(), &fa, nullptr, argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + accmos);
  }
  ~DaemonProcess() { stop(); }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) pid_ = -1;
    return pid_ > 0;
  }

  // Peak resident set of the daemon so far (VmHWM), in MiB.
  double peakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    throw std::runtime_error("no VmHWM for the daemon");
  }

  // SIGTERM drains the daemon gracefully; SIGKILL after 20 s.
  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    for (int i = 0; i < 2000; ++i) {
      if (!alive()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

std::unique_ptr<serve::ServeClient> connectTo(const std::string& socket,
                                              DaemonProcess& daemon) {
  const auto t0 = Clock::now();
  for (;;) {
    try {
      return std::make_unique<serve::ServeClient>(socket);
    } catch (const std::exception&) {
      if (!daemon.alive() || secondsSince(t0) > 120.0) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

Json numbers(const std::vector<double>& v) {
  Json a = Json::array();
  for (double x : v) a.push(Json::number(x));
  return a;
}

int cmdCampaign(const CampaignArgs& a) {
  const std::string socket = "d.sock";
  const std::string modelText = readFile(a.model);
  const std::string ref = stripTrailingNewlines(readFile(a.ref));
  const std::vector<TestCaseSpec> specs =
      campaignSpecs(a.model, a.base, a.specs);
  const SimOptions opt = campaignOptions(Engine::AccMoS, a.steps, a.workers);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  // One request: the timed call, then the reference check.
  auto request = [&](serve::ServeClient& client, serve::ServiceMeta* meta,
                     CampaignResult* out) {
    const auto t = Clock::now();
    CampaignResult cr = client.campaign(modelText, opt, specs, meta);
    const double ms = 1e3 * secondsSince(t);
    ++attempted;
    if (campaignObservationText(cr) != ref) {
      ++failed;
      std::fprintf(stderr, "campaign: observations differ from %s\n",
                   a.ref.c_str());
    }
    if (out != nullptr) *out = std::move(cr);
    return ms;
  };

  std::vector<double> setups;
  std::unique_ptr<DaemonProcess> daemon;
  std::unique_ptr<serve::ServeClient> client;
  for (int i = 0; i < a.setups; ++i) {
    if (client) client->shutdown();
    client.reset();
    daemon.reset();
    const std::string cache = "cache" + std::to_string(i);
    std::filesystem::remove_all(cache);
    std::filesystem::create_directories(cache);
    setenv("ACCMOS_CACHE_DIR", std::filesystem::absolute(cache).c_str(), 1);
    const auto t0 = Clock::now();
    daemon = std::make_unique<DaemonProcess>(a.accmos, socket);
    client = connectTo(socket, *daemon);
    request(*client, nullptr, nullptr);
    setups.push_back(secondsSince(t0));
  }

  Json out = Json::object();
  out.set("setup_s", numbers(setups));

  // Untraced closed loop: all of it without --trace, 40% with (the share
  // run.py's UNTRACED_SHARE gives the run workloads).
  std::vector<double> untraced;
  const double untracedSeconds = a.trace ? 0.4 * a.seconds : a.seconds;
  auto t0 = Clock::now();
  while (untraced.empty() || secondsSince(t0) < untracedSeconds) {
    untraced.push_back(request(*client, nullptr, nullptr));
  }
  out.set("wall_s", Json::number(secondsSince(t0)));
  out.set("latency_ms", numbers(untraced));
  out.set("steps_per_request",
          Json::u64(static_cast<uint64_t>(a.specs) * a.steps));

  if (a.trace) {
    // In-process replicas of the layers the daemon runs per request: the
    // spec evaluator and merge, the fused batch kernel against the scalar
    // step loop, and the client's frame encode/decode.
    LoadedModel loaded = loadModelFromFile(a.model);
    FlatModel flat = flatten(*loaded.model, Registry::instance());
    OptStats optStats;
    FlatModel model = optimizeModel(flat, opt, &optStats);
    SpecEvaluator evaluator(model, opt);
    AccMoSEngine engine(model, opt, specs.front());
    std::vector<uint64_t> laneSeeds;
    for (size_t k = 0; k < std::max<uint64_t>(engine.batchLanes(), 1); ++k) {
      laneSeeds.push_back(specs[k % specs.size()].seed);
    }

    std::map<std::string, std::vector<double>> layer;
    std::vector<double> traced;
    serve::Json stats0 = client->stats();
    uint64_t invocations0 =
        stats0.at("compilerInvocations", "$").asU64("$.compilerInvocations");
    serve::ServiceMeta meta;
    t0 = Clock::now();
    while (traced.empty() || secondsSince(t0) < a.seconds - untracedSeconds) {
      auto t = Clock::now();
      Json req = Json::object();
      req.set("op", Json::str("campaign"));
      req.set("model", Json::str(modelText));
      req.set("options", serve::toJson(opt));
      Json arr = Json::array();
      for (const auto& s : specs) arr.push(serve::toJson(s));
      req.set("specs", std::move(arr));
      const std::string reqText = req.write();
      layer["serve.encode_ms"].push_back(1e3 * secondsSince(t));

      CampaignResult cr;
      const double ms = request(*client, &meta, &cr);
      traced.push_back(ms);
      layer["serve.roundtrip_ms"].push_back(ms);
      layer["serve.daemon_wall_ms"].push_back(1e3 * cr.wallSeconds);
      layer["serve.overhead_ms"].push_back(ms - 1e3 * cr.wallSeconds);
      layer["codegen.compile_s"].push_back(cr.compileSeconds);

      Json resp = Json::object();
      resp.set("ok", Json::boolean(true));
      resp.set("op", Json::str("campaign"));
      resp.set("result", serve::toJson(cr));
      const std::string respText = resp.write();
      layer["serve.result_kb"].push_back(
          static_cast<double>(respText.size()) / 1024.0);
      t = Clock::now();
      CampaignResult decoded = serve::campaignResultFromJson(
          serve::parseJson(respText).at("result", "$"), "$.result");
      layer["serve.decode_ms"].push_back(1e3 * secondsSince(t));

      const double cpu0 = cpuSeconds();
      t = Clock::now();
      std::vector<SimulationResult> results = evaluator.evaluate(specs);
      const double evalS = secondsSince(t);
      const double busyS = cpuSeconds() - cpu0;
      layer["sim.evaluate_s"].push_back(evalS);
      layer["sim.busy_s"].push_back(busyS);
      layer["sim.worker_util"].push_back(
          busyS / (evalS * static_cast<double>(a.workers)));
      t = Clock::now();
      CampaignResult merged =
          mergeSpecResults(model, specs, results, results.size(), optStats);
      layer["sim.merge_ms"].push_back(1e3 * secondsSince(t));
      ++attempted;
      if (campaignObservationText(merged) != ref) {
        ++failed;
        std::fprintf(stderr, "campaign: replica observations differ\n");
      }

      t = Clock::now();
      engine.runBatch(laneSeeds, a.steps);
      layer["codegen.batch_lane_step_ns"].push_back(
          1e9 * secondsSince(t) /
          static_cast<double>(laneSeeds.size() * a.steps));
      t = Clock::now();
      engine.run(a.steps, -1.0, specs.front().seed);
      layer["codegen.step_ns"].push_back(1e9 * secondsSince(t) /
                                         static_cast<double>(a.steps));
    }
    serve::Json stats1 = client->stats();
    const double n = static_cast<double>(traced.size());
    layer["codegen.compiler_invocations"].push_back(
        static_cast<double>(stats1.at("compilerInvocations", "$")
                                .asU64("$.compilerInvocations") -
                            invocations0) /
        n);
    const auto& pool0 = stats0.at("pool", "$");
    const auto& pool1 = stats1.at("pool", "$");
    for (const char* k : {"hits", "misses"}) {
      layer[std::string("serve.pool_") + k].push_back(static_cast<double>(
          pool1.at(k, "$.pool").asU64(k) - pool0.at(k, "$.pool").asU64(k)));
    }
    layer["serve.resident_kb"].push_back(
        static_cast<double>(meta.pool.residentBytes) / 1024.0);
    Json traceJson = Json::object();
    for (const auto& [name, v] : layer) traceJson.set(name, numbers(v));
    out.set("layers", std::move(traceJson));
    out.set("traced_ms", numbers(traced));
  }

  out.set("rss_mb", Json::number(daemon->peakRssMb()));
  out.set("attempted", Json::u64(attempted));
  out.set("failed", Json::u64(failed));
  client->shutdown();
  client.reset();
  daemon.reset();
  std::cout << out.write() << std::endl;
  return 0;
}

int cmdCampaignRef(const std::string& modelPath, uint64_t base, size_t n,
                   uint64_t steps, size_t workers) {
  LoadedModel loaded = loadModelFromFile(modelPath);
  FlatModel flat = flatten(*loaded.model, Registry::instance());
  validateFlatModel(flat);
  CampaignResult cr = runCampaignSpecs(
      flat, campaignOptions(Engine::SSE, steps, workers),
      campaignSpecs(modelPath, base, n));
  std::cout << campaignObservationText(cr) << std::endl;
  return 0;
}

int run(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "replica") return cmdReplica(args[1]);
  if (args.size() == 6 && args[0] == "campaign-ref") {
    return cmdCampaignRef(args[1], std::stoull(args[2]), std::stoull(args[3]),
                          std::stoull(args[4]), std::stoull(args[5]));
  }
  if (!args.empty() && args[0] == "campaign" && args.size() % 2 == 1) {
    CampaignArgs a;
    for (size_t i = 1; i < args.size(); i += 2) {
      const std::string& k = args[i];
      const std::string& v = args[i + 1];
      if (k == "--accmos") a.accmos = v;
      else if (k == "--model") a.model = v;
      else if (k == "--base") a.base = std::stoull(v);
      else if (k == "--specs") a.specs = std::stoull(v);
      else if (k == "--steps") a.steps = std::stoull(v);
      else if (k == "--workers") a.workers = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--setups") a.setups = std::stoi(v);
      else if (k == "--trace") a.trace = v == "1";
      else if (k == "--ref") a.ref = v;
      else throw std::runtime_error("unknown option " + k);
    }
    if (a.accmos.empty() || a.model.empty() || a.ref.empty() ||
        a.specs == 0 || a.steps == 0 || a.workers == 0 || a.seconds <= 0 ||
        a.setups < 1) {
      throw std::runtime_error("campaign: missing or zero option");
    }
    return cmdCampaign(a);
  }
  std::fprintf(stderr,
               "usage: e2e_probe replica MODEL\n"
               "       e2e_probe campaign --accmos BIN --model M --base B "
               "--specs N --steps S --workers W --seconds T --setups K "
               "--trace 0|1 --ref FILE\n"
               "       e2e_probe campaign-ref MODEL BASE SPECS STEPS "
               "WORKERS\n");
  return 2;
}

}  // namespace
}  // namespace accmos::e2e

int main(int argc, char** argv) {
  try {
    return accmos::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_probe: %s\n", e.what());
    return 1;
  }
}
