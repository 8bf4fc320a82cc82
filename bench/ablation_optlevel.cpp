// Ablation B: effect of the compiler optimization level on generated-code
// simulation speed (the paper compiles with GCC -O3 and attributes part of
// the speedup to "compiler optimizations and processor features like
// pipelining and superscalar architectures", §4), and on the cold compile
// a user waits for once per model.
//
// Every row compiles into its own empty compile cache, so compile(s) is a
// real compiler run, never a cache hit. CSEV, TCP, FMTM and RAC are the
// models the end-to-end benchmark (e2ebench/) runs.
#include <stdlib.h>

#include <filesystem>

#include "bench_common.h"
#include "codegen/accmos_engine.h"

namespace {

// Points ACCMOS_CACHE_DIR at a new empty directory for its lifetime.
class FreshCache {
 public:
  FreshCache() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "accmos_optlevel_XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::perror("mkdtemp");
      std::exit(1);
    }
    dir_ = tmpl;
    ::setenv("ACCMOS_CACHE_DIR", dir_.c_str(), 1);
  }
  ~FreshCache() {
    ::unsetenv("ACCMOS_CACHE_DIR");
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

 private:
  std::string dir_;
};

}  // namespace

int main() {
  using namespace accmos;
  const uint64_t steps = bench::benchSteps();
  std::printf("Ablation B: compiler optimization level for generated "
              "simulation code (%llu steps, cold compiles)\n",
              static_cast<unsigned long long>(steps));
  bench::hr(96);
  std::printf("%-7s %6s %11s %12s %12s %14s\n", "Model", "opt", "src(KiB)",
              "compile(s)", "exec(s)", "exec vs -O3");
  bench::hr(96);

  bench::JsonReporter json("ablation_optlevel");
  for (const char* name : {"LANS", "CPUT", "CSEV", "TCP", "FMTM", "RAC"}) {
    auto model = buildBenchmarkModel(name);
    Simulator sim(*model);
    TestCaseSpec tests = benchStimulus(name);

    double o3Time = 0.0;
    for (const char* opt : {"-O3", "-O2", "-O1", "-O0"}) {
      SimOptions so = bench::engineOptions(Engine::AccMoS, steps);
      so.optFlag = opt;
      FreshCache cache;
      AccMoSEngine engine(sim.flatModel(), so, tests);
      if (engine.compileCacheHit()) {
        std::fprintf(stderr, "%s %s: unexpected compile-cache hit\n", name,
                     opt);
        return 1;
      }
      auto res = engine.run();
      if (std::string(opt) == "-O3") o3Time = res.execSeconds;
      const double srcKiB =
          static_cast<double>(engine.generatedSource().size()) / 1024.0;
      std::printf("%-7s %6s %11.1f %11.3fs %11.4fs %13.2fx\n", name, opt,
                  srcKiB, engine.compileSeconds(), res.execSeconds,
                  o3Time > 0 ? res.execSeconds / o3Time : 1.0);
      json.row()
          .str("model", name)
          .str("opt", opt)
          .count("steps", steps)
          .num("source_kib", srcKiB)
          .num("compile_s", engine.compileSeconds())
          .num("exec_s", res.execSeconds);
    }
  }
  bench::hr(96);
  json.write();
  return 0;
}
