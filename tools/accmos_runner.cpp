// accmos_runner: runs one simulation of a compiled model library in its own
// process — the process backend (ExecMode::Process) and the fault ladder's
// fallback. The host spawns it under its watchdog and rlimits, so a crash
// or hang of generated code kills only this process.
//
//   accmos_runner LIB OUT STEPS BUDGET SEED TIMEOUT STEP_BUDGET
//
// Loads LIB, sizes every result buffer from accmos_model_info, calls
// accmos_run once and writes an AccmosRunnerFileHeader plus all result
// buffers to OUT (layout in run_abi.h). TIMEOUT is relative (seconds, 0 =
// none) and becomes an absolute deadline on this process's steady clock.
// Exit status: 0 file written (the header carries accmos_run's status),
// 2 bad arguments, 3 library not loadable, 4 ABI mismatch, 5 write error.
//
// Deliberately standalone: it links nothing of the host and reads no
// environment, so a host-side fault hook (ACCMOS_FAULT=dlopen-fail) cannot
// disable it.
#include <dlfcn.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "codegen/run_abi.h"

namespace {

bool parseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

bool parseDouble(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

// Writes `bytes` bytes at `p`, then zero padding up to a multiple of 8.
bool writeSection(std::FILE* f, const void* p, size_t bytes) {
  static const char kZeros[8] = {0};
  if (bytes > 0 && std::fwrite(p, 1, bytes, f) != bytes) return false;
  const size_t pad = (8 - bytes % 8) % 8;
  return pad == 0 || std::fwrite(kZeros, 1, pad, f) == pad;
}

template <typename T>
T* dataOrNull(std::vector<T>& v) {
  return v.empty() ? nullptr : v.data();
}

}  // namespace

int main(int argc, char* argv[]) {
  AccmosRunArgs args = {};
  double timeoutSec = 0.0;
  if (argc != 8 || !parseU64(argv[3], &args.maxSteps) ||
      !parseDouble(argv[4], &args.timeBudgetSec) ||
      !parseU64(argv[5], &args.seed) || !parseDouble(argv[6], &timeoutSec) ||
      !parseU64(argv[7], &args.stepBudget)) {
    std::fprintf(stderr,
                 "usage: accmos_runner LIB OUT STEPS BUDGET SEED TIMEOUT "
                 "STEP_BUDGET\n");
    return 2;
  }
  // Monotonic epochs may differ between processes, so the deadline
  // crosses the boundary relative and becomes absolute here, first thing.
  if (timeoutSec > 0.0) {
    args.deadlineSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count() +
        timeoutSec;
  }
  args.structSize = static_cast<uint32_t>(sizeof(AccmosRunArgs));
  args.abiVersion = ACCMOS_ABI_VERSION;

  void* lib = ::dlopen(argv[1], RTLD_NOW | RTLD_LOCAL);
  if (lib == nullptr) {
    std::fprintf(stderr, "accmos_runner: %s\n", ::dlerror());
    return 3;
  }
  auto infoFn = reinterpret_cast<AccmosModelInfoFn>(
      ::dlsym(lib, ACCMOS_SYM_MODEL_INFO));
  auto runFn = reinterpret_cast<AccmosRunFn>(::dlsym(lib, ACCMOS_SYM_RUN));
  if (infoFn == nullptr || runFn == nullptr) {
    std::fprintf(stderr, "accmos_runner: %s lacks an ABI entry point\n",
                 argv[1]);
    return 3;
  }

  AccmosRunnerFileHeader h = {};
  h.magic = ACCMOS_RUNNER_FILE_MAGIC;
  h.abiVersion = ACCMOS_ABI_VERSION;
  h.info.structSize = static_cast<uint32_t>(sizeof(AccmosModelInfo));
  if (infoFn(&h.info) != ACCMOS_ABI_OK ||
      h.info.abiVersion != ACCMOS_ABI_VERSION) {
    std::fprintf(stderr, "accmos_runner: %s has an incompatible ABI\n",
                 argv[1]);
    return 4;
  }
  const AccmosModelInfo& info = h.info;

  std::vector<uint8_t> cov[4];
  std::vector<AccmosDiagRec> diags(info.numActors * info.numDiagKinds);
  std::vector<AccmosCustomRec> customs(info.numCustom);
  std::vector<uint64_t> collectCounts(info.numCollect);
  std::vector<uint64_t> collectVals(info.collectValsLen);
  std::vector<uint64_t> outVals(info.outValsLen);

  AccmosRunResult res = {};
  res.structSize = static_cast<uint32_t>(sizeof(AccmosRunResult));
  res.abiVersion = ACCMOS_ABI_VERSION;
  for (int m = 0; m < 4; ++m) {
    cov[m].resize(info.covLen[m]);
    res.cov[m] = dataOrNull(cov[m]);
    res.covLen[m] = info.covLen[m];
  }
  res.diags = dataOrNull(diags);
  res.diagCap = diags.size();
  res.customs = dataOrNull(customs);
  res.customCap = customs.size();
  res.collectCounts = dataOrNull(collectCounts);
  res.numCollect = collectCounts.size();
  res.collectVals = dataOrNull(collectVals);
  res.collectValsLen = collectVals.size();
  res.outVals = dataOrNull(outVals);
  res.outValsLen = outVals.size();

  h.rc = runFn(&args, &res);
  h.stoppedEarly = res.stoppedEarly;
  h.timedOut = res.timedOut;
  h.stepsExecuted = res.stepsExecuted;
  h.execNs = res.execNs;
  h.diagCount = res.diagCount;
  h.customCount = res.customCount;

  std::FILE* f = std::fopen(argv[2], "wb");
  bool ok = f != nullptr && writeSection(f, &h, sizeof(h));
  auto put = [&](const auto& v) {
    ok = ok && writeSection(f, v.data(), v.size() * sizeof(v[0]));
  };
  for (const auto& c : cov) put(c);
  put(diags);
  put(customs);
  put(collectCounts);
  put(collectVals);
  put(outVals);
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "accmos_runner: cannot write %s\n", argv[2]);
    return 5;
  }
  return 0;
}
