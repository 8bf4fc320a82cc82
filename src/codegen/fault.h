// Deterministic fault injection: one env-driven facility (ACCMOS_FAULT)
// that lets CI and tests exercise every containment path byte-for-byte —
// hangs and crashes planted in the GENERATED step loop, compiler
// failures staged in CompilerDriver, the dlopen degradation hook and
// shard-worker death — without patching source or depending on luck.
//
// Grammar (directives separated by ';' or ','):
//
//   ACCMOS_FAULT=name[@STEP][:qual[=val]]...
//
//   hang[@STEP][:seed=S]      generated run spins at STEP (default 0):
//                             cooperatively polls its deadline, so a run
//                             WITH a deadline retires as Timeout and one
//                             WITHOUT hangs for real (exercising the
//                             subprocess watchdog). Optional seed filter.
//   crash[@STEP][:seed=S]     generated run raises SIGSEGV at STEP —
//                             caught by the in-process signal guard, a
//                             real signal death in a subprocess.
//   compile-fail[:once][:sig=N][:exit=N]
//                             compiler invocation dies. Default/sig=N: by
//                             signal N (default SIGKILL — a transient
//                             OOM-kill look-alike that the retry loop
//                             absorbs); exit=N: nonzero exit with stderr
//                             (non-transient). once: only the first
//                             invocation after the env value changes.
//   slow-compile:MS           compiler invocation sleeps MS milliseconds
//                             first (exercises the compile watchdog).
//   dlopen-fail               the host's ModelLib load fails, so engines
//                             fall back to the subprocess backend (the
//                             runner loads the library unaffected).
//   shard-abort:shard=I       the shard worker serving shard I exits
//                             right after reading its request.
//
// hang/crash change the emitted source text, so they re-key the compile
// cache automatically — a faulted build can never be served to (or
// poison) a fault-free run.
#ifndef ACCMOS_CODEGEN_FAULT_H_
#define ACCMOS_CODEGEN_FAULT_H_

#include <cstdint>

namespace accmos {

struct FaultPlan {
  // A step-loop fault site (hang or crash): fires at the first step >=
  // `step` of any run whose seed matches (all seeds when !hasSeed).
  struct SiteFault {
    bool armed = false;
    uint64_t step = 0;
    bool hasSeed = false;
    uint64_t seed = 0;
  };

  SiteFault hang;
  SiteFault crash;

  bool compileFail = false;
  bool compileFailOnce = false;
  int compileFailSignal = 0;  // kill by this signal when > 0
  int compileFailExit = 0;    // else exit with this code when > 0
  int slowCompileMs = 0;

  bool dlopenFail = false;

  bool shardAbort = false;
  uint64_t shardAbortIndex = 0;

  // True when the emitter must plant fault code in the generated source.
  bool affectsEmit() const { return hang.armed || crash.armed; }
};

// Parses ACCMOS_FAULT on every call, so tests can flip the env between
// runs. Malformed directives throw ModelError — a typo'd fault
// spec silently injecting nothing would make CI vacuously green.
FaultPlan faultPlanFromEnv();

// Arms/consumes the compile-fail directive: returns true when THIS
// compiler invocation should fail. With :once, only the first call after
// the ACCMOS_FAULT value changes returns true (process-global bookkeeping,
// thread-safe).
bool consumeCompileFault(const FaultPlan& plan);

}  // namespace accmos

#endif  // ACCMOS_CODEGEN_FAULT_H_
