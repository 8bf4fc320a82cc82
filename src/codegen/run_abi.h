// The execution ABI between the host engine and a generated model compiled
// as a shared library.
//
// This header is the single source of truth for the contract: the host
// includes it directly, and the exact text of this file is embedded into
// every generated translation unit (see runAbiText(), produced by CMake
// from this file), so both sides of a dlopen boundary are compiled from
// the same definitions. The content-addressed compile cache keys on the
// full generated source, so editing this file automatically re-keys every
// cached shared library.
//
// Contract (docs/EXECUTION.md has the narrative version):
//  - The library exports exactly two C symbols:
//      int accmos_model_info(AccmosModelInfo*);
//      int accmos_run(const AccmosRunArgs*, AccmosRunResult*);
//    Every model compiles to this one scalar kernel; campaigns call
//    accmos_run once per seed.
//  - All result buffers are CALLER-owned; the library never allocates
//    memory that outlives a call. The caller sizes them from
//    accmos_model_info (worst case for the diagnostic tables).
//  - accmos_run is REENTRANT: every call allocates a private model-state
//    instance, so any number of threads may call into one loaded library
//    concurrently (this is what lets campaign/gen workers share a single
//    dlopen'd simulator).
//  - Both sides check structSize and abiVersion; any mismatch fails the
//    call with a nonzero code instead of reading garbage. Because this
//    text is part of every generated source, a library always has exactly
//    the host's ACCMOS_ABI_VERSION; the checks guard against foreign
//    files, not older builds.
//  - Values cross the boundary pre-widened: float-typed signals as
//    IEEE-754 doubles (bit pattern in a uint64_t), integer-typed signals as
//    two's-complement int64_t.
//  - The process backend runs the same library in the accmos_runner
//    executable, which writes one AccmosRunnerFile (below) per run.
#ifndef ACCMOS_RUN_ABI_H_
#define ACCMOS_RUN_ABI_H_

#include <stdint.h>

/* Version 4: one scalar entry point, deadline and step-budget fields in
 * the run args, and the ETIMEOUT retirement status. */
#define ACCMOS_ABI_VERSION 4u

/* accmos_run / accmos_model_info return codes. */
enum {
  ACCMOS_ABI_OK = 0,
  ACCMOS_ABI_EARG = 1,     /* null pointer or structSize mismatch */
  ACCMOS_ABI_EVERSION = 2, /* abiVersion mismatch */
  ACCMOS_ABI_EBUFFER = 3,  /* a caller buffer is missing or mis-sized */
  ACCMOS_ABI_EALLOC = 4,   /* model-state allocation failed */
  ACCMOS_ABI_ETIMEOUT = 6, /* run retired by deadline / step budget;
                            * result fields up to the retirement point are
                            * valid and timedOut is set */
};

/* Coverage bitmap order, everywhere a [4] appears below. Matches the host's
 * CovMetric enum: actor, condition, decision, MC/DC. */
enum {
  ACCMOS_ABI_COV_ACTOR = 0,
  ACCMOS_ABI_COV_CONDITION = 1,
  ACCMOS_ABI_COV_DECISION = 2,
  ACCMOS_ABI_COV_MCDC = 3,
};

/* Static shape of the compiled model: everything the caller needs to size
 * result buffers. Filled by accmos_model_info; the host cross-checks it
 * against its own instrumentation plans before trusting a loaded library
 * (a stale or foreign artifact fails closed). */
typedef struct AccmosModelInfo {
  uint32_t structSize; /* in: sizeof(AccmosModelInfo) */
  uint32_t abiVersion; /* out: ACCMOS_ABI_VERSION of the library */
  uint64_t covLen[4];  /* coverage slots per metric (0 = uninstrumented) */
  uint64_t numActors;
  uint64_t numDiagKinds;   /* rows per actor in the diagnostic table */
  uint64_t numCustom;      /* custom signal diagnoses compiled in */
  uint64_t numCollect;     /* monitored signals, in emission order */
  uint64_t collectValsLen; /* sum of monitored-signal widths */
  uint64_t outValsLen;     /* sum of root-outport widths */
} AccmosModelInfo;

typedef struct AccmosRunArgs {
  uint32_t structSize; /* sizeof(AccmosRunArgs) */
  uint32_t abiVersion; /* ACCMOS_ABI_VERSION the caller was built against */
  uint64_t maxSteps;
  double timeBudgetSec; /* <= 0 = unlimited */
  uint64_t seed;
  /* Fault-containment limits. deadlineSeconds is an ABSOLUTE point
   * on the monotonic clock, expressed as seconds since its epoch
   * (std::chrono::steady_clock on the host; the generated code reads
   * clock_gettime(CLOCK_MONOTONIC), the same clock on Linux) — 0 means
   * no deadline. The step loop polls it every K steps (amortized) and
   * retires the run with ACCMOS_ABI_ETIMEOUT when it passes. stepBudget
   * caps total executed steps independently of maxSteps (0 = no budget);
   * exceeding it also retires with ETIMEOUT.
   * Unlike timeBudgetSec (a normal early-stop that yields a successful
   * result), these mark the result timedOut — a containment event. */
  double deadlineSeconds;
  uint64_t stepBudget;
} AccmosRunArgs;

/* One aggregated diagnostic event: (actor, kind) first step and count. */
typedef struct AccmosDiagRec {
  int32_t actorId;
  int32_t kind;
  uint64_t firstStep;
  uint64_t count;
} AccmosDiagRec;

/* One fired custom diagnosis: index, first step and count. */
typedef struct AccmosCustomRec {
  uint64_t index;
  uint64_t firstStep;
  uint64_t count;
} AccmosCustomRec;

typedef struct AccmosRunResult {
  uint32_t structSize; /* in: sizeof(AccmosRunResult) */
  uint32_t abiVersion; /* in: caller's ACCMOS_ABI_VERSION */

  /* ---- outputs ---- */
  uint64_t stepsExecuted;
  uint32_t stoppedEarly;
  uint32_t timedOut; /* run was retired by deadline/stepBudget */
  uint64_t execNs;

  /* Coverage bitmaps, one raw 0/1 byte per slot. cov[m] may be null when
   * covLen[m] is 0. covLen is an input capacity and must equal the
   * library's own slot counts exactly. */
  uint8_t* cov[4];
  uint64_t covLen[4];

  /* Diagnostic records, appended in (actor-major, kind) order. diagCap
   * must be at least
   * numActors * numDiagKinds (the worst case). */
  AccmosDiagRec* diags;
  uint64_t diagCap;
  uint64_t diagCount; /* out */

  AccmosCustomRec* customs;
  uint64_t customCap;
  uint64_t customCount; /* out */

  /* Monitored signals: per-signal occurrence counts, then every element of
   * every signal packed in emission order, 8 bytes each (double bits for
   * float-typed signals, two's-complement int64 otherwise). */
  uint64_t* collectCounts;  /* numCollect entries */
  uint64_t numCollect;      /* in: capacity, must equal the library's */
  uint64_t* collectVals;    /* collectValsLen entries */
  uint64_t collectValsLen;  /* in: capacity, must equal the library's */

  /* Final root-outport values, packed the same way. */
  uint64_t* outVals;
  uint64_t outValsLen;
} AccmosRunResult;

typedef int (*AccmosModelInfoFn)(AccmosModelInfo*);
typedef int (*AccmosRunFn)(const AccmosRunArgs*, AccmosRunResult*);

#define ACCMOS_SYM_MODEL_INFO "accmos_model_info"
#define ACCMOS_SYM_RUN "accmos_run"

/* The result file accmos_runner writes for the process backend: this
 * header, then every result buffer of one accmos_run call in AccmosRunResult
 * order — cov[0..3] (covLen[m] bytes each), diags (numActors *
 * numDiagKinds records), customs (numCustom records), collectCounts,
 * collectVals, outVals — each section zero-padded to a multiple of 8 bytes
 * so the host can decode it in place. A file, not stdout: the host merges
 * the child's stdout and stderr into one pipe. */
#define ACCMOS_RUNNER_FILE_MAGIC 0x464d4341u /* "ACMF" little-endian */

typedef struct AccmosRunnerFileHeader {
  uint32_t magic;      /* ACCMOS_RUNNER_FILE_MAGIC */
  uint32_t abiVersion; /* the runner's ACCMOS_ABI_VERSION */
  int32_t rc;          /* accmos_run's return code */
  uint32_t stoppedEarly;
  uint32_t timedOut;
  uint32_t reserved; /* 0 */
  AccmosModelInfo info;
  uint64_t stepsExecuted;
  uint64_t execNs;
  uint64_t diagCount;
  uint64_t customCount;
} AccmosRunnerFileHeader;

#endif /* ACCMOS_RUN_ABI_H_ */
