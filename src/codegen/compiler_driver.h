// Compile-and-execute step of the AccMoS pipeline: writes the generated
// source, invokes the host C++ compiler (the paper uses GCC -O3) to build
// the model's shared library, and runs child processes (the accmos_runner
// of the process backend) under a watchdog.
//
// Compilation is fronted by a content-addressed cache: the key is a hash of
// (compiler, common flags, optimization level, generated source), and
// compiled binaries are stored under $ACCMOS_CACHE_DIR (default
// <system-tmp>/accmos-cache). A second engine construction for the same
// model skips the dominant compile cost — "one compiled simulator serves a
// whole campaign" extends to "…and every later campaign on the same model".
// Cached entries carry a size + content hash sidecar and are verified on
// every hit; a corrupted or truncated entry falls back to a recompile.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/model.h"

namespace accmos {

// Thrown when the compiler fails, a compiled library cannot be used, or a
// child cannot be launched; carries the captured compiler output. A ModelError so callers handling model
// pipeline failures see compiler stderr, not a bare exit code.
class CompileError : public ModelError {
 public:
  explicit CompileError(const std::string& what) : ModelError(what) {}
};

// Thrown from CompileHandle::get() when an async compile was cancelled by
// every interested party before a worker started it — the job completes
// with this instead of a binary. A CompileError so existing containment
// (SpecEvaluator's per-shape catch, the tiered engine's degradation path)
// handles it without new cases.
class CompileCancelled : public CompileError {
 public:
  explicit CompileCancelled(const std::string& what) : CompileError(what) {}
};

// What the driver produces from the generated source: always a shared
// library built -shared -fPIC, which the dlopen backend loads in-process
// and the process backend hands to accmos_runner. The one-value enum is
// kept only because the benchmark probe (e2ebench/probe.cpp) names it.
enum class ArtifactKind : uint8_t { SharedLib };

struct CompileOutput {
  std::string exePath;  // the compiled shared library
  std::string sourcePath;
  double seconds = 0.0;
  bool cacheHit = false;  // binary came from the content-addressed cache
  int retries = 0;  // transient compiler failures absorbed (OOM-kill, EAGAIN)
  // Process-wide ordinal (1-based) of the real compiler invocation that
  // produced this binary; 0 when the cache served it without running the
  // compiler. Requests that joined an in-flight single-flight compile share
  // the producer's ordinal — two equal ordinals mean one compiler run.
  uint64_t invocation = 0;
  // Keeps a pool-owned workspace alive while this output is held: a
  // background compile whose binary could not be published to the cache
  // leaves exePath pointing into its temporary workspace, which lives
  // exactly as long as some CompileOutput still references it.
  std::shared_ptr<void> keepAlive;
};

namespace detail {
class CompileJob;
}

// A future for one asynchronous compilation. Move-only; dropping or
// cancelling the handle withdraws this caller's interest — a job every
// interested party abandoned before a pool worker picked it up is never
// compiled (its future completes with CompileCancelled). A job already
// running is not interrupted: the compile finishes and (cache permitting)
// publishes, so the work benefits the next request for the same key.
class CompileHandle {
 public:
  CompileHandle() = default;
  CompileHandle(CompileHandle&& other) noexcept;
  CompileHandle& operator=(CompileHandle&& other) noexcept;
  CompileHandle(const CompileHandle&) = delete;
  CompileHandle& operator=(const CompileHandle&) = delete;
  ~CompileHandle();

  bool valid() const { return job_ != nullptr; }
  // Non-blocking: has the compile finished (successfully or not)?
  bool ready() const;
  // Blocks until finished, then returns the output or rethrows the
  // compile's failure (CompileError, CompileCancelled, ...). May be called
  // repeatedly and even after cancel() — the result is shared.
  CompileOutput get() const;
  // Blocks until finished without consuming the result.
  void wait() const;
  // Withdraws this handle's interest (idempotent). See class comment.
  void cancel();

 private:
  friend class CompilerDriver;
  explicit CompileHandle(std::shared_ptr<detail::CompileJob> job);

  std::shared_ptr<detail::CompileJob> job_;
  bool released_ = false;  // interest already withdrawn (cancel/move-out)
};

class CompilerDriver {
 public:
  // workDir: where sources/binaries are placed; created if missing. When
  // empty a fresh directory under the system temp dir is used.
  explicit CompilerDriver(std::string workDir = "");
  ~CompilerDriver();

  CompilerDriver(const CompilerDriver&) = delete;
  CompilerDriver& operator=(const CompilerDriver&) = delete;

  // Writes `source` to <dir>/<name>.cpp and compiles it — or, when the
  // cache holds a verified binary for the same (compiler, flags, source),
  // returns that binary with cacheHit set and near-zero seconds.
  CompileOutput compile(const std::string& source, const std::string& name,
                        const std::string& optFlag,
                        ArtifactKind kind = ArtifactKind::SharedLib);

  // Starts the same compilation on the background compile pool and returns
  // immediately. A verified cache entry yields an already-ready handle (no
  // pool round trip), so a warm model "compiles" before the caller's first
  // run. Requests are de-duplicated in flight per cache key (single-flight):
  // N engines racing on one cold model enqueue exactly one compile, and all
  // handles resolve to the producer's output. The job compiles in its own
  // temporary workspace and publishes through the usual crash-safe cache
  // path; it captures this driver's timeout/cache settings at call time and
  // does not reference the driver afterwards — destroying the driver while
  // the job runs is safe. With the cache unusable (setCacheEnabled(false)
  // or ACCMOS_CACHE_DISABLE) the compile still runs on the pool but cannot
  // be de-duplicated or served to other drivers; the workspace then lives
  // as long as the returned output (CompileOutput::keepAlive).
  //
  // This is the async primitive the tiered engine swaps on and the future
  // accmosd daemon schedules with (ROADMAP).
  CompileHandle compileAsync(const std::string& source,
                             const std::string& name,
                             const std::string& optFlag,
                             ArtifactKind kind = ArtifactKind::SharedLib);

  // Runs the program with the given argv, returning captured output
  // (stdout+stderr). timeoutSec > 0 arms the host-side watchdog: on
  // expiry the child's process group is SIGKILLed and SimTimeoutError is
  // thrown. Death by signal throws SimCrashError (carrying the signal),
  // a nonzero exit throws SimCrashError with signal 0, and a launch
  // failure throws CompileError — the same taxonomy campaigns record.
  std::string run(const std::string& exePath,
                  const std::vector<std::string>& args,
                  double timeoutSec = 0.0) const;

  const std::string& dir() const { return dir_; }
  // Keep the working directory on destruction (for debugging / the
  // keepGeneratedCode option).
  void setKeep(bool keep) { keep_ = keep; }
  // Disable the compile cache for this driver (SimOptions::compileCache).
  // The ACCMOS_CACHE_DISABLE environment variable disables it globally.
  void setCacheEnabled(bool enabled) { cacheEnabled_ = enabled; }
  // Wall-clock watchdog for one compiler invocation (seconds; 0 = off).
  // Initialized from $ACCMOS_COMPILE_TIMEOUT, default 300.
  void setCompileTimeout(double sec) { compileTimeoutSec_ = sec; }
  double compileTimeout() const { return compileTimeoutSec_; }

  // The compiler command used ($CXX, else c++).
  static std::string compilerPath();
  // Resolved cache directory: $ACCMOS_CACHE_DIR, else <tmp>/accmos-cache.
  static std::string cacheDir();
  // Content-address of a compilation: stable across processes. Every
  // model builds the one scalar library, so `kind` and `extraFlags` are
  // ignored, kept only because the benchmark probe (e2ebench/probe.cpp)
  // passes them.
  static uint64_t cacheKey(const std::string& source,
                           const std::string& optFlag,
                           ArtifactKind kind = ArtifactKind::SharedLib,
                           const std::string& extraFlags = "");

  // Default compile watchdog: $ACCMOS_COMPILE_TIMEOUT seconds, else 300
  // (a backstop against a wedged compiler, far above any real compile).
  static double defaultCompileTimeout();

  // Total real compiler invocations this process has made (cache hits and
  // joined single-flight requests do not count). The regression handle for
  // "N racing engines, one compile".
  static uint64_t compilerInvocations();

  // True when ACCMOS_CACHE_DISABLE turns the compile cache off process-wide
  // (re-read per call). The tiered engine checks this: async hand-over of
  // the compiled artifact rides on the cache.
  static bool cacheDisabledGlobally();

  // Background compile pool width: $ACCMOS_COMPILE_POOL, default 2,
  // clamped to [1, 16].
  static int compilePoolSize();

 private:
  std::string dir_;
  bool owned_ = false;  // we created it -> we may remove it
  bool keep_ = false;
  bool cacheEnabled_ = true;
  double compileTimeoutSec_ = defaultCompileTimeout();
};

}  // namespace accmos
