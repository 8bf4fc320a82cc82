#include "codegen/compiler_driver.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "codegen/fault.h"
#include "codegen/subprocess.h"
#include "sim/failure.h"

namespace accmos {
namespace fs = std::filesystem;

namespace {

std::atomic<int> g_dirCounter{0};
std::atomic<int> g_tmpCounter{0};
std::atomic<uint64_t> g_invocations{0};

std::string readFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string shellQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out.push_back(c);
    }
  }
  out += "'";
  return out;
}

uint64_t fnv1a64(const std::string& data, uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Flags of every build (the artifact is always a shared library); part of
// the cache identity.
constexpr const char* kSharedLibFlags = "-shared -fPIC";

bool cacheDisabledByEnv() {
  const char* v = std::getenv("ACCMOS_CACHE_DISABLE");
  return v != nullptr && v[0] != '\0' && std::string(v) != "0";
}

// In-process index of cache entries this process has verified or produced.
// Hits are still re-verified against the on-disk content (size + hash), so
// external corruption — or a cleaned temp dir — degrades to a recompile,
// never to executing a damaged binary.
std::mutex g_cacheMutex;
std::unordered_map<uint64_t, std::string> g_cacheIndex;

struct CacheEntry {
  fs::path bin;
  fs::path meta;
};

CacheEntry cachePaths(uint64_t key) {
  fs::path dir(CompilerDriver::cacheDir());
  return {dir / (hex16(key) + ".bin"), dir / (hex16(key) + ".meta")};
}

// A cache entry is valid when the sidecar's recorded size and content hash
// match the binary on disk (catches truncation and bit rot).
bool verifyEntry(const CacheEntry& e) {
  std::error_code ec;
  if (!fs::is_regular_file(e.bin, ec) || !fs::is_regular_file(e.meta, ec)) {
    return false;
  }
  std::ifstream meta(e.meta);
  uint64_t size = 0;
  std::string hash;
  if (!(meta >> size >> hash)) return false;
  if (fs::file_size(e.bin, ec) != size || ec) return false;
  return hex16(fnv1a64(readFile(e.bin))) == hash;
}

// Flushes a file's data to stable storage before it is renamed into
// place: a crash between rename and writeback must not be able to
// publish a hole-filled binary under a valid-looking name.
bool fsyncPath(const fs::path& p) {
  int fd = ::open(p.c_str(), O_RDONLY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// Best-effort sweep of abandoned temp files (a writer killed between
// copy and rename leaves its *.tmp behind forever otherwise). Only
// clearly-stale files go: anything older than an hour can't belong to a
// live writer. Runs once per process — the dir scan is not free.
void sweepStaleTemps(const fs::path& dir) {
  static std::once_flag once;
  std::call_once(once, [&dir] {
    std::error_code ec;
    auto now = fs::file_time_type::clock::now();
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const fs::path& p = it->path();
      if (p.extension() != ".tmp") continue;
      auto mtime = fs::last_write_time(p, ec);
      if (ec) continue;
      if (now - mtime > std::chrono::hours(1)) fs::remove(p, ec);
    }
  });
}

// Atomically publishes `exePath` under the cache key: copy to a temp name
// in the cache dir, fsync, then rename (binary first, sidecar last —
// readers require a valid sidecar, so a torn write is just a miss). The
// temp tag is pid + a process-wide counter, so concurrent writers in one
// process (campaign workers compiling different shapes) can never race on
// the same temp name. Best effort: any filesystem error leaves the cache
// unused, not the build broken.
bool storeEntry(uint64_t key, const fs::path& exePath) {
  try {
    CacheEntry e = cachePaths(key);
    fs::create_directories(e.bin.parent_path());
    sweepStaleTemps(e.bin.parent_path());
    std::string tag = ".";  // appended, not "." + ...: GCC 12 -Wrestrict
    tag += std::to_string(::getpid());
    tag += '.';
    tag += std::to_string(g_tmpCounter.fetch_add(1));
    tag += ".tmp";
    fs::path binTmp = e.bin.string() + tag;
    fs::path metaTmp = e.meta.string() + tag;
    fs::copy_file(exePath, binTmp, fs::copy_options::overwrite_existing);
    std::string content = readFile(binTmp);
    {
      std::ofstream meta(metaTmp);
      meta << content.size() << " " << hex16(fnv1a64(content)) << "\n";
      if (!meta) return false;
    }
    if (!fsyncPath(binTmp) || !fsyncPath(metaTmp)) {
      std::error_code ec;
      fs::remove(binTmp, ec);
      fs::remove(metaTmp, ec);
      return false;
    }
    fs::rename(binTmp, e.bin);
    fs::rename(metaTmp, e.meta);
    return true;
  } catch (const fs::filesystem_error&) {
    return false;
  }
}

// ---- Cross-process single-flight ---------------------------------------
// The in-process single-flight map (g_inFlight, below) cannot see other
// processes; shard workers (src/dist) and concurrent CLI invocations
// pointed at one shared cache directory would each pay the cold compile.
// A claim file `<key>.lock` in the cache dir — created with O_EXCL, pid
// inside — extends single-flight across the fleet: exactly one process
// compiles a cold key, the losers poll until the winner's crash-safe
// publication appears and load it. The lock is an OPTIMIZATION, never a
// correctness dependency: a claimant that cannot acquire within a bounded
// budget compiles anyway (the duplicate store is harmless — publication is
// atomic and content-addressed), and a lock whose holder died is broken by
// the next contender, so a crashed compiler never wedges the fleet.

class CacheKeyLock {
 public:
  ~CacheKeyLock() { release(); }

  bool tryAcquire(uint64_t key) {
    path_ = cachePaths(key).bin;
    path_ += ".lock";
    std::error_code ec;
    fs::create_directories(path_.parent_path(), ec);
    int fd = ::open(path_.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) return false;
    std::string pid = std::to_string(::getpid()) + "\n";
    ssize_t ignored = ::write(fd, pid.data(), pid.size());
    (void)ignored;
    ::close(fd);
    held_ = true;
    return true;
  }

  // Breaks the lock when its recorded holder is provably gone (dead pid on
  // this host) or the file has outlived any plausible compile (`maxAgeSec`).
  // Best effort and racy by design: the worst case is a duplicate compile,
  // which atomic publication absorbs.
  void breakIfStale(double maxAgeSec) const {
    std::error_code ec;
    std::ifstream f(path_);
    long pid = 0;
    if (f >> pid && pid > 0) {
      if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
        fs::remove(path_, ec);
        return;
      }
    }
    auto mtime = fs::last_write_time(path_, ec);
    if (ec) return;
    auto age = fs::file_time_type::clock::now() - mtime;
    if (std::chrono::duration<double>(age).count() > maxAgeSec) {
      fs::remove(path_, ec);
    }
  }

  void release() {
    if (!held_) return;
    std::error_code ec;
    fs::remove(path_, ec);
    held_ = false;
  }

 private:
  fs::path path_;
  bool held_ = false;
};

// One fully-specified compilation, independent of any CompilerDriver
// instance: jobs capture these by value so they can outlive their creator
// (the driver may be destroyed while a pool worker compiles).
struct CompileParams {
  std::string source;
  std::string name;
  std::string optFlag;
  double timeoutSec = 0.0;
  bool publish = false;  // cache usable: publish + single-flight by key
  uint64_t key = 0;
};

// Re-verifies and returns the cache entry for `key`, or nullopt on a miss
// (dropping any stale in-process index entry).
std::optional<CompileOutput> tryCacheHit(uint64_t key) {
  auto t0 = std::chrono::steady_clock::now();
  CacheEntry e = cachePaths(key);
  if (!verifyEntry(e)) {
    std::lock_guard<std::mutex> lock(g_cacheMutex);
    g_cacheIndex.erase(key);
    return std::nullopt;
  }
  {
    std::lock_guard<std::mutex> lock(g_cacheMutex);
    g_cacheIndex[key] = e.bin.string();
  }
  auto t1 = std::chrono::steady_clock::now();
  CompileOutput out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.exePath = e.bin.string();
  out.cacheHit = true;
  return out;
}

// Runs one real compilation in `dirStr`: writes the source, invokes the
// compiler under the watchdog/rlimits with the transient-failure retry
// loop, and publishes to the cache when the params ask for it. This is the
// single code path under both the synchronous and the asynchronous front
// ends, so fault injection, retries and crash-safe publication behave
// identically either way.
CompileOutput compileNow(const CompileParams& p, const std::string& dirStr) {
  CompileOutput out;
  fs::path src = fs::path(dirStr) / (p.name + ".cpp");
  fs::path exe = fs::path(dirStr) / (p.name + ".so");
  fs::path log = fs::path(dirStr) / (p.name + ".log");
  {
    std::ofstream f(src);
    if (!f) throw CompileError("cannot write " + src.string());
    f << p.source;
  }
  out.sourcePath = src.string();

  // Another process may have published this key since our caller's cache
  // probe; claiming the hit here saves the compile.
  if (p.publish) {
    if (auto hit = tryCacheHit(p.key)) {
      hit->sourcePath = out.sourcePath;
      return *hit;
    }
  }

  // Cross-process single-flight (see CacheKeyLock): claim the key, or poll
  // for the winner's publication. Whatever happens below — cache hit,
  // successful publish, compile failure, exception — the claim's RAII
  // release unblocks the other processes.
  CacheKeyLock claim;
  if (p.publish) {
    const double budget =
        std::max(60.0, p.timeoutSec > 0.0 ? p.timeoutSec * 2.0 : 600.0);
    const auto waitStart = std::chrono::steady_clock::now();
    for (;;) {
      if (claim.tryAcquire(p.key)) {
        // The previous holder may have published between our probe above
        // and this acquire; one more probe avoids a duplicate compile.
        if (auto hit = tryCacheHit(p.key)) {
          hit->sourcePath = out.sourcePath;
          return *hit;
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (auto hit = tryCacheHit(p.key)) {
        hit->sourcePath = out.sourcePath;
        return *hit;
      }
      claim.breakIfStale(budget);
      const double waited = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - waitStart)
                                .count();
      if (waited > budget) break;  // claim-less compile: still correct
    }
  }

  std::ostringstream cmd;
  cmd << CompilerDriver::compilerPath() << " -std=c++17 " << p.optFlag
      << " " << kSharedLibFlags;
  cmd << " -o " << shellQuote(exe.string()) << " " << shellQuote(src.string());

  // The watchdog + rlimits containing ONE compiler invocation. The CPU
  // limit shadows the wall-clock one (a compiler spinning on one core hits
  // both); AS is deliberately left unlimited — modern compilers and
  // sanitizer builds legitimately reserve huge address ranges.
  SpawnLimits limits;
  limits.timeoutSec = p.timeoutSec;
  limits.cpuSeconds = p.timeoutSec > 0.0 ? p.timeoutSec * 2.0 : 0.0;
  limits.fileSizeBytes = 4ull << 30;

  const FaultPlan faults = faultPlanFromEnv();
  constexpr int kMaxAttempts = 3;
  out.invocation = g_invocations.fetch_add(1) + 1;
  auto t0 = std::chrono::steady_clock::now();
  SpawnResult r;
  int attempt = 0;
  for (;;) {
    std::string shellCmd = cmd.str();
    // Deterministic fault injection (ACCMOS_FAULT): stage a compiler
    // death or a slow compile instead of / before the real invocation.
    if (consumeCompileFault(faults)) {
      if (faults.compileFailExit > 0) {
        shellCmd = "echo 'accmos: injected compiler failure' >&2; exit " +
                   std::to_string(faults.compileFailExit);
      } else {
        shellCmd = "kill -" + std::to_string(faults.compileFailSignal) + " $$";
      }
    } else if (faults.slowCompileMs > 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "sleep %.3f; ",
                    faults.slowCompileMs / 1000.0);
      shellCmd = buf + shellCmd;
    }
    r = spawnAndCapture({"/bin/sh", "-c", shellCmd}, limits);
    if (r.exitedOk()) break;

    // Transient failures — the OOM killer's SIGKILL or a fork-time EAGAIN
    // — are retried with bounded exponential backoff. A watchdog kill is
    // NOT transient: what timed out once will time out again.
    bool transient = !r.timedOut && ((r.launchFailed &&
                                      r.launchErrno == EAGAIN) ||
                                     statusKilledBy(r.status, SIGKILL));
    if (!transient || attempt + 1 >= kMaxAttempts) {
      std::string failure;
      if (r.timedOut) {
        failure = "timed out after " + std::to_string(p.timeoutSec) +
                  "s (watchdog killed the compiler process group)";
      } else if (r.launchFailed) {
        failure = std::string("could not be launched (") +
                  std::strerror(r.launchErrno) + ")";
      } else {
        failure = describeWaitStatus(r.status);
      }
      if (attempt > 0) {
        failure += " after " + std::to_string(attempt) + " retr" +
                   (attempt == 1 ? "y" : "ies");
      }
      throw CompileError("compilation of generated simulation code failed: " +
                         CompilerDriver::compilerPath() + " " + failure +
                         "\ncompiler output:\n" + r.output);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25 << attempt));
    ++attempt;
  }
  auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.retries = attempt;
  {
    // Keep the on-disk log for debugging sessions with keepGeneratedCode.
    std::ofstream f(log);
    f << r.output;
  }
  out.exePath = exe.string();
  if (p.publish && storeEntry(p.key, exe)) {
    CacheEntry e = cachePaths(p.key);
    out.exePath = e.bin.string();
    std::lock_guard<std::mutex> lock(g_cacheMutex);
    g_cacheIndex[p.key] = e.bin.string();
  }
  return out;
}

// Self-owned scratch directory for pool-executed jobs (a pool worker has
// no driver directory to compile in). Removed when the last reference —
// possibly a CompileOutput::keepAlive — goes away.
struct JobWorkspace {
  std::string dir;
  JobWorkspace() {
    fs::path base = fs::temp_directory_path() /
                    ("accmos_async_" + std::to_string(::getpid()) + "_" +
                     std::to_string(g_dirCounter.fetch_add(1)));
    fs::create_directories(base);
    dir = base.string();
  }
  ~JobWorkspace() {
    std::error_code ec;
    fs::remove_all(dir, ec);  // best effort
  }
};

}  // namespace

namespace detail {

// One in-flight compilation shared by every requester of the same cache
// key. The promise/shared_future pair carries the result to all of them;
// `claimed` makes execution single-shot (whoever flips it runs the
// compile — a synchronous caller inline, or a pool worker); `interest`
// counts live handles for cooperative cancellation.
class CompileJob {
 public:
  explicit CompileJob(CompileParams p) : params(std::move(p)) {
    future = promise.get_future().share();
  }

  CompileParams params;
  std::promise<CompileOutput> promise;
  std::shared_future<CompileOutput> future;
  std::atomic<bool> claimed{false};
  std::atomic<int> interest{0};
  bool mapped = false;  // registered in the single-flight map
};

}  // namespace detail

namespace {

using detail::CompileJob;

// Single-flight map: cache key -> the job currently compiling it. Entries
// are removed the moment the job completes, so a later request re-probes
// the (now warm) cache instead of holding completed jobs alive.
std::mutex g_flightMutex;
std::unordered_map<uint64_t, std::shared_ptr<CompileJob>> g_inFlight;

void unregisterJob(const std::shared_ptr<CompileJob>& job) {
  if (!job->mapped) return;
  std::lock_guard<std::mutex> lock(g_flightMutex);
  auto it = g_inFlight.find(job->params.key);
  if (it != g_inFlight.end() && it->second == job) g_inFlight.erase(it);
}

// Joins the in-flight job for `p.key` or registers a fresh one.
// Returns {job, true-if-fresh}.
std::pair<std::shared_ptr<CompileJob>, bool> acquireJob(
    const CompileParams& p) {
  std::lock_guard<std::mutex> lock(g_flightMutex);
  auto it = g_inFlight.find(p.key);
  if (it != g_inFlight.end()) return {it->second, false};
  auto job = std::make_shared<CompileJob>(p);
  job->mapped = true;
  g_inFlight[p.key] = job;
  return {job, true};
}

// Claims and executes `job` on the calling thread unless someone already
// did. With an empty dirHint the job compiles in its own workspace (the
// pool path); otherwise in the caller's driver directory (the inline
// path). Always completes the promise — value or exception.
bool runJobIfUnclaimed(const std::shared_ptr<CompileJob>& job,
                       const std::string& dirHint) {
  if (job->claimed.exchange(true)) return false;
  try {
    std::shared_ptr<JobWorkspace> ws;
    std::string dir = dirHint;
    if (dir.empty()) {
      ws = std::make_shared<JobWorkspace>();
      dir = ws->dir;
    }
    CompileOutput out = compileNow(job->params, dir);
    // Only an artifact still inside the workspace (publication failed or
    // the cache is off) needs the workspace kept alive with the output.
    if (ws && out.exePath.rfind(ws->dir, 0) == 0) out.keepAlive = ws;
    job->promise.set_value(std::move(out));
  } catch (...) {
    job->promise.set_exception(std::current_exception());
  }
  unregisterJob(job);
  return true;
}

// The background compile pool: a lazily-started set of worker threads
// (ACCMOS_COMPILE_POOL, default 2) draining a FIFO of jobs. A job whose
// every handle was cancelled before a worker reached it is completed with
// CompileCancelled instead of being compiled; a job a synchronous caller
// already claimed inline is skipped. Function-local static: constructed on
// first use, joined at process exit.
class CompilePool {
 public:
  static CompilePool& instance() {
    static CompilePool pool;
    return pool;
  }

  void enqueue(std::shared_ptr<CompileJob> job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(job));
      size_t want = static_cast<size_t>(CompilerDriver::compilePoolSize());
      while (workers_.size() < want) {
        workers_.emplace_back([this] { workerLoop(); });
      }
    }
    cv_.notify_one();
  }

  ~CompilePool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

 private:
  void workerLoop() {
    for (;;) {
      std::shared_ptr<CompileJob> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      if (job->interest.load() <= 0) {
        // Cooperative cancellation: nobody wants the result anymore and
        // work has not started — complete without compiling.
        if (!job->claimed.exchange(true)) {
          job->promise.set_exception(std::make_exception_ptr(CompileCancelled(
              "asynchronous compilation of " + job->params.name +
              " cancelled before it started")));
          unregisterJob(job);
        }
        continue;
      }
      runJobIfUnclaimed(job, "");
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<CompileJob>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

// An already-resolved job for the cache-hit fast path of compileAsync().
std::shared_ptr<CompileJob> makeReadyJob(CompileOutput out) {
  auto job = std::make_shared<CompileJob>(CompileParams{});
  job->claimed.store(true);
  job->promise.set_value(std::move(out));
  return job;
}

}  // namespace

CompileHandle::CompileHandle(std::shared_ptr<detail::CompileJob> job)
    : job_(std::move(job)) {
  if (job_) job_->interest.fetch_add(1);
}

CompileHandle::CompileHandle(CompileHandle&& other) noexcept
    : job_(std::move(other.job_)), released_(other.released_) {
  other.job_.reset();
  other.released_ = true;
}

CompileHandle& CompileHandle::operator=(CompileHandle&& other) noexcept {
  if (this != &other) {
    cancel();
    job_ = std::move(other.job_);
    released_ = other.released_;
    other.job_.reset();
    other.released_ = true;
  }
  return *this;
}

CompileHandle::~CompileHandle() { cancel(); }

bool CompileHandle::ready() const {
  return job_ != nullptr &&
         job_->future.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
}

CompileOutput CompileHandle::get() const {
  if (!job_) throw CompileError("get() on an empty CompileHandle");
  return job_->future.get();
}

void CompileHandle::wait() const {
  if (job_) job_->future.wait();
}

void CompileHandle::cancel() {
  if (job_ && !released_) {
    job_->interest.fetch_sub(1);
    released_ = true;
  }
}

CompilerDriver::CompilerDriver(std::string workDir) {
  if (workDir.empty()) {
    fs::path base = fs::temp_directory_path() /
                    ("accmos_" + std::to_string(::getpid()) + "_" +
                     std::to_string(g_dirCounter.fetch_add(1)));
    fs::create_directories(base);
    dir_ = base.string();
    owned_ = true;
  } else {
    fs::create_directories(workDir);
    dir_ = workDir;
  }
}

CompilerDriver::~CompilerDriver() {
  if (owned_ && !keep_) {
    std::error_code ec;
    fs::remove_all(dir_, ec);  // best effort
  }
}

std::string CompilerDriver::compilerPath() {
  const char* cxx = std::getenv("CXX");
  if (cxx != nullptr && cxx[0] != '\0') return cxx;
  return "c++";
}

std::string CompilerDriver::cacheDir() {
  const char* env = std::getenv("ACCMOS_CACHE_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return (fs::temp_directory_path() / "accmos-cache").string();
}

double CompilerDriver::defaultCompileTimeout() {
  if (const char* env = std::getenv("ACCMOS_COMPILE_TIMEOUT");
      env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    double v = std::strtod(env, &end);
    if (end != env && v >= 0.0) return v;
  }
  return 300.0;
}

uint64_t CompilerDriver::cacheKey(const std::string& source,
                                  const std::string& optFlag,
                                  ArtifactKind /*kind*/,
                                  const std::string& /*extraFlags*/) {
  uint64_t h = fnv1a64(compilerPath());
  h = fnv1a64(std::string(" -std=c++17 "), h);
  h = fnv1a64(optFlag, h);
  h = fnv1a64(std::string(kSharedLibFlags), h);
  h = fnv1a64(std::string("\x1f"), h);  // separator: flags vs source
  return fnv1a64(source, h);
}

uint64_t CompilerDriver::compilerInvocations() { return g_invocations.load(); }

bool CompilerDriver::cacheDisabledGlobally() { return cacheDisabledByEnv(); }

int CompilerDriver::compilePoolSize() {
  if (const char* env = std::getenv("ACCMOS_COMPILE_POOL");
      env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) return static_cast<int>(v < 16 ? v : 16);
  }
  return 2;
}

CompileOutput CompilerDriver::compile(const std::string& source,
                                      const std::string& name,
                                      const std::string& optFlag,
                                      ArtifactKind /*kind*/) {
  CompileParams p;
  p.source = source;
  p.name = name;
  p.optFlag = optFlag;
  p.timeoutSec = compileTimeoutSec_;
  p.publish = cacheEnabled_ && !cacheDisabledByEnv();

  // The caller's source copy always lands in this driver's directory (the
  // keepGeneratedCode contract), whichever thread ends up compiling.
  fs::path src = fs::path(dir_) / (name + ".cpp");
  {
    std::ofstream f(src);
    if (!f) throw CompileError("cannot write " + src.string());
    f << source;
  }

  if (!p.publish) {
    // No cache, no sharing: compile privately in this driver's directory.
    CompileOutput out = compileNow(p, dir_);
    out.sourcePath = src.string();
    return out;
  }

  p.key = cacheKey(source, optFlag);
  if (auto hit = tryCacheHit(p.key)) {
    hit->sourcePath = src.string();
    return *hit;
  }

  // Single-flight: join the in-flight compile for this key or register a
  // fresh one — and in either case try to claim execution inline, so the
  // synchronous path never waits on pool scheduling. Exactly one claimant
  // compiles; everyone else blocks on the shared future.
  auto acquired = acquireJob(p);
  std::shared_ptr<CompileJob> job = acquired.first;
  job->interest.fetch_add(1);
  runJobIfUnclaimed(job, dir_);
  CompileOutput out;
  try {
    out = job->future.get();
  } catch (...) {
    job->interest.fetch_sub(1);
    throw;
  }
  job->interest.fetch_sub(1);
  out.sourcePath = src.string();

  // A joined result normally lives in the cache (published) or carries its
  // workspace via keepAlive. The residual corner — another driver compiled
  // it in its own directory and publication failed — would hand us a path
  // whose lifetime we don't control; rebuild locally instead.
  bool local = out.exePath.rfind(dir_, 0) == 0;
  bool cached = out.exePath.rfind(cacheDir(), 0) == 0;
  if (!local && !cached && !out.keepAlive) {
    out = compileNow(p, dir_);
    out.sourcePath = src.string();
  }
  return out;
}

CompileHandle CompilerDriver::compileAsync(const std::string& source,
                                           const std::string& name,
                                           const std::string& optFlag,
                                           ArtifactKind /*kind*/) {
  CompileParams p;
  p.source = source;
  p.name = name;
  p.optFlag = optFlag;
  p.timeoutSec = compileTimeoutSec_;
  p.publish = cacheEnabled_ && !cacheDisabledByEnv();

  if (p.publish) {
    p.key = cacheKey(source, optFlag);
    if (auto hit = tryCacheHit(p.key)) {
      // Warm model: the handle is ready before the caller's first poll.
      return CompileHandle(makeReadyJob(std::move(*hit)));
    }
    auto acquired = acquireJob(p);
    CompileHandle h(acquired.first);  // register interest before enqueueing
    if (acquired.second) CompilePool::instance().enqueue(acquired.first);
    return h;
  }

  // Cache off: still async, but private — no key to share under.
  auto job = std::make_shared<CompileJob>(std::move(p));
  CompileHandle h(job);
  CompilePool::instance().enqueue(std::move(job));
  return h;
}

std::string CompilerDriver::run(const std::string& exePath,
                                const std::vector<std::string>& args,
                                double timeoutSec) const {
  std::vector<std::string> argv;
  argv.reserve(args.size() + 1);
  argv.push_back(exePath);
  for (const auto& a : args) argv.push_back(a);

  // A simulation run normally retires itself cooperatively before its
  // deadline; the watchdog is the backstop for a genuine hang, so it
  // fires a little later than the cooperative deadline would.
  SpawnLimits limits;
  limits.timeoutSec = timeoutSec > 0.0 ? timeoutSec * 1.5 + 1.0 : 0.0;
  limits.cpuSeconds = timeoutSec > 0.0 ? timeoutSec * 2.0 + 5.0 : 0.0;
  limits.fileSizeBytes = 1ull << 30;

  SpawnResult r = spawnAndCapture(argv, limits);
  if (r.launchFailed) {
    throw CompileError("failed to launch " + exePath + ": " +
                       std::strerror(r.launchErrno));
  }
  if (r.timedOut) {
    throw SimTimeoutError(exePath + " exceeded the " +
                          std::to_string(limits.timeoutSec) +
                          "s watchdog deadline; its process group was killed");
  }
  if (WIFSIGNALED(r.status)) {
    throw SimCrashError(
        exePath + " " + describeWaitStatus(r.status) + "\n" + r.output,
        WTERMSIG(r.status));
  }
  std::string failure = describeWaitStatus(r.status);
  if (!failure.empty()) {
    throw SimCrashError(exePath + " " + failure + "\n" + r.output, 0);
  }
  return r.output;
}

}  // namespace accmos
