#include "codegen/fault.h"

#include <csignal>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "ir/model.h"

namespace accmos {
namespace {

std::vector<std::string> splitList(const std::string& s, const char* seps) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (std::string(seps).find(c) != std::string::npos) {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

uint64_t parseU64(const std::string& s, const std::string& directive) {
  if (s.empty()) throw ModelError("ACCMOS_FAULT: missing number in '" +
                                  directive + "'");
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9')
      throw ModelError("ACCMOS_FAULT: bad number '" + s + "' in '" +
                       directive + "'");
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

// One directive: name['@'step](':'qual['='val])*
void parseDirective(const std::string& d, FaultPlan& plan) {
  std::vector<std::string> parts = splitList(d, ":");
  if (parts.empty()) return;

  std::string head = parts[0];  // name[@step]
  std::string name = head;
  bool hasStep = false;
  uint64_t step = 0;
  if (auto at = head.find('@'); at != std::string::npos) {
    name = head.substr(0, at);
    step = parseU64(head.substr(at + 1), d);
    hasStep = true;
  }

  auto qualifiers = [&](size_t from) {
    std::vector<std::pair<std::string, std::string>> qs;
    for (size_t i = from; i < parts.size(); ++i) {
      auto eq = parts[i].find('=');
      if (eq == std::string::npos)
        qs.emplace_back(parts[i], "");
      else
        qs.emplace_back(parts[i].substr(0, eq), parts[i].substr(eq + 1));
    }
    return qs;
  };

  if (name == "hang" || name == "crash") {
    FaultPlan::SiteFault& f = name == "hang" ? plan.hang : plan.crash;
    f.armed = true;
    f.step = step;
    for (auto& [q, v] : qualifiers(1)) {
      if (q == "seed") {
        f.hasSeed = true;
        f.seed = parseU64(v, d);
      } else {
        throw ModelError("ACCMOS_FAULT: unknown qualifier '" + q + "' in '" +
                         d + "'");
      }
    }
  } else if (name == "compile-fail") {
    if (hasStep)
      throw ModelError("ACCMOS_FAULT: compile-fail takes no @step: '" + d +
                       "'");
    plan.compileFail = true;
    plan.compileFailSignal = SIGKILL;
    for (auto& [q, v] : qualifiers(1)) {
      if (q == "once") {
        plan.compileFailOnce = true;
      } else if (q == "sig") {
        plan.compileFailSignal = static_cast<int>(parseU64(v, d));
        plan.compileFailExit = 0;
        // Signal 0 is the kill(2) existence probe — it would inject
        // nothing, which is exactly the silent no-op this facility exists
        // to rule out.
        if (plan.compileFailSignal == 0)
          throw ModelError("ACCMOS_FAULT: sig must be a real signal: '" + d +
                           "'");
      } else if (q == "exit") {
        plan.compileFailExit = static_cast<int>(parseU64(v, d));
        plan.compileFailSignal = 0;
        if (plan.compileFailExit == 0)
          throw ModelError("ACCMOS_FAULT: exit must be nonzero: '" + d + "'");
      } else {
        throw ModelError("ACCMOS_FAULT: unknown qualifier '" + q + "' in '" +
                         d + "'");
      }
    }
  } else if (name == "slow-compile") {
    if (hasStep)
      throw ModelError("ACCMOS_FAULT: slow-compile takes no @step: '" + d +
                       "'");
    int ms = 0;
    for (auto& [q, v] : qualifiers(1)) {
      if (q == "ms")
        ms = static_cast<int>(parseU64(v, d));
      else if (v.empty())  // bare-number shorthand: slow-compile:250
        ms = static_cast<int>(parseU64(q, d));
      else
        throw ModelError("ACCMOS_FAULT: unknown qualifier '" + q + "' in '" +
                         d + "'");
    }
    if (ms <= 0)
      throw ModelError("ACCMOS_FAULT: slow-compile needs a positive ms: '" +
                       d + "'");
    plan.slowCompileMs = ms;
  } else if (name == "dlopen-fail") {
    if (hasStep)
      throw ModelError("ACCMOS_FAULT: dlopen-fail takes no @step: '" + d +
                       "'");
    if (parts.size() > 1)
      throw ModelError("ACCMOS_FAULT: dlopen-fail takes no qualifiers: '" +
                       d + "'");
    plan.dlopenFail = true;
  } else if (name == "shard-abort") {
    if (hasStep)
      throw ModelError("ACCMOS_FAULT: shard-abort takes no @step: '" + d +
                       "'");
    bool hasShard = false;
    for (auto& [q, v] : qualifiers(1)) {
      if (q != "shard")
        throw ModelError("ACCMOS_FAULT: unknown qualifier '" + q + "' in '" +
                         d + "'");
      plan.shardAbortIndex = parseU64(v, d);
      hasShard = true;
    }
    if (!hasShard)
      throw ModelError("ACCMOS_FAULT: shard-abort needs shard=I: '" + d +
                       "'");
    plan.shardAbort = true;
  } else {
    throw ModelError("ACCMOS_FAULT: unknown directive '" + d + "'");
  }
}

}  // namespace

FaultPlan faultPlanFromEnv() {
  FaultPlan plan;
  if (const char* v = std::getenv("ACCMOS_FAULT"); v != nullptr && *v) {
    for (const std::string& d : splitList(v, ";,")) parseDirective(d, plan);
  }
  return plan;
}

bool consumeCompileFault(const FaultPlan& plan) {
  if (!plan.compileFail) return false;
  if (!plan.compileFailOnce) return true;
  // :once re-arms whenever the env VALUE changes, so sequential tests in
  // one process each get their own single shot.
  static std::mutex mu;
  static std::string armedFor;
  static bool used = false;
  const char* env = std::getenv("ACCMOS_FAULT");
  std::string cur = env ? env : "";
  std::lock_guard<std::mutex> lock(mu);
  if (cur != armedFor) {
    armedFor = cur;
    used = false;
  }
  if (used) return false;
  used = true;
  return true;
}

}  // namespace accmos
