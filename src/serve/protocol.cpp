#include "serve/protocol.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>

#include "ir/datatype.h"

namespace accmos::serve {

namespace {

// ---- small shape helpers ----------------------------------------------

std::string sub(const std::string& where, const char* key) {
  return where + "." + key;
}

std::string idx(const std::string& where, size_t i) {
  return where + "[" + std::to_string(i) + "]";
}

bool getBool(const Json& j, const std::string& where, const char* key) {
  return j.at(key, where).asBool(sub(where, key));
}
uint64_t getU64(const Json& j, const std::string& where, const char* key) {
  return j.at(key, where).asU64(sub(where, key));
}
int64_t getI64(const Json& j, const std::string& where, const char* key) {
  return j.at(key, where).asI64(sub(where, key));
}
double getDouble(const Json& j, const std::string& where, const char* key) {
  return j.at(key, where).asDouble(sub(where, key));
}
const std::string& getString(const Json& j, const std::string& where,
                             const char* key) {
  return j.at(key, where).asString(sub(where, key));
}
const std::vector<Json>& getArray(const Json& j, const std::string& where,
                                  const char* key) {
  return j.at(key, where).asArray(sub(where, key));
}

int getInt(const Json& j, const std::string& where, const char* key) {
  return static_cast<int>(getI64(j, where, key));
}

[[noreturn]] void badEnum(const std::string& where, const std::string& got) {
  throw JsonError("unknown name \"" + got + "\" at " + where);
}

}  // namespace

// ---- Value -------------------------------------------------------------
// Exact element transport: each slot travels as its 64-bit two's-complement
// / IEEE-754 bit pattern rendered as a decimal uint64. Value::i() exposes
// the raw slot for every type (sign-extended for ints, the bit pattern for
// floats), so NaN payloads, -0.0 and wrapped unsigned values all survive.

Json toJson(const Value& v) {
  Json j = Json::object();
  j.set("t", Json::str(std::string(dataTypeName(v.type()))));
  j.set("w", Json::u64(static_cast<uint64_t>(v.width())));
  Json bits = Json::array();
  for (int k = 0; k < v.width(); ++k) {
    bits.push(Json::u64(static_cast<uint64_t>(v.i(k))));
  }
  j.set("bits", std::move(bits));
  return j;
}

Value valueFromJson(const Json& j, const std::string& where) {
  const std::string& tname = getString(j, where, "t");
  auto type = dataTypeFromName(tname);
  if (!type) badEnum(sub(where, "t"), tname);
  uint64_t width = getU64(j, where, "w");
  const auto& bits = getArray(j, where, "bits");
  if (width < 1 || bits.size() != width) {
    throw JsonError("width/bits mismatch at " + where);
  }
  Value v(*type, static_cast<int>(width));
  for (size_t k = 0; k < bits.size(); ++k) {
    uint64_t raw = bits[k].asU64(idx(sub(where, "bits"), k));
    if (*type == DataType::F64) {
      v.setF(static_cast<int>(k), std::bit_cast<double>(raw));
    } else if (*type == DataType::F32) {
      v.setF(static_cast<int>(k),
             static_cast<double>(
                 std::bit_cast<float>(static_cast<uint32_t>(raw))));
    } else {
      v.setI(static_cast<int>(k), static_cast<int64_t>(raw));
    }
  }
  return v;
}

// ---- Coverage ----------------------------------------------------------
// Bitmaps travel as '0'/'1' strings per metric — compact, diffable, and
// the decoded recorder compares equal byte-for-byte.

Json toJson(const CoverageRecorder& rec) {
  Json j = Json::object();
  for (CovMetric m : kAllCovMetrics) {
    const auto& bits = rec.bits(m);
    std::string s(bits.size(), '0');
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i] != 0) s[i] = '1';
    }
    j.set(std::string(covMetricName(m)), Json::str(std::move(s)));
  }
  return j;
}

CoverageRecorder recorderFromJson(const Json& j, const std::string& where) {
  CoverageRecorder rec;
  for (CovMetric m : kAllCovMetrics) {
    const std::string key(covMetricName(m));
    const std::string& s = j.at(key, where).asString(where + "." + key);
    auto& bits = rec.bits(m);
    bits.assign(s.size(), 0);
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i] == '1') {
        bits[i] = 1;
      } else if (s[i] != '0') {
        throw JsonError("bitmap byte " + std::to_string(i) + " at " + where +
                        "." + key + " is not '0'/'1'");
      }
    }
  }
  return rec;
}

Json toJson(const CoverageReport& rep) {
  Json j = Json::object();
  for (CovMetric m : kAllCovMetrics) {
    const auto& e = rep.of(m);
    Json entry = Json::object();
    entry.set("covered", Json::i64(e.covered));
    entry.set("total", Json::i64(e.total));
    j.set(std::string(covMetricName(m)), std::move(entry));
  }
  return j;
}

CoverageReport reportFromJson(const Json& j, const std::string& where) {
  CoverageReport rep;
  for (CovMetric m : kAllCovMetrics) {
    const std::string key(covMetricName(m));
    const Json& entry = j.at(key, where);
    const std::string ewhere = where + "." + key;
    auto& e = rep.entries[static_cast<size_t>(m)];
    e.covered = getInt(entry, ewhere, "covered");
    e.total = getInt(entry, ewhere, "total");
  }
  return rep;
}

// ---- Diagnostics / failures / opt stats --------------------------------

Json toJson(const DiagRecord& d) {
  Json j = Json::object();
  j.set("actorId", Json::i64(d.actorId));
  j.set("actorPath", Json::str(d.actorPath));
  j.set("kind", Json::str(std::string(diagKindName(d.kind))));
  j.set("message", Json::str(d.message));
  j.set("firstStep", Json::u64(d.firstStep));
  j.set("count", Json::u64(d.count));
  return j;
}

DiagRecord diagFromJson(const Json& j, const std::string& where) {
  DiagRecord d;
  d.actorId = getInt(j, where, "actorId");
  d.actorPath = getString(j, where, "actorPath");
  const std::string& kname = getString(j, where, "kind");
  auto kind = diagKindFromName(kname);
  if (!kind) badEnum(sub(where, "kind"), kname);
  d.kind = *kind;
  d.message = getString(j, where, "message");
  d.firstStep = getU64(j, where, "firstStep");
  d.count = getU64(j, where, "count");
  return d;
}

Json toJson(const RunFailure& f) {
  Json j = Json::object();
  j.set("kind", Json::str(failureKindName(f.kind)));
  j.set("seed", Json::u64(f.seed));
  j.set("index", Json::u64(static_cast<uint64_t>(f.index)));
  j.set("signal", Json::i64(f.signal));
  j.set("retries", Json::i64(f.retries));
  j.set("backend", Json::str(f.backend));
  j.set("message", Json::str(f.message));
  return j;
}

RunFailure runFailureFromJson(const Json& j, const std::string& where) {
  RunFailure f;
  const std::string& kname = getString(j, where, "kind");
  bool found = false;
  for (FailureKind k :
       {FailureKind::Timeout, FailureKind::Crash, FailureKind::CompileError,
        FailureKind::AbiMismatch}) {
    if (kname == failureKindName(k)) {
      f.kind = k;
      found = true;
      break;
    }
  }
  if (!found) badEnum(sub(where, "kind"), kname);
  f.seed = getU64(j, where, "seed");
  f.index = static_cast<size_t>(getU64(j, where, "index"));
  f.signal = getInt(j, where, "signal");
  f.retries = getInt(j, where, "retries");
  f.backend = getString(j, where, "backend");
  f.message = getString(j, where, "message");
  return f;
}

Json toJson(const OptStats& s) {
  Json j = Json::object();
  j.set("ran", Json::boolean(s.ran));
  j.set("actorsBefore", Json::i64(s.actorsBefore));
  j.set("actorsAfter", Json::i64(s.actorsAfter));
  j.set("signalsBefore", Json::i64(s.signalsBefore));
  j.set("signalsAfter", Json::i64(s.signalsAfter));
  j.set("actorsFolded", Json::i64(s.actorsFolded));
  j.set("identitiesBypassed", Json::i64(s.identitiesBypassed));
  j.set("actorsEliminated", Json::i64(s.actorsEliminated));
  j.set("signalsEliminated", Json::i64(s.signalsEliminated));
  j.set("stateUpdatesHoisted", Json::i64(s.stateUpdatesHoisted));
  return j;
}

OptStats optStatsFromJson(const Json& j, const std::string& where) {
  OptStats s;
  s.ran = getBool(j, where, "ran");
  s.actorsBefore = getInt(j, where, "actorsBefore");
  s.actorsAfter = getInt(j, where, "actorsAfter");
  s.signalsBefore = getInt(j, where, "signalsBefore");
  s.signalsAfter = getInt(j, where, "signalsAfter");
  s.actorsFolded = getInt(j, where, "actorsFolded");
  s.identitiesBypassed = getInt(j, where, "identitiesBypassed");
  s.actorsEliminated = getInt(j, where, "actorsEliminated");
  s.signalsEliminated = getInt(j, where, "signalsEliminated");
  s.stateUpdatesHoisted = getInt(j, where, "stateUpdatesHoisted");
  return s;
}

Json toJson(const CollectedSignal& c) {
  Json j = Json::object();
  j.set("path", Json::str(c.path));
  j.set("last", toJson(c.last));
  j.set("count", Json::u64(c.count));
  return j;
}

CollectedSignal collectedFromJson(const Json& j, const std::string& where) {
  CollectedSignal c;
  c.path = getString(j, where, "path");
  c.last = valueFromJson(j.at("last", where), sub(where, "last"));
  c.count = getU64(j, where, "count");
  return c;
}

// ---- SimulationResult --------------------------------------------------

Json toJson(const SimulationResult& r) {
  Json j = Json::object();
  j.set("stepsExecuted", Json::u64(r.stepsExecuted));
  j.set("stoppedEarly", Json::boolean(r.stoppedEarly));
  j.set("timedOut", Json::boolean(r.timedOut));
  j.set("failed", Json::boolean(r.failed));
  j.set("failure", toJson(r.failure));
  j.set("execSeconds", Json::number(r.execSeconds));
  j.set("generateSeconds", Json::number(r.generateSeconds));
  j.set("compileSeconds", Json::number(r.compileSeconds));
  j.set("loadSeconds", Json::number(r.loadSeconds));
  j.set("execMode", Json::str(r.execMode));
  j.set("hasCoverage", Json::boolean(r.hasCoverage));
  j.set("coverage", toJson(r.coverage));
  j.set("bitmaps", toJson(r.bitmaps));
  Json diags = Json::array();
  for (const auto& d : r.diagnostics) diags.push(toJson(d));
  j.set("diagnostics", std::move(diags));
  Json coll = Json::array();
  for (const auto& c : r.collected) coll.push(toJson(c));
  j.set("collected", std::move(coll));
  Json outs = Json::array();
  for (const auto& v : r.finalOutputs) outs.push(toJson(v));
  j.set("finalOutputs", std::move(outs));
  j.set("optStats", toJson(r.optStats));
  return j;
}

SimulationResult simResultFromJson(const Json& j, const std::string& where) {
  SimulationResult r;
  r.stepsExecuted = getU64(j, where, "stepsExecuted");
  r.stoppedEarly = getBool(j, where, "stoppedEarly");
  r.timedOut = getBool(j, where, "timedOut");
  r.failed = getBool(j, where, "failed");
  r.failure = runFailureFromJson(j.at("failure", where), sub(where, "failure"));
  r.execSeconds = getDouble(j, where, "execSeconds");
  r.generateSeconds = getDouble(j, where, "generateSeconds");
  r.compileSeconds = getDouble(j, where, "compileSeconds");
  r.loadSeconds = getDouble(j, where, "loadSeconds");
  r.execMode = getString(j, where, "execMode");
  r.hasCoverage = getBool(j, where, "hasCoverage");
  r.coverage = reportFromJson(j.at("coverage", where), sub(where, "coverage"));
  r.bitmaps = recorderFromJson(j.at("bitmaps", where), sub(where, "bitmaps"));
  {
    const auto& arr = getArray(j, where, "diagnostics");
    const std::string awhere = sub(where, "diagnostics");
    for (size_t i = 0; i < arr.size(); ++i) {
      r.diagnostics.push_back(diagFromJson(arr[i], idx(awhere, i)));
    }
  }
  {
    const auto& arr = getArray(j, where, "collected");
    const std::string awhere = sub(where, "collected");
    for (size_t i = 0; i < arr.size(); ++i) {
      r.collected.push_back(collectedFromJson(arr[i], idx(awhere, i)));
    }
  }
  {
    const auto& arr = getArray(j, where, "finalOutputs");
    const std::string awhere = sub(where, "finalOutputs");
    for (size_t i = 0; i < arr.size(); ++i) {
      r.finalOutputs.push_back(valueFromJson(arr[i], idx(awhere, i)));
    }
  }
  r.optStats = optStatsFromJson(j.at("optStats", where), sub(where, "optStats"));
  return r;
}

// ---- CampaignResult ----------------------------------------------------

Json toJson(const CampaignSeedResult& r) {
  Json j = Json::object();
  j.set("seed", Json::u64(r.seed));
  j.set("steps", Json::u64(r.steps));
  j.set("execSeconds", Json::number(r.execSeconds));
  j.set("coverage", toJson(r.coverage));
  j.set("cumulative", toJson(r.cumulative));
  j.set("diagnosticKinds", Json::u64(static_cast<uint64_t>(r.diagnosticKinds)));
  j.set("execMode", Json::str(r.execMode));
  j.set("failed", Json::boolean(r.failed));
  return j;
}

CampaignSeedResult seedResultFromJson(const Json& j, const std::string& where) {
  CampaignSeedResult r;
  r.seed = getU64(j, where, "seed");
  r.steps = getU64(j, where, "steps");
  r.execSeconds = getDouble(j, where, "execSeconds");
  r.coverage = reportFromJson(j.at("coverage", where), sub(where, "coverage"));
  r.cumulative =
      reportFromJson(j.at("cumulative", where), sub(where, "cumulative"));
  r.diagnosticKinds = static_cast<size_t>(getU64(j, where, "diagnosticKinds"));
  r.execMode = getString(j, where, "execMode");
  r.failed = getBool(j, where, "failed");
  return r;
}

Json toJson(const CampaignResult& r) {
  Json j = Json::object();
  Json perSeed = Json::array();
  for (const auto& s : r.perSeed) perSeed.push(toJson(s));
  j.set("perSeed", std::move(perSeed));
  j.set("cumulative", toJson(r.cumulative));
  j.set("mergedBitmaps", toJson(r.mergedBitmaps));
  Json diags = Json::array();
  for (const auto& d : r.diagnostics) diags.push(toJson(d));
  j.set("diagnostics", std::move(diags));
  j.set("totalExecSeconds", Json::number(r.totalExecSeconds));
  j.set("wallSeconds", Json::number(r.wallSeconds));
  j.set("generateSeconds", Json::number(r.generateSeconds));
  j.set("compileSeconds", Json::number(r.compileSeconds));
  j.set("loadSeconds", Json::number(r.loadSeconds));
  j.set("compileCacheHit", Json::boolean(r.compileCacheHit));
  j.set("compileWaitSeconds", Json::number(r.compileWaitSeconds));
  j.set("timeToFirstResultSeconds", Json::number(r.timeToFirstResultSeconds));
  j.set("tierSwapIndex", Json::i64(r.tierSwapIndex));
  j.set("interpSeeds", Json::u64(static_cast<uint64_t>(r.interpSeeds)));
  j.set("nativeSeeds", Json::u64(static_cast<uint64_t>(r.nativeSeeds)));
  j.set("workersUsed", Json::u64(static_cast<uint64_t>(r.workersUsed)));
  Json fails = Json::array();
  for (const auto& f : r.failures) fails.push(toJson(f));
  j.set("failures", std::move(fails));
  j.set("optStats", toJson(r.optStats));
  j.set("interrupted", Json::boolean(r.interrupted));
  return j;
}

CampaignResult campaignResultFromJson(const Json& j, const std::string& where) {
  CampaignResult r;
  {
    const auto& arr = getArray(j, where, "perSeed");
    const std::string awhere = sub(where, "perSeed");
    for (size_t i = 0; i < arr.size(); ++i) {
      r.perSeed.push_back(seedResultFromJson(arr[i], idx(awhere, i)));
    }
  }
  r.cumulative =
      reportFromJson(j.at("cumulative", where), sub(where, "cumulative"));
  r.mergedBitmaps = recorderFromJson(j.at("mergedBitmaps", where),
                                     sub(where, "mergedBitmaps"));
  {
    const auto& arr = getArray(j, where, "diagnostics");
    const std::string awhere = sub(where, "diagnostics");
    for (size_t i = 0; i < arr.size(); ++i) {
      r.diagnostics.push_back(diagFromJson(arr[i], idx(awhere, i)));
    }
  }
  r.totalExecSeconds = getDouble(j, where, "totalExecSeconds");
  r.wallSeconds = getDouble(j, where, "wallSeconds");
  r.generateSeconds = getDouble(j, where, "generateSeconds");
  r.compileSeconds = getDouble(j, where, "compileSeconds");
  r.loadSeconds = getDouble(j, where, "loadSeconds");
  r.compileCacheHit = getBool(j, where, "compileCacheHit");
  r.compileWaitSeconds = getDouble(j, where, "compileWaitSeconds");
  r.timeToFirstResultSeconds = getDouble(j, where, "timeToFirstResultSeconds");
  r.tierSwapIndex = getI64(j, where, "tierSwapIndex");
  r.interpSeeds = static_cast<size_t>(getU64(j, where, "interpSeeds"));
  r.nativeSeeds = static_cast<size_t>(getU64(j, where, "nativeSeeds"));
  r.workersUsed = static_cast<size_t>(getU64(j, where, "workersUsed"));
  {
    const auto& arr = getArray(j, where, "failures");
    const std::string awhere = sub(where, "failures");
    for (size_t i = 0; i < arr.size(); ++i) {
      r.failures.push_back(runFailureFromJson(arr[i], idx(awhere, i)));
    }
  }
  r.optStats = optStatsFromJson(j.at("optStats", where), sub(where, "optStats"));
  r.interrupted = getBool(j, where, "interrupted");
  return r;
}

// ---- Stimulus / options ------------------------------------------------

Json toJson(const PortStimulus& p) {
  Json j = Json::object();
  j.set("min", Json::number(p.min));
  j.set("max", Json::number(p.max));
  Json seq = Json::array();
  for (double v : p.sequence) seq.push(Json::number(v));
  j.set("sequence", std::move(seq));
  return j;
}

PortStimulus portStimulusFromJson(const Json& j, const std::string& where) {
  PortStimulus p;
  p.min = getDouble(j, where, "min");
  p.max = getDouble(j, where, "max");
  const auto& seq = getArray(j, where, "sequence");
  const std::string swhere = sub(where, "sequence");
  p.sequence.reserve(seq.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    p.sequence.push_back(seq[i].asDouble(idx(swhere, i)));
  }
  return p;
}

Json toJson(const TestCaseSpec& s) {
  Json j = Json::object();
  j.set("seed", Json::u64(s.seed));
  Json ports = Json::array();
  for (const auto& p : s.ports) ports.push(toJson(p));
  j.set("ports", std::move(ports));
  j.set("defaultPort", toJson(s.defaultPort));
  return j;
}

TestCaseSpec specFromJson(const Json& j, const std::string& where) {
  TestCaseSpec s;
  s.seed = getU64(j, where, "seed");
  const auto& ports = getArray(j, where, "ports");
  const std::string pwhere = sub(where, "ports");
  for (size_t i = 0; i < ports.size(); ++i) {
    s.ports.push_back(portStimulusFromJson(ports[i], idx(pwhere, i)));
  }
  s.defaultPort = portStimulusFromJson(j.at("defaultPort", where),
                                       sub(where, "defaultPort"));
  return s;
}

namespace {

const char* customKindName(CustomDiagnostic::Kind k) {
  switch (k) {
    case CustomDiagnostic::Kind::Range:
      return "range";
    case CustomDiagnostic::Kind::SuddenChange:
      return "sudden-change";
    case CustomDiagnostic::Kind::Expression:
      return "expression";
  }
  return "?";
}

}  // namespace

Json toJson(const SimOptions& o) {
  Json j = Json::object();
  j.set("engine", Json::str(std::string(engineName(o.engine))));
  j.set("maxSteps", Json::u64(o.maxSteps));
  j.set("timeBudgetSec", Json::number(o.timeBudgetSec));
  j.set("stopOnDiagnostic", Json::boolean(o.stopOnDiagnostic));
  j.set("runTimeoutSec", Json::number(o.runTimeoutSec));
  j.set("stepBudget", Json::u64(o.stepBudget));
  j.set("coverage", Json::boolean(o.coverage));
  j.set("diagnosis", Json::boolean(o.diagnosis));
  j.set("optimize", Json::boolean(o.optimize));
  Json coll = Json::array();
  for (const auto& p : o.collectList) coll.push(Json::str(p));
  j.set("collectList", std::move(coll));
  Json customs = Json::array();
  for (const auto& c : o.customDiagnostics) {
    if (c.kind == CustomDiagnostic::Kind::Expression) {
      throw ProtocolError(
          "custom diagnostic \"" + c.name + "\" on " + c.actorPath +
          " is an Expression check; callbacks cannot travel over the " +
          "accmosd protocol — evaluate it locally or restate it as a " +
          "range/sudden-change diagnostic");
    }
    Json cj = Json::object();
    cj.set("actorPath", Json::str(c.actorPath));
    cj.set("name", Json::str(c.name));
    cj.set("kind", Json::str(customKindName(c.kind)));
    cj.set("minValue", Json::number(c.minValue));
    cj.set("maxValue", Json::number(c.maxValue));
    cj.set("maxDelta", Json::number(c.maxDelta));
    customs.push(std::move(cj));
  }
  j.set("customDiagnostics", std::move(customs));
  j.set("execMode", Json::str(std::string(execModeName(o.execMode))));
  j.set("tier", Json::str(std::string(tierName(o.tier))));
  j.set("optFlag", Json::str(o.optFlag));
  j.set("compileCache", Json::boolean(o.compileCache));
  j.set("workers", Json::u64(static_cast<uint64_t>(o.campaign.workers)));
  return j;
}

SimOptions optionsFromJson(const Json& j, const std::string& where) {
  SimOptions o;
  const std::string& ename = getString(j, where, "engine");
  bool found = false;
  for (Engine e : {Engine::AccMoS, Engine::SSE, Engine::SSEac, Engine::SSErac}) {
    if (ename == engineName(e)) {
      o.engine = e;
      found = true;
      break;
    }
  }
  if (!found) badEnum(sub(where, "engine"), ename);
  o.maxSteps = getU64(j, where, "maxSteps");
  o.timeBudgetSec = getDouble(j, where, "timeBudgetSec");
  o.stopOnDiagnostic = getBool(j, where, "stopOnDiagnostic");
  o.runTimeoutSec = getDouble(j, where, "runTimeoutSec");
  o.stepBudget = getU64(j, where, "stepBudget");
  o.coverage = getBool(j, where, "coverage");
  o.diagnosis = getBool(j, where, "diagnosis");
  o.optimize = getBool(j, where, "optimize");
  {
    const auto& arr = getArray(j, where, "collectList");
    const std::string awhere = sub(where, "collectList");
    for (size_t i = 0; i < arr.size(); ++i) {
      o.collectList.push_back(arr[i].asString(idx(awhere, i)));
    }
  }
  {
    const auto& arr = getArray(j, where, "customDiagnostics");
    const std::string awhere = sub(where, "customDiagnostics");
    for (size_t i = 0; i < arr.size(); ++i) {
      const Json& cj = arr[i];
      const std::string cwhere = idx(awhere, i);
      CustomDiagnostic c;
      c.actorPath = getString(cj, cwhere, "actorPath");
      c.name = getString(cj, cwhere, "name");
      const std::string& kname = getString(cj, cwhere, "kind");
      if (kname == "range") {
        c.kind = CustomDiagnostic::Kind::Range;
      } else if (kname == "sudden-change") {
        c.kind = CustomDiagnostic::Kind::SuddenChange;
      } else {
        // "expression" is deliberately rejected here too: accepting a
        // C++ condition string from the wire would let any client inject
        // code into the daemon's generated simulators.
        badEnum(sub(cwhere, "kind"), kname);
      }
      c.minValue = getDouble(cj, cwhere, "minValue");
      c.maxValue = getDouble(cj, cwhere, "maxValue");
      c.maxDelta = getDouble(cj, cwhere, "maxDelta");
      o.customDiagnostics.push_back(std::move(c));
    }
  }
  const std::string& mname = getString(j, where, "execMode");
  if (mname == execModeName(ExecMode::Dlopen)) {
    o.execMode = ExecMode::Dlopen;
  } else if (mname == execModeName(ExecMode::Process)) {
    o.execMode = ExecMode::Process;
  } else {
    badEnum(sub(where, "execMode"), mname);
  }
  const std::string& tname = getString(j, where, "tier");
  if (tname == tierName(Tier::Native)) {
    o.tier = Tier::Native;
  } else if (tname == tierName(Tier::Auto)) {
    o.tier = Tier::Auto;
  } else if (tname == tierName(Tier::Interp)) {
    o.tier = Tier::Interp;
  } else {
    badEnum(sub(where, "tier"), tname);
  }
  o.optFlag = getString(j, where, "optFlag");
  o.compileCache = getBool(j, where, "compileCache");
  o.campaign.workers = static_cast<size_t>(getU64(j, where, "workers"));
  // Daemon-local knobs never travel: scratch placement and artifact
  // retention are the daemon operator's call, not the client's.
  o.workDir.clear();
  o.keepGeneratedCode = false;
  return o;
}

// ---- Shard messages ----------------------------------------------------

Json toJson(const ShardRequest& r) {
  Json j = Json::object();
  j.set("op", Json::str("shard"));
  j.set("model", Json::str(r.modelText));
  j.set("options", toJson(r.options));
  Json specs = Json::array();
  for (const auto& s : r.specs) specs.push(toJson(s));
  j.set("specs", std::move(specs));
  j.set("shardIndex", Json::u64(static_cast<uint64_t>(r.shardIndex)));
  j.set("shardCount", Json::u64(static_cast<uint64_t>(r.shardCount)));
  return j;
}

ShardRequest shardRequestFromJson(const Json& j, const std::string& where) {
  ShardRequest r;
  r.modelText = getString(j, where, "model");
  r.options = optionsFromJson(j.at("options", where), sub(where, "options"));
  const auto& arr = getArray(j, where, "specs");
  const std::string awhere = sub(where, "specs");
  r.specs.reserve(arr.size());
  for (size_t i = 0; i < arr.size(); ++i) {
    r.specs.push_back(specFromJson(arr[i], idx(awhere, i)));
  }
  r.shardIndex = static_cast<size_t>(getU64(j, where, "shardIndex"));
  r.shardCount = static_cast<size_t>(getU64(j, where, "shardCount"));
  return r;
}

Json toJson(const ShardPartial& p) {
  Json j = Json::object();
  j.set("op", Json::str("partial"));
  j.set("first", Json::u64(static_cast<uint64_t>(p.first)));
  Json results = Json::array();
  for (const auto& r : p.results) results.push(toJson(r));
  j.set("results", std::move(results));
  return j;
}

ShardPartial shardPartialFromJson(const Json& j, const std::string& where) {
  ShardPartial p;
  p.first = static_cast<size_t>(getU64(j, where, "first"));
  const auto& arr = getArray(j, where, "results");
  const std::string awhere = sub(where, "results");
  p.results.reserve(arr.size());
  for (size_t i = 0; i < arr.size(); ++i) {
    p.results.push_back(simResultFromJson(arr[i], idx(awhere, i)));
  }
  return p;
}

Json toJson(const ShardDone& d) {
  Json j = Json::object();
  j.set("op", Json::str("done"));
  j.set("completed", Json::u64(static_cast<uint64_t>(d.completed)));
  j.set("interrupted", Json::boolean(d.interrupted));
  j.set("generateSeconds", Json::number(d.generateSeconds));
  j.set("compileSeconds", Json::number(d.compileSeconds));
  j.set("loadSeconds", Json::number(d.loadSeconds));
  j.set("compileWaitSeconds", Json::number(d.compileWaitSeconds));
  j.set("compileCacheHit", Json::boolean(d.compileCacheHit));
  j.set("timeToFirstResultSeconds", Json::number(d.timeToFirstResultSeconds));
  j.set("compilerInvocations", Json::u64(d.compilerInvocations));
  return j;
}

ShardDone shardDoneFromJson(const Json& j, const std::string& where) {
  ShardDone d;
  d.completed = static_cast<size_t>(getU64(j, where, "completed"));
  d.interrupted = getBool(j, where, "interrupted");
  d.generateSeconds = getDouble(j, where, "generateSeconds");
  d.compileSeconds = getDouble(j, where, "compileSeconds");
  d.loadSeconds = getDouble(j, where, "loadSeconds");
  d.compileWaitSeconds = getDouble(j, where, "compileWaitSeconds");
  d.compileCacheHit = getBool(j, where, "compileCacheHit");
  d.timeToFirstResultSeconds =
      getDouble(j, where, "timeToFirstResultSeconds");
  d.compilerInvocations = getU64(j, where, "compilerInvocations");
  return d;
}

// ---- Observation canonicalization --------------------------------------

Json campaignObservations(const CampaignResult& r) {
  Json j = Json::object();
  Json perSeed = Json::array();
  for (const auto& s : r.perSeed) {
    Json row = Json::object();
    row.set("seed", Json::u64(s.seed));
    row.set("steps", Json::u64(s.steps));
    row.set("coverage", toJson(s.coverage));
    row.set("cumulative", toJson(s.cumulative));
    row.set("diagnosticKinds",
            Json::u64(static_cast<uint64_t>(s.diagnosticKinds)));
    row.set("failed", Json::boolean(s.failed));
    perSeed.push(std::move(row));
  }
  j.set("perSeed", std::move(perSeed));
  j.set("cumulative", toJson(r.cumulative));
  j.set("mergedBitmaps", toJson(r.mergedBitmaps));
  Json diags = Json::array();
  for (const auto& d : r.diagnostics) diags.push(toJson(d));
  j.set("diagnostics", std::move(diags));
  Json fails = Json::array();
  for (const auto& f : r.failures) {
    // Failure records minus the backend/retry detail: which ladder rung
    // finally contained a fault is an execution-policy observation, the
    // (kind, seed, index, signal) tuple is the workload observation.
    Json fj = Json::object();
    fj.set("kind", Json::str(failureKindName(f.kind)));
    fj.set("seed", Json::u64(f.seed));
    fj.set("index", Json::u64(static_cast<uint64_t>(f.index)));
    fails.push(std::move(fj));
  }
  j.set("failures", std::move(fails));
  j.set("optStats", toJson(r.optStats));
  j.set("interrupted", Json::boolean(r.interrupted));
  return j;
}

// ---- Frames ------------------------------------------------------------

namespace {

void sendAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("frame write failed: ") +
                          ::strerror(errno));
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
}

// Returns bytes read; stops short only on EOF. eofAtStartOk lets the
// caller treat "peer hung up between frames" as a clean end of stream.
size_t recvAll(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("frame read failed: ") +
                          ::strerror(errno));
    }
    if (n == 0) break;  // EOF
    got += static_cast<size_t>(n);
  }
  return got;
}

}  // namespace

void writeFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw ProtocolError("frame payload of " + std::to_string(payload.size()) +
                        " bytes exceeds the " +
                        std::to_string(kMaxFrameBytes) + "-byte limit");
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  unsigned char hdr[4] = {static_cast<unsigned char>(len >> 24),
                          static_cast<unsigned char>(len >> 16),
                          static_cast<unsigned char>(len >> 8),
                          static_cast<unsigned char>(len)};
  sendAll(fd, hdr, sizeof hdr);
  sendAll(fd, payload.data(), payload.size());
}

bool readFrame(int fd, std::string* payload) {
  unsigned char hdr[4];
  size_t got = recvAll(fd, hdr, sizeof hdr);
  if (got == 0) return false;  // clean EOF at a frame boundary
  if (got < sizeof hdr) {
    throw ProtocolError("peer closed mid-frame (truncated length prefix)");
  }
  const uint32_t len = (static_cast<uint32_t>(hdr[0]) << 24) |
                       (static_cast<uint32_t>(hdr[1]) << 16) |
                       (static_cast<uint32_t>(hdr[2]) << 8) |
                       static_cast<uint32_t>(hdr[3]);
  if (len > kMaxFrameBytes) {
    throw ProtocolError("frame length prefix of " + std::to_string(len) +
                        " bytes exceeds the " +
                        std::to_string(kMaxFrameBytes) +
                        "-byte limit (corrupt stream?)");
  }
  payload->resize(len);
  if (len > 0 && recvAll(fd, payload->data(), len) < len) {
    throw ProtocolError("peer closed mid-frame (got fewer than " +
                        std::to_string(len) + " payload bytes)");
  }
  return true;
}

}  // namespace accmos::serve
