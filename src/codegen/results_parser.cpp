#include "codegen/results_parser.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "diag/diagnosis.h"

namespace accmos {
namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw ResultParseError("binary result: " + msg);
}

// Reads one packed ABI element back into a Value slot; the exact inverse
// of the emitter's packExpr().
void unpackInto(Value& v, int i, DataType type, uint64_t u) {
  if (isFloatType(type)) {
    double d;
    std::memcpy(&d, &u, 8);
    v.setF(i, d);
  } else {
    v.setI(i, static_cast<int64_t>(u));
  }
}

// Empty result with the per-model geometry the decoder fills in.
SimulationResult makeSkeleton(const FlatModel& fm,
                              const CoveragePlan* covPlan,
                              const std::vector<int>& collectSignals) {
  SimulationResult result;
  if (covPlan != nullptr) {
    result.bitmaps = CoverageRecorder(*covPlan);
  }
  result.finalOutputs.resize(fm.rootOutports.size());
  result.collected.resize(collectSignals.size());
  for (size_t k = 0; k < collectSignals.size(); ++k) {
    const SignalInfo& sig = fm.signal(collectSignals[k]);
    result.collected[k].path = sig.name;
    result.collected[k].last = Value(sig.type, sig.width);
  }
  return result;
}

// Final ordering — like DiagnosticSink::sorted(). The raw list arrives in
// (actor-major, kind) emission order, so this sort is deterministic.
void sortDiags(std::vector<DiagRecord>& diags) {
  std::sort(diags.begin(), diags.end(),
            [](const DiagRecord& a, const DiagRecord& b) {
              return std::tie(a.firstStep, a.actorPath) <
                     std::tie(b.firstStep, b.actorPath);
            });
}

DiagRecord customRecord(const FlatModel& fm, const CustomDiagnostic& cd,
                        uint64_t first, uint64_t count) {
  const FlatActor* fa = fm.findByPath(cd.actorPath);
  DiagRecord rec;
  rec.actorId = fa != nullptr ? fa->id : -1;
  rec.actorPath = cd.actorPath;
  rec.kind = DiagKind::Custom;
  rec.message = cd.name;
  rec.firstStep = first;
  rec.count = count;
  return rec;
}

uint64_t pad8(uint64_t bytes) { return (bytes + 7) / 8 * 8; }

}  // namespace

std::string geometryMismatch(const AccmosModelInfo& info, const FlatModel& fm,
                             const CoveragePlan* covPlan,
                             const std::vector<int>& collectSignals,
                             size_t numCustom) {
  for (int m = 0; m < 4; ++m) {
    const uint64_t want =
        covPlan != nullptr
            ? static_cast<uint64_t>(covPlan->totalSlots(kAllCovMetrics[m]))
            : 0;
    if (info.covLen[m] != want) {
      return "coverage bitmap length for '" +
             std::string(covMetricName(kAllCovMetrics[m])) + "' is " +
             std::to_string(info.covLen[m]) + ", plan has " +
             std::to_string(want);
    }
  }
  uint64_t collectValsLen = 0;
  for (int sid : collectSignals) {
    collectValsLen += static_cast<uint64_t>(fm.signal(sid).width);
  }
  uint64_t outValsLen = 0;
  for (int oid : fm.rootOutports) {
    outValsLen +=
        static_cast<uint64_t>(fm.signal(fm.actor(oid).inputs[0]).width);
  }
  const struct {
    const char* what;
    uint64_t got, want;
  } fields[] = {
      {"actor count", info.numActors, fm.actors.size()},
      {"diagnostic kind count", info.numDiagKinds,
       static_cast<uint64_t>(kNumDiagKinds)},
      {"custom diagnostic count", info.numCustom, numCustom},
      {"monitored signal count", info.numCollect, collectSignals.size()},
      {"monitored value length", info.collectValsLen, collectValsLen},
      {"output value length", info.outValsLen, outValsLen},
  };
  for (const auto& f : fields) {
    if (f.got != f.want) {
      return std::string(f.what) + " is " + std::to_string(f.got) +
             ", host expects " + std::to_string(f.want);
    }
  }
  return "";
}

SimulationResult decodeBinaryResults(
    const AccmosRunResult& res, const FlatModel& fm,
    const CoveragePlan* covPlan, const std::vector<int>& collectSignals,
    const std::vector<CustomDiagnostic>& custom) {
  if (res.diagCount > res.diagCap) {
    fail("diagnostic count " + std::to_string(res.diagCount) +
         " exceeds its capacity " + std::to_string(res.diagCap));
  }
  if (res.customCount > res.customCap) {
    fail("custom diagnostic count " + std::to_string(res.customCount) +
         " exceeds its capacity " + std::to_string(res.customCap));
  }
  if (res.numCollect != collectSignals.size()) {
    fail("monitored signal count " + std::to_string(res.numCollect) +
         ", host expects " + std::to_string(collectSignals.size()));
  }
  SimulationResult result = makeSkeleton(fm, covPlan, collectSignals);
  std::vector<DiagRecord> rawDiags;

  result.stepsExecuted = res.stepsExecuted;
  result.stoppedEarly = res.stoppedEarly != 0;
  result.timedOut = res.timedOut != 0;
  result.execSeconds = static_cast<double>(res.execNs) * 1e-9;

  if (covPlan != nullptr) {
    // ABI cov index order (run_abi.h: actor, condition, decision, MC/DC)
    // matches kAllCovMetrics.
    for (int m = 0; m < 4; ++m) {
      auto& bm = result.bitmaps.bits(kAllCovMetrics[m]);
      if (res.covLen[m] != bm.size()) {
        fail("coverage bitmap size mismatch for '" +
             std::string(covMetricName(kAllCovMetrics[m])) + "': got " +
             std::to_string(res.covLen[m]) + ", plan has " +
             std::to_string(bm.size()));
      }
      for (size_t k = 0; k < bm.size(); ++k) {
        bm[k] = res.cov[m][k] != 0 ? 1 : 0;
      }
    }
    result.hasCoverage = true;
  }

  for (uint64_t i = 0; i < res.diagCount; ++i) {
    const AccmosDiagRec& d = res.diags[i];
    if (d.actorId < 0 || d.actorId >= static_cast<int>(fm.actors.size())) {
      fail("diagnostic references bad actor id " + std::to_string(d.actorId));
    }
    if (d.kind < 0 || d.kind >= kNumDiagKinds) {
      fail("diagnostic references bad kind " + std::to_string(d.kind));
    }
    DiagRecord rec;
    rec.actorId = d.actorId;
    rec.actorPath = fm.actor(d.actorId).path;
    rec.kind = static_cast<DiagKind>(d.kind);
    rec.firstStep = d.firstStep;
    rec.count = d.count;
    rawDiags.push_back(rec);
  }
  for (uint64_t i = 0; i < res.customCount; ++i) {
    const AccmosCustomRec& c = res.customs[i];
    if (c.index >= custom.size()) {
      fail("custom diagnostic index " + std::to_string(c.index) +
           " out of range");
    }
    rawDiags.push_back(customRecord(fm, custom[static_cast<size_t>(c.index)],
                                    c.firstStep, c.count));
  }

  size_t off = 0;
  for (size_t k = 0; k < collectSignals.size(); ++k) {
    const SignalInfo& sig = fm.signal(collectSignals[k]);
    if (off + static_cast<size_t>(sig.width) > res.collectValsLen) {
      fail("monitored values overrun their buffer");
    }
    result.collected[k].count = res.collectCounts[k];
    for (int i = 0; i < sig.width; ++i) {
      unpackInto(result.collected[k].last, i, sig.type,
                 res.collectVals[off + static_cast<size_t>(i)]);
    }
    off += static_cast<size_t>(sig.width);
  }

  off = 0;
  for (size_t k = 0; k < fm.rootOutports.size(); ++k) {
    const FlatActor& fa = fm.actor(fm.rootOutports[k]);
    const SignalInfo& sig = fm.signal(fa.inputs[0]);
    if (off + static_cast<size_t>(sig.width) > res.outValsLen) {
      fail("output values overrun their buffer");
    }
    // In-place retype instead of constructing a fresh Value: this decoder
    // sits on the per-run hot path of campaigns, where an extra
    // allocation per outport is measurable.
    result.finalOutputs[k].resize(sig.type, sig.width);
    for (int i = 0; i < sig.width; ++i) {
      unpackInto(result.finalOutputs[k], i, sig.type,
                 res.outVals[off + static_cast<size_t>(i)]);
    }
    off += static_cast<size_t>(sig.width);
  }

  sortDiags(rawDiags);
  result.diagnostics = std::move(rawDiags);
  return result;
}

SimulationResult decodeRunnerFile(const std::string& bytes,
                                  const FlatModel& fm,
                                  const CoveragePlan* covPlan,
                                  const std::vector<int>& collectSignals,
                                  const std::vector<CustomDiagnostic>& custom) {
  AccmosRunnerFileHeader h;
  if (bytes.size() < sizeof(h)) {
    fail("runner file truncated: " + std::to_string(bytes.size()) +
         " bytes, the header alone needs " + std::to_string(sizeof(h)));
  }
  std::memcpy(&h, bytes.data(), sizeof(h));
  if (h.magic != ACCMOS_RUNNER_FILE_MAGIC) fail("runner file has bad magic");
  if (h.abiVersion != ACCMOS_ABI_VERSION ||
      h.info.abiVersion != ACCMOS_ABI_VERSION) {
    fail("runner file has ABI version " + std::to_string(h.abiVersion) +
         "/" + std::to_string(h.info.abiVersion) + ", host has " +
         std::to_string(ACCMOS_ABI_VERSION));
  }
  const AccmosModelInfo& info = h.info;
  // The geometry check comes first: it bounds every section length below
  // by the host's own plans, so the size arithmetic cannot overflow.
  if (std::string why =
          geometryMismatch(info, fm, covPlan, collectSignals, custom.size());
      !why.empty()) {
    fail("runner file geometry: " + why);
  }
  const uint64_t diagCap = info.numActors * info.numDiagKinds;
  uint64_t want = sizeof(h) + pad8(diagCap * sizeof(AccmosDiagRec)) +
                  pad8(info.numCustom * sizeof(AccmosCustomRec)) +
                  8 * (info.numCollect + info.collectValsLen + info.outValsLen);
  for (int m = 0; m < 4; ++m) want += pad8(info.covLen[m]);
  if (bytes.size() != want) {
    fail("runner file is " + std::to_string(bytes.size()) + " bytes, " +
         (bytes.size() < want ? "truncated" : "with trailing bytes") +
         "; its geometry needs " + std::to_string(want));
  }
  if (h.rc != ACCMOS_ABI_OK && h.rc != ACCMOS_ABI_ETIMEOUT) {
    fail("model run failed with ABI status " + std::to_string(h.rc));
  }

  // Copy each section into typed storage: the file's bytes carry no
  // alignment, and reading records through a cast pointer would alias.
  const char* p = bytes.data() + sizeof(h);
  auto take = [&](auto& v, uint64_t n) {
    v.resize(static_cast<size_t>(n));
    const size_t len = v.size() * sizeof(v[0]);
    if (len > 0) std::memcpy(v.data(), p, len);
    p += pad8(len);
    return v.empty() ? nullptr : v.data();
  };
  std::vector<uint8_t> cov[4];
  std::vector<AccmosDiagRec> diags;
  std::vector<AccmosCustomRec> customs;
  std::vector<uint64_t> collectCounts, collectVals, outVals;

  AccmosRunResult res;
  std::memset(&res, 0, sizeof(res));
  res.stepsExecuted = h.stepsExecuted;
  res.stoppedEarly = h.stoppedEarly;
  res.timedOut = h.timedOut;
  res.execNs = h.execNs;
  for (int m = 0; m < 4; ++m) {
    res.cov[m] = take(cov[m], info.covLen[m]);
    res.covLen[m] = info.covLen[m];
  }
  res.diags = take(diags, diagCap);
  res.diagCap = diagCap;
  res.diagCount = h.diagCount;
  res.customs = take(customs, info.numCustom);
  res.customCap = info.numCustom;
  res.customCount = h.customCount;
  res.collectCounts = take(collectCounts, info.numCollect);
  res.numCollect = info.numCollect;
  res.collectVals = take(collectVals, info.collectValsLen);
  res.collectValsLen = info.collectValsLen;
  res.outVals = take(outVals, info.outValsLen);
  res.outValsLen = info.outValsLen;
  return decodeBinaryResults(res, fm, covPlan, collectSignals, custom);
}

}  // namespace accmos
