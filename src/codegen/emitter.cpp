#include "codegen/emitter.h"

#include <cctype>

#include "actors/common.h"
#include "codegen/runtime_preamble.h"
#include "sim/collect.h"

namespace accmos {
namespace {

std::string cpp(DataType t) { return std::string(dataTypeCpp(t)); }

// Packs one element for the binary result ABI: float-typed signals cross
// the boundary as IEEE-754 double bits, integer-typed ones as
// two's-complement int64.
std::string packExpr(DataType t, const std::string& elem) {
  if (isFloatType(t)) return "accmos_pack_f((double)" + elem + ")";
  if (t == DataType::U64) return "(uint64_t)" + elem;
  return "(uint64_t)(int64_t)" + elem;
}

// Reads one element widened to double (u64 goes through unsigned).
std::string asDoubleExpr(DataType t, const std::string& elem) {
  if (t == DataType::U64) return "(double)(uint64_t)" + elem;
  return "(double)" + elem;
}

// Trigger condition of one injected step-loop fault: fires from `step`
// onward, optionally only for one seed.
std::string faultCond(const FaultPlan::SiteFault& f) {
  std::string c = "step >= " + std::to_string(f.step) + "ULL";
  if (f.hasSeed) c += " && seed == " + std::to_string(f.seed) + "ULL";
  return c;
}

// Signals Model_Exe keeps in locals because no value of theirs outlives
// the step that wrote it (DESIGN.md §5). A signal qualifies when
//  - its writer runs unguarded every step (an enabled subsystem's outputs
//    must hold their value while it is disabled),
//  - its writer is not a root Inport (accmos_fill_inputs writes those),
//  - no actor scheduled up to its writer reads it (that read would see
//    the previous step's value), and
//  - it feeds no root Outport (accmos_run reads those after the loop).
std::vector<bool> stepLocalSignals(const FlatModel& fm) {
  std::vector<size_t> pos(fm.actors.size());
  for (size_t k = 0; k < fm.schedule.size(); ++k) {
    pos[static_cast<size_t>(fm.schedule[k])] = k;
  }
  std::vector<bool> local(fm.signals.size(), false);
  for (const FlatActor& fa : fm.actors) {
    if (fa.enableSignal >= 0) continue;
    for (int s : fa.outputs) local[static_cast<size_t>(s)] = true;
  }
  for (int id : fm.rootInports) {
    for (int s : fm.actor(id).outputs) local[static_cast<size_t>(s)] = false;
  }
  for (int id : fm.rootOutports) {
    local[static_cast<size_t>(fm.actor(id).inputs[0])] = false;
  }
  for (const FlatActor& fa : fm.actors) {
    auto read = [&](int s) {
      int w = fm.signal(s).producerActor;
      if (w >= 0 && pos[static_cast<size_t>(fa.id)] <=
                        pos[static_cast<size_t>(w)]) {
        local[static_cast<size_t>(s)] = false;
      }
    };
    for (int s : fa.inputs) read(s);
    if (fa.enableSignal >= 0) read(fa.enableSignal);
  }
  return local;
}

}  // namespace

Emitter::Emitter(const FlatModel& fm, const SimOptions& opt,
                 const TestCaseSpec& tests, const CoveragePlan* covPlan,
                 const DiagnosisPlan* diagPlan)
    : fm_(fm),
      opt_(opt),
      tests_(tests),
      covPlan_(covPlan),
      diagPlan_(diagPlan),
      faults_(faultPlanFromEnv()),
      stepLocal_(stepLocalSignals(fm)) {
  collectSignals_ = monitoredSignals(fm_, opt_.collectList);
}

std::string Emitter::sanitize(const std::string& name) {
  return sanitizeIdent(name);
}

// ---- EmitSink -------------------------------------------------------------

void Emitter::line(const std::string& stmt) { body_.push_back(stmt); }

void Emitter::updateLine(const std::string& stmt) { upd_.push_back(stmt); }

void Emitter::updateLinePre(const std::string& stmt) {
  updPre_.push_back(stmt);
}

bool Emitter::diagOn(DiagKind kind) const {
  return diagPlan_ != nullptr && current_ != nullptr &&
         diagPlan_->enabled(current_->id, kind);
}

std::string Emitter::freshVar(const std::string& hint) {
  return hint + std::to_string(varCounter_++);
}

std::string Emitter::makeDiagFunction(
    const std::vector<std::pair<DiagKind, std::string>>& flags) {
  // One generated diagnostic function per actor (paper Fig. 4/Fig. 5:
  // "the instrumented code involves the function calls at specific
  // locations, while the actual implementation is defined elsewhere").
  std::string fname =
      "diagnose_" + sanitize(current_->path) + "_" +
      std::to_string(current_->id) + "_" + std::to_string(varCounter_++);
  std::ostringstream def;
  def << "void " << fname << "(uint64_t step";
  for (size_t k = 0; k < flags.size(); ++k) def << ", int f" << k;
  def << ") {\n";
  for (size_t k = 0; k < flags.size(); ++k) {
    def << "  if (f" << k << ") accmos_diag(" << current_->id << ", "
        << static_cast<int>(flags[k].first) << ", step);  // "
        << diagKindName(flags[k].first) << "\n";
  }
  def << "}\n";
  diagFuncs_.push_back(def.str());
  std::string call = fname + "(step";
  for (const auto& [kind, expr] : flags) call += ", " + expr;
  call += ");";
  return call;
}

void Emitter::diagCall(
    const std::vector<std::pair<DiagKind, std::string>>& flags) {
  if (flags.empty() || diagPlan_ == nullptr) return;
  body_.push_back(makeDiagFunction(flags));
}

void Emitter::diagCallInUpdate(
    const std::vector<std::pair<DiagKind, std::string>>& flags) {
  if (flags.empty() || diagPlan_ == nullptr) return;
  upd_.push_back(makeDiagFunction(flags));
}

std::string Emitter::covDecisionStmt(const std::string& outcomeExpr) {
  if (covPlan_ == nullptr) return ";";
  const ActorCovInfo& info = covPlan_->info(current_->id);
  if (info.decisionBase < 0) return ";";
  return "accmos_cov_dec[" + std::to_string(info.decisionBase) + " + (" +
         outcomeExpr + ")] = 1;";
}

std::string Emitter::covConditionStmt(int condIdx,
                                      const std::string& boolExpr) {
  if (covPlan_ == nullptr) return ";";
  const ActorCovInfo& info = covPlan_->info(current_->id);
  if (info.conditionBase < 0) return ";";
  return "accmos_cov_cond[" +
         std::to_string(info.conditionBase + 2 * condIdx) + " + ((" +
         boolExpr + ") ? 0 : 1)] = 1;";
}

std::string Emitter::covMcdcStmt(int condIdx, const std::string& valExpr) {
  if (covPlan_ == nullptr) return "";
  const ActorCovInfo& info = covPlan_->info(current_->id);
  if (info.mcdcBase < 0) return "";
  return "accmos_cov_mcdc[" + std::to_string(info.mcdcBase + 2 * condIdx) +
         " + ((" + valExpr + ") ? 0 : 1)] = 1;";
}

// ---- sections --------------------------------------------------------------

void Emitter::emitConstTables(std::ostringstream& os) {
  // Explicit stimulus sequences are immutable, so they stay at file scope,
  // shared by every model-state instance.
  bool any = false;
  for (size_t k = 0; k < fm_.rootInports.size(); ++k) {
    const PortStimulus& stim = tests_.port(static_cast<int>(k));
    if (stim.sequence.empty()) continue;
    os << "static const double tc_seq_" << k << "[" << stim.sequence.size()
       << "] = {";
    for (size_t i = 0; i < stim.sequence.size(); ++i) {
      if (i > 0) os << ", ";
      os << fmtD(stim.sequence[i]);
    }
    os << "};\n";
    any = true;
  }
  if (any) os << "\n";
}

void Emitter::emitDeclarations(std::ostringstream& os) {
  auto member = [&os](const std::string& type, const std::string& name,
                      const std::string& dims, const std::string& comment) {
    os << "  " << type << " " << name << dims << ";";
    if (!comment.empty()) os << "  // " << comment;
    os << "\n";
  };
  os << "  // ---- model data --------------------------------------------\n";
  // Diagnostic aggregation tables (first/count per actor x kind).
  const std::string diagDim = "[" + std::to_string(fm_.actors.size()) +
                              " * " + std::to_string(kNumDiagKinds) + "]";
  member("uint64_t", "accmos_diag_first", diagDim, "");
  member("uint64_t", "accmos_diag_count", diagDim, "");
  // Signals that outlive a step (the rest are locals of Model_Exe).
  for (size_t k = 0; k < fm_.signals.size(); ++k) {
    if (stepLocal_[k]) continue;
    const SignalInfo& sig = fm_.signals[k];
    member(cpp(sig.type), signalSymbol(static_cast<int>(k)),
           "[" + std::to_string(sig.width) + "]", sig.name);
  }
  // Actor states.
  const Registry& reg = Registry::instance();
  for (const auto& fa : fm_.actors) {
    auto st = reg.get(fa).state(fm_, fa);
    if (st) {
      member(cpp(st->type), "st" + std::to_string(fa.id),
             "[" + std::to_string(st->width) + "]", "state of " + fa.path);
    }
  }
  // Data stores.
  for (size_t d = 0; d < fm_.dataStores.size(); ++d) {
    const auto& ds = fm_.dataStores[d];
    member(cpp(ds.type), dataStoreSymbol(static_cast<int>(d), ds.name),
           "[" + std::to_string(ds.width) + "]",
           "data store '" + ds.name + "'");
  }
  // Random test-case stream states (sequence-driven ports read the shared
  // const tables instead).
  for (size_t k = 0; k < fm_.rootInports.size(); ++k) {
    if (tests_.port(static_cast<int>(k)).sequence.empty()) {
      member("uint64_t", "tc_state_" + std::to_string(k), "", "");
    }
  }
  // Coverage bitmaps.
  if (covPlan_ != nullptr) {
    const std::pair<const char*, CovMetric> maps[] = {
        {"accmos_cov_actor", CovMetric::Actor},
        {"accmos_cov_cond", CovMetric::Condition},
        {"accmos_cov_dec", CovMetric::Decision},
        {"accmos_cov_mcdc", CovMetric::MCDC}};
    for (const auto& [name, metric] : maps) {
      member("uint8_t", name,
             "[" + std::to_string(std::max(1, covPlan_->totalSlots(metric))) +
                 "]",
             "");
    }
  }
  // Signal monitor buffers (paper Fig. 3 outputCollect repository).
  for (size_t k = 0; k < collectSignals_.size(); ++k) {
    const SignalInfo& sig = fm_.signal(collectSignals_[k]);
    member(cpp(sig.type), "col" + std::to_string(k),
           "[" + std::to_string(sig.width) + "]", "");
    member("uint64_t", "colcnt" + std::to_string(k), "", "");
  }
  // Custom diagnosis slots.
  for (size_t k = 0; k < opt_.customDiagnostics.size(); ++k) {
    member("double", "cd_prev_" + std::to_string(k), "", "");
    member("int", "cd_has_" + std::to_string(k), "", "");
    member("uint64_t", "cd_first_" + std::to_string(k), "", "");
    member("uint64_t", "cd_count_" + std::to_string(k), "", "");
  }
  member("int", "accmos_stop", "", "");
  member("int", "accmos_diag_fired", "", "");
  os << "\n";
}

void Emitter::emitDiagFn(std::ostringstream& os) {
  // Out of line and cold: one recorder body shared by every diagnose_*
  // site instead of a copy inlined into each.
  os << "  __attribute__((noinline, cold))\n"
     << "  void accmos_diag(int actor, int kind, uint64_t step) {\n"
     << "    int idx = actor * " << kNumDiagKinds << " + kind;\n"
     << "    if (accmos_diag_count[idx] == 0) accmos_diag_first[idx] = "
        "step;\n"
     << "    accmos_diag_count[idx] += 1;\n"
     << "    accmos_diag_fired = 1;\n"
     << "  }\n\n";
}

void Emitter::emitFillInputs(std::ostringstream& os) {
  os << "void accmos_fill_inputs(uint64_t step) {\n";
  if (fm_.rootInports.empty()) os << "  (void)step;\n";
  for (size_t k = 0; k < fm_.rootInports.size(); ++k) {
    const FlatActor& fa = fm_.actor(fm_.rootInports[k]);
    const SignalInfo& sig = fm_.signal(fa.outputs[0]);
    const PortStimulus& stim = tests_.port(static_cast<int>(k));
    os << "  // Inport " << fa.path << "\n";
    os << "  for (int i = 0; i < " << sig.width << "; ++i) {\n";
    if (stim.sequence.empty()) {
      os << "    double v = " << fmtD(stim.min) << " + accmos_sm64_unit(&tc_state_"
         << k << ") * (" << fmtD(stim.max) << " - " << fmtD(stim.min)
         << ");\n";
    } else {
      os << "    double v = tc_seq_" << k << "[step % "
         << stim.sequence.size() << "ULL];\n";
    }
    os << "    "
       << storeFromDouble(sig.type, signalSymbol(fa.outputs[0]) + "[i]", "v")
       << "\n";
    os << "  }\n";
  }
  os << "}\n\n";
}

std::string Emitter::storeFromDouble(DataType t, const std::string& dst,
                                     const std::string& expr) const {
  if (t == DataType::F64) return dst + " = (" + expr + ");";
  if (t == DataType::F32) return dst + " = (float)(" + expr + ");";
  return dst + " = (" + cpp(t) + ")accmos_store_" +
         std::string(dataTypeName(t)) + "((double)(" + expr + ")).value;";
}

void Emitter::emitModelInit(std::ostringstream& os) {
  const Registry& reg = Registry::instance();
  os << "void Model_Init(uint64_t accmos_seed) {\n";
  os << "  (void)accmos_seed;\n";
  for (const auto& fa : fm_.actors) {
    auto st = reg.get(fa).state(fm_, fa);
    if (!st) continue;
    for (int i = 0; i < st->width; ++i) {
      double init =
          st->initial.empty()
              ? 0.0
              : st->initial[std::min(st->initial.size() - 1,
                                     static_cast<size_t>(i))];
      os << "  "
         << storeFromDouble(st->type,
                            "st" + std::to_string(fa.id) + "[" +
                                std::to_string(i) + "]",
                            fmtD(init))
         << "\n";
    }
  }
  for (size_t d = 0; d < fm_.dataStores.size(); ++d) {
    const auto& ds = fm_.dataStores[d];
    os << "  for (int i = 0; i < " << ds.width << "; ++i) "
       << storeFromDouble(
              ds.type,
              dataStoreSymbol(static_cast<int>(d), ds.name) + "[i]",
              fmtD(ds.initial))
       << "\n";
  }
  for (size_t k = 0; k < fm_.rootInports.size(); ++k) {
    if (tests_.port(static_cast<int>(k)).sequence.empty()) {
      os << "  tc_state_" << k << " = accmos_portseed(accmos_seed, "
         << k << ");\n";
    }
  }
  os << "}\n\n";
}

void Emitter::emitModelExe(std::ostringstream& os) {
  os << "void Model_Exe(uint64_t step) {\n";
  os << "  (void)step;\n";
  for (size_t k = 0; k < fm_.signals.size(); ++k) {
    if (!stepLocal_[k]) continue;
    const SignalInfo& sig = fm_.signals[k];
    os << "  " << cpp(sig.type) << " " << signalSymbol(static_cast<int>(k))
       << "[" << sig.width << "];  // " << sig.name << "\n";
  }
  os << evalSection_.str();
  os << "  // ---- state update phase ----\n";
  os << updateSection_.str();
  // Signal monitor (paper Fig. 3).
  for (size_t k = 0; k < collectSignals_.size(); ++k) {
    os << "  memcpy(col" << k << ", " << signalSymbol(collectSignals_[k])
       << ", sizeof(col" << k << ")); colcnt" << k << " += 1;\n";
  }
  // Custom signal diagnoses (paper §3.2.B).
  for (size_t k = 0; k < opt_.customDiagnostics.size(); ++k) {
    const CustomDiagnostic& cd = opt_.customDiagnostics[k];
    const FlatActor* fa = fm_.findByPath(cd.actorPath);
    if (fa == nullptr || fa->outputs.empty()) continue;
    const SignalInfo& sig = fm_.signal(fa->outputs[0]);
    os << "  { double cur = "
       << asDoubleExpr(sig.type, signalSymbol(fa->outputs[0]) + "[0]")
       << ";\n    double prev = cd_has_" << k << " ? cd_prev_" << k
       << " : 0.0; (void)prev;\n    int fire = 0;\n";
    switch (cd.kind) {
      case CustomDiagnostic::Kind::Range:
        os << "    fire = (cur < " << fmtD(cd.minValue) << " || cur > "
           << fmtD(cd.maxValue) << ");\n";
        break;
      case CustomDiagnostic::Kind::SuddenChange:
        os << "    fire = cd_has_" << k << " && fabs(cur - prev) > "
           << fmtD(cd.maxDelta) << ";\n";
        break;
      case CustomDiagnostic::Kind::Expression:
        if (!cd.cppCondition.empty()) {
          os << "    fire = (" << cd.cppCondition << ");\n";
        }
        break;
    }
    os << "    if (fire) { if (cd_count_" << k << " == 0) cd_first_" << k
       << " = step; cd_count_" << k << " += 1; accmos_diag_fired = 1; }\n"
       << "    cd_prev_" << k << " = cur; cd_has_" << k << " = 1; }\n";
  }
  os << "}\n\n";
}

void Emitter::emitSimLoop(std::ostringstream& os) {
  // noinline keeps the step loop a function of its own. accmos_run is its
  // only caller, and GCC 12 -O3 inlining it there ran TCP ~5% slower per
  // step (median of 30 alternating 1M-step runs, 4-core x86_64 host).
  os << "  // One full simulation on this state instance. Returns the steps\n"
     << "  // executed; the loop's wall time lands in *execNs. deadline is\n"
     << "  // an absolute accmos_now_s() point (0 = none) polled every 256\n"
     << "  // steps; stepBudget caps executed steps (0 = none). Either\n"
     << "  // tripping retires the run with *timedOut set — partial results\n"
     << "  // up to that point stay valid.\n"
     << "  __attribute__((noinline))\n"
     << "  uint64_t accmos_sim_run(uint64_t maxSteps, double budget,\n"
     << "                          uint64_t seed, double deadline,\n"
     << "                          uint64_t stepBudget, int* stoppedEarly,\n"
     << "                          unsigned long long* execNs,\n"
     << "                          int* timedOut) {\n"
     << "    Model_Init(seed);\n"
     << "    int stopped = 0;\n"
     << "    *timedOut = 0;\n"
     << "    uint64_t t0 = accmos_now_ns();\n"
     << "    uint64_t step = 0;\n"
     << "    for (; step < maxSteps; ++step) {\n";
  if (faults_.hang.armed) {
    os << "      // ACCMOS_FAULT hang: cooperative wedge — spins until the\n"
       << "      // deadline passes (or forever when none was set, which is\n"
       << "      // what the host watchdog exists for).\n"
       << "      if (" << faultCond(faults_.hang) << ") {\n"
       << "        while (!(deadline > 0.0 && accmos_now_s() >= deadline))\n"
       << "          accmos_pause_ms(1);\n"
       << "        *timedOut = 1; break;\n"
       << "      }\n";
  }
  if (faults_.crash.armed) {
    os << "      // ACCMOS_FAULT crash: a genuine fatal signal.\n"
       << "      if (" << faultCond(faults_.crash)
       << ") raise(SIGSEGV);\n";
  }
  os << "      accmos_fill_inputs(step);\n"
     << "      Model_Exe(step);\n"
     << "      if (accmos_stop) { ++step; stopped = 1; break; }\n";
  if (opt_.stopOnDiagnostic) {
    os << "      if (accmos_diag_fired) { ++step; stopped = 1; break; }\n";
  }
  os << "      if (budget > 0.0 && (step & 1023) == 1023 &&\n"
     << "          accmos_ns_to_s(accmos_now_ns() - t0) >= budget) "
        "{ ++step; break; }\n"
     << "      if (stepBudget != 0 && step + 1 >= stepBudget &&\n"
     << "          step + 1 < maxSteps) { ++step; *timedOut = 1; break; }\n"
     << "      if (deadline > 0.0 && (step & 255) == 255 &&\n"
     << "          accmos_now_s() >= deadline) { ++step; *timedOut = 1; "
        "break; }\n"
     << "    }\n"
     << "    *execNs = (unsigned long long)(accmos_now_ns() - t0);\n"
     << "    *stoppedEarly = stopped;\n"
     << "    return step;\n"
     << "  }\n";
}

Emitter::AbiGeom Emitter::abiGeom() const {
  AbiGeom g;
  g.covLen[0] = covPlan_ != nullptr ? covPlan_->totalSlots(CovMetric::Actor) : 0;
  g.covLen[1] =
      covPlan_ != nullptr ? covPlan_->totalSlots(CovMetric::Condition) : 0;
  g.covLen[2] =
      covPlan_ != nullptr ? covPlan_->totalSlots(CovMetric::Decision) : 0;
  g.covLen[3] = covPlan_ != nullptr ? covPlan_->totalSlots(CovMetric::MCDC) : 0;
  g.covArr[0] = "accmos_cov_actor";
  g.covArr[1] = "accmos_cov_cond";
  g.covArr[2] = "accmos_cov_dec";
  g.covArr[3] = "accmos_cov_mcdc";
  g.collectValsLen = 0;
  for (int sid : collectSignals_) {
    g.collectValsLen += static_cast<size_t>(fm_.signal(sid).width);
  }
  g.outValsLen = 0;
  for (int oid : fm_.rootOutports) {
    g.outValsLen +=
        static_cast<size_t>(fm_.signal(fm_.actor(oid).inputs[0]).width);
  }
  g.numActors = fm_.actors.size();
  g.numCustom = opt_.customDiagnostics.size();
  return g;
}

void Emitter::emitResultChecks(std::ostringstream& os) {
  const AbiGeom g = abiGeom();
  for (int m = 0; m < 4; ++m) {
    os << "  if (res->covLen[" << m << "] != " << g.covLen[m] << "ULL";
    if (g.covLen[m] > 0) os << " || res->cov[" << m << "] == 0";
    os << ") return ACCMOS_ABI_EBUFFER;\n";
  }
  if (diagPlan_ != nullptr) {
    os << "  if (res->diagCap < " << g.numActors * kNumDiagKinds
       << "ULL || res->diags == 0) return ACCMOS_ABI_EBUFFER;\n";
  }
  if (g.numCustom > 0) {
    os << "  if (res->customCap < " << g.numCustom
       << "ULL || res->customs == 0) return ACCMOS_ABI_EBUFFER;\n";
  }
  os << "  if (res->numCollect != " << collectSignals_.size()
     << "ULL || res->collectValsLen != " << g.collectValsLen
     << "ULL || res->outValsLen != " << g.outValsLen
     << "ULL) return ACCMOS_ABI_EBUFFER;\n";
  if (!collectSignals_.empty()) {
    os << "  if (res->collectCounts == 0 || res->collectVals == 0) "
          "return ACCMOS_ABI_EBUFFER;\n";
  }
  if (g.outValsLen > 0) {
    os << "  if (res->outVals == 0) return ACCMOS_ABI_EBUFFER;\n";
  }
}

void Emitter::emitResultExtract(std::ostringstream& os) {
  const AbiGeom g = abiGeom();
  for (int m = 0; m < 4; ++m) {
    if (g.covLen[m] > 0) {
      os << "  memcpy(res->cov[" << m << "], M->" << g.covArr[m] << ", "
         << g.covLen[m] << ");\n";
    }
  }
  if (diagPlan_ != nullptr) {
    os << "  { uint64_t nd = 0;\n"
       << "    for (int a = 0; a < " << g.numActors << "; ++a)\n"
       << "      for (int k = 0; k < " << kNumDiagKinds << "; ++k) {\n"
       << "        uint64_t c = M->accmos_diag_count[a * " << kNumDiagKinds
       << " + k];\n"
       << "        if (c) { res->diags[nd].actorId = a; "
          "res->diags[nd].kind = k;\n"
       << "          res->diags[nd].firstStep = M->accmos_diag_first[a * "
       << kNumDiagKinds << " + k];\n"
       << "          res->diags[nd].count = c; ++nd; }\n"
       << "      }\n"
       << "    res->diagCount = nd; }\n";
  } else {
    os << "  res->diagCount = 0;\n";
  }
  if (g.numCustom > 0) {
    os << "  { uint64_t nc = 0;\n";
    for (size_t k = 0; k < g.numCustom; ++k) {
      os << "    if (M->cd_count_" << k << ") { res->customs[nc].index = " << k
         << "ULL; res->customs[nc].firstStep = M->cd_first_" << k
         << "; res->customs[nc].count = M->cd_count_" << k << "; ++nc; }\n";
    }
    os << "    res->customCount = nc; }\n";
  } else {
    os << "  res->customCount = 0;\n";
  }
  size_t off = 0;
  for (size_t k = 0; k < collectSignals_.size(); ++k) {
    const SignalInfo& sig = fm_.signal(collectSignals_[k]);
    os << "  res->collectCounts[" << k << "] = M->colcnt" << k << ";\n"
       << "  for (int i = 0; i < " << sig.width << "; ++i) res->collectVals["
       << off << " + i] = "
       << packExpr(sig.type, "M->col" + std::to_string(k) + "[i]") << ";\n";
    off += static_cast<size_t>(sig.width);
  }
  off = 0;
  for (size_t k = 0; k < fm_.rootOutports.size(); ++k) {
    const FlatActor& fa = fm_.actor(fm_.rootOutports[k]);
    const SignalInfo& sig = fm_.signal(fa.inputs[0]);
    os << "  for (int i = 0; i < " << sig.width << "; ++i) res->outVals["
       << off << " + i] = "
       << packExpr(sig.type, "M->" + signalSymbol(fa.inputs[0]) + "[i]")
       << ";\n";
    off += static_cast<size_t>(sig.width);
  }
}

void Emitter::emitAbi(std::ostringstream& os) {
  const AbiGeom g = abiGeom();

  os << "// ---- in-process execution ABI (see run_abi.h) -----------------\n"
     << "extern \"C\" int accmos_model_info(AccmosModelInfo* info) {\n"
     << "  if (!info || info->structSize != "
        "(uint32_t)sizeof(AccmosModelInfo)) return ACCMOS_ABI_EARG;\n"
     << "  info->abiVersion = ACCMOS_ABI_VERSION;\n";
  for (int m = 0; m < 4; ++m) {
    os << "  info->covLen[" << m << "] = " << g.covLen[m] << "ULL;\n";
  }
  os << "  info->numActors = " << g.numActors << "ULL;\n"
     << "  info->numDiagKinds = " << kNumDiagKinds << "ULL;\n"
     << "  info->numCustom = " << g.numCustom << "ULL;\n"
     << "  info->numCollect = " << collectSignals_.size() << "ULL;\n"
     << "  info->collectValsLen = " << g.collectValsLen << "ULL;\n"
     << "  info->outValsLen = " << g.outValsLen << "ULL;\n"
     << "  return ACCMOS_ABI_OK;\n"
     << "}\n\n";

  os << "extern \"C\" int accmos_run(const AccmosRunArgs* args, "
        "AccmosRunResult* res) {\n"
     << "  if (!args || !res ||\n"
     << "      args->structSize != (uint32_t)sizeof(AccmosRunArgs) ||\n"
     << "      res->structSize != (uint32_t)sizeof(AccmosRunResult)) "
        "return ACCMOS_ABI_EARG;\n"
     << "  if (args->abiVersion != ACCMOS_ABI_VERSION ||\n"
     << "      res->abiVersion != ACCMOS_ABI_VERSION) "
        "return ACCMOS_ABI_EVERSION;\n";
  emitResultChecks(os);
  os << "  accmos_model* M = new (std::nothrow) accmos_model();\n"
     << "  if (!M) return ACCMOS_ABI_EALLOC;\n"
     << "  int stopped = 0;\n"
     << "  unsigned long long ns = 0;\n"
     << "  int timedOut = 0;\n"
     << "  res->stepsExecuted = M->accmos_sim_run(\n"
     << "      args->maxSteps, args->timeBudgetSec, args->seed,\n"
     << "      args->deadlineSeconds, args->stepBudget, &stopped, &ns,\n"
     << "      &timedOut);\n"
     << "  res->stoppedEarly = (uint32_t)stopped;\n"
     << "  res->timedOut = (uint32_t)timedOut;\n"
     << "  res->execNs = ns;\n";
  emitResultExtract(os);
  os << "  delete M;\n"
     << "  return timedOut ? ACCMOS_ABI_ETIMEOUT : ACCMOS_ABI_OK;\n"
     << "}\n\n";
}

std::string Emitter::generate() {
  const Registry& reg = Registry::instance();

  // Pass 1: expand actor templates in execution order (Algorithm 1),
  // collecting eval/update code and diagnostic functions.
  for (int id : fm_.schedule) {
    const FlatActor& fa = fm_.actors[static_cast<size_t>(id)];
    current_ = &fa;
    body_.clear();
    upd_.clear();
    updPre_.clear();

    EmitContext ctx(fm_, fa, *this);
    reg.get(fa).emit(ctx);

    // Generic instrumentation appended by the pass: actor coverage
    // ("actorBitmap[actorID] = 1" in the paper).
    if (covPlan_ != nullptr && covPlan_->info(id).actorSlot >= 0) {
      body_.push_back("accmos_cov_actor[" +
                      std::to_string(covPlan_->info(id).actorSlot) +
                      "] = 1;");
    }

    std::string guard;
    if (fa.enableSignal >= 0) {
      guard = "if (" + signalSymbol(fa.enableSignal) + "[0] != 0) ";
    }
    evalSection_ << "  // -- " << fa.path << " (" << fa.type() << ")\n";
    if (!body_.empty()) {
      evalSection_ << "  " << guard << "{\n";
      for (const auto& l : body_) evalSection_ << "  " << l << "\n";
      evalSection_ << "  }\n";
    }
    if (!upd_.empty() || !updPre_.empty()) {
      updateSection_ << "  // -- update " << fa.path << "\n";
      updateSection_ << "  " << guard << "{\n";
      for (const auto& l : updPre_) updateSection_ << "  " << l << "\n";
      for (const auto& l : upd_) updateSection_ << "  " << l << "\n";
      updateSection_ << "  }\n";
    }
  }
  current_ = nullptr;

  // Pass 2: compose the program (paper Fig. 5). All state that outlives a
  // step and the model functions sit inside `struct accmos_model`, so
  // `new accmos_model()` gives every accmos_run() call — in-process or in
  // the runner — a private zero-initialized state instance. Actor code
  // names a signal the same way whether it is a member or a local of
  // Model_Exe.
  std::ostringstream os;
  os << "// Generated by AccMoS for model '" << fm_.modelName << "'\n";
  os << runtimePreamble();
  os << runAbiText();
  emitConstTables(os);
  // The anonymous namespace is load-bearing: it gives the struct (and the
  // statics inside its inline member functions) internal linkage. Without
  // it the actor templates' function-local tables become STB_GNU_UNIQUE
  // symbols, and a process that dlopens several generated libraries would
  // silently resolve them all to the first library's data.
  os << "namespace {\n"
     << "struct accmos_model {\n";
  emitDeclarations(os);
  emitDiagFn(os);
  for (const auto& fn : diagFuncs_) os << fn << "\n";
  emitFillInputs(os);
  emitModelInit(os);
  emitModelExe(os);
  emitSimLoop(os);
  os << "};\n"
     << "}  // namespace\n\n";
  emitAbi(os);
  return os.str();
}

}  // namespace accmos
