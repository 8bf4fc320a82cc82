// The runner result-file decoder's failure paths. The process backend's
// results cross a process boundary from a child that may have crashed or
// been killed mid-write, so every truncated, oversized, foreign or
// out-of-range file must raise a ResultParseError (a ModelError) — never
// a silent partial result, never a read past a buffer.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "codegen/results_parser.h"
#include "cov/coverage.h"
#include "diag/diagnosis.h"
#include "test_util.h"

namespace accmos {
namespace {

using test::Tiny;

// One accmos_runner result file, built field by field (layout in
// run_abi.h): the header, then every result buffer, each section padded
// to a multiple of 8 bytes.
struct RunnerFile {
  AccmosRunnerFileHeader h{};
  std::vector<uint8_t> cov[4];
  std::vector<AccmosDiagRec> diags;
  std::vector<AccmosCustomRec> customs;
  std::vector<uint64_t> outVals;

  std::string bytes() const {
    std::string out;
    auto put = [&](const void* p, size_t n) {
      out.append(static_cast<const char*>(p), n);
      out.append((8 - n % 8) % 8, '\0');
    };
    put(&h, sizeof(h));
    for (const auto& c : cov) put(c.data(), c.size());
    put(diags.data(), diags.size() * sizeof(AccmosDiagRec));
    put(customs.data(), customs.size() * sizeof(AccmosCustomRec));
    put(outVals.data(), outVals.size() * 8);
    return out;
  }
};

class ResultsParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t_ = std::make_unique<Tiny>();
    t_->inport("In1", 1);
    Actor& g = t_->actor("G", "Gain");
    g.params().setDouble("gain", 2.0);
    t_->outport("Out1", 1);
    t_->wire("In1", "G");
    t_->wire("G", "Out1");
    fm_ = t_->flatten();
    covPlan_ = CoveragePlan::build(
        fm_, [](const FlatActor& fa) { return covTraitsFor(fa); });
    CustomDiagnostic cd;
    cd.actorPath = "T_G";
    cd.name = "gain-range";
    custom_ = {cd};
  }

  // A file the decoder accepts: geometry matching this model, optionally
  // with coverage, and one output value of 2.5.
  RunnerFile wellFormed(const CoveragePlan* plan = nullptr) const {
    RunnerFile f;
    f.h.magic = ACCMOS_RUNNER_FILE_MAGIC;
    f.h.abiVersion = ACCMOS_ABI_VERSION;
    f.h.rc = ACCMOS_ABI_OK;
    AccmosModelInfo& info = f.h.info;
    info.structSize = sizeof(AccmosModelInfo);
    info.abiVersion = ACCMOS_ABI_VERSION;
    for (int m = 0; m < 4; ++m) {
      info.covLen[m] =
          plan != nullptr ? plan->totalSlots(kAllCovMetrics[m]) : 0;
      f.cov[m].assign(info.covLen[m], 1);
    }
    info.numActors = fm_.actors.size();
    info.numDiagKinds = kNumDiagKinds;
    info.numCustom = custom_.size();
    info.outValsLen = 1;
    f.diags.resize(info.numActors * info.numDiagKinds);
    f.customs.resize(info.numCustom);
    double v = 2.5;
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    f.outVals = {bits};
    return f;
  }

  SimulationResult decode(const std::string& bytes,
                          const CoveragePlan* plan = nullptr) const {
    return decodeRunnerFile(bytes, fm_, plan, {}, custom_);
  }

  // The contract under test: the decoder throws, the exception is a
  // ResultParseError, and its message names the problem.
  void expectFail(const std::string& bytes, const std::string& substr,
                  const CoveragePlan* plan = nullptr) const {
    try {
      decode(bytes, plan);
      ADD_FAILURE() << "expected ResultParseError (" << substr << ")";
    } catch (const ResultParseError& e) {
      EXPECT_NE(std::string(e.what()).find(substr), std::string::npos)
          << "expected '" << substr << "' in: " << e.what();
    }
  }

  std::unique_ptr<Tiny> t_;
  FlatModel fm_;
  CoveragePlan covPlan_;
  std::vector<CustomDiagnostic> custom_;
};

TEST_F(ResultsParserTest, DecodesAWellFormedFile) {
  RunnerFile f = wellFormed(&covPlan_);
  f.h.stepsExecuted = 50;
  f.h.stoppedEarly = 1;
  f.h.execNs = 2000;
  const int g = fm_.findByPath("T_G")->id;
  f.diags[0] = {g, static_cast<int32_t>(DiagKind::NanInf), 7, 3};
  f.h.diagCount = 1;
  f.customs[0] = {0, 9, 1};
  f.h.customCount = 1;

  SimulationResult r = decode(f.bytes(), &covPlan_);
  EXPECT_EQ(r.stepsExecuted, 50u);
  EXPECT_TRUE(r.stoppedEarly);
  EXPECT_DOUBLE_EQ(r.execSeconds, 2e-6);
  ASSERT_EQ(r.finalOutputs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.finalOutputs[0].f(0), 2.5);
  EXPECT_TRUE(r.hasCoverage);
  ASSERT_EQ(r.diagnostics.size(), 2u);
  EXPECT_EQ(r.diagnostics[0].kind, DiagKind::NanInf);
  EXPECT_EQ(r.diagnostics[0].firstStep, 7u);
  EXPECT_EQ(r.diagnostics[1].kind, DiagKind::Custom);
  EXPECT_EQ(r.diagnostics[1].message, "gain-range");
}

TEST_F(ResultsParserTest, TimedOutRunDecodes) {
  // ETIMEOUT is a retired run, not a failed one: its fields are valid.
  RunnerFile f = wellFormed();
  f.h.rc = ACCMOS_ABI_ETIMEOUT;
  f.h.timedOut = 1;
  EXPECT_TRUE(decode(f.bytes()).timedOut);
}

TEST_F(ResultsParserTest, TruncatedFileFails) {
  // A runner killed mid-write: short header, or a short buffer section.
  const std::string full = wellFormed().bytes();
  expectFail("", "truncated");
  expectFail(full.substr(0, sizeof(AccmosRunnerFileHeader) - 1),
             "truncated");
  expectFail(full.substr(0, full.size() - 8), "truncated");
}

TEST_F(ResultsParserTest, TrailingBytesFail) {
  expectFail(wellFormed().bytes() + std::string(8, '\0'), "trailing bytes");
}

TEST_F(ResultsParserTest, BadMagicOrVersionFails) {
  RunnerFile f = wellFormed();
  f.h.magic = 0x7f454c46;  // some other file entirely
  expectFail(f.bytes(), "bad magic");
  f = wellFormed();
  f.h.abiVersion = ACCMOS_ABI_VERSION + 1;
  expectFail(f.bytes(), "ABI version");
  f = wellFormed();
  f.h.info.abiVersion = ACCMOS_ABI_VERSION - 1;
  expectFail(f.bytes(), "ABI version");
}

TEST_F(ResultsParserTest, FailedRunStatusFails) {
  RunnerFile f = wellFormed();
  f.h.rc = ACCMOS_ABI_EBUFFER;
  expectFail(f.bytes(), "ABI status 3");
}

TEST_F(ResultsParserTest, CountsBeyondCapacityFail) {
  RunnerFile f = wellFormed();
  f.h.diagCount = f.diags.size() + 1;
  expectFail(f.bytes(), "diagnostic count");
  f = wellFormed();
  f.h.customCount = 2;
  expectFail(f.bytes(), "custom diagnostic count");
}

TEST_F(ResultsParserTest, DiagnosticRangeChecksFail) {
  RunnerFile f = wellFormed();
  f.diags[0] = {57, 0, 1, 1};
  f.h.diagCount = 1;
  expectFail(f.bytes(), "bad actor id 57");
  f.diags[0] = {0, kNumDiagKinds, 1, 1};
  expectFail(f.bytes(), "bad kind");
  f.diags[0] = {0, -1, 1, 1};
  expectFail(f.bytes(), "bad kind -1");
}

TEST_F(ResultsParserTest, CustomIndexOutOfRangeFails) {
  RunnerFile f = wellFormed();
  f.customs[0] = {5, 1, 1};
  f.h.customCount = 1;
  expectFail(f.bytes(), "custom diagnostic index 5 out of range");
}

TEST_F(ResultsParserTest, GeometryMismatchFails) {
  // Coverage bitmap of the wrong length: host and library disagree about
  // the instrumentation, so no buffer of this file can be trusted.
  RunnerFile f = wellFormed(&covPlan_);
  f.h.info.covLen[0] += 1;
  f.cov[0].push_back(1);
  expectFail(f.bytes(), "coverage bitmap length", &covPlan_);
  // A covered file decoded by an uninstrumented host.
  expectFail(wellFormed(&covPlan_).bytes(), "coverage bitmap length");
  f = wellFormed();
  f.h.info.numActors += 1;
  expectFail(f.bytes(), "actor count");
  EXPECT_EQ(geometryMismatch(wellFormed().h.info, fm_, nullptr, {}, 1), "");
}

TEST_F(ResultsParserTest, ErrorsAreCatchableAsModelError) {
  // Pipeline-level handlers catch ModelError; decode errors must flow
  // through that path, not bypass it.
  EXPECT_THROW(decode(""), ModelError);
  EXPECT_THROW(decode(""), ResultParseError);
}

}  // namespace
}  // namespace accmos
