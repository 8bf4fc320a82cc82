// Wire protocol of the accmosd resident service (docs/SERVICE.md).
//
// Two layers live here:
//
//  * Codecs — toJson/fromJson pairs for every struct that crosses the
//    socket: SimOptions, TestCaseSpec, SimulationResult, CampaignResult and
//    their members. The contract is *exact* round-trips: a result decoded
//    by the client is bit-identical to the one the daemon computed —
//    including NaN payloads and -0.0 in Values (which travel as decimal
//    uint64 bit patterns, never as JSON doubles), 64-bit counters
//    (integer JSON flavours, never squeezed through a double), coverage
//    bitmaps, diagnostics, and contained RunFailure records. Shape errors
//    throw JsonError naming the JSON path ("$.result.perSeed[3].seed").
//
//  * Frames — length-prefixed messages over a connected stream socket:
//    a 4-byte big-endian payload length followed by that many bytes of
//    JSON text. Framing keeps the parser trivial (one document per frame,
//    no streaming) and makes a truncated peer detectable instead of a
//    hang. Transport faults throw ProtocolError.
//
// Message envelopes (hello/run/campaign/stats/shutdown) are built by the
// daemon and client from these pieces; the op grammar is documented in
// docs/SERVICE.md and exercised end-to-end by tests/test_serve.cpp.
#pragma once

#include <string>

#include "serve/json.h"
#include "sim/campaign.h"
#include "sim/options.h"
#include "sim/result.h"
#include "sim/testcase.h"

namespace accmos::serve {

// Transport-level failure: short read/write, oversize frame, socket error.
// Distinct from JsonError (malformed or mis-shaped payload) so callers can
// tell "the peer vanished" from "the peer spoke garbage".
class ProtocolError : public ModelError {
 public:
  explicit ProtocolError(const std::string& what) : ModelError(what) {}
};

// ---- Codecs ------------------------------------------------------------
// Every fromJson takes `where`, the JSON path of `j` in the enclosing
// document, and extends it downward for error anchoring.

Json toJson(const Value& v);
Value valueFromJson(const Json& j, const std::string& where);

Json toJson(const CoverageRecorder& rec);
CoverageRecorder recorderFromJson(const Json& j, const std::string& where);

Json toJson(const CoverageReport& rep);
CoverageReport reportFromJson(const Json& j, const std::string& where);

Json toJson(const DiagRecord& d);
DiagRecord diagFromJson(const Json& j, const std::string& where);

Json toJson(const RunFailure& f);
RunFailure runFailureFromJson(const Json& j, const std::string& where);

Json toJson(const OptStats& s);
OptStats optStatsFromJson(const Json& j, const std::string& where);

Json toJson(const CollectedSignal& c);
CollectedSignal collectedFromJson(const Json& j, const std::string& where);

Json toJson(const SimulationResult& r);
SimulationResult simResultFromJson(const Json& j, const std::string& where);

Json toJson(const CampaignSeedResult& r);
CampaignSeedResult seedResultFromJson(const Json& j, const std::string& where);

Json toJson(const CampaignResult& r);
CampaignResult campaignResultFromJson(const Json& j, const std::string& where);

Json toJson(const PortStimulus& p);
PortStimulus portStimulusFromJson(const Json& j, const std::string& where);

Json toJson(const TestCaseSpec& s);
TestCaseSpec specFromJson(const Json& j, const std::string& where);

// SimOptions travel without workDir/keepGeneratedCode (daemon-local
// concerns — the daemon decides where its scratch space lives) and reject
// CustomDiagnostic::Kind::Expression in both directions: its std::function
// callback cannot travel, and accepting the cppCondition string alone
// would hand remote clients arbitrary code injection into generated
// simulators. toJson throws ProtocolError naming the diagnostic.
Json toJson(const SimOptions& o);
SimOptions optionsFromJson(const Json& j, const std::string& where);

// ---- Shard messages (src/dist sharded campaigns) -----------------------
// The coordinator ↔ shard-worker wire pieces (docs/CAMPAIGNS.md, "Sharded
// campaigns"). A coordinator sends one ShardRequest frame down each
// worker's socketpair; the worker answers with a stream of ShardPartial
// frames (op "partial") — per-spec SimulationResults for consecutive
// shard-local spec indices — and one final ShardDone frame (op "done")
// carrying the one-off cost bookkeeping. Results travel whole (bitmaps,
// diagnostics, failures) precisely so the coordinator can run the very
// same spec-order merge a single process runs: bit-identity is inherited
// from the codecs' exact round-trip contract, not re-proven per field.

struct ShardRequest {
  std::string modelText;            // full model XML; each shard flattens
                                    // and optimizes it identically
  SimOptions options;               // per-shard options (campaign.workers
                                    // is the shard's INNER parallelism)
  std::vector<TestCaseSpec> specs;  // this shard's contiguous sub-range
  size_t shardIndex = 0;
  size_t shardCount = 1;
};
Json toJson(const ShardRequest& r);
ShardRequest shardRequestFromJson(const Json& j, const std::string& where);

struct ShardPartial {
  size_t first = 0;  // shard-local spec index of results[0]
  std::vector<SimulationResult> results;
};
Json toJson(const ShardPartial& p);
ShardPartial shardPartialFromJson(const Json& j, const std::string& where);

struct ShardDone {
  // Contiguous completed prefix of the shard's spec list; < specs.size()
  // exactly when the worker was interrupted (SIGINT/SIGTERM forwarded by
  // the coordinator).
  size_t completed = 0;
  bool interrupted = false;
  double generateSeconds = 0.0;
  double compileSeconds = 0.0;
  double loadSeconds = 0.0;
  double compileWaitSeconds = 0.0;
  bool compileCacheHit = false;
  double timeToFirstResultSeconds = -1.0;
  uint64_t compilerInvocations = 0;  // this worker process's count
};
Json toJson(const ShardDone& d);
ShardDone shardDoneFromJson(const Json& j, const std::string& where);

// ---- Observation canonicalization --------------------------------------
// The observation-only view of a campaign: everything that is contractually
// bit-identical across workers, exec modes and tiers — per-seed
// steps/coverage/diagnostic counts, merged bitmaps, deduplicated
// diagnostics, failure records, opt stats — with timing and tier-placement
// fields (execSeconds, execMode, tierSwapIndex, interp/nativeSeeds,
// workersUsed) excluded. Client-vs-local bit-identity asserts compare the
// rendered text of this view; under ACCMOS_TIER=auto the excluded fields
// legitimately differ run to run while this view may not.
Json campaignObservations(const CampaignResult& r);

// ---- Frames ------------------------------------------------------------

// Upper bound on one frame's payload; a length prefix beyond it is treated
// as a corrupt stream, not an allocation request.
inline constexpr uint32_t kMaxFrameBytes = 1u << 28;

// Writes one length-prefixed frame. Throws ProtocolError on any socket
// error (including the peer closing mid-write) or an oversize payload.
void writeFrame(int fd, const std::string& payload);

// Reads one frame. Returns false on a clean EOF at a frame boundary (the
// peer hung up between messages); throws ProtocolError on a truncated
// frame, an oversize length prefix, or a socket error.
bool readFrame(int fd, std::string* payload);

}  // namespace accmos::serve
