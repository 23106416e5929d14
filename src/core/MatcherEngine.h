//===- MatcherEngine.h - Reusable match/commit matcher engine ---*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The matcher engine behind `transform.foreach_match`,
/// `transform.collect_matching`, and match-driven `transform.apply_patterns`
/// — the paper's pattern-level control architecture (Case Study 2): pure
/// matchers reusable by many drivers, with actions applied separately. The
/// engine exposes an explicit two-phase API:
///
///  * The **match phase** is side-effect-free. It walks the payload in
///    deterministic pre-order, offers each op to the registered
///    (matcher, action) pairs — first matcher to succeed claims the op —
///    and produces an ordered list of matches with the values their
///    matchers forwarded. Matchers run in *matcher mode* (only
///    `TransformOpDef::MatcherOk` ops may execute) against scratch
///    interpreter states, so the phase never touches the driver's
///    TransformState or the payload IR. Because of that purity the walk can
///    be sharded across worker threads (walk units are the top-level
///    children of each root, e.g. one per `func.func` of a module, claimed
///    in order by the workers); shard results are merged back into serial
///    walk order before being returned, so the match set — and everything
///    downstream — is byte-identical to the single-threaded walk.
///
///  * The **commit phase** mutates payload and is parallel for the
///    conflict-free common case. Every match is pinned under tracked
///    synthetic handles *before* the first action runs, so the interpreter's
///    consumption/invalidation rules and the TrackingListener pathway keep
///    pending matches consistent while earlier actions rewrite payload.
///    Matches whose candidate (or any forwarded op) was consumed, erased, or
///    replaced by an earlier action are skipped as stale; each surviving
///    match is handed to a per-client callback (execute an action sequence,
///    apply a pattern set, ...). When `TransformOptions::CommitShards` > 1,
///    the pinned matches are grouped into a *conflict partition*: contiguous
///    runs of matches sharing the same top-level ancestor (the same
///    per-root-child units the sharded walk distributes). A static locality
///    analysis over each action body decides whether every action run stays
///    inside its own partition's payload subtree; partitions that pass
///    commit concurrently on worker threads, partitions that do not fall
///    back to the serial path as in-order barriers. Per-worker diagnostics
///    and payload-tracking events are merged back into serial walk order, so
///    remarks, errors, and payload output are byte-identical to the serial
///    commit at any shard count; a partition that ran past a failing one is
///    rolled back from a snapshot.
///
/// Both phases run their shards on one process-wide pool of parked helper
/// threads, with the calling thread as shard 0.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_CORE_MATCHERENGINE_H
#define TDL_CORE_MATCHERENGINE_H

#include "core/Conditions.h"
#include "core/Transform.h"
#include "support/Diagnostics.h"

#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace tdl {

//===----------------------------------------------------------------------===//
// Shared symbol resolution
//===----------------------------------------------------------------------===//

/// Resolves a named transform sequence the one way every consumer must: the
/// script root itself when its symbol name matches, then the first
/// pre-order definition among nested symbol tables (library modules of
/// matcher sequences included), then the cross-file library scope a
/// TransformLibraryManager linked into the script root (imported symbols
/// and the search-path tier — see TransformLibrary.h). The runtime
/// (`TransformInterpreter::lookupNamedSequence`), the matcher engine, the
/// include-cycle check, and the static analyses all delegate here so they
/// can never disagree on which definition a reference means.
Operation *resolveTransformSequence(Operation *ScriptRoot,
                                    std::string_view Name);

/// Reads a matcher/action reference (symbol or string attribute); empty
/// when the attribute has an unexpected kind.
std::string_view transformSequenceRefName(Attribute Ref);

//===----------------------------------------------------------------------===//
// Diagnostic formatting
//===----------------------------------------------------------------------===//

/// The one formatting helper for matcher-engine diagnostics. Every message
/// renders as
///
///   <driver> [<role> '@symbol']... [on payload op '<name>']: <detail>
///
/// so the matcher/action symbol and the payload op name appear consistently
/// across all engine clients instead of being rebuilt ad hoc per error.
class MatchDiag {
public:
  explicit MatchDiag(std::string_view Driver) : Message(Driver) {}

  /// Appends " <role> '@symbol'" for a resolved sequence op.
  MatchDiag &seq(std::string_view Role, Operation *SequenceOp);
  /// Appends " <role> '@symbol'" for a symbol known only by name.
  MatchDiag &seq(std::string_view Role, std::string_view SymbolName);
  /// Appends " on payload op '<name>'" (no-op for null). Only for ops
  /// known to be live; when the op may have been erased in the meantime
  /// (e.g. by the action being diagnosed), capture its name up front and
  /// use the string overload.
  MatchDiag &payload(Operation *PayloadOp);
  /// Appends " on payload op '<name>'" from a pre-captured op name.
  MatchDiag &payload(std::string_view OpName);
  /// Appends ": <detail>" and is typically the last call in the chain.
  MatchDiag &text(std::string_view Detail);

  const std::string &str() const { return Message; }
  operator std::string() const { return Message; }

private:
  std::string Message;
};

//===----------------------------------------------------------------------===//
// MatcherEngine
//===----------------------------------------------------------------------===//

class MatcherEngine {
public:
  /// One value a matcher forwarded for a match, recorded raw during the
  /// (pure) match phase: either a payload op list or a parameter list.
  struct ForwardedValue {
    bool IsParam = false;
    std::vector<Operation *> Ops;
    std::vector<Attribute> Params;
  };

  /// One successful match, in deterministic walk order.
  struct Match {
    /// Index of the (matcher, action) pair that claimed the candidate.
    size_t PairIdx = 0;
    /// The op the matcher approved.
    Operation *Candidate = nullptr;
    /// The matcher's yield operands (the candidate itself for an
    /// operand-less yield), in yield order.
    std::vector<ForwardedValue> Values;
  };

  /// One forwarded value pinned for the commit phase: a tracked synthetic
  /// handle (op values) or the raw parameter list.
  struct PinnedSlot {
    /// Null for parameter slots; the candidate handle itself when the
    /// matcher forwards exactly the candidate (one pin, tracked once).
    Value Handle;
    std::vector<Attribute> Params;
  };

  /// A match pinned for the commit phase and verified still live. Read the
  /// current (tracked) payload of the handles through the driver's
  /// TransformState.
  struct PinnedMatch {
    size_t PairIdx = 0;
    Operation *OriginalCandidate = nullptr;
    Value CandidateHandle;
    std::vector<PinnedSlot> Slots;
  };

  /// \p DriverName labels diagnostics (e.g. "foreach_match").
  MatcherEngine(TransformInterpreter &Interp, Operation *DriverOp,
                std::string_view DriverName);
  /// Unregisters every pin and the action-body bindings from the driver's
  /// state, so a completed driver op leaves no stale entries behind.
  ~MatcherEngine();
  MatcherEngine(const MatcherEngine &) = delete;
  MatcherEngine &operator=(const MatcherEngine &) = delete;

  /// Registers a (matcher, action) pair. \p ActionRef may be null for
  /// match-only clients (collect_matching, apply_patterns). Resolves the
  /// symbols, validates the matcher shape (exactly one op-handle argument),
  /// checks the matcher-yield arity and types against the action's
  /// signature, and derives the name-prefilter conjunctions (typed candidate
  /// argument, leading `match.operation_name`). Definite failure on any
  /// violation — before any payload op is visited.
  DiagnosedSilenceableFailure addPair(Attribute MatcherRef,
                                      Attribute ActionRef);

  size_t getNumPairs() const { return Pairs.size(); }
  Operation *getMatcher(size_t PairIdx) const { return Pairs[PairIdx].Matcher; }
  Operation *getAction(size_t PairIdx) const { return Pairs[PairIdx].Action; }

  /// The one statement of what a matcher-forwarded value may bind to:
  /// param kinds must agree, handles may widen implicitly but never narrow
  /// without an explicit cast. Returns the diagnostic detail text for a
  /// mismatch ("" when compatible); \p SlotDesc names the consumer slot
  /// ("action argument 0", "result 1"). Used by addPair and by clients
  /// validating their own binding boundaries (collect_matching results).
  static std::string describeForwardingMismatch(Type Produced,
                                                std::string_view SlotDesc,
                                                Type Expected);
  /// The statically known types a pair's matcher forwards (its yield
  /// operand types, or the candidate type for an operand-less yield).
  const std::vector<Type> &getForwardedTypes(size_t PairIdx) const {
    return Pairs[PairIdx].ForwardedTypes;
  }

  /// Applicability query: does the pure matcher \p MatcherName (resolved in
  /// \p ScriptRoot's scope, linked libraries included) match \p PayloadRoot
  /// or any op beneath it? Runs the match phase alone against scratch
  /// states — payload and driver state are never touched — and stops
  /// nothing short of a definite matcher failure (reported as failure()
  /// with a diagnostic). This is the gate the strategy-dispatch subsystem
  /// asks per candidate strategy (`@applies`); \p DriverName labels the
  /// diagnostics accordingly.
  static FailureOr<bool> evaluateApplicability(Operation *PayloadRoot,
                                               Operation *ScriptRoot,
                                               std::string_view MatcherName,
                                               const TransformOptions &Options,
                                               std::string_view DriverName);

  /// Match phase. Walks every root (pre-order; only the roots themselves
  /// when \p RestrictRoot), offering each op to the pairs in order, and
  /// appends the matches to \p Out in deterministic walk order. Each payload
  /// op is offered at most once even when roots are duplicated or nested.
  /// Runs sharded across `TransformOptions::MatchShards` worker threads when
  /// that is > 1; the matches, diagnostics, trace lines, and counters are
  /// identical to the serial walk either way. Returns the first definite
  /// matcher failure, if any.
  DiagnosedSilenceableFailure match(const std::vector<Operation *> &Roots,
                                    bool RestrictRoot,
                                    std::vector<Match> &Out);

  /// Pins \p Ops under a fresh tracked synthetic handle registered in the
  /// driver's TransformState; the engine forgets it on destruction. Clients
  /// use this for driver-specific pins (root handles, forwarded results).
  Value pin(std::vector<Operation *> Ops);

  /// Per-match commit callback. \p Worker is the interpreter whose state
  /// holds the pinned handles for this invocation: the driver's own
  /// interpreter on the serial path, a worker-thread scratch interpreter in
  /// the parallel commit phase. Clients must read handles and execute action
  /// bodies through \p Worker — never through a captured driver state — or
  /// parallel commits would race on the driver's TransformState. On the
  /// parallel path the callback may fail only when the pair's action does
  /// (a match-only client's callback must not fail at all).
  using CommitAction = std::function<DiagnosedSilenceableFailure(
      TransformInterpreter &Worker, const PinnedMatch &PM)>;

  /// Commit phase. Pins every match (candidate + forwarded op values) up
  /// front, then invokes \p Act on each match, in walk order, whose
  /// candidate still maps to exactly the op the matcher approved and whose
  /// forwarded op handles are all still live; stale matches are skipped.
  /// Stops at the first failing action.
  ///
  /// With `TransformOptions::CommitShards` > 1 the matches are committed via
  /// the conflict partition described in the file comment; the result —
  /// payload, diagnostics, and failure — is byte-identical to the serial
  /// commit. Clients whose callback mutates client-owned state that is not
  /// safe to touch from worker threads (e.g. foreach_match pinning forwarded
  /// results mid-commit) pass \p ClientRequiresSerial to force the serial
  /// path regardless of the shard count.
  DiagnosedSilenceableFailure commit(std::vector<Match> &Matches,
                                     const CommitAction &Act,
                                     bool ClientRequiresSerial = false);

private:
  struct Pair {
    Operation *Matcher = nullptr;
    Operation *Action = nullptr;
    /// Dispatch fast path: a conjunction of name-constraint sets, each of
    /// which a candidate must satisfy, checked without entering the
    /// interpreter. One conjunct comes from a typed matcher argument
    /// (`!transform.op<"X">` admits only ops named X); another from a
    /// leading `match.operation_name` on the candidate. Candidates whose
    /// name cannot match skip the matcher invocation entirely, which keeps
    /// the single walk cheap even with many pairs.
    std::vector<std::vector<OpSetElement>> PrefilterConjuncts;
    std::vector<Type> ForwardedTypes;
    /// Lazily computed verdict of the commit-phase locality analysis over
    /// the action body: empty when every run of the action provably stays
    /// inside its candidate's payload subtree, otherwise the human-readable
    /// reason partitions committing this pair must run serially.
    std::string SerialReason;
    bool SerialReasonAnalyzed = false;
    /// Whether an action run can fail at all (see actionMayFail). Parallel
    /// commit snapshots the partitions it runs after one that may fail, so
    /// a failure can roll them back to where the serial commit stops.
    bool ActionMayFail = false;
  };

  /// What one match unit or commit partition produced on its worker, kept
  /// until the merge replays it into the driver in serial walk order.
  struct WorkerOutput {
    std::vector<Diagnostic> Diags;
    std::string Trace;
    std::vector<PayloadEvent> Events; ///< Commit partitions only.
  };

  /// Moves the diagnostics captured so far, \p Worker's buffered trace
  /// lines, and its payload-tracking events out into one record.
  static WorkerOutput drainWorkerOutput(TransformInterpreter &Worker,
                                        ThreadDiagnosticCapture &Capture);
  /// Reports \p Output's diagnostics, appends its trace lines to the
  /// driver's buffer, and applies its payload events to the driver's state.
  void replayWorkerOutput(const WorkerOutput &Output);

  /// Returns (computing and caching on first use) the pair's locality
  /// verdict; see Pair::SerialReason.
  const std::string &actionSerialReason(size_t PairIdx);

  /// The partitioned (parallel) commit path; only called when the shard
  /// count, trace mode, client constraints, and match count all permit it.
  DiagnosedSilenceableFailure
  commitPartitioned(std::vector<PinnedMatch> &Pinned, const CommitAction &Act,
                    unsigned NumShards);

  /// Offers \p Candidate to the pairs in order using the scratch
  /// interpreter \p Scratch and records a claim into \p Out. Diagnostics
  /// of matchers that succeed or fail definitely stay in the walk worker's
  /// \p Capture; those of silenceable ("not this op") failures are dropped.
  DiagnosedSilenceableFailure tryCandidate(TransformInterpreter &Scratch,
                                           ThreadDiagnosticCapture &Capture,
                                           Operation *Candidate,
                                           std::vector<Match> &Out);

  TransformInterpreter &Interp;
  Operation *DriverOp;
  std::string DriverName;
  std::vector<Pair> Pairs;
  /// Synthetic pinned handles owned by the engine, forgotten on destruction
  /// (a deque: pins keep their address as it grows).
  std::deque<ValueImpl> Pins;
  /// The type of every pin, `!transform.any_op`, resolved once.
  Type PinType;
};

} // namespace tdl

#endif // TDL_CORE_MATCHERENGINE_H
