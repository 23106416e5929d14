//===- Transform.h - The Transform dialect ----------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution: a transformation-control language
/// represented as compiler IR. Transform scripts are ordinary operations in
/// the `transform` dialect; an interpreter maintains the mapping between
/// handles (SSA values of `!transform.*` types) and payload operations,
/// tracks handle invalidation, and dispatches to transformation logic.
///
/// Extensibility (Section 3.2): new transform ops are registered at runtime
/// via `registerTransformOp`, pairing an OpInfo with a `TransformOpDef`
/// (operand effects + apply callback) — no recompilation of this library is
/// needed to add transforms.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_CORE_TRANSFORM_H
#define TDL_CORE_TRANSFORM_H

#include "ir/Builder.h"
#include "ir/IR.h"
#include "rewrite/Rewriter.h"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace tdl {

class TransformInterpreter;
class raw_ostream;

//===----------------------------------------------------------------------===//
// DiagnosedSilenceableFailure
//===----------------------------------------------------------------------===//

/// Tri-state transform result (Section 3): success, silenceable failure
/// (precondition failed; payload not irreversibly modified; a parent may
/// suppress it), or definite failure (aborts interpretation).
class DiagnosedSilenceableFailure {
public:
  enum class Severity { Success, Silenceable, Definite };

  static DiagnosedSilenceableFailure success() {
    return DiagnosedSilenceableFailure(Severity::Success, "");
  }
  static DiagnosedSilenceableFailure silenceable(std::string Message) {
    return DiagnosedSilenceableFailure(Severity::Silenceable,
                                       std::move(Message));
  }
  static DiagnosedSilenceableFailure definite(std::string Message) {
    return DiagnosedSilenceableFailure(Severity::Definite,
                                       std::move(Message));
  }

  bool succeeded() const { return Kind == Severity::Success; }
  bool isSilenceable() const { return Kind == Severity::Silenceable; }
  bool isDefinite() const { return Kind == Severity::Definite; }
  const std::string &getMessage() const { return Message; }

private:
  DiagnosedSilenceableFailure(Severity Kind, std::string Message)
      : Kind(Kind), Message(std::move(Message)) {}

  Severity Kind;
  std::string Message;
};

//===----------------------------------------------------------------------===//
// Transform op registration
//===----------------------------------------------------------------------===//

/// Static kind expected of a transform op operand, used by the type checker
/// to reject scripts that feed a handle where a parameter is required (or
/// vice versa) before interpretation starts.
enum class TransformValueKind : uint8_t {
  Any,    ///< Unchecked (default for unspecified operand positions).
  Handle, ///< Must be `!transform.any_op` or `!transform.op<"...">`.
  Param,  ///< Must be `!transform.param`.
};

/// Ops the static type checker treats specially, tagged at registration so
/// the per-op dispatch in `analyzeHandleTypes` is a cached enum switch
/// instead of a chain of name comparisons (the analysis runs on every
/// interpreter start, so its constant factor matters).
enum class TransformTypeCheckSpecial : uint8_t {
  None,            ///< Only generic operand-kind checking.
  Cast,            ///< transform.cast: shape + feasibility.
  MatchName,       ///< match.op / match.operation_name: typed result vs names.
  Include,         ///< transform.include: operands/results vs callee signature.
  BodyBinding,     ///< sequence / foreach: operand 0 vs body argument 0.
  ForeachMatch,    ///< foreach_match: matcher/action/result signatures.
  CollectMatching, ///< collect_matching: matcher yields vs result types.
  ApplyPatterns,   ///< apply_patterns: matcher/pattern-set pairing.
  Import,          ///< transform.import: well-formed library reference.
  Library,         ///< transform.library: strategy-manifest well-formedness.
};

/// Runtime behavior of a transform op: which operands it consumes (a
/// "memory deallocation" side effect in the paper's terms, Section 3.1) and
/// how to apply it.
struct TransformOpDef {
  /// Indices of consumed operands; consumed handles and every handle
  /// pointing into the same or nested payload become invalid afterwards.
  std::set<unsigned> ConsumedOperands;
  /// Expected kind per operand position (missing trailing entries are
  /// unchecked). Consulted by `analyzeHandleTypes` before interpretation.
  std::vector<TransformValueKind> OperandKinds;
  /// Special-case tag for the static type checker (see the enum).
  TransformTypeCheckSpecial TypeCheckSpecial = TransformTypeCheckSpecial::None;
  /// Apply callback. Reads payload via the interpreter, mutates payload IR,
  /// and binds results.
  std::function<DiagnosedSilenceableFailure(Operation *, TransformInterpreter &)>
      Apply;
  /// Result aliasing for the *static* invalidation analysis (Section 3.4):
  /// for each result, the operand index whose payload the result is nested
  /// in, or -1 for fresh/disjoint payload.
  std::vector<int> ResultNestedInOperand;
  /// When >= 0, *every* result (however many the op declares) is nested in
  /// this operand's payload; overrides ResultNestedInOperand. For ops with
  /// a dynamic result count (collect_matching), where a per-index table
  /// cannot cover all positions.
  int AllResultsNestedInOperand = -1;
  /// Whether the op is side-effect-free on payload IR and therefore legal
  /// inside `transform.foreach_match` matcher sequences. Ops that mutate,
  /// consume, or otherwise irreversibly touch payload must leave this false;
  /// the interpreter rejects them in matcher mode.
  bool MatcherOk = false;
  /// Whether the op's Apply dispatches into the registered-pass
  /// infrastructure (the auto-generated `transform.<contracted-pass>` ops).
  /// Pass runners walk and rewrite whole payload subtrees through shared
  /// machinery, so the commit-phase locality analysis pins any action using
  /// one to the serial in-order path.
  bool RunsRegisteredPass = false;
};

/// Registry of transform op behaviors, keyed by op name. The companion
/// OpInfo is registered in the Context as usual.
class TransformOpRegistry {
public:
  static TransformOpRegistry &instance();

  void registerOp(std::string Name, TransformOpDef Def);
  const TransformOpDef *lookup(std::string_view Name) const;

private:
  std::map<std::string, TransformOpDef, std::less<>> Defs;
};

/// Resolves the TransformOpDef of \p Op, memoizing the result in the op's
/// interned OpInfo so repeated interpretation avoids the registry's
/// string-keyed map probe (the hot path of the interpreter dispatch loop).
const TransformOpDef *lookupTransformOpDef(const Operation *Op);

/// Registers a transform op end-to-end: OpInfo into \p Ctx, behavior into
/// the TransformOpRegistry. This is the extension point advanced users call
/// (Section 3.2).
void registerTransformOp(Context &Ctx, OpInfo Info, TransformOpDef Def);

/// Registers all built-in transform ops and types with \p Ctx.
void registerTransformDialect(Context &Ctx);

/// Registers a named pattern usable inside `transform.apply_patterns`
/// regions. The op `transform.pattern.<name>` becomes available; its
/// populate function contributes patterns to the set applied greedily.
void registerTransformPatternOp(
    Context &Ctx, std::string_view Name,
    std::function<void(PatternSet &)> Populate);

/// Returns the populate function for `transform.pattern.<name>`, or null.
const std::function<void(PatternSet &)> *
lookupTransformPatternOp(std::string_view Name);

/// Resolves a pattern set by its short name (the `transform.pattern.<name>`
/// registry entry without the prefix), or null. Shared by the runtime
/// (`apply_patterns`) and the static analysis so set-name resolution can
/// never drift between them.
const std::function<void(PatternSet &)> *
lookupNamedPatternSet(std::string_view Name);

/// The diagnostic for an unresolved named pattern set, shared for the same
/// reason.
std::string unknownPatternSetMessage(std::string_view Name);

//===----------------------------------------------------------------------===//
// TransformState
//===----------------------------------------------------------------------===//

/// One payload mutation observed by a worker-local TransformState during the
/// matcher engine's parallel commit phase, recorded for in-order replay into
/// the driver state after the worker's wave joins.
struct PayloadEvent {
  enum class Kind {
    /// `Old` was replaced by `Ops` (erase when `Ops` is empty).
    Replace,
    /// A handle was consumed; `Ops` holds the closure of the consumed
    /// payload (the consumed ops and everything nested within them),
    /// snapshotted while the IR was still intact. Replay invalidates driver
    /// handles by pointer identity against this set and never dereferences
    /// the ops — they may have been freed by the consuming action.
    Consume,
  };
  Kind EventKind;
  Operation *Old = nullptr;
  std::vector<Operation *> Ops;
};

/// The interpreter's association table: handle values to payload ops,
/// parameter values to attributes, and the invalidation set.
class TransformState {
public:
  explicit TransformState(Operation *PayloadRoot) : PayloadRoot(PayloadRoot) {}

  Operation *getPayloadRoot() const { return PayloadRoot; }

  const std::vector<Operation *> &getPayloadOps(Value Handle) const;
  const std::vector<Attribute> &getParams(Value Handle) const;
  bool isParam(Value Handle) const;

  void setPayload(Value Handle, std::vector<Operation *> Ops);
  void setParams(Value Handle, std::vector<Attribute> Params);

  /// Marks \p Handle consumed: it and every handle whose payload ops are
  /// identical to or nested within its payload become invalidated. Mappings
  /// are kept readable until overwritten so the consuming transform itself
  /// can still access its operand. The payload closure is walked (and
  /// counted in `interp.consume.closure_ops`) only when another live op
  /// handle exists or the event log is on.
  void consume(Value Handle);
  bool isInvalidated(Value Handle) const {
    return Invalidated.count(Handle.getImpl()) != 0;
  }

  /// Rewires every mapping of \p Old to \p Replacements (handle tracking
  /// during pattern application, Section 3.1).
  void replacePayloadOp(Operation *Old,
                        const std::vector<Operation *> &Replacements);
  /// Drops \p Old from every mapping.
  void erasePayloadOp(Operation *Old);

  /// Removes every trace of \p Handle from the association table. Used by
  /// transforms that temporarily pin payload ops under synthetic handles
  /// (e.g. the pending matches of `foreach_match`) and must not leave
  /// dangling keys behind.
  void forget(Value Handle);

  /// Moves \p Handle's binding — payload ops or params *and* the
  /// invalidated bit — from \p From into this state, leaving \p From with an
  /// empty binding. The parallel commit phase uses this to hand a match's
  /// pinned handles from the driver state to the worker state that runs its
  /// action (setPayload would clear the invalidated bit, losing staleness
  /// from earlier waves). Only \p Handle's entry of \p From is written, so
  /// workers may take distinct handles from one state concurrently.
  void takeBinding(Value Handle, TransformState &From);

  /// Invalidates every non-invalidated handle holding an op of \p Closure
  /// (pointer identity only — members of \p Closure are never dereferenced,
  /// so the set may contain ops that have since been freed). This is the
  /// alias-invalidation half of consume(), exposed for replaying Consume
  /// events recorded by commit workers.
  void invalidateAliasesByIdentity(const std::vector<Operation *> &Closure);

  /// Starts recording Replace/Consume payload events (worker states of the
  /// parallel commit phase).
  void enableEventLog() { EventLogEnabled = true; }
  /// Moves the recorded events out for replay.
  std::vector<PayloadEvent> takeEvents() { return std::move(Events); }

  /// Number of handle->payload entries (for tests/benchmarks).
  size_t getNumHandles() const { return HandleMap.size(); }

private:
  /// True when some op handle other than \p Except maps to payload and is
  /// not invalidated, i.e. a consume of \p Except could invalidate it.
  bool hasOtherLiveOpHandle(ValueImpl *Except) const;

  Operation *PayloadRoot;
  std::map<ValueImpl *, std::vector<Operation *>> HandleMap;
  std::map<ValueImpl *, std::vector<Attribute>> ParamMap;
  std::set<ValueImpl *> Invalidated;
  bool EventLogEnabled = false;
  std::vector<PayloadEvent> Events;
};

/// Rewrite listener that keeps a TransformState's handles up to date while
/// patterns or passes run — the "operation replaced"/"erased" subscription
/// of Section 3.1.
class TrackingListener : public RewriteListener {
public:
  explicit TrackingListener(TransformState &State) : State(State) {}

  void notifyOperationReplaced(Operation *Op,
                               const std::vector<Value> &Replacements) override;
  void notifyOperationErased(Operation *Op) override;

private:
  TransformState &State;
};

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

struct TransformOptions {
  /// Dynamically check lowering-transform pre-/post-conditions (Section
  /// 3.3, "Checking Pre- and Post-Conditions Dynamically").
  bool CheckConditions = false;
  /// Print each transform op before applying it. Trace lines are buffered
  /// per interpreter and merged back into serial walk order by the engine's
  /// sharded phases, so the output is byte-identical at any shard count.
  bool Trace = false;
  /// Where trace lines go. Null means errs().
  raw_ostream *TraceStream = nullptr;
  /// Treat a silenceable failure surviving to the top level as an error.
  bool FailOnSilenceable = true;
  /// Number of worker threads for the MatcherEngine's payload walk
  /// (foreach_match, collect_matching, match-driven apply_patterns). The
  /// match phase is side-effect-free, so it shards per top-level child of
  /// each root (one unit per `func.func` of a module payload) and merges
  /// results back into serial walk order; output is byte-identical to the
  /// single-threaded walk. 0 or 1 means serial.
  unsigned MatchShards = 1;
  /// Number of worker threads for the MatcherEngine's commit phase. Pinned
  /// matches are grouped into partitions by their candidate's top-level
  /// ancestor (the same per-root-child units as the sharded walk); a static
  /// conflict analysis over each action body marks partitions whose actions
  /// could touch payload outside the partition, and those fall back to the
  /// serial path as in-order barriers. Disjoint partitions commit
  /// concurrently; payload output and diagnostics are byte-identical to the
  /// serial commit at any shard count. 0 or 1 means serial.
  unsigned CommitShards = 1;
};

/// Executes a transform script against a payload root.
class TransformInterpreter {
public:
  TransformInterpreter(Operation *PayloadRoot, Operation *ScriptRoot,
                       TransformOptions Options = {});

  /// Runs the entry sequence: \p Entry itself when it is a (named_)sequence,
  /// otherwise the named sequence `@__transform_main` inside the script
  /// root. Binds its first block argument to the payload root.
  LogicalResult run();

  TransformState &getState() { return State; }
  const TransformOptions &getOptions() const { return Options; }
  Operation *getScriptRoot() const { return ScriptRoot; }

  /// Executes all ops of \p B (used by region-carrying transform ops).
  DiagnosedSilenceableFailure executeBlock(Block &B);
  /// Executes one transform op.
  DiagnosedSilenceableFailure executeOp(Operation *Op);

  /// Whether the interpreter is currently executing a matcher sequence of
  /// `transform.foreach_match`. In matcher mode only side-effect-free
  /// transform ops (TransformOpDef::MatcherOk) may run; a matcher that
  /// attempts to rewrite payload is a definite error.
  bool isMatcherMode() const { return MatcherMode; }

  /// RAII guard entering matcher mode for the duration of a matcher
  /// sequence execution.
  class MatcherScope {
  public:
    explicit MatcherScope(TransformInterpreter &Interp)
        : Interp(Interp), Prev(Interp.MatcherMode) {
      Interp.MatcherMode = true;
    }
    ~MatcherScope() { Interp.MatcherMode = Prev; }
    MatcherScope(const MatcherScope &) = delete;
    MatcherScope &operator=(const MatcherScope &) = delete;

  private:
    TransformInterpreter &Interp;
    bool Prev;
  };

  /// Resolves a named sequence in the script root by symbol name.
  Operation *lookupNamedSequence(std::string_view Name) const;

  /// Convenience used by transform implementations: reads a size parameter
  /// that is either an attribute on \p Op or a `!transform.param` operand.
  FailureOr<std::vector<int64_t>> readIntParams(Operation *Op,
                                                std::string_view AttrName,
                                                unsigned FirstParamOperand);

  /// Writes the buffered `[transform] <op>` lines (TransformOptions::Trace)
  /// to TransformOptions::TraceStream (errs() when unset) and clears the
  /// buffer. Scratch interpreters on engine worker threads buffer
  /// privately; the MatcherEngine drains each match unit or commit
  /// partition and replays it into the driver in serial walk order, so the
  /// merged trace is byte-identical to the single-threaded run. The driver
  /// flushes once at the end of run().
  void flushTraceLog();

private:
  Operation *PayloadRoot;
  Operation *ScriptRoot;
  TransformOptions Options;
  TransformState State;
  bool MatcherMode = false;
  std::string TraceLog;
  friend class MatcherEngine; // Drains and replays worker TraceLogs.
};

/// One-call entry point: interprets \p Script (a named_sequence /sequence op
/// or a module containing `@__transform_main`) against \p PayloadRoot.
LogicalResult applyTransforms(Operation *PayloadRoot, Operation *Script,
                              TransformOptions Options = {});

//===----------------------------------------------------------------------===//
// Pipeline-to-script conversion (Case Study 1)
//===----------------------------------------------------------------------===//

/// Builds a transform script module equivalent to a textual pass pipeline:
/// one `transform.apply_registered_pass` per pipeline element, chained on
/// the module handle. Mirrors the paper's automatic conversion of pass
/// pipelines to Transform scripts.
OwningOpRef buildTransformScriptFromPipeline(Context &Ctx,
                                             std::string_view Pipeline);

} // namespace tdl

#endif // TDL_CORE_TRANSFORM_H
