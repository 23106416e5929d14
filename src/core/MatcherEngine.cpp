//===- MatcherEngine.cpp - Reusable match/commit matcher engine -----------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/MatcherEngine.h"

#include "core/ShardPool.h"
#include "core/TransformLibrary.h"
#include "ir/SymbolTable.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <unordered_set>
#include <utility>

using namespace tdl;

using DSF = DiagnosedSilenceableFailure;

//===----------------------------------------------------------------------===//
// Shared symbol resolution
//===----------------------------------------------------------------------===//

Operation *tdl::resolveTransformSequence(Operation *ScriptRoot,
                                         std::string_view Name) {
  if (!ScriptRoot || Name.empty())
    return nullptr;
  if (getSymbolName(ScriptRoot) == Name)
    return ScriptRoot;
  if (Operation *Local = lookupSymbolRecursive(ScriptRoot, Name))
    return Local;
  // Library tier: symbols a TransformLibraryManager linked into this script
  // root's scope (explicit imports first, then the search-path tier).
  // Script-local definitions shadow imports by construction of this order.
  return lookupLinkedLibrarySymbol(ScriptRoot, Name);
}

std::string_view tdl::transformSequenceRefName(Attribute Ref) {
  if (SymbolRefAttr Sym = Ref.dyn_cast<SymbolRefAttr>())
    return Sym.getValue();
  if (StringAttr Str = Ref.dyn_cast<StringAttr>())
    return Str.getValue();
  return {};
}

//===----------------------------------------------------------------------===//
// MatchDiag
//===----------------------------------------------------------------------===//

MatchDiag &MatchDiag::seq(std::string_view Role, Operation *SequenceOp) {
  return seq(Role, SequenceOp ? getSymbolName(SequenceOp)
                              : std::string_view());
}

MatchDiag &MatchDiag::seq(std::string_view Role, std::string_view SymbolName) {
  Message += ' ';
  Message += Role;
  Message += " '@";
  Message += SymbolName;
  Message += '\'';
  return *this;
}

MatchDiag &MatchDiag::payload(Operation *PayloadOp) {
  return PayloadOp ? payload(PayloadOp->getName()) : *this;
}

MatchDiag &MatchDiag::payload(std::string_view OpName) {
  Message += " on payload op '";
  Message += OpName;
  Message += '\'';
  return *this;
}

MatchDiag &MatchDiag::text(std::string_view Detail) {
  Message += ": ";
  Message += Detail;
  return *this;
}

//===----------------------------------------------------------------------===//
// Pair registration
//===----------------------------------------------------------------------===//

MatcherEngine::MatcherEngine(TransformInterpreter &Interp, Operation *DriverOp,
                             std::string_view DriverName)
    : Interp(Interp), DriverOp(DriverOp), DriverName(DriverName),
      PinType(TransformAnyOpType::get(DriverOp->getContext())) {}

std::string MatcherEngine::describeForwardingMismatch(Type Produced,
                                                      std::string_view SlotDesc,
                                                      Type Expected) {
  bool ProducedParam = Produced.isa<TransformParamType>();
  bool ExpectedParam = Expected.isa<TransformParamType>();
  if (ProducedParam != ExpectedParam)
    return std::string(SlotDesc) + " mixes a parameter with a handle ('" +
           Produced.str() + "' into '" + Expected.str() + "')";
  if (!ProducedParam && !isImplicitHandleConversion(Produced, Expected))
    return "matcher yields '" + Produced.str() + "' but " +
           std::string(SlotDesc) + " expects '" + Expected.str() +
           "'; insert an explicit transform.cast in the matcher";
  return {};
}

MatcherEngine::~MatcherEngine() {
  TransformState &State = Interp.getState();
  for (ValueImpl &Pin : Pins)
    State.forget(Value(&Pin));
  // Action bodies were bound in the driver's state during commit; matcher
  // bodies only ever bind into scratch states, which are already gone.
  std::set<Operation *> Cleaned;
  for (Pair &P : Pairs) {
    if (!P.Action || !Cleaned.insert(P.Action).second)
      continue;
    Block &Entry = P.Action->getRegion(0).front();
    for (unsigned I = 0; I < Entry.getNumArguments(); ++I)
      State.forget(Entry.getArgument(I));
    P.Action->walk([&](Operation *BodyOp) {
      for (unsigned R = 0; R < BodyOp->getNumResults(); ++R)
        State.forget(BodyOp->getResult(R));
    });
  }
}

/// Whether running \p Action can fail. Only bodies made entirely of ops that
/// cannot fail on the live handles the commit binds (named annotations,
/// remarks, the terminator) are known not to; no action cannot fail either.
static bool actionMayFail(Operation *Action) {
  if (!Action || Action->getRegion(0).empty())
    return false;
  for (Operation *BodyOp : Action->getRegion(0).front()) {
    std::string_view Name = BodyOp->getName();
    bool NamedAnnotate = Name == "transform.annotate" &&
                         !BodyOp->getStringAttr("name").empty();
    if (Name == "transform.yield" || Name == "transform.debug.emit_remark" ||
        NamedAnnotate)
      continue;
    return true;
  }
  return false;
}

DSF MatcherEngine::addPair(Attribute MatcherRef, Attribute ActionRef) {
  auto Resolve = [&](Attribute Ref, std::string_view Role,
                     Operation *&SeqOut) -> DSF {
    std::string_view Name = transformSequenceRefName(Ref);
    if (Name.empty())
      return DSF::definite(MatchDiag(DriverName).text(
          "matcher/action references must be symbol or string attrs"));
    Operation *Seq = resolveTransformSequence(Interp.getScriptRoot(), Name);
    if (!Seq)
      return DSF::definite(MatchDiag(DriverName).text(
          "unknown named sequence '@" + std::string(Name) + "'"));
    if (Seq->getNumRegions() != 1 || Seq->getRegion(0).empty() ||
        Seq->getRegion(0).front().getNumArguments() < 1)
      return DSF::definite(
          MatchDiag(DriverName)
              .seq(Role, Seq)
              .text("needs a body with at least one argument"));
    SeqOut = Seq;
    return DSF::success();
  };

  Pair NewPair;
  DSF Resolved = Resolve(MatcherRef, "matcher", NewPair.Matcher);
  if (!Resolved.succeeded())
    return Resolved;
  if (ActionRef) {
    Resolved = Resolve(ActionRef, "action", NewPair.Action);
    if (!Resolved.succeeded())
      return Resolved;
  }

  // Statically reject shapes that could never match or would only fail
  // mid-walk: the walk binds exactly one matcher argument, the matcher's
  // (static) yield count must line up with the action's arguments, and the
  // declared handle types must be compatible.
  Block &MatcherBody = NewPair.Matcher->getRegion(0).front();
  if (MatcherBody.getNumArguments() != 1)
    return DSF::definite(
        MatchDiag(DriverName)
            .seq("matcher", NewPair.Matcher)
            .text("must take exactly one argument (the candidate op)"));
  Type CandidateTy = MatcherBody.getArgument(0).getType();
  if (!isTransformHandleType(CandidateTy))
    return DSF::definite(MatchDiag(DriverName)
                             .seq("matcher", NewPair.Matcher)
                             .text("must take an op handle, not '" +
                                   CandidateTy.str() + "'"));

  // An operand-less yield forwards the candidate itself.
  Operation *MatcherYield = MatcherBody.getTerminator();
  bool YieldsOperands = MatcherYield &&
                        MatcherYield->getName() == "transform.yield" &&
                        MatcherYield->getNumOperands() > 0;
  if (YieldsOperands)
    for (Value V : MatcherYield->getOperands())
      NewPair.ForwardedTypes.push_back(V.getType());
  else
    NewPair.ForwardedTypes.push_back(CandidateTy);

  if (NewPair.Action) {
    Block &ActionEntry = NewPair.Action->getRegion(0).front();
    if (ActionEntry.getNumArguments() != NewPair.ForwardedTypes.size())
      return DSF::definite(
          MatchDiag(DriverName)
              .seq("matcher", NewPair.Matcher)
              .seq("action", NewPair.Action)
              .text("action expects " +
                    std::to_string(ActionEntry.getNumArguments()) +
                    " arguments but the matcher forwards " +
                    std::to_string(NewPair.ForwardedTypes.size())));
    for (size_t S = 0; S < NewPair.ForwardedTypes.size(); ++S) {
      std::string Mismatch = describeForwardingMismatch(
          NewPair.ForwardedTypes[S], "action argument " + std::to_string(S),
          ActionEntry.getArgument(S).getType());
      if (!Mismatch.empty())
        return DSF::definite(MatchDiag(DriverName)
                                 .seq("matcher", NewPair.Matcher)
                                 .seq("action", NewPair.Action)
                                 .text(Mismatch));
    }
  }

  // A typed candidate argument admits only ops of that name: fold the
  // declared type into the dispatch prefilter.
  if (TransformOpType TypedArg = CandidateTy.dyn_cast<TransformOpType>())
    NewPair.PrefilterConjuncts.push_back(
        {OpSetElement::parse(TypedArg.getOpName())});
  if (!MatcherBody.empty()) {
    Operation *First = MatcherBody.front();
    if (First->getName() == "transform.match.operation_name" &&
        First->getNumOperands() >= 1 &&
        First->getOperand(0) == MatcherBody.getArgument(0)) {
      // Only install the prefilter for a fully well-formed name list;
      // otherwise every candidate must reach the real op so its
      // malformed-attribute error is reported payload-independently.
      std::vector<OpSetElement> Elements;
      if (succeeded(parseTransformOpNameElements(First, Elements)) &&
          !Elements.empty())
        NewPair.PrefilterConjuncts.push_back(std::move(Elements));
    }
  }

  NewPair.ActionMayFail = actionMayFail(NewPair.Action);
  Pairs.push_back(std::move(NewPair));
  return DSF::success();
}

//===----------------------------------------------------------------------===//
// Applicability query
//===----------------------------------------------------------------------===//

FailureOr<bool> MatcherEngine::evaluateApplicability(
    Operation *PayloadRoot, Operation *ScriptRoot,
    std::string_view MatcherName, const TransformOptions &Options,
    std::string_view DriverName) {
  // The query owns its interpreter: the match phase only ever binds into
  // scratch states, so the caller's payload and any ambient driver state
  // stay untouched no matter what the matcher does.
  TransformInterpreter Scratch(PayloadRoot, ScriptRoot, Options);
  MatcherEngine Engine(Scratch, ScriptRoot, DriverName);
  DSF Added = Engine.addPair(
      StringAttr::get(ScriptRoot->getContext(), MatcherName), Attribute());
  if (!Added.succeeded()) {
    ScriptRoot->emitError() << Added.getMessage();
    return failure();
  }
  static telemetry::Counter &ApplicabilityQueries =
      telemetry::counter("engine.applicability_queries");
  ApplicabilityQueries.add();
  std::vector<Match> Matches;
  DSF Result = Engine.match({PayloadRoot}, /*RestrictRoot=*/false, Matches);
  // The query never commits, so run()'s end-of-interpretation flush is not
  // reached; drain the merged matcher trace here.
  Scratch.flushTraceLog();
  if (Result.isDefinite()) {
    ScriptRoot->emitError() << Result.getMessage();
    return failure();
  }
  return !Matches.empty();
}

//===----------------------------------------------------------------------===//
// Match phase
//===----------------------------------------------------------------------===//

DSF MatcherEngine::tryCandidate(TransformInterpreter &Scratch,
                                ThreadDiagnosticCapture &Capture,
                                Operation *Candidate, std::vector<Match> &Out) {
  Context &Ctx = DriverOp->getContext();
  for (size_t P = 0; P < Pairs.size(); ++P) {
    const Pair &ThePair = Pairs[P];
    bool Prefiltered = false;
    for (const std::vector<OpSetElement> &Conjunct :
         ThePair.PrefilterConjuncts) {
      bool MayMatch = false;
      for (const OpSetElement &Element : Conjunct)
        if (Element.matches(Candidate->getName(), &Ctx)) {
          MayMatch = true;
          break;
        }
      if (!MayMatch) {
        Prefiltered = true;
        break;
      }
    }
    if (Prefiltered)
      continue;

    Block &MatcherBody = ThePair.Matcher->getRegion(0).front();
    Scratch.getState().setPayload(MatcherBody.getArgument(0), {Candidate});
    static telemetry::Counter &MatcherInvocations =
        telemetry::counter("interp.matcher_invocations");
    MatcherInvocations.add();
    DSF MatchResult = DSF::success();
    {
      std::string SpanName;
      if (telemetry::spansActive())
        SpanName =
            "matcher:@" + std::string(getSymbolName(ThePair.Matcher));
      telemetry::ScopedSpan MatcherSpan(SpanName, "matcher");
      MatcherSpan.arg("payload_op", Candidate->getName());
      TransformInterpreter::MatcherScope Scope(Scratch);
      // Matcher failures are the expected "not this op" signal, so their
      // diagnostics are silenced; diagnostics of a matcher that succeeds
      // (or aborts) stay captured and are replayed with the unit's output,
      // so transform.debug.emit_remark stays usable inside matchers. The
      // worker's capture is per-thread (no race on the engine-wide
      // handler).
      size_t CapturedBefore = Capture.getDiagnostics().size();
      MatchResult = Scratch.executeBlock(MatcherBody);
      if (MatchResult.isSilenceable())
        Capture.truncate(CapturedBefore);
    }
    if (MatchResult.isDefinite())
      return MatchResult;
    if (MatchResult.isSilenceable())
      continue;

    Match M;
    M.PairIdx = P;
    M.Candidate = Candidate;
    // The matcher's yield operands are forwarded to the commit phase; a
    // yield without operands forwards the candidate itself. Values are
    // recorded raw here (the phase is pure, nothing can invalidate them
    // before commit pins them).
    Operation *MatchYield = MatcherBody.getTerminator();
    std::vector<Value> Forwarded;
    if (MatchYield && MatchYield->getName() == "transform.yield")
      Forwarded = MatchYield->getOperands();
    if (Forwarded.empty()) {
      ForwardedValue FV;
      FV.Ops = {Candidate};
      M.Values.push_back(std::move(FV));
    } else {
      for (Value V : Forwarded) {
        ForwardedValue FV;
        if (Scratch.getState().isParam(V)) {
          FV.IsParam = true;
          FV.Params = Scratch.getState().getParams(V);
        } else {
          FV.Ops = Scratch.getState().getPayloadOps(V);
        }
        M.Values.push_back(std::move(FV));
      }
    }
    Out.push_back(std::move(M));
    return DSF::success();
  }
  return DSF::success();
}

namespace {

/// One independently walkable slice of the payload, in serial walk order:
/// a root op alone, or a whole top-level subtree of a root. Decomposing
/// `walkPre(Root)` into [Root] + one unit per top-level child preserves the
/// exact pre-order candidate sequence while giving the sharded walk units
/// it can distribute (per `func.func` for the usual module payload).
struct WalkUnit {
  Operation *Root = nullptr;
  bool Recurse = false;
};

/// The first definite matcher failure a worker hit, with its unit so the
/// merge can reconstruct the serial failure point.
struct WorkerOutcome {
  size_t ErrorUnit = static_cast<size_t>(-1);
  DiagnosedSilenceableFailure Error = DiagnosedSilenceableFailure::success();
};

} // namespace

MatcherEngine::WorkerOutput
MatcherEngine::drainWorkerOutput(TransformInterpreter &Worker,
                                 ThreadDiagnosticCapture &Capture) {
  WorkerOutput Output;
  Output.Diags = Capture.takeDiagnostics();
  Output.Trace = std::exchange(Worker.TraceLog, std::string());
  Output.Events = Worker.getState().takeEvents();
  return Output;
}

void MatcherEngine::replayWorkerOutput(const WorkerOutput &Output) {
  DiagnosticEngine &DiagEngine = DriverOp->getContext().getDiagEngine();
  for (const Diagnostic &Diag : Output.Diags)
    DiagEngine.report(Diag);
  Interp.TraceLog += Output.Trace;
  TransformState &State = Interp.getState();
  for (const PayloadEvent &Event : Output.Events) {
    if (Event.EventKind == PayloadEvent::Kind::Replace)
      State.replacePayloadOp(Event.Old, Event.Ops);
    else
      State.invalidateAliasesByIdentity(Event.Ops);
  }
}

DSF MatcherEngine::match(const std::vector<Operation *> &Roots,
                         bool RestrictRoot, std::vector<Match> &Out) {
  // Ownership is settled before the walk: each payload op belongs to the
  // first unit, in serial order, that can reach it. With several roots
  // (duplicated or nested), a unit an earlier unit already covers is
  // dropped here, and a recursive walk skips the ops and subtrees earlier
  // units own, so every op is offered exactly once at any shard count. A
  // single root decomposes into disjoint units and needs none of this.
  bool MultiRoot = Roots.size() > 1;
  std::unordered_set<Operation *> OwnedAlone, OwnedSubtrees;
  std::vector<WalkUnit> Units;
  auto AddUnit = [&](Operation *Root, bool Recurse) {
    if (MultiRoot) {
      if (!Recurse && OwnedAlone.count(Root))
        return;
      for (Operation *Cur = Root; Cur; Cur = Cur->getParentOp())
        if (OwnedSubtrees.count(Cur))
          return;
      (Recurse ? OwnedSubtrees : OwnedAlone).insert(Root);
    }
    Units.push_back({Root, Recurse});
  };
  for (Operation *Root : Roots) {
    AddUnit(Root, false);
    if (RestrictRoot)
      continue;
    for (unsigned R = 0; R < Root->getNumRegions(); ++R)
      for (Block &B : Root->getRegion(R))
        for (Operation *Child : B)
          AddUnit(Child, true);
  }
  if (Units.empty() || Pairs.empty())
    return DSF::success();

  unsigned NumShards = std::max(1u, Interp.getOptions().MatchShards);
  NumShards = static_cast<unsigned>(
      std::min<size_t>(NumShards, Units.size()));

  static telemetry::DurationStat &MatchStat =
      telemetry::duration("engine.match");
  telemetry::ScopedTimer MatchTimer(MatchStat);
  telemetry::ScopedSpan MatchSpan("engine:match", "engine");
  MatchSpan.arg("units", static_cast<int64_t>(Units.size()));
  MatchSpan.arg("shards", static_cast<int64_t>(NumShards));

  // Per-unit match lists and outputs are written by exactly one worker
  // each, so the sharded walk needs no locking; the merge below replays
  // them in serial walk order.
  std::vector<std::vector<Match>> PerUnit(Units.size());
  std::vector<WorkerOutput> UnitOutputs(Units.size());
  std::vector<WorkerOutcome> Outcomes(NumShards);

  Operation *PayloadRoot = Interp.getState().getPayloadRoot();
  Operation *ScriptRoot = Interp.getScriptRoot();
  TransformOptions ScratchOptions = Interp.getOptions();

  // Units are claimed in increasing order from one counter, so each
  // worker also sees its own units in increasing order.
  std::atomic<size_t> NextUnit{0};
  auto RunWorker = [&](unsigned Shard) {
    // Serial or not, the walk runs against a scratch state: the driver's
    // state never sees matcher-body bindings.
    TransformInterpreter Scratch(PayloadRoot, ScriptRoot, ScratchOptions);
    telemetry::ScopedSpan ShardSpan("match:walk-shard", "engine");
    ShardSpan.arg("shard", static_cast<int64_t>(Shard));
    // One capture per worker, drained per unit: the worker only reports
    // diagnostics from inside matcher bodies, so keeping the capture
    // installed across the whole walk is safe and avoids a handler swap
    // per invocation.
    ThreadDiagnosticCapture Capture;
    // No cross-worker abort on a definite error: every unit below the
    // merge's eventual stop point must be complete so the failure path
    // replays exactly the output the serial walk would have produced
    // before the error. Every unit below a worker's error point was
    // claimed before it and is finished by whoever claimed it; the wasted
    // work in other workers is bounded by one (rare, fatal) error.
    for (size_t U; (U = NextUnit.fetch_add(1, std::memory_order_relaxed)) <
                   Units.size();) {
      Operation *UnitRoot = Units[U].Root;
      auto Offer = [&](Operation *Candidate) -> WalkResult {
        if (MultiRoot && Units[U].Recurse) {
          if (Candidate != UnitRoot && OwnedSubtrees.count(Candidate))
            return WalkResult::Skip;
          if (OwnedAlone.count(Candidate))
            return WalkResult::Advance;
        }
        DSF Result = tryCandidate(Scratch, Capture, Candidate, PerUnit[U]);
        if (Result.isDefinite()) {
          Outcomes[Shard] = {U, std::move(Result)};
          return WalkResult::Interrupt;
        }
        return WalkResult::Advance;
      };
      WalkResult UnitResult =
          Units[U].Recurse ? UnitRoot->walkPre(Offer) : Offer(UnitRoot);
      // Drain after the walk outcome is known: an erroring unit's partial
      // output is exactly what the serial walk would have produced before
      // the failure, and the merge replays it up to StopUnit.
      UnitOutputs[U] = drainWorkerOutput(Scratch, Capture);
      if (UnitResult == WalkResult::Interrupt)
        return;
    }
  };

  if (NumShards > 1) {
    // Warm the per-OpInfo TransformOpDef cache for every op a matcher can
    // execute: the lazy fill in lookupTransformOpDef is a benign-value but
    // racy write under concurrency, and warming it here keeps the workers
    // read-only on shared structures.
    for (Pair &P : Pairs)
      P.Matcher->walk([](Operation *Nested) {
        if (Nested->getDialectName() == "transform")
          (void)lookupTransformOpDef(Nested);
      });
  }
  ShardPool::instance().run(NumShards, RunWorker);

  // Merge back into serial walk order, up to and including the earliest
  // failing unit.
  size_t StopUnit = Units.size();
  const WorkerOutcome *FirstError = nullptr;
  for (const WorkerOutcome &Outcome : Outcomes)
    if (Outcome.ErrorUnit < StopUnit) {
      StopUnit = Outcome.ErrorUnit;
      FirstError = &Outcome;
    }
  for (size_t U = 0; U < Units.size() && U <= StopUnit; ++U) {
    replayWorkerOutput(UnitOutputs[U]);
    for (Match &M : PerUnit[U])
      Out.push_back(std::move(M));
  }
  return FirstError ? FirstError->Error : DSF::success();
}

//===----------------------------------------------------------------------===//
// Commit phase
//===----------------------------------------------------------------------===//

Value MatcherEngine::pin(std::vector<Operation *> Ops) {
  ValueImpl &Key = Pins.emplace_back();
  Key.Ty = PinType;
  Value Handle(&Key);
  Interp.getState().setPayload(Handle, std::move(Ops));
  return Handle;
}

/// Whether \p Slot has a pin of its own; a slot forwarding exactly the
/// candidate shares the candidate's pin.
static bool hasOwnPin(const MatcherEngine::PinnedMatch &PM,
                      const MatcherEngine::PinnedSlot &Slot) {
  return Slot.Handle && Slot.Handle != PM.CandidateHandle;
}

/// Whether the pinned match no longer reflects what the matcher approved:
/// the candidate was consumed/erased or replaced by an op the matcher never
/// saw (tracking rewired the pin), or an earlier action invalidated/erased a
/// forwarded op even though the candidate itself survived. Stale matches are
/// skipped rather than handed dangling/empty payload.
static bool isStaleMatch(const TransformState &State,
                         const MatcherEngine::PinnedMatch &PM) {
  const std::vector<Operation *> &CandOps =
      State.getPayloadOps(PM.CandidateHandle);
  if (State.isInvalidated(PM.CandidateHandle) || CandOps.size() != 1 ||
      CandOps[0] != PM.OriginalCandidate)
    return true;
  for (const MatcherEngine::PinnedSlot &Slot : PM.Slots) {
    if (!hasOwnPin(PM, Slot))
      continue;
    if (State.isInvalidated(Slot.Handle) ||
        State.getPayloadOps(Slot.Handle).empty())
      return true;
  }
  return false;
}

/// Commits Pinned[Begin, End) in walk order through \p Worker, skipping
/// stale matches; stops at the first failing action.
static DSF commitRange(TransformInterpreter &Worker,
                       const std::vector<MatcherEngine::PinnedMatch> &Pinned,
                       size_t Begin, size_t End,
                       const MatcherEngine::CommitAction &Act) {
  for (size_t I = Begin; I < End; ++I) {
    if (isStaleMatch(Worker.getState(), Pinned[I]))
      continue;
    DSF Result = Act(Worker, Pinned[I]);
    if (!Result.succeeded())
      return Result;
  }
  return DSF::success();
}

/// The conflict-partition key of a commit candidate: its ancestor that is a
/// direct child of the payload root — the same per-root-child unit the
/// sharded match walk distributes. Returns the root itself when the
/// candidate *is* the root or is not nested beneath it; the root key always
/// forces the serial path.
static Operation *commitPartitionKey(Operation *Candidate,
                                     Operation *PayloadRoot) {
  Operation *Cur = Candidate;
  while (Cur != PayloadRoot) {
    Operation *Parent = Cur->getParentOp();
    if (!Parent)
      return PayloadRoot;
    if (Parent == PayloadRoot)
      return Cur;
    Cur = Parent;
  }
  return PayloadRoot;
}

/// The transform ops whose execution can touch payload outside any single
/// candidate subtree no matter what they are applied to: payload
/// substitution against an external library, engine re-entry (nested
/// matcher walks), process-global output, and region semantics the
/// analysis does not model. Pass-running ops (apply_registered_pass,
/// expand_forall, lower_scf_to_cf, and the auto-generated per-contract
/// lowering ops) are excluded through TransformOpDef::RunsRegisteredPass
/// instead of by name, so contracts registered after startup are covered
/// without pinning local structured transforms that merely *have* a
/// phase-ordering contract (loop.unroll, loop.tile, vectorize, ...).
static std::set<std::string> serialOnlyTransformOps() {
  return {
      "transform.to_library",
      "transform.print",
      "transform.alternatives",
      "transform.include",
      "transform.foreach_match",
      "transform.collect_matching",
  };
}

/// The locality dataflow behind the commit-phase conflict analysis. A value
/// is *bounded* when every payload op it can name is nested in the payload
/// the action was handed (and therefore inside the partition's subtree).
/// Entry block arguments are bounded by construction; parameters are always
/// bounded. The analysis requires every handle an op reads to be bounded —
/// even a pure read races with a concurrent writer in another partition —
/// and propagates boundedness through results using the same
/// ResultNestedInOperand metadata the static invalidation analysis trusts.
/// Returns "" when the block is local, else the reason it is not.
static std::string analyzeBlockLocality(Block &Body,
                                        std::set<const ValueImpl *> &Bounded,
                                        const std::set<std::string> &SerialOps) {
  for (Operation *BodyOp : Body) {
    std::string_view Name = BodyOp->getName();
    if (Name == "transform.yield")
      continue;
    if (SerialOps.count(std::string(Name)))
      return "op '" + std::string(Name) +
             "' can touch payload outside the partition";
    if (Name == "transform.apply_patterns" && BodyOp->getAttr("matchers"))
      return "match-driven 'transform.apply_patterns' re-enters the engine";
    const TransformOpDef *Def = lookupTransformOpDef(BodyOp);
    if (!Def)
      return "unregistered transform op '" + std::string(Name) +
             "' in the action body";
    if (Def->RunsRegisteredPass)
      return "op '" + std::string(Name) +
             "' runs a registered pass over shared pass infrastructure";
    for (unsigned I = 0; I < BodyOp->getNumOperands(); ++I) {
      Value Operand = BodyOp->getOperand(I);
      if (Operand.getType().isa<TransformParamType>())
        continue;
      if (!Bounded.count(Operand.getImpl()))
        return "op '" + std::string(Name) +
               "' uses a handle that may reach payload outside the partition";
    }
    bool Consuming = !Def->ConsumedOperands.empty();
    for (unsigned R = 0; R < BodyOp->getNumResults(); ++R) {
      Value Result = BodyOp->getResult(R);
      if (Result.getType().isa<TransformParamType>()) {
        Bounded.insert(Result.getImpl());
        continue;
      }
      int NestedIn = Def->AllResultsNestedInOperand >= 0
                         ? Def->AllResultsNestedInOperand
                         : (R < Def->ResultNestedInOperand.size()
                                ? Def->ResultNestedInOperand[R]
                                : -1);
      // Nested results stay inside a bounded operand's payload. Consuming
      // ops' "fresh" results replace their operand's payload in place (tile,
      // split, unroll, interchange, vectorize), so they stay inside the
      // partition too. merge_handles/split_handle only regroup bounded
      // payload. Everything else fresh — get_parent_op — may escape the
      // partition: leave it unbounded so any downstream *use* forces serial.
      if (NestedIn >= 0 || Consuming || Name == "transform.merge_handles" ||
          Name == "transform.split_handle")
        Bounded.insert(Result.getImpl());
    }
    if (Def->TypeCheckSpecial == TransformTypeCheckSpecial::BodyBinding) {
      // sequence / foreach: the body's entry arguments bind operand 0's
      // payload, which the operand check above already proved bounded.
      if (BodyOp->getNumRegions() >= 1 && !BodyOp->getRegion(0).empty()) {
        Block &Nested = BodyOp->getRegion(0).front();
        for (unsigned A = 0; A < Nested.getNumArguments(); ++A)
          Bounded.insert(Nested.getArgument(A).getImpl());
        std::string Reason = analyzeBlockLocality(Nested, Bounded, SerialOps);
        if (!Reason.empty())
          return Reason;
      }
    } else if (BodyOp->getNumRegions() > 0 &&
               Def->TypeCheckSpecial !=
                   TransformTypeCheckSpecial::ApplyPatterns) {
      // Pattern regions of a flat apply_patterns hold pattern-name ops, not
      // transform ops; any other region-carrying op is unknown territory.
      return "op '" + std::string(Name) +
             "' carries a region with unknown binding semantics";
    }
  }
  return {};
}

const std::string &MatcherEngine::actionSerialReason(size_t PairIdx) {
  Pair &P = Pairs[PairIdx];
  if (P.SerialReasonAnalyzed)
    return P.SerialReason;
  P.SerialReasonAnalyzed = true;
  // Match-only clients (apply_patterns per match) have no action sequence;
  // their rewrites are anchored at the candidate by construction.
  if (P.Action && !P.Action->getRegion(0).empty()) {
    Block &ActionBody = P.Action->getRegion(0).front();
    std::set<const ValueImpl *> Bounded;
    for (unsigned A = 0; A < ActionBody.getNumArguments(); ++A)
      Bounded.insert(ActionBody.getArgument(A).getImpl());
    P.SerialReason =
        analyzeBlockLocality(ActionBody, Bounded, serialOnlyTransformOps());
  }
  return P.SerialReason;
}

DSF MatcherEngine::commit(std::vector<Match> &Matches, const CommitAction &Act,
                          bool ClientRequiresSerial) {
  static telemetry::DurationStat &CommitStat =
      telemetry::duration("engine.commit");
  telemetry::ScopedTimer CommitTimer(CommitStat);
  telemetry::ScopedSpan CommitSpan("engine:commit", "engine");
  CommitSpan.arg("matches", static_cast<int64_t>(Matches.size()));

  // Pin every match before the first action runs: an early action may
  // consume, erase, or replace ops of a later match, and only pinned
  // handles are kept consistent by the tracking rules.
  std::vector<PinnedMatch> Pinned;
  Pinned.reserve(Matches.size());
  for (Match &M : Matches) {
    PinnedMatch PM;
    PM.PairIdx = M.PairIdx;
    PM.OriginalCandidate = M.Candidate;
    PM.CandidateHandle = pin({M.Candidate});
    for (ForwardedValue &FV : M.Values) {
      PinnedSlot Slot;
      if (FV.IsParam)
        Slot.Params = std::move(FV.Params);
      else if (FV.Ops.size() == 1 && FV.Ops[0] == M.Candidate)
        Slot.Handle = PM.CandidateHandle;
      else
        Slot.Handle = pin(std::move(FV.Ops));
      PM.Slots.push_back(std::move(Slot));
    }
    Pinned.push_back(std::move(PM));
  }

  // Serial fast path: requested shard count, a client whose callback is not
  // thread-safe, or too few matches to partition. Tracing no longer forces
  // this path: worker trace lines are buffered per partition and replayed
  // in walk order, exactly like diagnostics. The conflict-analysis probe
  // counters stay untouched here — they describe the partitioned path only.
  unsigned NumShards = std::max(1u, Interp.getOptions().CommitShards);
  if (NumShards <= 1 || ClientRequiresSerial || Pinned.size() <= 1)
    return commitRange(Interp, Pinned, 0, Pinned.size(), Act);
  return commitPartitioned(Pinned, Act, NumShards);
}

namespace {

/// A commit partition's payload subtree as it was before a speculative
/// commit: a detached clone, plus the original ops in the pre-order the
/// clone repeats.
struct PartitionSnapshot {
  OwningOpRef Clone;
  std::vector<Operation *> Originals;

  static void collectPreOrder(Operation *Op, std::vector<Operation *> &Out) {
    Out.push_back(Op);
    for (unsigned R = 0; R < Op->getNumRegions(); ++R)
      for (Block &B : Op->getRegion(R))
        for (Operation *Nested : B)
          collectPreOrder(Nested, Out);
  }

  static PartitionSnapshot take(Operation *Key) {
    PartitionSnapshot Snap;
    Snap.Clone = OwningOpRef(Key->clone());
    collectPreOrder(Key, Snap.Originals);
    return Snap;
  }

  /// Puts the clone back in place of \p Key, discarding what the commit did
  /// to it, and rebinds \p State's handles from each original op to its
  /// clone (by address: ops the commit erased are never dereferenced).
  void restore(Operation *Key, TransformState &State) {
    Operation *Restored = Clone.release();
    Key->getBlock()->insert(Key->getBlockIterator(), Restored);
    if (Key->getNumResults())
      Key->replaceAllUsesWith(Restored);
    std::vector<Operation *> Clones;
    collectPreOrder(Restored, Clones);
    for (size_t I = 0; I < Clones.size(); ++I)
      State.replacePayloadOp(Originals[I], {Clones[I]});
    Key->erase();
  }
};

} // namespace

DSF MatcherEngine::commitPartitioned(std::vector<PinnedMatch> &Pinned,
                                     const CommitAction &Act,
                                     unsigned NumShards) {
  TransformState &State = Interp.getState();
  Operation *PayloadRoot = State.getPayloadRoot();
  Operation *ScriptRoot = Interp.getScriptRoot();

  // --- Build the conflict partition: maximal contiguous runs of matches
  // sharing a partition key, in walk order.
  struct Partition {
    Operation *Key = nullptr;
    size_t Begin = 0; ///< [Begin, End) into Pinned.
    size_t End = 0;
    std::string SerialReason; ///< Non-empty: run as an in-order barrier.
    bool MayFail = false;     ///< Some match's action may fail.
  };
  std::vector<Partition> Partitions;
  for (size_t I = 0; I < Pinned.size(); ++I) {
    Operation *Key =
        commitPartitionKey(Pinned[I].OriginalCandidate, PayloadRoot);
    bool MayFail = Pairs[Pinned[I].PairIdx].ActionMayFail;
    if (!Partitions.empty() && Partitions.back().Key == Key) {
      Partitions.back().End = I + 1;
      Partitions.back().MayFail |= MayFail;
      continue;
    }
    Partition Part;
    Part.Key = Key;
    Part.Begin = I;
    Part.End = I + 1;
    Part.MayFail = MayFail;
    Partitions.push_back(std::move(Part));
  }

  // --- Decide which partitions may commit concurrently.
  std::set<Operation *> SeenKeys;
  for (Partition &Part : Partitions) {
    // A key recurring in a later, non-adjacent run shares payload with the
    // earlier partition; only the later run needs to serialize (barriers
    // execute in walk order, so the first occurrence stays parallel-safe).
    if (!SeenKeys.insert(Part.Key).second) {
      Part.SerialReason = "its payload subtree recurs in earlier matches";
      continue;
    }
    if (Part.Key == PayloadRoot) {
      Part.SerialReason =
          "its candidate is not nested below a top-level child of the "
          "payload root";
      continue;
    }
    // A rewriting action (or the snapshot guarding it) creates ops inside
    // the child; when the child is not isolated from above, those ops may
    // use values defined outside it, whose use lists other partitions share.
    if (Part.MayFail && !Part.Key->hasTrait(OT_IsolatedFromAbove)) {
      Part.SerialReason =
          "its action may rewrite a top-level child that is not isolated "
          "from above";
      continue;
    }
    for (size_t I = Part.Begin; I < Part.End && Part.SerialReason.empty();
         ++I) {
      const PinnedMatch &PM = Pinned[I];
      // An action handed the top-level child itself may erase or replace
      // it, splicing the payload root's own block — structure every
      // partition shares.
      if (PM.OriginalCandidate == Part.Key) {
        Part.SerialReason =
            "its action runs on a top-level child of the payload root";
        continue;
      }
      const std::string &ActionReason = actionSerialReason(PM.PairIdx);
      if (!ActionReason.empty()) {
        Part.SerialReason = ActionReason;
        continue;
      }
      // Matcher-forwarded payload must stay inside the partition's subtree
      // too (checked against the pins before any action has run).
      for (const PinnedSlot &Slot : PM.Slots) {
        if (!hasOwnPin(PM, Slot))
          continue;
        for (Operation *Fwd : State.getPayloadOps(Slot.Handle)) {
          if (Fwd == Part.Key) {
            Part.SerialReason =
                "its action runs on a top-level child of the payload root";
            break;
          }
          if (!Part.Key->isAncestorOf(Fwd)) {
            Part.SerialReason =
                "matcher-forwarded payload crosses the partition boundary";
            break;
          }
        }
        if (!Part.SerialReason.empty())
          break;
      }
    }
  }

  // Warm the per-OpInfo TransformOpDef cache for every op an action can
  // execute, exactly as the sharded match walk warms its matchers: the lazy
  // fill in lookupTransformOpDef must not race across workers.
  for (Pair &P : Pairs)
    if (P.Action)
      P.Action->walk([](Operation *Nested) {
        if (Nested->getDialectName() == "transform")
          (void)lookupTransformOpDef(Nested);
      });

  TransformOptions ScratchOptions = Interp.getOptions();
  ScratchOptions.MatchShards = 1;  // No nested parallelism inside a worker.
  ScratchOptions.CommitShards = 1;

  // Runs one partition on the driver interpreter (pins live in the driver
  // state already); used for barriers and single-partition waves.
  auto RunSerialPartition = [&](const Partition &Part) -> DSF {
    static telemetry::Counter &SerialPartitions =
        telemetry::counter("engine.commit.serial_partitions");
    SerialPartitions.add();
    telemetry::ScopedSpan PartSpan("commit:serial-partition", "engine");
    PartSpan.arg("matches", static_cast<int64_t>(Part.End - Part.Begin));
    return commitRange(Interp, Pinned, Part.Begin, Part.End, Act);
  };

  // Runs the maximal run of parallel-safe partitions [WaveBegin, WaveEnd)
  // concurrently: workers claim partitions in walk order from one counter,
  // each with a scratch interpreter whose state records payload-tracking
  // events; after the join, per-partition diagnostics and events are
  // replayed into the driver in walk order, so the merged outcome is
  // byte-identical to serial.
  auto RunWave = [&](size_t WaveBegin, size_t WaveEnd) -> DSF {
    size_t WaveSize = WaveEnd - WaveBegin;
    unsigned NumWorkers =
        static_cast<unsigned>(std::min<size_t>(NumShards, WaveSize));
    telemetry::ScopedSpan WaveSpan("commit:wave", "engine");
    WaveSpan.arg("partitions", static_cast<int64_t>(WaveSize));
    WaveSpan.arg("workers", static_cast<int64_t>(NumWorkers));

    // Each slot is written by exactly one worker; the merge reads them after
    // the join.
    std::vector<WorkerOutput> PartOutputs(WaveSize);
    std::vector<DSF> PartResults(WaveSize, DSF::success());
    // Earliest failed partition (wave-relative); workers skip partitions
    // past it. Partitions *before* it always complete, so the merge can
    // replay exactly what the serial commit would have done up to the
    // failure point.
    std::atomic<size_t> MinFailed{WaveSize};
    std::atomic<size_t> NextPart{0};
    // A partition claimed while an earlier one whose action may fail is
    // still running commits speculatively: should the earlier one fail, the
    // serial commit would never have run it. Such partitions snapshot their
    // subtree first, so the merge can roll them back. A partition is marked
    // finished only after its failure, if any, is published in MinFailed.
    std::vector<std::atomic<bool>> Finished(WaveSize);
    std::vector<PartitionSnapshot> Snapshots(WaveSize);
    static telemetry::Counter &SnapshotsTaken =
        telemetry::counter("engine.commit.snapshots");

    auto RunWorker = [&](unsigned W) {
      TransformInterpreter Worker(PayloadRoot, ScriptRoot, ScratchOptions);
      Worker.getState().enableEventLog();
      telemetry::ScopedSpan WorkerSpan("commit:worker", "engine");
      WorkerSpan.arg("worker", static_cast<int64_t>(W));
      ThreadDiagnosticCapture Capture;
      // Every may-fail partition below Settled has finished. Partitions
      // only ever become finished, so the scan resumes where it stopped;
      // on the inline path it always reaches the claimed partition.
      size_t Settled = 0;
      for (size_t K; (K = NextPart.fetch_add(1, std::memory_order_relaxed)) <
                     WaveSize;) {
        while (Settled < K &&
               (!Partitions[WaveBegin + Settled].MayFail ||
                Finished[Settled].load(std::memory_order_acquire)))
          ++Settled;
        if (K > MinFailed.load(std::memory_order_acquire))
          break;
        const Partition &Part = Partitions[WaveBegin + K];
        // Take the partition's pins on claim: the staleness check and the
        // client callback read them through the worker. Nothing reads a
        // committed partition's pins in the driver's state again.
        for (size_t I = Part.Begin; I < Part.End; ++I) {
          const PinnedMatch &PM = Pinned[I];
          Worker.getState().takeBinding(PM.CandidateHandle, State);
          for (const PinnedSlot &Slot : PM.Slots)
            if (hasOwnPin(PM, Slot))
              Worker.getState().takeBinding(Slot.Handle, State);
        }
        if (Settled < K) {
          Snapshots[K] = PartitionSnapshot::take(Part.Key);
          SnapshotsTaken.add();
        }
        telemetry::ScopedSpan PartSpan("commit:partition", "engine");
        PartSpan.arg("matches", static_cast<int64_t>(Part.End - Part.Begin));
        DSF PartResult =
            commitRange(Worker, Pinned, Part.Begin, Part.End, Act);
        PartOutputs[K] = drainWorkerOutput(Worker, Capture);
        if (!PartResult.succeeded()) {
          PartResults[K] = std::move(PartResult);
          size_t Cur = MinFailed.load(std::memory_order_acquire);
          while (K < Cur && !MinFailed.compare_exchange_weak(
                                Cur, K, std::memory_order_acq_rel))
            ;
        }
        Finished[K].store(true, std::memory_order_release);
      }
    };
    ShardPool::instance().run(NumWorkers, RunWorker);

    // Replay per-partition output into the driver in walk order, up to and
    // including the earliest failing partition (its action ran, exactly as
    // it would have serially). Later partitions that raced ahead are rolled
    // back and their output dropped; the rollback runs before any replay,
    // while the driver's state still names only pre-wave ops.
    size_t Failed = MinFailed.load(std::memory_order_acquire);
    size_t ReplayEnd = Failed == WaveSize ? WaveSize : Failed + 1;
    for (size_t K = ReplayEnd; K < WaveSize; ++K)
      if (Snapshots[K].Clone)
        Snapshots[K].restore(Partitions[WaveBegin + K].Key, State);
    static telemetry::Counter &ParallelPartitions =
        telemetry::counter("engine.commit.parallel_partitions");
    ParallelPartitions.add(static_cast<int64_t>(ReplayEnd));
    for (size_t K = 0; K < ReplayEnd; ++K)
      replayWorkerOutput(PartOutputs[K]);
    if (Failed != WaveSize)
      return PartResults[Failed];
    return DSF::success();
  };

  // --- Execute: serial partitions are in-order barriers; maximal runs of
  // parallel-safe partitions form one concurrent wave each. A lone
  // parallel-safe partition gains nothing from a worker thread and runs
  // inline on the driver.
  size_t P = 0;
  while (P < Partitions.size()) {
    if (!Partitions[P].SerialReason.empty()) {
      DSF Result = RunSerialPartition(Partitions[P]);
      if (!Result.succeeded())
        return Result;
      ++P;
      continue;
    }
    size_t WaveEnd = P;
    while (WaveEnd < Partitions.size() &&
           Partitions[WaveEnd].SerialReason.empty())
      ++WaveEnd;
    if (WaveEnd - P == 1) {
      DSF Result = RunSerialPartition(Partitions[P]);
      if (!Result.succeeded())
        return Result;
      ++P;
      continue;
    }
    DSF WaveResult = RunWave(P, WaveEnd);
    if (!WaveResult.succeeded())
      return WaveResult;
    P = WaveEnd;
  }
  return DSF::success();
}
