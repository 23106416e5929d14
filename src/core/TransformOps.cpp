//===- TransformOps.cpp - Built-in transform operations ------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registration and semantics of the built-in transform ops: structural ops
/// (sequence, named_sequence, yield, include, foreach, alternatives),
/// library structure (library, import — see TransformLibrary.h), handle
/// manipulation (match.op, get_parent_op, merge/split, cast), parameters,
/// loop transforms (tile/split/unroll/interchange/hoist/vectorize), library
/// substitution (to_library), pass and pattern application, annotations and
/// debugging aids, and one lowering transform per contracted pass
/// (Section 3.3 / Table 2).
///
//===----------------------------------------------------------------------===//

#include "core/Conditions.h"
#include "core/MatcherEngine.h"
#include "core/Transform.h"

#include "dialect/Dialects.h"
#include "ir/SymbolTable.h"
#include "loops/LoopUtils.h"
#include "lowering/Passes.h"
#include "pass/Pass.h"
#include "support/STLExtras.h"

using namespace tdl;

using DSF = DiagnosedSilenceableFailure;

//===----------------------------------------------------------------------===//
// Pattern-op registry
//===----------------------------------------------------------------------===//

namespace {
struct PatternOpRegistry {
  std::map<std::string, std::function<void(PatternSet &)>, std::less<>> Map;
  static PatternOpRegistry &instance() {
    static PatternOpRegistry Registry;
    return Registry;
  }
};
} // namespace

void tdl::registerTransformPatternOp(
    Context &Ctx, std::string_view Name,
    std::function<void(PatternSet &)> Populate) {
  std::string OpName = "transform.pattern." + std::string(Name);
  OpInfo Info;
  Info.Name = OpName;
  Ctx.registerOp(Info);
  PatternOpRegistry::instance().Map[OpName] = std::move(Populate);
}

const std::function<void(PatternSet &)> *
tdl::lookupTransformPatternOp(std::string_view Name) {
  auto &Map = PatternOpRegistry::instance().Map;
  auto It = Map.find(Name);
  return It == Map.end() ? nullptr : &It->second;
}

const std::function<void(PatternSet &)> *
tdl::lookupNamedPatternSet(std::string_view Name) {
  return lookupTransformPatternOp("transform.pattern." + std::string(Name));
}

std::string tdl::unknownPatternSetMessage(std::string_view Name) {
  return "unknown pattern set '" + std::string(Name) +
         "'; register it with registerTransformPatternOp";
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// Computes, for each payload op, the indices of other payload ops that are
/// its proper ancestors. Transform implementations that erase a payload op
/// use this to skip ops nested inside already-transformed ones (their
/// pointers dangle once the ancestor is rewritten).
static std::vector<std::vector<size_t>>
computePayloadAncestors(const std::vector<Operation *> &Payload) {
  std::vector<std::vector<size_t>> Ancestors(Payload.size());
  for (size_t I = 0; I < Payload.size(); ++I)
    for (size_t J = 0; J < Payload.size(); ++J)
      if (I != J && Payload[J]->isProperAncestorOf(Payload[I]))
        Ancestors[I].push_back(J);
  return Ancestors;
}

/// Runs a loop utility across all payload ops of operand 0, unioning the
/// result lists. Utilities report failure through diagnostics; transform
/// semantics turn precondition failures into silenceable errors, so capture
/// the diagnostics and fold them into the message. Payload ops nested
/// within an already-transformed payload op are skipped (the consuming
/// transform invalidated them).
template <typename Fn>
static DSF applyToEachLoop(Operation *Op, TransformInterpreter &Interp,
                           Fn Apply) {
  const std::vector<Operation *> &Payload =
      Interp.getState().getPayloadOps(Op->getOperand(0));
  if (Payload.empty())
    return DSF::silenceable("handle is empty; nothing to transform");
  std::vector<std::vector<size_t>> Ancestors =
      computePayloadAncestors(Payload);
  std::vector<bool> Transformed(Payload.size(), false);
  // Per-thread capture: loop transforms run on commit-phase worker threads,
  // where swapping the engine-wide handler would race.
  ThreadDiagnosticCapture Capture;
  for (size_t I = 0; I < Payload.size(); ++I) {
    bool Skip = false;
    for (size_t Ancestor : Ancestors[I])
      Skip |= Transformed[Ancestor];
    if (Skip)
      continue;
    DSF Result = Apply(Payload[I]);
    if (!Result.succeeded()) {
      std::string Message = Result.getMessage();
      if (!Capture.allMessages().empty())
        Message += ": " + Capture.allMessages();
      return Result.isDefinite() ? DSF::definite(Message)
                                 : DSF::silenceable(Message);
    }
    Transformed[I] = true;
  }
  return DSF::success();
}

static void bindResult(TransformInterpreter &Interp, Operation *Op,
                       unsigned Idx, std::vector<Operation *> Ops) {
  if (Idx < Op->getNumResults())
    Interp.getState().setPayload(Op->getResult(Idx), std::move(Ops));
}

/// Shared payload path of every pass-backed transform op
/// (apply_registered_pass, expand_forall, lower_scf_to_cf, and the
/// auto-generated per-contract ops): applies the registered pass to each
/// payload op of the consumed handle — through the dynamic contract checker
/// when --check-conditions is active and the pass has a contract — and
/// rebinds the surviving payload to result 0. An `anchor` attribute (set by
/// buildTransformScriptFromPipeline for `func.func(pass)` elements) runs the
/// pass on each nested op of that name, as the native pass manager does. An
/// unknown pass name is a definite failure carrying the name, not a generic
/// "pass failed".
static DSF applyContractedPassToPayload(Operation *Op,
                                        TransformInterpreter &Interp,
                                        const std::string &PassName,
                                        std::string_view Options = {}) {
  if (!PassRegistry::instance().lookup(PassName))
    return DSF::definite("unknown pass '" + PassName +
                         "': no such pass is registered");
  const LoweringContract *Contract =
      ContractRegistry::instance().lookup(PassName);
  std::string_view Anchor = Op->getStringAttr("anchor");
  std::vector<Operation *> Payload =
      Interp.getState().getPayloadOps(Op->getOperand(0));
  for (Operation *Target : Payload) {
    if (Interp.getOptions().CheckConditions && Contract && Options.empty()) {
      FailureOr<std::string> CheckResult =
          runPassWithDynamicContractCheck(PassName, *Contract, Target, Anchor);
      if (failed(CheckResult))
        return DSF::definite("pass '" + PassName + "' failed on payload op");
      if (!CheckResult->empty())
        return DSF::definite("dynamic contract violation in '" + PassName +
                             "': " + *CheckResult);
    } else if (failed(runRegisteredPass(PassName, Target, Options, Anchor))) {
      return DSF::definite("pass '" + PassName + "' failed on payload op");
    }
  }
  bindResult(Interp, Op, 0, std::move(Payload));
  return DSF::success();
}

/// Shared skeleton of the matcher predicate ops: every payload op of
/// operand 0 must satisfy \p Pred (which returns success or a silenceable
/// failure); on success the payload is forwarded through result 0.
template <typename Fn>
static DSF matchAllPayload(Operation *Op, TransformInterpreter &Interp,
                           Fn Pred) {
  if (Op->getNumOperands() < 1)
    return DSF::definite("'" + std::string(Op->getName()) +
                         "' requires a handle operand");
  const std::vector<Operation *> &Payload =
      Interp.getState().getPayloadOps(Op->getOperand(0));
  if (Payload.empty())
    return DSF::silenceable("no payload ops to match");
  for (Operation *Target : Payload) {
    DSF Result = Pred(Target);
    if (!Result.succeeded())
      return Result;
  }
  bindResult(Interp, Op, 0, Payload);
  return DSF::success();
}

LogicalResult
tdl::parseTransformOpNameElements(Operation *Op,
                                  std::vector<OpSetElement> &Elements) {
  if (ArrayAttr Names = Op->getAttrOfType<ArrayAttr>("op_names")) {
    for (Attribute Element : Names.getValue()) {
      StringAttr Str = Element.dyn_cast<StringAttr>();
      if (!Str)
        return failure();
      Elements.push_back(OpSetElement::parse(Str.getValue()));
    }
  } else if (StringAttr Single = Op->getAttrOfType<StringAttr>("op_name")) {
    Elements.push_back(OpSetElement::parse(Single.getValue()));
  }
  return success();
}

//===----------------------------------------------------------------------===//
// foreach_match: thin client of the MatcherEngine
//===----------------------------------------------------------------------===//

static DSF applyForeachMatch(Operation *Op, TransformInterpreter &Interp) {
  // The Verify hook only runs when the *script* is verified, which the
  // interpreter does not require; re-check the structural invariants here.
  if (Op->getNumOperands() < 1)
    return DSF::definite(
        MatchDiag("foreach_match").text("requires a root handle operand"));
  ArrayAttr MatcherRefs = Op->getAttrOfType<ArrayAttr>("matchers");
  ArrayAttr ActionRefs = Op->getAttrOfType<ArrayAttr>("actions");
  if (!MatcherRefs || !ActionRefs || MatcherRefs.size() == 0 ||
      MatcherRefs.size() != ActionRefs.size())
    return DSF::definite(MatchDiag("foreach_match")
                             .text("requires equally sized non-empty "
                                   "'matchers' and 'actions' arrays"));
  bool RestrictRoot = Op->hasAttr("restrict_root");
  bool FlattenResults = Op->hasAttr("flatten_results");

  // Resolve and validate every (matcher, action) pair up front; a broken
  // reference or signature is a definite error before any payload op is
  // visited.
  MatcherEngine Engine(Interp, Op, "foreach_match");
  for (size_t I = 0; I < MatcherRefs.size(); ++I) {
    DSF Added = Engine.addPair(MatcherRefs[I], ActionRefs[I]);
    if (!Added.succeeded())
      return Added;
  }

  // Pin every root payload op under its own tracked handle: an action that
  // consumes, erases, or replaces a root must be reflected in result 0
  // (the root handle itself was consumed by this op, so its own mapping is
  // exempt from tracking).
  TransformState &State = Interp.getState();
  std::vector<Operation *> Roots = State.getPayloadOps(Op->getOperand(0));
  std::vector<Value> RootPins;
  RootPins.reserve(Roots.size());
  for (Operation *Root : Roots)
    RootPins.push_back(Engine.pin({Root}));

  // Match phase: the (optionally sharded) pure walk.
  std::vector<MatcherEngine::Match> Matches;
  DSF MatchResult = Engine.match(Roots, RestrictRoot, Matches);
  if (!MatchResult.succeeded())
    return MatchResult;

  // Commit phase: run each surviving match's action, binding the forwarded
  // slots to the action arguments and collecting the action yields into the
  // trailing results. Ops yielded by actions are pinned per yield so the
  // tracking rules keep them consistent while later actions run.
  size_t NumForwarded = Op->getNumResults() > 0 ? Op->getNumResults() - 1 : 0;
  std::vector<Value> ResultPins;
  std::vector<size_t> ResultPinSlots;
  // With forwarded results the callback pins yielded ops into the driver's
  // state and appends to the vectors above mid-commit — none of which is
  // safe from worker threads — so it requires the serial commit path. The
  // common no-result form binds and executes purely through the worker
  // interpreter and parallelizes.
  DSF CommitResult = Engine.commit(
      Matches,
      [&](TransformInterpreter &Worker,
          const MatcherEngine::PinnedMatch &PM) -> DSF {
        TransformState &WState = Worker.getState();
        Operation *Action = Engine.getAction(PM.PairIdx);
        Block &ActionBody = Action->getRegion(0).front();
        // The candidate is live here (commit() checked), but the action
        // may erase it; capture the name now so post-action diagnostics
        // never dereference the op.
        std::string CandidateName(PM.OriginalCandidate->getName());
        // Slot count matches the action's arity: addPair rejected any pair
        // whose static matcher-yield count disagrees with it.
        for (size_t I = 0; I < PM.Slots.size(); ++I) {
          const MatcherEngine::PinnedSlot &Slot = PM.Slots[I];
          if (Slot.Handle)
            WState.setPayload(ActionBody.getArgument(I),
                              WState.getPayloadOps(Slot.Handle));
          else
            WState.setParams(ActionBody.getArgument(I), Slot.Params);
        }
        DSF ActionResult = Worker.executeBlock(ActionBody);
        if (!ActionResult.succeeded()) {
          std::string Message = MatchDiag("foreach_match")
                                    .seq("action", Action)
                                    .payload(CandidateName)
                                    .text(ActionResult.getMessage());
          return ActionResult.isDefinite() ? DSF::definite(Message)
                                           : DSF::silenceable(Message);
        }

        // Forward the action's yields into the trailing results.
        if (NumForwarded == 0)
          return DSF::success();
        Operation *ActionYield = ActionBody.getTerminator();
        size_t NumYielded =
            ActionYield && ActionYield->getName() == "transform.yield"
                ? ActionYield->getNumOperands()
                : 0;
        if (NumYielded < NumForwarded)
          return DSF::definite(
              MatchDiag("foreach_match")
                  .seq("action", Action)
                  .payload(CandidateName)
                  .text("yields " + std::to_string(NumYielded) +
                        " values but " + std::to_string(NumForwarded) +
                        " forwarded results are expected"));
        for (size_t I = 0; I < NumForwarded; ++I) {
          Value Yielded = ActionYield->getOperand(I);
          if (WState.isParam(Yielded))
            return DSF::definite(MatchDiag("foreach_match")
                                     .seq("action", Action)
                                     .payload(CandidateName)
                                     .text("cannot forward parameter "
                                           "results"));
          const std::vector<Operation *> &Ops = WState.getPayloadOps(Yielded);
          if (!FlattenResults && Ops.size() != 1)
            return DSF::definite(
                MatchDiag("foreach_match")
                    .seq("action", Action)
                    .payload(CandidateName)
                    .text("action yielded " + std::to_string(Ops.size()) +
                          " payload ops for result " + std::to_string(I + 1) +
                          "; set 'flatten_results' to allow a non-1:1 "
                          "mapping"));
          // Pin the yielded ops rather than copying raw pointers: a later
          // action may erase or replace them, and only pinned handles are
          // kept consistent by the tracking rules.
          ResultPins.push_back(Engine.pin(Ops));
          ResultPinSlots.push_back(I);
        }
        return DSF::success();
      },
      /*ClientRequiresSerial=*/NumForwarded > 0);
  if (!CommitResult.succeeded())
    return CommitResult;

  // Result 0 is the updated root handle, rebuilt from the per-root pins so
  // that roots consumed, erased, or replaced by the actions are dropped or
  // rewired; the rest are the forwarded lists.
  std::vector<Operation *> UpdatedRoots;
  for (Value PinHandle : RootPins) {
    if (State.isInvalidated(PinHandle))
      continue;
    for (Operation *Root : State.getPayloadOps(PinHandle))
      if (!is_contained(UpdatedRoots, Root))
        UpdatedRoots.push_back(Root);
  }
  bindResult(Interp, Op, 0, std::move(UpdatedRoots));
  std::vector<std::vector<Operation *>> ResultOps(NumForwarded);
  for (size_t K = 0; K < ResultPins.size(); ++K) {
    if (State.isInvalidated(ResultPins[K]))
      continue;
    const std::vector<Operation *> &Ops = State.getPayloadOps(ResultPins[K]);
    ResultOps[ResultPinSlots[K]].insert(ResultOps[ResultPinSlots[K]].end(),
                                        Ops.begin(), Ops.end());
  }
  for (size_t I = 0; I < NumForwarded; ++I)
    bindResult(Interp, Op, I + 1, std::move(ResultOps[I]));
  return DSF::success();
}

//===----------------------------------------------------------------------===//
// collect_matching: match-only client of the MatcherEngine
//===----------------------------------------------------------------------===//

/// `transform.collect_matching` runs one matcher over the payload walk and
/// returns every match as handles — the matcher/action split without the
/// action: each result concatenates, across all matches in walk order, the
/// corresponding value the matcher yielded (the candidate itself for an
/// operand-less yield). Pure: no commit phase, nothing is consumed, and an
/// empty match set succeeds with empty handles.
static DSF applyCollectMatching(Operation *Op, TransformInterpreter &Interp) {
  if (Op->getNumOperands() < 1)
    return DSF::definite(
        MatchDiag("collect_matching").text("requires a root handle operand"));
  Attribute MatcherRef = Op->getAttr("matcher");
  if (!MatcherRef)
    return DSF::definite(
        MatchDiag("collect_matching").text("requires a 'matcher' reference"));

  MatcherEngine Engine(Interp, Op, "collect_matching");
  DSF Added = Engine.addPair(MatcherRef, Attribute());
  if (!Added.succeeded())
    return Added;

  const std::vector<Type> &Forwarded = Engine.getForwardedTypes(0);
  if (Forwarded.size() != Op->getNumResults())
    return DSF::definite(
        MatchDiag("collect_matching")
            .seq("matcher", Engine.getMatcher(0))
            .text("forwards " + std::to_string(Forwarded.size()) +
                  " values but the op declares " +
                  std::to_string(Op->getNumResults()) + " results"));
  // Kind and handle-type compatibility per result, payload-independently —
  // the same contract foreach_match's addPair enforces for action
  // arguments, so an embedder skipping the static pre-pass cannot end up
  // with arbitrary ops bound under a narrowed result type.
  for (size_t I = 0; I < Forwarded.size(); ++I) {
    std::string Mismatch = MatcherEngine::describeForwardingMismatch(
        Forwarded[I], "result " + std::to_string(I),
        Op->getResult(I).getType());
    if (!Mismatch.empty())
      return DSF::definite(MatchDiag("collect_matching")
                               .seq("matcher", Engine.getMatcher(0))
                               .text(Mismatch));
  }

  std::vector<MatcherEngine::Match> Matches;
  DSF MatchResult = Engine.match(Interp.getState().getPayloadOps(
                                     Op->getOperand(0)),
                                 Op->hasAttr("restrict_root"), Matches);
  if (!MatchResult.succeeded())
    return MatchResult;

  std::vector<std::vector<Operation *>> ResultOps(Op->getNumResults());
  std::vector<std::vector<Attribute>> ResultParams(Op->getNumResults());
  for (MatcherEngine::Match &M : Matches)
    for (size_t I = 0; I < M.Values.size() && I < Op->getNumResults(); ++I) {
      MatcherEngine::ForwardedValue &FV = M.Values[I];
      if (FV.IsParam)
        ResultParams[I].insert(ResultParams[I].end(), FV.Params.begin(),
                               FV.Params.end());
      else
        ResultOps[I].insert(ResultOps[I].end(), FV.Ops.begin(), FV.Ops.end());
    }
  for (unsigned I = 0; I < Op->getNumResults(); ++I) {
    if (Op->getResult(I).getType().isa<TransformParamType>())
      Interp.getState().setParams(Op->getResult(I),
                                  std::move(ResultParams[I]));
    else
      bindResult(Interp, Op, I, std::move(ResultOps[I]));
  }
  return DSF::success();
}

//===----------------------------------------------------------------------===//
// apply_patterns: flat and match-driven pattern application
//===----------------------------------------------------------------------===//

/// Populates \p Patterns from the registered pattern set named \p SetName
/// (the `transform.pattern.<name>` registry, without the prefix).
static DSF populateNamedPatternSet(std::string_view SetName,
                                   PatternSet &Patterns) {
  const std::function<void(PatternSet &)> *Populate =
      lookupNamedPatternSet(SetName);
  if (!Populate)
    return DSF::definite(unknownPatternSetMessage(SetName));
  (*Populate)(Patterns);
  return DSF::success();
}

/// The match-driven form of `transform.apply_patterns` (the paper's
/// pattern-control example): equally sized `matchers` and `pattern_sets`
/// arrays pair each pure matcher with a named pattern set; the engine's
/// match phase finds the matches and the commit phase greedily applies each
/// pair's pattern set within its (still-live) matched op, with handle
/// tracking.
static DSF applyPatternsPerMatch(Operation *Op, TransformInterpreter &Interp,
                                 ArrayAttr MatcherRefs, ArrayAttr SetRefs) {
  if (!SetRefs || SetRefs.size() == 0 || SetRefs.size() != MatcherRefs.size())
    return DSF::definite(MatchDiag("apply_patterns")
                             .text("requires equally sized non-empty "
                                   "'matchers' and 'pattern_sets' arrays"));
  MatcherEngine Engine(Interp, Op, "apply_patterns");
  std::vector<PatternSet> Sets(MatcherRefs.size());
  for (size_t I = 0; I < MatcherRefs.size(); ++I) {
    DSF Added = Engine.addPair(MatcherRefs[I], Attribute());
    if (!Added.succeeded())
      return Added;
    StringAttr SetName = SetRefs[I].dyn_cast<StringAttr>();
    if (!SetName)
      return DSF::definite(MatchDiag("apply_patterns")
                               .text("'pattern_sets' entries must be "
                                     "strings"));
    DSF Populated = populateNamedPatternSet(SetName.getValue(), Sets[I]);
    if (!Populated.succeeded())
      return Populated;
  }

  std::vector<MatcherEngine::Match> Matches;
  DSF MatchResult = Engine.match(Interp.getState().getPayloadOps(
                                     Op->getOperand(0)),
                                 Op->hasAttr("restrict_root"), Matches);
  if (!MatchResult.succeeded())
    return MatchResult;

  return Engine.commit(
      Matches,
      [&](TransformInterpreter &Worker,
          const MatcherEngine::PinnedMatch &PM) -> DSF {
        // Track replacements against the worker's state: under the parallel
        // commit it holds this match's pins, and the engine replays the
        // recorded events into the driver in walk order afterwards.
        TrackingListener Listener(Worker.getState());
        GreedyRewriteConfig Config;
        Config.Listener = &Listener;
        // commit() already skipped stale matches, so the pinned handle
        // holds exactly the approved op.
        Operation *Target =
            Worker.getState().getPayloadOps(PM.CandidateHandle)[0];
        (void)applyPatternsGreedily(Target, Sets[PM.PairIdx], Config);
        return DSF::success();
      });
}

//===----------------------------------------------------------------------===//
// Registration
//===----------------------------------------------------------------------===//

void tdl::registerTransformDialect(Context &Ctx) {
  Ctx.registerDialect("transform");
  registerAllPasses();
  registerXsmmDialect(Ctx);

  //===------------------------------------------------------------------===//
  // Structural ops
  //===------------------------------------------------------------------===//

  {
    OpInfo Yield;
    Yield.Name = "transform.yield";
    Yield.Traits = OT_IsTerminator | OT_Pure;
    Ctx.registerOp(Yield);
    // No TransformOpDef: executeBlock handles yield directly.
  }

  {
    OpInfo Seq;
    Seq.Name = "transform.named_sequence";
    Seq.Traits = OT_Symbol;
    Seq.Verify = [](Operation *Op) -> LogicalResult {
      if (Op->getNumRegions() != 1)
        return Op->emitOpError() << "expects one region";
      if (Op->getStringAttr("sym_name").empty())
        return Op->emitOpError() << "requires a 'sym_name'";
      return success();
    };
    TransformOpDef Def;
    Def.Apply = [](Operation *, TransformInterpreter &) {
      // Named sequences are executed via include or as the entry point;
      // encountering one mid-sequence is a no-op (declaration).
      return DSF::success();
    };
    registerTransformOp(Ctx, Seq, Def);
  }

  {
    OpInfo Seq;
    Seq.Name = "transform.sequence";
    TransformOpDef Def;
    Def.TypeCheckSpecial = TransformTypeCheckSpecial::BodyBinding;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      if (Op->getNumRegions() != 1 || Op->getRegion(0).empty())
        return DSF::definite("transform.sequence has no body");
      Block &Body = Op->getRegion(0).front();
      if (Body.getNumArguments() >= 1) {
        std::vector<Operation *> Target;
        if (Op->getNumOperands() >= 1)
          Target = Interp.getState().getPayloadOps(Op->getOperand(0));
        else
          Target = {Interp.getState().getPayloadRoot()};
        // A typed body argument narrows whatever is bound to it; enforce
        // the op names like transform.cast does.
        Type ArgTy = Body.getArgument(0).getType();
        if (TransformOpType Typed = ArgTy.dyn_cast<TransformOpType>())
          for (Operation *Bound : Target)
            if (Bound->getName() != Typed.getOpName())
              return DSF::silenceable("payload op '" +
                                      std::string(Bound->getName()) +
                                      "' does not satisfy " + ArgTy.str());
        Interp.getState().setPayload(Body.getArgument(0), std::move(Target));
      }
      return Interp.executeBlock(Body);
    };
    registerTransformOp(Ctx, Seq, Def);
  }

  {
    OpInfo Include;
    Include.Name = "transform.include";
    TransformOpDef Def;
    Def.TypeCheckSpecial = TransformTypeCheckSpecial::Include;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      static thread_local int Depth = 0;
      SymbolRefAttr Callee = Op->getAttrOfType<SymbolRefAttr>("callee");
      if (!Callee)
        return DSF::definite("transform.include requires a 'callee'");
      Operation *Target = Interp.lookupNamedSequence(Callee.getValue());
      if (!Target)
        return DSF::definite("unknown named sequence '@" +
                             std::string(Callee.getValue()) + "'");
      if (Depth > 64)
        return DSF::definite("recursive transform.include of '@" +
                             std::string(Callee.getValue()) +
                             "' (macros must not recurse)");
      Block &Body = Target->getRegion(0).front();
      if (Body.getNumArguments() != Op->getNumOperands())
        return DSF::definite("include argument count mismatch");
      for (unsigned I = 0; I < Op->getNumOperands(); ++I) {
        Value Operand = Op->getOperand(I);
        if (Interp.getState().isParam(Operand))
          Interp.getState().setParams(Body.getArgument(I),
                                      Interp.getState().getParams(Operand));
        else
          Interp.getState().setPayload(
              Body.getArgument(I), Interp.getState().getPayloadOps(Operand));
      }
      ++Depth;
      DSF Result = Interp.executeBlock(Body);
      --Depth;
      if (!Result.succeeded())
        return Result;
      // Map results through the terminating yield.
      Operation *Yield = Body.getTerminator();
      if (Yield && Yield->getName() == "transform.yield") {
        for (unsigned I = 0;
             I < std::min(Op->getNumResults(), Yield->getNumOperands());
             ++I) {
          Value Yielded = Yield->getOperand(I);
          if (Interp.getState().isParam(Yielded))
            Interp.getState().setParams(Op->getResult(I),
                                        Interp.getState().getParams(Yielded));
          else
            Interp.getState().setPayload(
                Op->getResult(I), Interp.getState().getPayloadOps(Yielded));
        }
      }
      return DSF::success();
    };
    registerTransformOp(Ctx, Include, Def);
  }

  {
    OpInfo Foreach;
    Foreach.Name = "transform.foreach";
    TransformOpDef Def;
    Def.TypeCheckSpecial = TransformTypeCheckSpecial::BodyBinding;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      if (Op->getNumRegions() != 1 || Op->getRegion(0).empty())
        return DSF::definite("transform.foreach has no body");
      Block &Body = Op->getRegion(0).front();
      std::vector<Operation *> Payload =
          Interp.getState().getPayloadOps(Op->getOperand(0));
      for (Operation *Target : Payload) {
        if (Body.getNumArguments() >= 1)
          Interp.getState().setPayload(Body.getArgument(0), {Target});
        DSF Result = Interp.executeBlock(Body);
        if (!Result.succeeded())
          return Result;
      }
      return DSF::success();
    };
    registerTransformOp(Ctx, Foreach, Def);
  }

  {
    OpInfo Alternatives;
    Alternatives.Name = "transform.alternatives";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ConsumedOperands = {0};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::vector<Operation *> Scope;
      if (Op->getNumOperands() >= 1)
        Scope = Interp.getState().getPayloadOps(Op->getOperand(0));
      std::string Messages;
      for (unsigned R = 0; R < Op->getNumRegions(); ++R) {
        Region &TheRegion = Op->getRegion(R);
        if (TheRegion.empty())
          return DSF::success(); // empty alternative: keep payload as is
        Block &Body = TheRegion.front();
        if (Body.getNumArguments() >= 1)
          Interp.getState().setPayload(Body.getArgument(0), Scope);
        // Silence diagnostics of failing alternatives.
        ScopedDiagnosticCapture Capture(Op->getContext().getDiagEngine());
        DSF Result = Interp.executeBlock(Body);
        if (Result.succeeded())
          return DSF::success();
        if (Result.isDefinite())
          return Result;
        if (!Messages.empty())
          Messages += "; ";
        Messages += Result.getMessage();
        // Silenceable contract: payload was not irreversibly modified; try
        // the next alternative.
      }
      return DSF::silenceable("all alternatives failed: " + Messages);
    };
    registerTransformOp(Ctx, Alternatives, Def);
  }

  //===------------------------------------------------------------------===//
  // Library structure: transform.library owns a flat namespace of named
  // sequences shared across scripts; transform.import links its symbols
  // into the enclosing script's resolution scope. Both are declarations —
  // the TransformLibraryManager (core/TransformLibrary.h) gives them their
  // cross-file semantics; the interpreter treats them as no-ops.
  //===------------------------------------------------------------------===//

  {
    OpInfo Library;
    Library.Name = "transform.library";
    Library.Traits = OT_Symbol | OT_SymbolTable | OT_GraphRegion |
                     OT_SingleBlock;
    Library.Verify = [](Operation *Op) -> LogicalResult {
      if (Op->getNumRegions() != 1)
        return Op->emitOpError() << "expects one region";
      if (Op->getNumOperands() || Op->getNumResults())
        return Op->emitOpError() << "expects no operands or results";
      if (Op->getStringAttr("sym_name").empty())
        return Op->emitOpError() << "requires a 'sym_name'";
      if (Op->getRegion(0).empty())
        return success();
      for (Operation *Member : Op->getRegion(0).front()) {
        if (Member->getName() != "transform.named_sequence" &&
            Member->getName() != "transform.import")
          return Member->emitOpError()
                 << "transform.library members must be named sequences or "
                    "imports";
        std::string_view Visibility = Member->getStringAttr("visibility");
        if (!Visibility.empty() && Visibility != "public" &&
            Visibility != "private")
          return Member->emitOpError()
                 << "'visibility' must be \"public\" or \"private\", got \""
                 << Visibility << "\"";
      }
      return success();
    };
    TransformOpDef Def;
    // A library carrying strategy.* manifest attributes must satisfy the
    // full manifest contract (public @strategy entry, pure @applies,
    // well-formed strategy.params) — checked statically so an ill-formed
    // strategy library is rejected at load, before any dispatch.
    Def.TypeCheckSpecial = TransformTypeCheckSpecial::Library;
    Def.MatcherOk = true; // a declaration container; never touches payload
    Def.Apply = [](Operation *, TransformInterpreter &) {
      return DSF::success();
    };
    registerTransformOp(Ctx, Library, Def);
  }

  {
    OpInfo Import;
    Import.Name = "transform.import";
    Import.Verify = [](Operation *Op) -> LogicalResult {
      if (Op->getNumOperands() || Op->getNumResults())
        return Op->emitOpError() << "expects no operands or results";
      if (!Op->getAttrOfType<SymbolRefAttr>("from"))
        return Op->emitOpError() << "requires a 'from' library reference";
      if (Op->hasAttr("symbol") && !Op->getAttrOfType<SymbolRefAttr>("symbol"))
        return Op->emitOpError() << "'symbol' must be a symbol reference";
      if (Op->hasAttr("file") && !Op->getAttrOfType<StringAttr>("file"))
        return Op->emitOpError() << "'file' must be a string path";
      return success();
    };
    TransformOpDef Def;
    Def.TypeCheckSpecial = TransformTypeCheckSpecial::Import;
    Def.MatcherOk = true; // a declaration; never touches payload
    Def.Apply = [](Operation *, TransformInterpreter &) {
      return DSF::success();
    };
    registerTransformOp(Ctx, Import, Def);
  }

  //===------------------------------------------------------------------===//
  // Matching and handle manipulation
  //===------------------------------------------------------------------===//

  {
    OpInfo Match;
    Match.Name = "transform.match.op";
    TransformOpDef Def;
    Def.TypeCheckSpecial = TransformTypeCheckSpecial::MatchName;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ResultNestedInOperand = {0};
    Def.MatcherOk = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::string_view Name = Op->getStringAttr("op_name");
      if (Name.empty())
        return DSF::definite("transform.match.op requires 'op_name'");
      std::vector<Operation *> Matches;
      for (Operation *Root :
           Interp.getState().getPayloadOps(Op->getOperand(0))) {
        Root->walkPre([&](Operation *Candidate) {
          if (Candidate != Root && Candidate->getName() == Name)
            Matches.push_back(Candidate);
          return WalkResult::Advance;
        });
      }
      int64_t Pos = -1;
      if (Op->hasAttr("first"))
        Pos = 0;
      else if (Op->hasAttr("second"))
        Pos = 1;
      else if (IntegerAttr PosAttr = Op->getAttrOfType<IntegerAttr>("pos"))
        Pos = PosAttr.getValue();
      if (Pos >= 0) {
        if (Pos >= static_cast<int64_t>(Matches.size()))
          return DSF::silenceable(
              "no matching op for '" + std::string(Name) + "' at position " +
              std::to_string(Pos));
        Matches = {Matches[Pos]};
      } else if (Matches.empty()) {
        return DSF::silenceable("no ops named '" + std::string(Name) +
                                "' in the target payload");
      }
      bindResult(Interp, Op, 0, std::move(Matches));
      return DSF::success();
    };
    registerTransformOp(Ctx, Match, Def);
  }

  {
    OpInfo GetParent;
    GetParent.Name = "transform.get_parent_op";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ResultNestedInOperand = {-1};
    Def.MatcherOk = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::string_view Name = Op->getStringAttr("op_name");
      std::vector<Operation *> Parents;
      for (Operation *Target :
           Interp.getState().getPayloadOps(Op->getOperand(0))) {
        Operation *Parent =
            Name.empty() ? Target->getParentOp()
                         : Target->getParentOfName(Name);
        if (!Parent)
          return DSF::silenceable("payload op has no matching parent");
        if (!is_contained(Parents, Parent))
          Parents.push_back(Parent);
      }
      bindResult(Interp, Op, 0, std::move(Parents));
      return DSF::success();
    };
    registerTransformOp(Ctx, GetParent, Def);
  }

  {
    OpInfo Merge;
    Merge.Name = "transform.merge_handles";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ResultNestedInOperand = {-1};
    Def.MatcherOk = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::vector<Operation *> Union;
      for (Value Operand : Op->getOperands())
        for (Operation *Target : Interp.getState().getPayloadOps(Operand))
          if (!is_contained(Union, Target))
            Union.push_back(Target);
      bindResult(Interp, Op, 0, std::move(Union));
      return DSF::success();
    };
    registerTransformOp(Ctx, Merge, Def);
  }

  {
    OpInfo Split;
    Split.Name = "transform.split_handle";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ResultNestedInOperand = {}; // filled dynamically below
    Def.MatcherOk = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      const std::vector<Operation *> &Payload =
          Interp.getState().getPayloadOps(Op->getOperand(0));
      if (Payload.size() != Op->getNumResults())
        return DSF::silenceable(
            "handle maps to " + std::to_string(Payload.size()) +
            " ops but split_handle expects " +
            std::to_string(Op->getNumResults()));
      for (unsigned I = 0; I < Op->getNumResults(); ++I)
        bindResult(Interp, Op, I, {Payload[I]});
      return DSF::success();
    };
    registerTransformOp(Ctx, Split, Def);
  }

  {
    OpInfo Cast;
    Cast.Name = "transform.cast";
    // Structural typing rules are also enforced by the IR verifier so a
    // script module fails verification without being interpreted.
    Cast.Verify = [](Operation *Op) -> LogicalResult {
      if (Op->getNumOperands() != 1 || Op->getNumResults() != 1)
        return Op->emitOpError()
               << "requires exactly one operand and one result";
      if (!isTransformHandleType(Op->getOperand(0).getType()))
        return Op->emitOpError() << "operand must be an op handle type";
      if (!isTransformHandleType(Op->getResult(0).getType()))
        return Op->emitOpError() << "result must be an op handle type";
      return success();
    };
    TransformOpDef Def;
    Def.TypeCheckSpecial = TransformTypeCheckSpecial::Cast;
    Def.ResultNestedInOperand = {0};
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.MatcherOk = true;
    // Runtime narrowing/widening: casting to `!transform.op<"X">` checks
    // every payload op's name and fails *silenceably* on a mismatch, so a
    // cast inside a foreach_match matcher reads as "not this op" rather
    // than aborting the walk.
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      if (Op->getNumOperands() != 1 || Op->getNumResults() != 1)
        return DSF::definite(
            "transform.cast requires exactly one operand and one result");
      Type To = Op->getResult(0).getType();
      const std::vector<Operation *> &Payload =
          Interp.getState().getPayloadOps(Op->getOperand(0));
      if (TransformOpType Target = To.dyn_cast<TransformOpType>()) {
        for (Operation *Candidate : Payload)
          if (Candidate->getName() != Target.getOpName())
            return DSF::silenceable("payload op '" +
                                    std::string(Candidate->getName()) +
                                    "' does not satisfy " + To.str());
      } else if (!isTransformHandleType(To)) {
        return DSF::definite("transform.cast result must be an op handle, "
                             "got '" +
                             To.str() + "'");
      }
      bindResult(Interp, Op, 0, Payload);
      return DSF::success();
    };
    registerTransformOp(Ctx, Cast, Def);
  }

  {
    OpInfo ParamConst;
    ParamConst.Name = "transform.param.constant";
    TransformOpDef Def;
    Def.MatcherOk = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      Attribute Value = Op->getAttr("value");
      if (!Value)
        return DSF::definite("transform.param.constant requires 'value'");
      Interp.getState().setParams(Op->getResult(0), {Value});
      return DSF::success();
    };
    registerTransformOp(Ctx, ParamConst, Def);
  }

  //===------------------------------------------------------------------===//
  // Matcher predicates (side-effect-free; usable inside foreach_match
  // matcher sequences). Each checks a property of every payload op of its
  // operand, fails silenceably when the property does not hold, and
  // forwards the handle through its optional result.
  //===------------------------------------------------------------------===//

  {
    OpInfo MatchName;
    MatchName.Name = "transform.match.operation_name";
    TransformOpDef Def;
    Def.TypeCheckSpecial = TransformTypeCheckSpecial::MatchName;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ResultNestedInOperand = {0};
    Def.MatcherOk = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      // Elements reuse the Section 3.3 condition language: exact names and
      // dialect wildcards such as "scf.*".
      std::vector<OpSetElement> Elements;
      if (failed(parseTransformOpNameElements(Op, Elements)))
        return DSF::definite(
            "match.operation_name: 'op_names' must contain strings");
      if (Elements.empty())
        return DSF::definite(
            "match.operation_name requires 'op_names' or 'op_name'");
      return matchAllPayload(Op, Interp, [&](Operation *Target) -> DSF {
        for (const OpSetElement &Element : Elements)
          if (Element.matches(Target->getName(), &Op->getContext()))
            return DSF::success();
        return DSF::silenceable("op '" + std::string(Target->getName()) +
                                "' does not match the expected names");
      });
    };
    registerTransformOp(Ctx, MatchName, Def);
  }

  {
    OpInfo MatchAttr;
    MatchAttr.Name = "transform.match.attr";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ResultNestedInOperand = {0};
    Def.MatcherOk = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::string_view Name = Op->getStringAttr("name");
      if (Name.empty())
        return DSF::definite("match.attr requires 'name'");
      Attribute Expected = Op->getAttr("value");
      return matchAllPayload(Op, Interp, [&](Operation *Target) -> DSF {
        Attribute Found = Target->getAttr(Name);
        if (!Found)
          return DSF::silenceable("op has no attribute '" +
                                  std::string(Name) + "'");
        if (Expected && Found != Expected)
          return DSF::silenceable("attribute '" + std::string(Name) +
                                  "' has a different value");
        return DSF::success();
      });
    };
    registerTransformOp(Ctx, MatchAttr, Def);
  }

  {
    OpInfo MatchOperands;
    MatchOperands.Name = "transform.match.operands";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ResultNestedInOperand = {0};
    Def.MatcherOk = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      IntegerAttr Count = Op->getAttrOfType<IntegerAttr>("count");
      IntegerAttr Min = Op->getAttrOfType<IntegerAttr>("min");
      IntegerAttr Max = Op->getAttrOfType<IntegerAttr>("max");
      if (!Count && !Min && !Max)
        return DSF::definite(
            "match.operands requires 'count', 'min', or 'max'");
      return matchAllPayload(Op, Interp, [&](Operation *Target) -> DSF {
        int64_t N = Target->getNumOperands();
        if (Count && N != Count.getValue())
          return DSF::silenceable("op has " + std::to_string(N) +
                                  " operands, expected " +
                                  std::to_string(Count.getValue()));
        if (Min && N < Min.getValue())
          return DSF::silenceable("op has fewer operands than expected");
        if (Max && N > Max.getValue())
          return DSF::silenceable("op has more operands than expected");
        return DSF::success();
      });
    };
    registerTransformOp(Ctx, MatchOperands, Def);
  }

  {
    OpInfo MatchRank;
    MatchRank.Name = "transform.match.structured.rank";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ResultNestedInOperand = {0};
    Def.MatcherOk = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      IntegerAttr Rank = Op->getAttrOfType<IntegerAttr>("rank");
      if (!Rank)
        return DSF::definite("match.structured.rank requires 'rank'");
      return matchAllPayload(Op, Interp, [&](Operation *Target) -> DSF {
        // The structured rank of an op: the maximum rank over its shaped
        // (memref/tensor) operand and result types.
        int64_t MaxRank = -1;
        for (Value Operand : Target->getOperands())
          if (ShapedType Shaped = Operand.getType().dyn_cast<ShapedType>())
            MaxRank = std::max(MaxRank, Shaped.getRank());
        for (Value Result : Target->getResults())
          if (ShapedType Shaped = Result.getType().dyn_cast<ShapedType>())
            MaxRank = std::max(MaxRank, Shaped.getRank());
        if (MaxRank < 0)
          return DSF::silenceable("op has no shaped operand or result");
        if (MaxRank != Rank.getValue())
          return DSF::silenceable(
              "op has structured rank " + std::to_string(MaxRank) +
              ", expected " + std::to_string(Rank.getValue()));
        return DSF::success();
      });
    };
    registerTransformOp(Ctx, MatchRank, Def);
  }

  //===------------------------------------------------------------------===//
  // foreach_match: the single-walk matcher/action dispatcher of the paper's
  // pattern-level control case study. Visits every payload op once; for
  // each op, tries the (matcher, action) named-sequence pairs in order and
  // schedules the action of the first matcher that succeeds.
  //===------------------------------------------------------------------===//

  {
    OpInfo ForeachMatch;
    ForeachMatch.Name = "transform.foreach_match";
    ForeachMatch.Verify = [](Operation *Op) -> LogicalResult {
      ArrayAttr Matchers = Op->getAttrOfType<ArrayAttr>("matchers");
      ArrayAttr Actions = Op->getAttrOfType<ArrayAttr>("actions");
      if (!Matchers || !Actions || Matchers.size() == 0 ||
          Matchers.size() != Actions.size())
        return Op->emitOpError() << "requires equally sized non-empty "
                                    "'matchers' and 'actions' arrays";
      if (Op->getNumOperands() < 1)
        return Op->emitOpError() << "requires a root handle operand";
      if (!isTransformHandleType(Op->getOperand(0).getType()))
        return Op->emitOpError() << "root operand must be an op handle";
      for (unsigned I = 0; I < Op->getNumResults(); ++I)
        if (!isTransformHandleType(Op->getResult(I).getType()))
          return Op->emitOpError()
                 << "result " << I << " must be an op handle type";
      return success();
    };
    TransformOpDef Def;
    Def.TypeCheckSpecial = TransformTypeCheckSpecial::ForeachMatch;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ConsumedOperands = {0};
    Def.ResultNestedInOperand = {0};
    Def.Apply = applyForeachMatch;
    registerTransformOp(Ctx, ForeachMatch, Def);
  }

  //===------------------------------------------------------------------===//
  // collect_matching: all matches of one pure matcher, returned as handles
  // (the match phase alone; no actions, nothing consumed).
  //===------------------------------------------------------------------===//

  {
    OpInfo Collect;
    Collect.Name = "transform.collect_matching";
    Collect.Verify = [](Operation *Op) -> LogicalResult {
      if (!Op->getAttr("matcher"))
        return Op->emitOpError() << "requires a 'matcher' reference";
      if (Op->getNumOperands() < 1 ||
          !isTransformHandleType(Op->getOperand(0).getType()))
        return Op->emitOpError() << "requires a root handle operand";
      for (unsigned I = 0; I < Op->getNumResults(); ++I) {
        Type Ty = Op->getResult(I).getType();
        if (!isTransformHandleType(Ty) && !Ty.isa<TransformParamType>())
          return Op->emitOpError()
                 << "result " << I
                 << " must be an op handle or parameter type";
      }
      return success();
    };
    TransformOpDef Def;
    Def.TypeCheckSpecial = TransformTypeCheckSpecial::CollectMatching;
    Def.OperandKinds = {TransformValueKind::Handle};
    // Collected matches live inside the walked roots: consuming the root
    // later must invalidate every result, however many the matcher yields
    // (conservative for parameter results).
    Def.AllResultsNestedInOperand = 0;
    Def.Apply = applyCollectMatching;
    registerTransformOp(Ctx, Collect, Def);
  }

  //===------------------------------------------------------------------===//
  // Loop transforms
  //===------------------------------------------------------------------===//

  {
    OpInfo Hoist;
    Hoist.Name = "transform.loop.hoist";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ResultNestedInOperand = {-1};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::vector<Operation *> AllHoisted;
      DSF Result = applyToEachLoop(Op, Interp, [&](Operation *Loop) -> DSF {
        if (Loop->getName() != "scf.for" && Loop->getName() != "scf.forall")
          return DSF::silenceable("hoist target is not a loop");
        std::vector<Operation *> Hoisted = loops::hoistLoopInvariants(Loop);
        AllHoisted.insert(AllHoisted.end(), Hoisted.begin(), Hoisted.end());
        return DSF::success();
      });
      if (!Result.succeeded())
        return Result;
      bindResult(Interp, Op, 0, std::move(AllHoisted));
      return DSF::success();
    };
    registerTransformOp(Ctx, Hoist, Def);
  }

  {
    OpInfo SplitLoop;
    SplitLoop.Name = "transform.loop.split";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle, TransformValueKind::Param};
    Def.ConsumedOperands = {0};
    Def.ResultNestedInOperand = {-1, -1};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      FailureOr<std::vector<int64_t>> Divisors =
          Interp.readIntParams(Op, "divisor", 1);
      if (failed(Divisors) || Divisors->size() != 1)
        return DSF::definite("loop.split requires a single divisor");
      std::vector<Operation *> Mains, Rests;
      DSF Result = applyToEachLoop(Op, Interp, [&](Operation *Loop) -> DSF {
        FailureOr<std::pair<Operation *, Operation *>> Split =
            loops::splitLoopByDivisibility(Loop, (*Divisors)[0]);
        if (failed(Split))
          return DSF::silenceable("failed to split loop");
        Mains.push_back(Split->first);
        Rests.push_back(Split->second);
        return DSF::success();
      });
      if (!Result.succeeded())
        return Result;
      bindResult(Interp, Op, 0, std::move(Mains));
      bindResult(Interp, Op, 1, std::move(Rests));
      return DSF::success();
    };
    registerTransformOp(Ctx, SplitLoop, Def);
  }

  {
    OpInfo Tile;
    Tile.Name = "transform.loop.tile";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle, TransformValueKind::Param};
    Def.ConsumedOperands = {0};
    Def.ResultNestedInOperand = {-1, -1};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      FailureOr<std::vector<int64_t>> Sizes =
          Interp.readIntParams(Op, "tile_sizes", 1);
      if (failed(Sizes))
        return DSF::definite("loop.tile requires 'tile_sizes'");
      std::vector<Operation *> TileLoops, PointLoops;
      DSF Result = applyToEachLoop(Op, Interp, [&](Operation *Loop) -> DSF {
        FailureOr<std::vector<Operation *>> Tiled =
            loops::tileLoopNest(Loop, *Sizes);
        if (failed(Tiled))
          return DSF::silenceable("failed to tile loop nest");
        size_t NumTileLoops = 0;
        for (int64_t Size : *Sizes)
          NumTileLoops += (Size != 0);
        for (size_t I = 0; I < Tiled->size(); ++I)
          (I < NumTileLoops ? TileLoops : PointLoops).push_back((*Tiled)[I]);
        return DSF::success();
      });
      if (!Result.succeeded())
        return Result;
      bindResult(Interp, Op, 0, std::move(TileLoops));
      bindResult(Interp, Op, 1, std::move(PointLoops));
      return DSF::success();
    };
    registerTransformOp(Ctx, Tile, Def);
  }

  {
    OpInfo Unroll;
    Unroll.Name = "transform.loop.unroll";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ConsumedOperands = {0};
    Def.ResultNestedInOperand = {-1};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      bool Full = Op->hasAttr("full");
      int64_t Factor = Op->getIntAttr("factor", 0);
      if (!Full && Factor <= 0)
        return DSF::definite("loop.unroll requires 'full' or a 'factor'");
      std::vector<Operation *> NewLoops;
      DSF Result = applyToEachLoop(Op, Interp, [&](Operation *Loop) -> DSF {
        if (Full) {
          if (failed(loops::unrollLoopFull(Loop)))
            return DSF::silenceable("failed to fully unroll loop");
          return DSF::success();
        }
        FailureOr<Operation *> NewLoop =
            loops::unrollLoopByFactor(Loop, Factor);
        if (failed(NewLoop))
          return DSF::silenceable("failed to unroll loop by factor");
        NewLoops.push_back(*NewLoop);
        return DSF::success();
      });
      if (!Result.succeeded())
        return Result;
      bindResult(Interp, Op, 0, std::move(NewLoops));
      return DSF::success();
    };
    registerTransformOp(Ctx, Unroll, Def);
  }

  {
    OpInfo Interchange;
    Interchange.Name = "transform.loop.interchange";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ConsumedOperands = {0};
    Def.ResultNestedInOperand = {-1};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::vector<Operation *> NewOuters;
      DSF Result = applyToEachLoop(Op, Interp, [&](Operation *Loop) -> DSF {
        FailureOr<Operation *> NewOuter = loops::interchangeLoops(Loop);
        if (failed(NewOuter))
          return DSF::silenceable("failed to interchange loops");
        NewOuters.push_back(*NewOuter);
        return DSF::success();
      });
      if (!Result.succeeded())
        return Result;
      bindResult(Interp, Op, 0, std::move(NewOuters));
      return DSF::success();
    };
    registerTransformOp(Ctx, Interchange, Def);
  }

  {
    OpInfo Vectorize;
    Vectorize.Name = "transform.vectorize";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ConsumedOperands = {0};
    Def.ResultNestedInOperand = {-1};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      int64_t Width = Op->getIntAttr("width", 4);
      std::vector<Operation *> NewLoops;
      DSF Result = applyToEachLoop(Op, Interp, [&](Operation *Loop) -> DSF {
        FailureOr<Operation *> NewLoop = loops::vectorizeLoop(Loop, Width);
        if (failed(NewLoop))
          return DSF::silenceable(
              "failed to vectorize: trip count not divisible by the vector "
              "width");
        NewLoops.push_back(*NewLoop);
        return DSF::success();
      });
      if (!Result.succeeded())
        return Result;
      bindResult(Interp, Op, 0, std::move(NewLoops));
      return DSF::success();
    };
    registerTransformOp(Ctx, Vectorize, Def);
  }

  {
    // Phase-ordering contracts (Section 3.3) for the structured-loop
    // transforms above: they require scf loops to still exist and only
    // read them. Both the static checkers (`checkTransformScript`,
    // `analyzeHandleTypes`) use these to reject scripts that tile or
    // vectorize after the loops were lowered to cf branches.
    LoweringContract LoopContract;
    LoopContract.Pre = {"scf.for", "scf.forall"};
    LoopContract.PreMustExist = true;
    LoopContract.PreservesPre = true;
    for (const char *Name : {"loop.hoist", "loop.split", "loop.tile",
                             "loop.unroll", "loop.interchange", "vectorize"})
      ContractRegistry::instance().registerContract(Name, LoopContract);
  }

  // `transform.to_library` predates the transform *library subsystem*
  // (core/TransformLibrary.h) and is unrelated to it despite the name: it
  // substitutes matched payload loop nests with calls into a precompiled
  // *microkernel* library such as libxsmm (the paper's Fig. 8 / Case Study
  // 4 workflow), whereas `transform.library`/`transform.import` share
  // *transform scripts* across files. The name is kept for paper fidelity;
  // its semantics are unchanged by the subsystem (regression-tested in
  // tests/core/TransformLibraryTest.cpp).
  {
    OpInfo ToLibrary;
    ToLibrary.Name = "transform.to_library";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ConsumedOperands = {0};
    Def.ResultNestedInOperand = {-1};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::string_view Library = Op->getStringAttr("library");
      if (Library.empty())
        Library = "libxsmm";
      std::vector<Operation *> Calls;
      bool AnySuccess = false;
      const std::vector<Operation *> &Payload =
          Interp.getState().getPayloadOps(Op->getOperand(0));
      std::vector<std::vector<size_t>> Ancestors =
          computePayloadAncestors(Payload);
      std::vector<bool> Replaced(Payload.size(), false);
      for (size_t I = 0; I < Payload.size(); ++I) {
        // Ancestor check first: an op nested in an already-replaced loop
        // nest was freed with it, so dereferencing it (even for its name)
        // is use-after-free.
        bool Skip = false;
        for (size_t Ancestor : Ancestors[I])
          Skip |= Replaced[Ancestor];
        if (Skip || Payload[I]->getName() != "scf.for")
          continue;
        FailureOr<Operation *> Call =
            loops::replaceWithMicrokernelCall(Payload[I], Library);
        if (succeeded(Call)) {
          Calls.push_back(*Call);
          Replaced[I] = true;
          AnySuccess = true;
        }
      }
      if (!AnySuccess)
        return DSF::silenceable(
            "no payload loop nest matches a kernel available in '" +
            std::string(Library) + "'");
      bindResult(Interp, Op, 0, std::move(Calls));
      return DSF::success();
    };
    registerTransformOp(Ctx, ToLibrary, Def);
  }

  //===------------------------------------------------------------------===//
  // Pass and pattern application
  //===------------------------------------------------------------------===//

  {
    OpInfo ApplyPass;
    ApplyPass.Name = "transform.apply_registered_pass";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ConsumedOperands = {0};
    Def.ResultNestedInOperand = {0};
    Def.RunsRegisteredPass = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::string_view PassName = Op->getStringAttr("pass_name");
      if (PassName.empty())
        return DSF::definite("apply_registered_pass requires 'pass_name'");
      return applyContractedPassToPayload(Op, Interp, std::string(PassName),
                                          Op->getStringAttr("options"));
    };
    registerTransformOp(Ctx, ApplyPass, Def);
  }

  // Dedicated lowering steps of the deep pipeline, so a strategy reads as
  // match -> tile -> expand_forall -> lower_scf_to_cf -> (execute). Both
  // consume their handle and rebind the surviving payload like every other
  // pass-backed transform op.
  {
    OpInfo ExpandForall;
    ExpandForall.Name = "transform.expand_forall";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ConsumedOperands = {0};
    Def.ResultNestedInOperand = {0};
    Def.RunsRegisteredPass = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      return applyContractedPassToPayload(Op, Interp, "expand-forall");
    };
    registerTransformOp(Ctx, ExpandForall, Def);
  }

  {
    OpInfo LowerScf;
    LowerScf.Name = "transform.lower_scf_to_cf";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ConsumedOperands = {0};
    Def.ResultNestedInOperand = {0};
    Def.RunsRegisteredPass = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      return applyContractedPassToPayload(Op, Interp, "convert-scf-to-cf");
    };
    registerTransformOp(Ctx, LowerScf, Def);
  }

  {
    OpInfo ApplyPatterns;
    ApplyPatterns.Name = "transform.apply_patterns";
    TransformOpDef Def;
    Def.TypeCheckSpecial = TransformTypeCheckSpecial::ApplyPatterns;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      if (Op->getNumOperands() < 1)
        return DSF::definite(
            MatchDiag("apply_patterns").text("requires a handle operand"));
      // Match-driven form: (matcher, pattern set) pairs dispatched through
      // the MatcherEngine.
      if (ArrayAttr MatcherRefs = Op->getAttrOfType<ArrayAttr>("matchers"))
        return applyPatternsPerMatch(
            Op, Interp, MatcherRefs,
            Op->getAttrOfType<ArrayAttr>("pattern_sets"));
      // Flat form: region pattern ops and/or named pattern sets applied to
      // everything nested under each payload op of the handle.
      PatternSet Patterns;
      if (ArrayAttr SetRefs = Op->getAttrOfType<ArrayAttr>("pattern_sets"))
        for (Attribute SetRef : SetRefs.getValue()) {
          StringAttr SetName = SetRef.dyn_cast<StringAttr>();
          if (!SetName)
            return DSF::definite(MatchDiag("apply_patterns")
                                     .text("'pattern_sets' entries must be "
                                           "strings"));
          DSF Populated =
              populateNamedPatternSet(SetName.getValue(), Patterns);
          if (!Populated.succeeded())
            return Populated;
        }
      if (Op->getNumRegions() >= 1 && !Op->getRegion(0).empty()) {
        for (Operation *PatternOp : Op->getRegion(0).front()) {
          if (PatternOp->hasTrait(OT_IsTerminator))
            continue;
          const auto *Populate =
              lookupTransformPatternOp(PatternOp->getName());
          if (!Populate)
            return DSF::definite("unknown pattern op '" +
                                 std::string(PatternOp->getName()) + "'");
          (*Populate)(Patterns);
        }
      }
      TrackingListener Listener(Interp.getState());
      GreedyRewriteConfig Config;
      Config.Listener = &Listener;
      for (Operation *Target :
           Interp.getState().getPayloadOps(Op->getOperand(0)))
        (void)applyPatternsGreedily(Target, Patterns, Config);
      return DSF::success();
    };
    registerTransformOp(Ctx, ApplyPatterns, Def);
  }

  //===------------------------------------------------------------------===//
  // Annotations, debugging, assertions
  //===------------------------------------------------------------------===//

  {
    OpInfo Annotate;
    Annotate.Name = "transform.annotate";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::string_view Name = Op->getStringAttr("name");
      if (Name.empty())
        return DSF::definite("transform.annotate requires 'name'");
      Attribute Value = Op->getAttr("value");
      if (!Value)
        Value = UnitAttr::get(Op->getContext());
      for (Operation *Target :
           Interp.getState().getPayloadOps(Op->getOperand(0)))
        Target->setAttr(Name, Value);
      return DSF::success();
    };
    registerTransformOp(Ctx, Annotate, Def);
  }

  {
    OpInfo Print;
    Print.Name = "transform.print";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::string_view Prefix = Op->getStringAttr("name");
      for (Operation *Target :
           Interp.getState().getPayloadOps(Op->getOperand(0))) {
        if (!Prefix.empty())
          outs() << "[[ " << Prefix << " ]]\n";
        Target->print(outs());
        outs() << "\n";
      }
      return DSF::success();
    };
    registerTransformOp(Ctx, Print, Def);
  }

  {
    OpInfo Remark;
    Remark.Name = "transform.debug.emit_remark";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.MatcherOk = true; // diagnostics only; does not touch payload
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::string_view Message = Op->getStringAttr("message");
      for (Operation *Target :
           Interp.getState().getPayloadOps(Op->getOperand(0)))
        Target->emitRemark() << Message;
      return DSF::success();
    };
    registerTransformOp(Ctx, Remark, Def);
  }

  {
    OpInfo Assert;
    Assert.Name = "transform.assert";
    TransformOpDef Def;
    Def.OperandKinds = {TransformValueKind::Param};
    Def.MatcherOk = true;
    Def.Apply = [](Operation *Op, TransformInterpreter &Interp) -> DSF {
      std::string Message(Op->getStringAttr("message"));
      if (Message.empty())
        Message = "transform.assert failed";
      if (Op->getNumOperands() < 1)
        return DSF::definite("transform.assert requires a param operand");
      const std::vector<Attribute> &Params =
          Interp.getState().getParams(Op->getOperand(0));
      if (Params.empty())
        return DSF::silenceable(Message);
      for (Attribute Param : Params) {
        bool Truthy = false;
        if (IntegerAttr Int = Param.dyn_cast<IntegerAttr>())
          Truthy = Int.getValue() != 0;
        else if (BoolAttr Bool = Param.dyn_cast<BoolAttr>())
          Truthy = Bool.getValue();
        if (!Truthy)
          return DSF::silenceable(Message);
      }
      return DSF::success();
    };
    registerTransformOp(Ctx, Assert, Def);
  }

  // Built-in pattern set: canonicalization.
  registerTransformPatternOp(Ctx, "canonicalization",
                             [](PatternSet &Patterns) {
                               populateCanonicalizationPatterns(Patterns);
                             });

  //===------------------------------------------------------------------===//
  // Lowering transforms with contracts (Section 3.3 / Table 2): one
  // transform op per contracted pass, e.g. transform.convert_scf_to_cf.
  //===------------------------------------------------------------------===//

  for (const std::string &PassName :
       ContractRegistry::instance().getContractedPasses()) {
    std::string OpName = "transform." + PassName;
    for (char &C : OpName)
      if (C == '-')
        C = '_';
    // Dedicated registrations above win over the auto-generated form (e.g.
    // the "expand-forall" contract would otherwise re-register
    // transform.expand_forall).
    if (Ctx.lookupOpInfo(OpName))
      continue;
    OpInfo Info;
    Info.Name = OpName;
    TransformOpDef Def;
    Def.ConsumedOperands = {0};
    Def.OperandKinds = {TransformValueKind::Handle};
    Def.ResultNestedInOperand = {0};
    Def.RunsRegisteredPass = true;
    std::string PassNameCopy = PassName;
    Def.Apply = [PassNameCopy](Operation *Op,
                               TransformInterpreter &Interp) -> DSF {
      return applyContractedPassToPayload(Op, Interp, PassNameCopy);
    };
    registerTransformOp(Ctx, Info, Def);
  }
}
