//===- TransformInterpreter.cpp - Transform script interpreter ------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Transform.h"

#include "core/Analysis.h"
#include "core/MatcherEngine.h"
#include "dialect/Dialects.h"
#include "ir/SymbolTable.h"
#include "pass/Pass.h"
#include "support/STLExtras.h"
#include "support/Telemetry.h"

using namespace tdl;

//===----------------------------------------------------------------------===//
// TransformOpRegistry
//===----------------------------------------------------------------------===//

TransformOpRegistry &TransformOpRegistry::instance() {
  static TransformOpRegistry Registry;
  return Registry;
}

void TransformOpRegistry::registerOp(std::string Name, TransformOpDef Def) {
  Defs[std::move(Name)] = std::move(Def);
}

const TransformOpDef *
TransformOpRegistry::lookup(std::string_view Name) const {
  auto It = Defs.find(Name);
  return It == Defs.end() ? nullptr : &It->second;
}

void tdl::registerTransformOp(Context &Ctx, OpInfo Info, TransformOpDef Def) {
  std::string Name = Info.Name;
  Ctx.registerOp(std::move(Info));
  TransformOpRegistry::instance().registerOp(std::move(Name), std::move(Def));
}

const TransformOpDef *tdl::lookupTransformOpDef(const Operation *Op) {
  const OpInfo *Info = Op->getInfo();
  if (const void *Cached = Info->TransformDefCache)
    return static_cast<const TransformOpDef *>(Cached);
  // Cache only successful lookups so a definition registered after the
  // first probe (late dialect extension) is still picked up — and so a
  // failed probe never writes the shared cache slot (the sharded matcher
  // walk warms this cache up front and relies on workers not writing it).
  const TransformOpDef *Def =
      TransformOpRegistry::instance().lookup(Op->getName());
  if (Def)
    Info->TransformDefCache = Def;
  return Def;
}

//===----------------------------------------------------------------------===//
// TransformState
//===----------------------------------------------------------------------===//

const std::vector<Operation *> &
TransformState::getPayloadOps(Value Handle) const {
  static const std::vector<Operation *> Empty;
  auto It = HandleMap.find(Handle.getImpl());
  return It == HandleMap.end() ? Empty : It->second;
}

const std::vector<Attribute> &TransformState::getParams(Value Handle) const {
  static const std::vector<Attribute> Empty;
  auto It = ParamMap.find(Handle.getImpl());
  return It == ParamMap.end() ? Empty : It->second;
}

bool TransformState::isParam(Value Handle) const {
  return ParamMap.count(Handle.getImpl()) != 0;
}

void TransformState::setPayload(Value Handle, std::vector<Operation *> Ops) {
  HandleMap[Handle.getImpl()] = std::move(Ops);
  // A value is either an op handle or a param; rebinding switches kind
  // (e.g. foreach_match actions shared between pairs whose matchers yield
  // different kinds for the same block argument).
  ParamMap.erase(Handle.getImpl());
  Invalidated.erase(Handle.getImpl());
}

void TransformState::setParams(Value Handle, std::vector<Attribute> Params) {
  ParamMap[Handle.getImpl()] = std::move(Params);
  HandleMap.erase(Handle.getImpl());
  Invalidated.erase(Handle.getImpl());
}

bool TransformState::hasOtherLiveOpHandle(ValueImpl *Except) const {
  for (const auto &[Impl, Ops] : HandleMap)
    if (Impl != Except && !Ops.empty() && !Invalidated.count(Impl))
      return true;
  return false;
}

void TransformState::consume(Value Handle) {
  // Registered on first consume, so reports show the counter even when
  // every consume takes the fast path below.
  static telemetry::Counter &ClosureOps =
      telemetry::counter("interp.consume.closure_ops");
  auto It = HandleMap.find(Handle.getImpl());
  Invalidated.insert(Handle.getImpl());
  if (It == HandleMap.end())
    return;
  // Only another live op handle can alias the consumed payload, and only
  // worker states replay Consume events. With neither, the closure below
  // could not invalidate anything: in a chain of consuming ops (a pass
  // pipeline as apply_registered_pass ops) every earlier handle is already
  // invalidated, so consume stays O(handles) instead of O(payload ops).
  if (!EventLogEnabled && !hasOtherLiveOpHandle(Handle.getImpl()))
    return;
  // Snapshot the closure of the consumed payload — the ops themselves and
  // everything nested within them — while the IR is still intact. Alias
  // invalidation (and, on worker states, the replayable Consume event) then
  // works by pointer identity over this set, so it never dereferences the
  // ops again after the consuming transform may have freed them.
  std::vector<Operation *> Closure;
  for (Operation *Mine : It->second)
    Mine->walk([&](Operation *Nested) { Closure.push_back(Nested); });
  ClosureOps.add(static_cast<int64_t>(Closure.size()));
  invalidateAliasesByIdentity(Closure);
  if (EventLogEnabled) {
    PayloadEvent Event;
    Event.EventKind = PayloadEvent::Kind::Consume;
    Event.Ops = std::move(Closure);
    Events.push_back(std::move(Event));
  }
}

void TransformState::invalidateAliasesByIdentity(
    const std::vector<Operation *> &Closure) {
  std::set<const Operation *> InClosure(Closure.begin(), Closure.end());
  for (auto &[OtherImpl, OtherOps] : HandleMap) {
    if (Invalidated.count(OtherImpl))
      continue;
    for (Operation *Other : OtherOps) {
      if (InClosure.count(Other)) {
        Invalidated.insert(OtherImpl);
        break;
      }
    }
  }
}

void TransformState::takeBinding(Value Handle, TransformState &From) {
  ValueImpl *Impl = Handle.getImpl();
  auto HandleIt = From.HandleMap.find(Impl);
  if (HandleIt != From.HandleMap.end())
    HandleMap[Impl] = std::move(HandleIt->second);
  auto ParamIt = From.ParamMap.find(Impl);
  if (ParamIt != From.ParamMap.end())
    ParamMap[Impl] = std::move(ParamIt->second);
  if (From.Invalidated.count(Impl))
    Invalidated.insert(Impl);
  else
    Invalidated.erase(Impl);
}

void TransformState::replacePayloadOp(
    Operation *Old, const std::vector<Operation *> &Replacements) {
  if (EventLogEnabled) {
    PayloadEvent Event;
    Event.EventKind = PayloadEvent::Kind::Replace;
    Event.Old = Old;
    Event.Ops = Replacements;
    Events.push_back(std::move(Event));
  }
  for (auto &[Impl, Ops] : HandleMap) {
    if (Invalidated.count(Impl))
      continue;
    for (size_t I = 0; I < Ops.size(); ++I) {
      if (Ops[I] != Old)
        continue;
      if (Replacements.empty()) {
        Ops.erase(Ops.begin() + I);
        --I;
        continue;
      }
      Ops[I] = Replacements[0];
      Ops.insert(Ops.begin() + I + 1, Replacements.begin() + 1,
                 Replacements.end());
      I += Replacements.size() - 1;
    }
  }
}

void TransformState::erasePayloadOp(Operation *Old) {
  replacePayloadOp(Old, {});
}

void TransformState::forget(Value Handle) {
  HandleMap.erase(Handle.getImpl());
  ParamMap.erase(Handle.getImpl());
  Invalidated.erase(Handle.getImpl());
}

//===----------------------------------------------------------------------===//
// TrackingListener
//===----------------------------------------------------------------------===//

void TrackingListener::notifyOperationReplaced(
    Operation *Op, const std::vector<Value> &Replacements) {
  // Map the op to the distinct defining ops of the replacement values (the
  // MLIR convention).
  std::vector<Operation *> NewOps;
  for (Value V : Replacements) {
    Operation *Def = V.getDefiningOp();
    if (Def && !is_contained(NewOps, Def))
      NewOps.push_back(Def);
  }
  State.replacePayloadOp(Op, NewOps);
}

void TrackingListener::notifyOperationErased(Operation *Op) {
  State.erasePayloadOp(Op);
}

//===----------------------------------------------------------------------===//
// TransformInterpreter
//===----------------------------------------------------------------------===//

TransformInterpreter::TransformInterpreter(Operation *PayloadRoot,
                                           Operation *ScriptRoot,
                                           TransformOptions Options)
    : PayloadRoot(PayloadRoot), ScriptRoot(ScriptRoot), Options(Options),
      State(PayloadRoot) {}

Operation *
TransformInterpreter::lookupNamedSequence(std::string_view Name) const {
  // The script root may itself be the sequence, or a module holding it
  // (possibly through nested library modules of matcher sequences). One
  // shared resolver serves the runtime and the static analyses, so the two
  // can never disagree on which definition a reference means.
  return resolveTransformSequence(ScriptRoot, Name);
}

LogicalResult TransformInterpreter::run() {
  // Fig. 1a typing: reject an ill-typed script before any payload op is
  // touched. Handle/param kind mixes, impossible casts, and mismatched
  // matcher/action signatures become pre-interpretation diagnostics here
  // instead of mid-flight dispatch errors.
  std::vector<TypeCheckIssue> TypeIssues = analyzeHandleTypes(ScriptRoot);
  for (const TypeCheckIssue &Issue : TypeIssues)
    Issue.Op->emitError() << "ill-typed transform script: " << Issue.Message;
  if (!TypeIssues.empty())
    return failure();

  Operation *Entry = ScriptRoot;
  if (Entry->getName() != "transform.named_sequence" &&
      Entry->getName() != "transform.sequence") {
    Entry = lookupNamedSequence("__transform_main");
    if (!Entry)
      return ScriptRoot->emitError()
             << "no transform entry point: expected a (named_)sequence or a "
                "@__transform_main symbol";
  }
  if (Entry->getNumRegions() != 1 || Entry->getRegion(0).empty())
    return Entry->emitError() << "transform entry point has no body";

  Block &Body = Entry->getRegion(0).front();
  if (Body.getNumArguments() >= 1) {
    // Binding the payload root to a typed entry argument is a narrowing:
    // enforce it like transform.cast does, so the type system's guarantees
    // hold from the very first handle.
    Type ArgTy = Body.getArgument(0).getType();
    if (TransformOpType Typed = ArgTy.dyn_cast<TransformOpType>())
      if (PayloadRoot->getName() != Typed.getOpName())
        return Entry->emitError()
               << "entry block argument type '" << ArgTy
               << "' does not match the payload root op '"
               << PayloadRoot->getName() << "'";
    State.setPayload(Body.getArgument(0), {PayloadRoot});
  }

  DiagnosedSilenceableFailure Result = DiagnosedSilenceableFailure::success();
  {
    static telemetry::DurationStat &RunStat = telemetry::duration("interp.run");
    telemetry::ScopedTimer Timer(RunStat);
    telemetry::ScopedSpan RunSpan("interp:run", "interp");
    Result = executeBlock(Body);
  }
  flushTraceLog();
  if (Result.succeeded())
    return success();
  if (Result.isSilenceable() && !Options.FailOnSilenceable) {
    PayloadRoot->emitWarning()
        << "transform script reported a silenceable failure: "
        << Result.getMessage();
    return success();
  }
  return PayloadRoot->emitError()
         << "transform script failed: " << Result.getMessage();
}

DiagnosedSilenceableFailure TransformInterpreter::executeBlock(Block &B) {
  for (Operation *Op : B) {
    if (Op->getName() == "transform.yield")
      return DiagnosedSilenceableFailure::success();
    DiagnosedSilenceableFailure Result = executeOp(Op);
    if (!Result.succeeded())
      return Result;
  }
  return DiagnosedSilenceableFailure::success();
}

void TransformInterpreter::flushTraceLog() {
  if (TraceLog.empty())
    return;
  raw_ostream &OS = Options.TraceStream ? *Options.TraceStream : errs();
  OS << TraceLog;
  TraceLog.clear();
}

DiagnosedSilenceableFailure TransformInterpreter::executeOp(Operation *Op) {
  static telemetry::Counter &ExecutedOps =
      telemetry::counter("interp.executed_ops");
  ExecutedOps.add();
  if (Options.Trace) {
    // Buffered, not written: engine shards drain and replay these per
    // unit/partition so the merged trace is deterministic (see flushTraceLog).
    TraceLog += "[transform] ";
    TraceLog += Op->getName();
    TraceLog += '\n';
  }
  telemetry::ScopedSpan OpSpan(Op->getName(), "transform-op");
  if (OpSpan.isActive()) {
    int64_t HandleOperands = 0, PayloadOps = 0;
    for (unsigned I = 0; I < Op->getNumOperands(); ++I) {
      if (!isTransformHandleType(Op->getOperand(I).getType()))
        continue;
      ++HandleOperands;
      PayloadOps +=
          static_cast<int64_t>(State.getPayloadOps(Op->getOperand(I)).size());
    }
    OpSpan.arg("handles", HandleOperands);
    OpSpan.arg("payload_ops", PayloadOps);
    if (Op->getNumOperands() > 0 &&
        !State.getPayloadOps(Op->getOperand(0)).empty())
      OpSpan.arg("payload_op",
                 State.getPayloadOps(Op->getOperand(0)).front()->getName());
  }

  const TransformOpDef *Def = lookupTransformOpDef(Op);
  if (!Def || !Def->Apply)
    return DiagnosedSilenceableFailure::definite(
        "unregistered transform op '" + std::string(Op->getName()) + "'");

  // Matcher mode (foreach_match): matchers must be side-effect-free, so
  // only ops explicitly marked MatcherOk (and consuming nothing) may run.
  if (MatcherMode && (!Def->MatcherOk || !Def->ConsumedOperands.empty()))
    return DiagnosedSilenceableFailure::definite(
        "op '" + std::string(Op->getName()) +
        "' is not a matcher op: matchers used in transform.foreach_match "
        "must be side-effect-free");

  // Invalidation check (Section 3.1): consumed handles cannot be used again.
  for (unsigned I = 0; I < Op->getNumOperands(); ++I) {
    if (!isTransformHandleType(Op->getOperand(I).getType()))
      continue;
    if (State.isInvalidated(Op->getOperand(I)))
      return DiagnosedSilenceableFailure::definite(
          "op '" + std::string(Op->getName()) + "' uses a handle (operand " +
          std::to_string(I) +
          ") invalidated by a previously executed transform op");
  }

  // Mark consumed operands while payload nesting is still observable; the
  // mapping stays readable for this op's own Apply.
  for (unsigned Idx : Def->ConsumedOperands)
    if (Idx < Op->getNumOperands())
      State.consume(Op->getOperand(Idx));

  return Def->Apply(Op, *this);
}

FailureOr<std::vector<int64_t>>
TransformInterpreter::readIntParams(Operation *Op, std::string_view AttrName,
                                    unsigned FirstParamOperand) {
  if (ArrayAttr Attr = Op->getAttrOfType<ArrayAttr>(AttrName))
    return Attr.getAsIntegers();
  if (IntegerAttr Single = Op->getAttrOfType<IntegerAttr>(AttrName))
    return std::vector<int64_t>{Single.getValue()};
  // Otherwise read !transform.param operands.
  std::vector<int64_t> Values;
  for (unsigned I = FirstParamOperand; I < Op->getNumOperands(); ++I) {
    Value Operand = Op->getOperand(I);
    if (!Operand.getType().isa<TransformParamType>())
      continue;
    for (Attribute Attr : State.getParams(Operand)) {
      IntegerAttr Int = Attr.dyn_cast<IntegerAttr>();
      if (!Int)
        return failure();
      Values.push_back(Int.getValue());
    }
  }
  if (Values.empty())
    return failure();
  return Values;
}

LogicalResult tdl::applyTransforms(Operation *PayloadRoot, Operation *Script,
                                   TransformOptions Options) {
  TransformInterpreter Interpreter(PayloadRoot, Script, Options);
  return Interpreter.run();
}

//===----------------------------------------------------------------------===//
// Pipeline-to-script conversion (Case Study 1)
//===----------------------------------------------------------------------===//

OwningOpRef tdl::buildTransformScriptFromPipeline(Context &Ctx,
                                                  std::string_view Pipeline) {
  FailureOr<std::vector<PipelineElement>> Elements =
      parsePassPipeline(Ctx, Pipeline);
  if (failed(Elements))
    return OwningOpRef();

  Location Loc = Location::name("pipeline-script");
  OpBuilder B(Ctx);
  OperationState SeqState(Loc, "transform.named_sequence");
  SeqState.NumRegions = 1;
  SeqState.addAttribute("sym_name",
                        StringAttr::get(Ctx, "__transform_main"));
  Operation *Seq = Operation::create(Ctx, SeqState);
  Block *Body = Seq->getRegion(0).addBlock();
  Value Root = Body->addArgument(TransformAnyOpType::get(Ctx));
  B.setInsertionPointToEnd(Body);

  Value Current = Root;
  for (const PipelineElement &Element : *Elements) {
    OperationState ApplyState(Loc, "transform.apply_registered_pass");
    ApplyState.Operands = {Current};
    ApplyState.ResultTypes = {TransformAnyOpType::get(Ctx)};
    ApplyState.addAttribute("pass_name",
                            StringAttr::get(Ctx, Element.PassName));
    if (!Element.Anchor.empty())
      ApplyState.addAttribute("anchor", StringAttr::get(Ctx, Element.Anchor));
    if (!Element.Options.empty())
      ApplyState.addAttribute("options",
                              StringAttr::get(Ctx, Element.Options));
    Current = B.create(ApplyState)->getResult(0);
  }
  OperationState YieldState(Loc, "transform.yield");
  B.create(YieldState);
  return OwningOpRef(Seq);
}
