//===- Conditions.cpp - Pre-/post-conditions and IRDL-lite ----------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Conditions.h"

#include "pass/Pass.h"
#include "support/STLExtras.h"
#include "support/Stream.h"

using namespace tdl;

//===----------------------------------------------------------------------===//
// OpSetElement
//===----------------------------------------------------------------------===//

OpSetElement OpSetElement::parse(std::string_view Text) {
  OpSetElement Element;
  if (Text == "cast") {
    Element.Kind = ElementKind::Cast;
    Element.Name = "cast";
    return Element;
  }
  if (Text.substr(0, 10) == "interface:") {
    Element.Kind = ElementKind::Interface;
    Element.Name = std::string(Text.substr(10));
    return Element;
  }
  if (Text.size() > 2 && Text.substr(Text.size() - 2) == ".*") {
    Element.Kind = ElementKind::DialectWildcard;
    Element.Name = std::string(Text.substr(0, Text.size() - 2));
    return Element;
  }
  // "dialect.op.constraint" has two dots; "dialect.op" has one.
  size_t First = Text.find('.');
  size_t Second = First == std::string_view::npos
                      ? std::string_view::npos
                      : Text.find('.', First + 1);
  if (Second != std::string_view::npos) {
    Element.Kind = ElementKind::Constrained;
    Element.Name = std::string(Text.substr(0, Second));
    Element.Constraint = std::string(Text.substr(Second + 1));
    return Element;
  }
  Element.Kind = ElementKind::Exact;
  Element.Name = std::string(Text);
  return Element;
}

bool OpSetElement::matches(std::string_view AbstractName, Context *Ctx) const {
  switch (Kind) {
  case ElementKind::Cast:
    return AbstractName == "cast" ||
           AbstractName == "builtin.unrealized_conversion_cast";
  case ElementKind::Exact:
    return AbstractName == Name;
  case ElementKind::Constrained:
    return AbstractName == abstractName();
  case ElementKind::DialectWildcard: {
    if (AbstractName == "cast")
      return Name == "builtin";
    auto Dot = AbstractName.find('.');
    return AbstractName.substr(0, Dot) == Name;
  }
  case ElementKind::Interface: {
    if (!Ctx)
      return false;
    // Strip a constraint suffix if present for registry lookup.
    std::string Base(AbstractName);
    const OpInfo *Info = Ctx->lookupOpInfo(Base);
    if (!Info) {
      size_t Second = Base.find('.');
      if (Second != std::string::npos)
        Second = Base.find('.', Second + 1);
      if (Second != std::string::npos)
        Info = Ctx->lookupOpInfo(Base.substr(0, Second));
    }
    return Info && Info->Interfaces.count(Name);
  }
  }
  return false;
}

std::string OpSetElement::abstractName() const {
  switch (Kind) {
  case ElementKind::Cast:
    return "cast";
  case ElementKind::Constrained:
    return Name + "." + Constraint;
  default:
    return Name;
  }
}

std::string OpSetElement::str() const {
  switch (Kind) {
  case ElementKind::Cast:
    return "cast";
  case ElementKind::Interface:
    return "interface:" + Name;
  case ElementKind::DialectWildcard:
    return Name + ".*";
  case ElementKind::Constrained:
    return Name + "." + Constraint;
  case ElementKind::Exact:
    return Name;
  }
  return Name;
}

//===----------------------------------------------------------------------===//
// AbstractOpSet
//===----------------------------------------------------------------------===//

AbstractOpSet AbstractOpSet::fromPayload(Operation *Root) {
  AbstractOpSet Result;
  Root->walk([&](Operation *Op) {
    if (Op == Root)
      return;
    if (Op->getName() == "builtin.unrealized_conversion_cast")
      Result.add("cast");
    else
      Result.add(std::string(Op->getName()));
  });
  return Result;
}

AbstractOpSet AbstractOpSet::fromNames(std::vector<std::string> InitNames) {
  AbstractOpSet Result;
  for (std::string &Name : InitNames)
    Result.add(std::move(Name));
  return Result;
}

std::vector<std::string>
AbstractOpSet::removeMatching(const OpSetElement &Element, Context *Ctx) {
  std::vector<std::string> Removed;
  for (auto It = Names.begin(); It != Names.end();) {
    if (Element.matches(*It, Ctx)) {
      Removed.push_back(*It);
      It = Names.erase(It);
    } else {
      ++It;
    }
  }
  return Removed;
}

bool AbstractOpSet::anyMatching(const OpSetElement &Element,
                                Context *Ctx) const {
  for (const std::string &Name : Names)
    if (Element.matches(Name, Ctx))
      return true;
  return false;
}

std::string AbstractOpSet::str() const {
  return "{" + join(Names, ", ") + "}";
}

//===----------------------------------------------------------------------===//
// Static pipeline checking
//===----------------------------------------------------------------------===//

std::vector<PipelineCheckIssue>
tdl::checkLoweringPipeline(const std::vector<std::string> &PassNames,
                           AbstractOpSet Current,
                           const std::vector<std::string> &TargetSpec,
                           Context *Ctx) {
  std::vector<PipelineCheckIssue> Issues;
  // Provenance: which transform (or the input) introduced each name.
  std::map<std::string, std::string> IntroducedBy;
  for (const std::string &Name : Current.getNames())
    IntroducedBy[Name] = "<input program>";

  for (const std::string &PassName : PassNames) {
    const LoweringContract *Contract =
        ContractRegistry::instance().lookup(PassName);
    if (!Contract) {
      Issues.push_back({PassName, "transform '" + PassName +
                                      "' has no declared pre-/post-"
                                      "conditions; cannot check statically"});
      continue;
    }

    bool AnyPreMatched = false;
    for (const std::string &PreText : Contract->Pre) {
      OpSetElement Element = OpSetElement::parse(PreText);
      if (!Current.anyMatching(Element, Ctx)) {
        continue;
      }
      AnyPreMatched = true;
      if (!Contract->PreservesPre)
        Current.removeMatching(Element, Ctx);
    }
    if (Contract->PreMustExist && !AnyPreMatched) {
      Issues.push_back(
          {PassName,
           "phase-ordering violation: '" + PassName +
               "' requires ops matching {" + join(Contract->Pre, ", ") +
               "} but none can remain at this point in the pipeline"});
    }
    if (AnyPreMatched) {
      for (const std::string &PostText : Contract->Post) {
        OpSetElement Element = OpSetElement::parse(PostText);
        std::string Abstract = Element.abstractName();
        Current.add(Abstract);
        IntroducedBy.emplace(Abstract, PassName);
      }
    }
  }

  // Final state vs. target.
  std::vector<OpSetElement> Target;
  for (const std::string &Text : TargetSpec)
    Target.push_back(OpSetElement::parse(Text));
  for (const std::string &Name : Current.getNames()) {
    bool Covered = false;
    for (const OpSetElement &Element : Target)
      Covered |= Element.matches(Name, Ctx);
    if (Covered)
      continue;
    std::string Origin = IntroducedBy.count(Name) ? IntroducedBy[Name]
                                                  : "<unknown>";
    Issues.push_back(
        {"",
         "operation '" + Name + "' (introduced by " + Origin +
             ") survives the pipeline and does not match the target set {" +
             join(TargetSpec, ", ") + "}"});
  }
  return Issues;
}

std::string tdl::contractedPassNameFor(Operation *Op) {
  std::string_view Name = Op->getName();
  if (Name.substr(0, 10) != "transform.")
    return "";
  if (Name == "transform.apply_registered_pass")
    return std::string(Op->getStringAttr("pass_name"));
  // Dedicated lowering ops whose mangled spelling differs from the pass.
  if (Name == "transform.lower_scf_to_cf")
    return "convert-scf-to-cf";
  std::string PassName(Name.substr(10));
  for (char &C : PassName)
    if (C == '_')
      C = '-';
  return PassName;
}

std::vector<PipelineCheckIssue>
tdl::checkTransformScript(Operation *Script, AbstractOpSet Initial,
                          const std::vector<std::string> &TargetSpec) {
  // Collect contracted lowering transforms in sequence order. Typed handles
  // (Fig. 1a) sharpen the check: a contracted transform applied through an
  // `!transform.op<"X">` handle whose pre-condition can never match X is a
  // phase-ordering bug visible from the types alone.
  std::vector<std::string> PassNames;
  std::vector<PipelineCheckIssue> TypedIssues;
  Script->walkPre([&](Operation *Op) {
    std::string PassName = contractedPassNameFor(Op);
    if (PassName.empty())
      return WalkResult::Advance;
    const LoweringContract *Contract =
        ContractRegistry::instance().lookup(PassName);
    if (!Contract)
      return WalkResult::Advance;
    PassNames.push_back(PassName);
    if (Op->getNumOperands() >= 1) {
      TransformOpType Typed =
          Op->getOperand(0).getType().dyn_cast<TransformOpType>();
      if (Typed) {
        // Contracts describe ops anywhere in the target's subtree, so a
        // handle to a region-bearing container (func.func, scf.for, ...)
        // may still satisfy Pre through nested ops; only a handle to a
        // leaf op can be ruled out from its type alone. Unknown ops are
        // conservatively treated as containers. func.func deliberately
        // carries no OT_SingleBlock (its body may be a CFG), so
        // OT_IsolatedFromAbove stands in as the region-bearing signal.
        const OpInfo *Info =
            Script->getContext().lookupOpInfo(Typed.getOpName());
        bool MayContainNested = !Info || Info->hasTrait(OT_SingleBlock) ||
                                Info->hasTrait(OT_GraphRegion) ||
                                Info->hasTrait(OT_IsolatedFromAbove);
        bool AnyPreMatches = MayContainNested;
        for (const std::string &PreText : Contract->Pre)
          AnyPreMatches |= OpSetElement::parse(PreText).matches(
              Typed.getOpName(), &Script->getContext());
        if (!AnyPreMatches)
          TypedIssues.push_back(
              {PassName, "handle of type '" + Type(Typed).str() +
                             "' can never satisfy the pre-condition {" +
                             join(Contract->Pre, ", ") + "} of '" + PassName +
                             "'"});
      }
    }
    return WalkResult::Advance;
  });
  std::vector<PipelineCheckIssue> Issues = checkLoweringPipeline(
      PassNames, std::move(Initial), TargetSpec, &Script->getContext());
  Issues.insert(Issues.begin(), TypedIssues.begin(), TypedIssues.end());
  return Issues;
}

//===----------------------------------------------------------------------===//
// IRDL-lite
//===----------------------------------------------------------------------===//

IRDLRegistry &IRDLRegistry::instance() {
  static IRDLRegistry Registry;
  return Registry;
}

void IRDLRegistry::define(IRDLOpDefinition Def) {
  Defs[Def.pseudoName()] = std::move(Def);
}

const IRDLOpDefinition *IRDLRegistry::lookup(std::string_view Name) const {
  auto It = Defs.find(Name);
  return It == Defs.end() ? nullptr : &It->second;
}

LogicalResult IRDLRegistry::verify(std::string_view PseudoName,
                                   Operation *Op) const {
  const IRDLOpDefinition *Def = lookup(PseudoName);
  if (!Def)
    return success();
  if (Op->getName() != Def->OpName)
    return Op->emitOpError()
           << "does not match IRDL definition for '" << Def->OpName << "'";

  int64_t MinOperands = 0, MaxOperands = 0;
  bool Unbounded = false;
  for (const IRDLOperandGroup &Group : Def->OperandGroups) {
    MinOperands += Group.Min;
    if (Group.Max < 0)
      Unbounded = true;
    else
      MaxOperands += Group.Max;
  }
  int64_t NumOperands = Op->getNumOperands();
  if (NumOperands < MinOperands || (!Unbounded && NumOperands > MaxOperands))
    return Op->emitOpError()
           << "violates IRDL operand cardinality of '" << Def->pseudoName()
           << "': expected between " << MinOperands << " and "
           << (Unbounded ? std::string("inf") : std::to_string(MaxOperands))
           << " operands, got " << NumOperands;

  for (const IRDLAttrSpec &Attr : Def->Attributes)
    if (Attr.Required && !Op->hasAttr(Attr.Name))
      return Op->emitOpError()
             << "missing attribute '" << Attr.Name << "' required by IRDL "
             << "definition '" << Def->pseudoName() << "'";

  int64_t NumResults = Op->getNumResults();
  if (Def->MinResults >= 0 && NumResults < Def->MinResults)
    return Op->emitOpError() << "too few results for IRDL definition";
  if (Def->MaxResults >= 0 && NumResults > Def->MaxResults)
    return Op->emitOpError() << "too many results for IRDL definition";

  if (Def->CppConstraint)
    return Def->CppConstraint(Op);
  return success();
}

void tdl::registerBuiltinIRDLConstraints() {
  IRDLRegistry &Registry = IRDLRegistry::instance();

  // Fig. 3: the constrained copy of memref.subview whose offset/sizes/
  // strides operand groups have cardinality zero (trivial flat access).
  IRDLOpDefinition SubView;
  SubView.OpName = "memref.subview";
  SubView.ConstraintName = "constr";
  SubView.Attributes = {{"static_offsets", true},
                        {"static_sizes", true},
                        {"static_strides", true}};
  SubView.OperandGroups = {{"input", 1, 1},
                           {"offset", 0, 0},
                           {"sizes", 0, 0},
                           {"strides", 0, 0}};
  SubView.MinResults = 1;
  SubView.MaxResults = 1;
  Registry.define(SubView);

  IRDLOpDefinition Meta;
  Meta.OpName = "memref.extract_strided_metadata";
  Meta.ConstraintName = "constr";
  Meta.OperandGroups = {{"input", 1, 1}};
  Registry.define(Meta);

  IRDLOpDefinition Ptr;
  Ptr.OpName = "memref.extract_aligned_pointer_as_index";
  Ptr.ConstraintName = "constr";
  Ptr.OperandGroups = {{"input", 1, 1}};
  Ptr.MinResults = 1;
  Ptr.MaxResults = 1;
  Registry.define(Ptr);

  // The reinterpret_cast produced by expand-strided-metadata carries the
  // base plus a computed offset and passthrough dynamic sizes/strides.
  IRDLOpDefinition Rc;
  Rc.OpName = "memref.reinterpret_cast";
  Rc.ConstraintName = "constr";
  Rc.OperandGroups = {{"input", 1, 1}, {"offset", 0, 1}, {"rest", 0, -1}};
  Rc.MinResults = 1;
  Rc.MaxResults = 1;
  Registry.define(Rc);
}

//===----------------------------------------------------------------------===//
// Dynamic contract checking
//===----------------------------------------------------------------------===//

FailureOr<std::string>
tdl::runPassWithDynamicContractCheck(std::string_view PassName,
                                     const LoweringContract &Contract,
                                     Operation *Target,
                                     std::string_view Anchor) {
  Context *Ctx = &Target->getContext();
  AbstractOpSet Before = AbstractOpSet::fromPayload(Target);

  if (failed(runRegisteredPass(PassName, Target, "", Anchor)))
    return failure();

  AbstractOpSet After = AbstractOpSet::fromPayload(Target);

  // 1. Removed ops must be gone (unless the contract preserves them).
  if (!Contract.PreservesPre) {
    for (const std::string &PreText : Contract.Pre) {
      OpSetElement Element = OpSetElement::parse(PreText);
      if (Element.Kind == OpSetElement::ElementKind::Constrained)
        continue; // constrained names do not appear as plain payload names
      if (After.anyMatching(Element, Ctx))
        return std::string("ops matching pre-condition '") + Element.str() +
               "' survive the transform";
    }
  }

  // 2. Newly introduced op kinds must be covered by the post-condition.
  std::vector<OpSetElement> Post;
  for (const std::string &PostText : Contract.Post)
    Post.push_back(OpSetElement::parse(PostText));
  for (const std::string &Name : After.getNames()) {
    if (Before.contains(Name))
      continue;
    bool Covered = false;
    for (const OpSetElement &Element : Post) {
      if (Element.Kind == OpSetElement::ElementKind::Constrained) {
        // Base-name coverage; constraint verified in step 3.
        if (Name == Element.Name)
          Covered = true;
      } else if (Element.matches(Name, Ctx)) {
        Covered = true;
      }
    }
    if (!Covered)
      return std::string("op '") + Name +
             "' introduced but not declared in the post-condition";
  }

  // 3. Constrained post-ops must satisfy their generated IRDL verifiers.
  for (const OpSetElement &Element : Post) {
    if (Element.Kind != OpSetElement::ElementKind::Constrained)
      continue;
    std::string Violation;
    Target->walk([&](Operation *Op) {
      if (!Violation.empty() || Op->getName() != Element.Name)
        return;
      ScopedDiagnosticCapture Capture(Ctx->getDiagEngine());
      if (failed(IRDLRegistry::instance().verify(Element.abstractName(), Op)))
        Violation = Capture.allMessages();
    });
    if (!Violation.empty())
      return Violation;
  }

  return std::string();
}
