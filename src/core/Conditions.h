//===- Conditions.h - Pre-/post-conditions and IRDL-lite --------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.3 of the paper: composability via pre-/post-conditions.
///
///  * `OpSetElement` is the condition language: exact op names, dialect
///    wildcards (`scf.*`), IRDL-constrained pseudo-ops
///    (`memref.subview.constr`, Figs. 3-4), interface references
///    (`interface:MemoryAlloc`) and the special `cast` element.
///  * `checkLoweringPipeline` is the static checking tool: abstract
///    interpretation of a transform pipeline over op-name sets, detecting
///    leftover ops (the `affine.apply` leak of Case Study 2 / Table 2) and
///    phase-ordering violations.
///  * `IRDLRegistry` holds IRDL-lite op definitions whose generated
///    verifiers back the dynamic pre-/post-condition checks.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_CORE_CONDITIONS_H
#define TDL_CORE_CONDITIONS_H

#include "ir/IR.h"
#include "lowering/Passes.h"
#include "support/LogicalResult.h"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace tdl {

//===----------------------------------------------------------------------===//
// Op-set condition language
//===----------------------------------------------------------------------===//

struct OpSetElement {
  enum class ElementKind {
    Exact,           // "cf.br"
    DialectWildcard, // "scf.*"
    Constrained,     // "memref.subview.constr"
    Interface,       // "interface:MemoryAlloc"
    Cast,            // "cast" (builtin.unrealized_conversion_cast)
  };

  ElementKind Kind = ElementKind::Exact;
  /// Op name (Exact/Constrained), dialect (DialectWildcard), or interface
  /// name (Interface). Constrained stores the base op name, with the
  /// constraint suffix in `Constraint`.
  std::string Name;
  std::string Constraint;

  /// Parses an element from its textual spelling.
  static OpSetElement parse(std::string_view Text);

  /// Abstract matching against an abstract op name (which may itself carry
  /// a ".constr"-style suffix). Interface elements resolve through \p Ctx.
  bool matches(std::string_view AbstractName, Context *Ctx = nullptr) const;

  /// The abstract name this element contributes when it appears in a
  /// post-condition.
  std::string abstractName() const;

  std::string str() const;
};

/// Parses the `op_names` / `op_name` attribute spelling shared by
/// `transform.match.operation_name`, the foreach_match prefilter, and the
/// static type checker. Fails when an `op_names` entry is not a string;
/// leaves \p Elements empty when neither attribute is present. (Defined in
/// TransformOps.cpp next to the ops that carry the attributes.)
LogicalResult parseTransformOpNameElements(Operation *Op,
                                           std::vector<OpSetElement> &Elements);

/// An abstract set of op names, the domain of the static checker.
class AbstractOpSet {
public:
  static AbstractOpSet fromPayload(Operation *Root);
  static AbstractOpSet fromNames(std::vector<std::string> Names);

  void add(std::string Name) { Names.insert(std::move(Name)); }
  bool contains(std::string_view Name) const {
    return Names.count(std::string(Name)) != 0;
  }
  bool empty() const { return Names.empty(); }
  const std::set<std::string> &getNames() const { return Names; }

  /// Removes every name matched by \p Element; returns the removed names.
  std::vector<std::string> removeMatching(const OpSetElement &Element,
                                          Context *Ctx = nullptr);
  bool anyMatching(const OpSetElement &Element, Context *Ctx = nullptr) const;

  std::string str() const;

private:
  std::set<std::string> Names;
};

//===----------------------------------------------------------------------===//
// Static pipeline checking (the prototype tool of Section 3.3)
//===----------------------------------------------------------------------===//

struct PipelineCheckIssue {
  /// The transform at fault ("" for final-state issues).
  std::string TransformName;
  std::string Message;
};

/// Abstractly interprets the contracts of \p PassNames over \p Initial and
/// checks the final abstract state against \p TargetSpec (e.g. {"llvm.*"}).
/// Returns all detected issues (empty = pipeline statically sound). Each
/// leftover op is attributed to the transform that introduced it.
std::vector<PipelineCheckIssue>
checkLoweringPipeline(const std::vector<std::string> &PassNames,
                      AbstractOpSet Initial,
                      const std::vector<std::string> &TargetSpec,
                      Context *Ctx = nullptr);

/// Maps a transform op to the name of the registered pass it applies:
/// the `pass_name` attribute of `transform.apply_registered_pass`, the
/// dedicated-op aliases (`transform.lower_scf_to_cf` applies
/// "convert-scf-to-cf"), or the op's own mangled name
/// (`transform.expand_forall` -> "expand-forall"). Returns "" for
/// non-transform ops; for transform ops that apply no pass the mangled
/// name simply misses every registry, so callers filter by lookup.
std::string contractedPassNameFor(Operation *Op);

/// Runs the same check over a transform script: collects the contracted
/// `transform.<pass>` ops of the entry sequence in order. Additionally uses
/// statically typed handles: a contracted transform applied through an
/// `!transform.op<"X">` handle whose pre-condition cannot match X is
/// reported without interpreting anything.
std::vector<PipelineCheckIssue>
checkTransformScript(Operation *Script, AbstractOpSet Initial,
                     const std::vector<std::string> &TargetSpec);

//===----------------------------------------------------------------------===//
// IRDL-lite (Figs. 3-4)
//===----------------------------------------------------------------------===//

/// Cardinality-constrained operand group (`Variadic<!index, 0>` in Fig. 3
/// is a group with Min = Max = 0).
struct IRDLOperandGroup {
  std::string Name;
  int Min = 0;
  int Max = -1; // -1 = unbounded
};

struct IRDLAttrSpec {
  std::string Name;
  bool Required = true;
};

/// Declarative definition of a (possibly constrained copy of an) operation.
struct IRDLOpDefinition {
  /// Base op name, e.g. "memref.subview".
  std::string OpName;
  /// Constraint tag; non-empty for constrained pseudo-ops ("constr").
  std::string ConstraintName;
  std::vector<IRDLAttrSpec> Attributes;
  std::vector<IRDLOperandGroup> OperandGroups;
  int MinResults = -1; // -1 = unchecked
  int MaxResults = -1;
  /// Escape hatch mirroring Fig. 3's `CPPConstraint`.
  std::function<LogicalResult(Operation *)> CppConstraint;

  /// "memref.subview.constr" or plain "memref.subview".
  std::string pseudoName() const {
    return ConstraintName.empty() ? OpName : OpName + "." + ConstraintName;
  }
};

/// Registry of IRDL-lite definitions with generated verifiers.
class IRDLRegistry {
public:
  static IRDLRegistry &instance();

  void define(IRDLOpDefinition Def);
  const IRDLOpDefinition *lookup(std::string_view PseudoName) const;

  /// Generated verifier: checks \p Op against the definition registered for
  /// \p PseudoName. Succeeds trivially when no definition exists.
  LogicalResult verify(std::string_view PseudoName, Operation *Op) const;

private:
  std::map<std::string, IRDLOpDefinition, std::less<>> Defs;
};

/// Registers the built-in constrained pseudo-ops used by the memref
/// lowering contracts (Fig. 3-4): `memref.subview.constr` etc.
void registerBuiltinIRDLConstraints();

//===----------------------------------------------------------------------===//
// Dynamic contract checking (Section 3.3, last part)
//===----------------------------------------------------------------------===//

/// Runs pass \p PassName on \p Target, then dynamically verifies the
/// contract: ops matching Pre must be gone, newly introduced op kinds must
/// be covered by Post, and constrained post-ops must satisfy their IRDL
/// verifier. Returns failure when the pass itself fails; otherwise returns
/// the violation message ("" when the contract holds). \p Anchor is the
/// pipeline anchor, as for runRegisteredPass.
FailureOr<std::string>
runPassWithDynamicContractCheck(std::string_view PassName,
                                const LoweringContract &Contract,
                                Operation *Target,
                                std::string_view Anchor = "");

} // namespace tdl

#endif // TDL_CORE_CONDITIONS_H
