//===- Passes.h - Lowering passes and contracts ------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registration of all compiler passes (lowerings, canonicalization, the
/// TOSA pipeline of Case Study 1) plus the pre-/post-condition contracts of
/// lowering transforms (Table 2 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef TDL_LOWERING_PASSES_H
#define TDL_LOWERING_PASSES_H

#include "ir/IR.h"
#include "support/LogicalResult.h"

#include <map>
#include <string>
#include <vector>

namespace tdl {

/// Registers every pass in the global PassRegistry. Idempotent.
void registerAllPasses();

/// A pre-/post-condition contract of a lowering transform (Section 3.3).
/// Set elements are op patterns: exact names ("cf.br"), dialect wildcards
/// ("scf.*"), IRDL-constrained pseudo-ops ("memref.subview.constr"), the
/// special "cast" element (unrealized_conversion_cast), or interface
/// references ("interface:MemoryAlloc").
struct LoweringContract {
  std::vector<std::string> Pre;
  std::vector<std::string> Post;
  /// When true, the static checker reports an error if no op in the current
  /// abstract set matches Pre (e.g. loop transforms require scf loops to
  /// still exist — the phase-ordering check of Section 3.3).
  bool PreMustExist = false;
  /// When false (lowering semantics), matching ops are removed from the
  /// abstract set; when true the transform only reads them (e.g. tiling
  /// keeps scf.for present).
  bool PreservesPre = false;
};

/// Registry of contracts keyed by pass / lowering-transform name.
class ContractRegistry {
public:
  static ContractRegistry &instance();

  void registerContract(std::string PassName, LoweringContract Contract);
  const LoweringContract *lookup(std::string_view PassName) const;
  std::vector<std::string> getContractedPasses() const;

private:
  std::map<std::string, LoweringContract, std::less<>> Contracts;
};

/// Expands every `scf.forall` under \p Root into nested `scf.for` loops.
LogicalResult expandForallToFor(Operation *Root);

/// Lowers all structured control flow under \p Func to cf branches.
LogicalResult convertScfToCf(Operation *Func);

/// Expands every `arith.floordivsi` / `arith.ceildivsi` under \p Root into a
/// sign-correct divsi/muli/cmpi/select sequence. llvm.sdiv truncates toward
/// zero, so mapping the rounding divisions onto it directly is wrong for
/// operands of mixed sign; convert-arith-to-llvm runs this first.
LogicalResult expandFloorCeilDivOps(Operation *Root);

/// Runs the named registered pass on \p Target directly (no pass manager).
/// A non-empty \p Anchor is a pipeline anchor (`func.func(pass)`): it
/// overrides the registered one, so the pass runs on each op named \p Anchor
/// at or under \p Target, exactly as buildPassManager's nested elements do.
LogicalResult runRegisteredPass(std::string_view Name, Operation *Target,
                                std::string_view Options = "",
                                std::string_view Anchor = "");

} // namespace tdl

#endif // TDL_LOWERING_PASSES_H
