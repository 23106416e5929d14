//===- Affine.h - Affine expressions and maps -------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Uniqued affine expressions and affine maps, used by the `affine` dialect
/// (`affine.apply`, `affine.min`) and by `expand-strided-metadata`, which is
/// the transform whose leaked `affine.apply` drives the paper's Case Study 2.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_IR_AFFINE_H
#define TDL_IR_AFFINE_H

#include "support/STLExtras.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace tdl {

class Context;
class raw_ostream;

/// Expression node kinds. Binary nodes store Lhs/Rhs; leaves store a
/// position (dim/symbol) or a value (constant).
enum class AffineExprKind : uint8_t {
  DimId,
  SymbolId,
  Constant,
  Add,
  Mul,
  Mod,
  FloorDiv,
  CeilDiv,
};

struct AffineExprStorage;
class AffineExpr;

/// Storage node for affine expressions. Defined here so the Context can own
/// pools of them; treat as an implementation detail.
struct AffineMapStorage;

/// Value handle over a uniqued affine expression tree.
class AffineExpr {
public:
  AffineExpr() = default;
  explicit AffineExpr(const AffineExprStorage *Impl) : Impl(Impl) {}

  explicit operator bool() const { return Impl != nullptr; }
  bool operator==(const AffineExpr &O) const { return Impl == O.Impl; }
  bool operator!=(const AffineExpr &O) const { return Impl != O.Impl; }

  AffineExprKind getKind() const;
  Context *getContext() const;

  /// Leaf accessors; assert on wrong kind.
  unsigned getPosition() const;
  int64_t getValue() const;
  AffineExpr getLHS() const;
  AffineExpr getRHS() const;

  /// Arithmetic with local simplification (constant folding, neutral
  /// elements). Subtraction is expressed as addition of a -1 multiple.
  AffineExpr operator+(AffineExpr Rhs) const;
  AffineExpr operator+(int64_t Rhs) const;
  AffineExpr operator-(AffineExpr Rhs) const;
  AffineExpr operator-(int64_t Rhs) const;
  AffineExpr operator*(AffineExpr Rhs) const;
  AffineExpr operator*(int64_t Rhs) const;
  AffineExpr floorDiv(int64_t Rhs) const;
  AffineExpr ceilDiv(int64_t Rhs) const;
  AffineExpr operator%(int64_t Rhs) const;

  /// Evaluates the expression with concrete dim and symbol values.
  int64_t evaluate(ArrayRef<int64_t> Dims, ArrayRef<int64_t> Symbols) const;

  /// True if the expression is a plain constant.
  bool isConstant() const { return getKind() == AffineExprKind::Constant; }

  void print(raw_ostream &OS) const;
  std::string str() const;

  /// Structural hash, equal for equal expressions in any Context and build.
  uint64_t getHash() const;

  const AffineExprStorage *getImpl() const { return Impl; }

private:
  const AffineExprStorage *Impl = nullptr;
};

AffineExpr getAffineDimExpr(Context &Ctx, unsigned Position);
AffineExpr getAffineSymbolExpr(Context &Ctx, unsigned Position);
AffineExpr getAffineConstantExpr(Context &Ctx, int64_t Value);
AffineExpr getAffineBinaryExpr(AffineExprKind Kind, AffineExpr Lhs,
                               AffineExpr Rhs);

struct AffineMapStorage;

/// A uniqued multi-result affine map `(d0, ..)[s0, ..] -> (e0, ..)`.
class AffineMap {
public:
  AffineMap() = default;
  explicit AffineMap(const AffineMapStorage *Impl) : Impl(Impl) {}

  static AffineMap get(Context &Ctx, unsigned NumDims, unsigned NumSymbols,
                       std::vector<AffineExpr> Results);
  /// The d-dimensional identity map.
  static AffineMap getIdentity(Context &Ctx, unsigned NumDims);

  explicit operator bool() const { return Impl != nullptr; }
  bool operator==(const AffineMap &O) const { return Impl == O.Impl; }
  bool operator!=(const AffineMap &O) const { return Impl != O.Impl; }

  unsigned getNumDims() const;
  unsigned getNumSymbols() const;
  unsigned getNumInputs() const { return getNumDims() + getNumSymbols(); }
  const std::vector<AffineExpr> &getResults() const;
  AffineExpr getResult(unsigned Idx) const;
  unsigned getNumResults() const;
  Context *getContext() const;

  /// Evaluates all results given concatenated dim-then-symbol operands.
  std::vector<int64_t> evaluate(ArrayRef<int64_t> Operands) const;
  /// The same into \p Results, which holds getNumResults() values; allocates
  /// nothing, so the executor can evaluate into per-frame scratch.
  void evaluate(ArrayRef<int64_t> Operands, int64_t *Results) const;

  void print(raw_ostream &OS) const;
  std::string str() const;

  /// Structural hash, equal for equal maps in any Context and build.
  uint64_t getHash() const;

  const AffineMapStorage *getImpl() const { return Impl; }

private:
  const AffineMapStorage *Impl = nullptr;
};

inline raw_ostream &operator<<(raw_ostream &OS, AffineExpr Expr) {
  Expr.print(OS);
  return OS;
}
inline raw_ostream &operator<<(raw_ostream &OS, AffineMap Map) {
  Map.print(OS);
  return OS;
}

/// Storage definitions, uniqued by the Context (see StorageUniquer.h); do
/// not use directly. Hash is the stable structural hash (kind, leaf value or
/// position, operand hashes; AffineExprKind values feed it, so append new
/// kinds, never reorder), computed from the parameters before the lookup.
struct AffineExprStorage {
  /// The parameters: a leaf's value or position, a binary node's operands.
  struct KeyTy {
    AffineExprKind Kind = AffineExprKind::Constant;
    int64_t Value = 0;     // Constant
    unsigned Position = 0; // DimId / SymbolId
    AffineExpr Lhs;
    AffineExpr Rhs;
  };
  static uint64_t hashKey(const KeyTy &Key);
  bool operator==(const KeyTy &Key) const;
  AffineExprStorage(Context *Ctx, const KeyTy &Key, uint64_t Hash)
      : Kind(Key.Kind), Ctx(Ctx), Value(Key.Value), Position(Key.Position),
        Lhs(Key.Lhs), Rhs(Key.Rhs), Hash(Hash) {}

  AffineExprKind Kind;
  Context *Ctx;
  int64_t Value;
  unsigned Position;
  AffineExpr Lhs;
  AffineExpr Rhs;
  uint64_t Hash;
};

struct AffineMapStorage {
  struct KeyTy {
    unsigned NumDims;
    unsigned NumSymbols;
    const std::vector<AffineExpr> &Results;
  };
  static uint64_t hashKey(const KeyTy &Key);
  bool operator==(const KeyTy &Key) const {
    return NumDims == Key.NumDims && NumSymbols == Key.NumSymbols &&
           Results == Key.Results;
  }
  AffineMapStorage(Context *Ctx, const KeyTy &Key, uint64_t Hash)
      : Ctx(Ctx), NumDims(Key.NumDims), NumSymbols(Key.NumSymbols),
        Results(Key.Results), Hash(Hash) {}

  Context *Ctx;
  unsigned NumDims;
  unsigned NumSymbols;
  std::vector<AffineExpr> Results;
  uint64_t Hash;
};

} // namespace tdl

#endif // TDL_IR_AFFINE_H
