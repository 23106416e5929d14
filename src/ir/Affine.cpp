//===- Affine.cpp - Affine expressions and maps ----------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Affine.h"

#include "ir/Context.h"
#include "support/Hashing.h"
#include "support/Stream.h"

using namespace tdl;

//===----------------------------------------------------------------------===//
// AffineExpr accessors
//===----------------------------------------------------------------------===//

AffineExprKind AffineExpr::getKind() const { return Impl->Kind; }
Context *AffineExpr::getContext() const { return Impl->Ctx; }

unsigned AffineExpr::getPosition() const {
  assert((getKind() == AffineExprKind::DimId ||
          getKind() == AffineExprKind::SymbolId) &&
         "not a dim/symbol expression");
  return Impl->Position;
}

int64_t AffineExpr::getValue() const {
  assert(getKind() == AffineExprKind::Constant && "not a constant expression");
  return Impl->Value;
}

AffineExpr AffineExpr::getLHS() const { return Impl->Lhs; }
AffineExpr AffineExpr::getRHS() const { return Impl->Rhs; }
uint64_t AffineExpr::getHash() const { return Impl->Hash; }

//===----------------------------------------------------------------------===//
// Construction with simplification
//===----------------------------------------------------------------------===//

uint64_t AffineExprStorage::hashKey(const KeyTy &Key) {
  return StableHasher()
      .add(0x6166650000000000ull | static_cast<uint64_t>(Key.Kind)) // "afe"
      .add(static_cast<uint64_t>(Key.Value))
      .add(Key.Position)
      .add(Key.Lhs ? Key.Lhs.getHash() : 0)
      .add(Key.Rhs ? Key.Rhs.getHash() : 0)
      .get();
}

bool AffineExprStorage::operator==(const KeyTy &Key) const {
  return Kind == Key.Kind && Value == Key.Value && Position == Key.Position &&
         Lhs == Key.Lhs && Rhs == Key.Rhs;
}

static AffineExpr uniqueExpr(Context &Ctx, const AffineExprStorage::KeyTy &Key) {
  return AffineExpr(Ctx.getStorage<AffineExprStorage>(Key));
}

AffineExpr tdl::getAffineDimExpr(Context &Ctx, unsigned Position) {
  AffineExprStorage::KeyTy Key;
  Key.Kind = AffineExprKind::DimId;
  Key.Position = Position;
  return uniqueExpr(Ctx, Key);
}

AffineExpr tdl::getAffineSymbolExpr(Context &Ctx, unsigned Position) {
  AffineExprStorage::KeyTy Key;
  Key.Kind = AffineExprKind::SymbolId;
  Key.Position = Position;
  return uniqueExpr(Ctx, Key);
}

AffineExpr tdl::getAffineConstantExpr(Context &Ctx, int64_t Value) {
  AffineExprStorage::KeyTy Key;
  Key.Kind = AffineExprKind::Constant;
  Key.Value = Value;
  return uniqueExpr(Ctx, Key);
}

/// Floor division with mathematically correct handling of negatives.
static int64_t floorDivide(int64_t Lhs, int64_t Rhs) {
  int64_t Quotient = Lhs / Rhs;
  if ((Lhs % Rhs) != 0 && ((Lhs < 0) != (Rhs < 0)))
    --Quotient;
  return Quotient;
}

static int64_t ceilDivide(int64_t Lhs, int64_t Rhs) {
  return -floorDivide(-Lhs, Rhs);
}

static int64_t euclideanMod(int64_t Lhs, int64_t Rhs) {
  int64_t Result = Lhs % Rhs;
  if (Result < 0)
    Result += (Rhs < 0 ? -Rhs : Rhs);
  return Result;
}

AffineExpr tdl::getAffineBinaryExpr(AffineExprKind Kind, AffineExpr Lhs,
                                    AffineExpr Rhs) {
  assert(Lhs && Rhs && "null affine operand");
  Context &Ctx = *Lhs.getContext();

  // Constant folding.
  if (Lhs.isConstant() && Rhs.isConstant()) {
    int64_t L = Lhs.getValue(), R = Rhs.getValue();
    switch (Kind) {
    case AffineExprKind::Add:
      return getAffineConstantExpr(Ctx, L + R);
    case AffineExprKind::Mul:
      return getAffineConstantExpr(Ctx, L * R);
    case AffineExprKind::Mod:
      assert(R > 0 && "mod by non-positive constant");
      return getAffineConstantExpr(Ctx, euclideanMod(L, R));
    case AffineExprKind::FloorDiv:
      assert(R != 0 && "division by zero");
      return getAffineConstantExpr(Ctx, floorDivide(L, R));
    case AffineExprKind::CeilDiv:
      assert(R != 0 && "division by zero");
      return getAffineConstantExpr(Ctx, ceilDivide(L, R));
    default:
      break;
    }
  }

  // Neutral / absorbing elements.
  if (Rhs.isConstant()) {
    int64_t R = Rhs.getValue();
    if (Kind == AffineExprKind::Add && R == 0)
      return Lhs;
    if (Kind == AffineExprKind::Mul && R == 1)
      return Lhs;
    if (Kind == AffineExprKind::Mul && R == 0)
      return Rhs;
    if ((Kind == AffineExprKind::FloorDiv || Kind == AffineExprKind::CeilDiv) &&
        R == 1)
      return Lhs;
    if (Kind == AffineExprKind::Mod && R == 1)
      return getAffineConstantExpr(Ctx, 0);
  }
  if (Lhs.isConstant()) {
    int64_t L = Lhs.getValue();
    if (Kind == AffineExprKind::Add && L == 0)
      return Rhs;
    if (Kind == AffineExprKind::Mul && L == 1)
      return Rhs;
    if (Kind == AffineExprKind::Mul && L == 0)
      return Lhs;
  }

  AffineExprStorage::KeyTy Key;
  Key.Kind = Kind;
  Key.Lhs = Lhs;
  Key.Rhs = Rhs;
  return uniqueExpr(Ctx, Key);
}

AffineExpr AffineExpr::operator+(AffineExpr Rhs) const {
  return getAffineBinaryExpr(AffineExprKind::Add, *this, Rhs);
}
AffineExpr AffineExpr::operator+(int64_t Rhs) const {
  return *this + getAffineConstantExpr(*getContext(), Rhs);
}
AffineExpr AffineExpr::operator-(AffineExpr Rhs) const {
  return *this + (Rhs * -1);
}
AffineExpr AffineExpr::operator-(int64_t Rhs) const { return *this + (-Rhs); }
AffineExpr AffineExpr::operator*(AffineExpr Rhs) const {
  return getAffineBinaryExpr(AffineExprKind::Mul, *this, Rhs);
}
AffineExpr AffineExpr::operator*(int64_t Rhs) const {
  return *this * getAffineConstantExpr(*getContext(), Rhs);
}
AffineExpr AffineExpr::floorDiv(int64_t Rhs) const {
  return getAffineBinaryExpr(AffineExprKind::FloorDiv, *this,
                             getAffineConstantExpr(*getContext(), Rhs));
}
AffineExpr AffineExpr::ceilDiv(int64_t Rhs) const {
  return getAffineBinaryExpr(AffineExprKind::CeilDiv, *this,
                             getAffineConstantExpr(*getContext(), Rhs));
}
AffineExpr AffineExpr::operator%(int64_t Rhs) const {
  return getAffineBinaryExpr(AffineExprKind::Mod, *this,
                             getAffineConstantExpr(*getContext(), Rhs));
}

int64_t AffineExpr::evaluate(const std::vector<int64_t> &Dims,
                             const std::vector<int64_t> &Symbols) const {
  switch (getKind()) {
  case AffineExprKind::DimId:
    assert(getPosition() < Dims.size() && "dim index out of range");
    return Dims[getPosition()];
  case AffineExprKind::SymbolId:
    assert(getPosition() < Symbols.size() && "symbol index out of range");
    return Symbols[getPosition()];
  case AffineExprKind::Constant:
    return getValue();
  case AffineExprKind::Add:
    return getLHS().evaluate(Dims, Symbols) + getRHS().evaluate(Dims, Symbols);
  case AffineExprKind::Mul:
    return getLHS().evaluate(Dims, Symbols) * getRHS().evaluate(Dims, Symbols);
  case AffineExprKind::Mod:
    return euclideanMod(getLHS().evaluate(Dims, Symbols),
                        getRHS().evaluate(Dims, Symbols));
  case AffineExprKind::FloorDiv:
    return floorDivide(getLHS().evaluate(Dims, Symbols),
                       getRHS().evaluate(Dims, Symbols));
  case AffineExprKind::CeilDiv:
    return ceilDivide(getLHS().evaluate(Dims, Symbols),
                      getRHS().evaluate(Dims, Symbols));
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

static unsigned precedence(AffineExprKind Kind) {
  switch (Kind) {
  case AffineExprKind::Add:
    return 1;
  case AffineExprKind::Mul:
  case AffineExprKind::Mod:
  case AffineExprKind::FloorDiv:
  case AffineExprKind::CeilDiv:
    return 2;
  default:
    return 3;
  }
}

static void printExpr(raw_ostream &OS, AffineExpr Expr, unsigned ParentPrec) {
  unsigned Prec = precedence(Expr.getKind());
  switch (Expr.getKind()) {
  case AffineExprKind::DimId:
    OS << 'd' << Expr.getPosition();
    return;
  case AffineExprKind::SymbolId:
    OS << 's' << Expr.getPosition();
    return;
  case AffineExprKind::Constant:
    OS << Expr.getValue();
    return;
  default:
    break;
  }
  const char *OpText = "";
  switch (Expr.getKind()) {
  case AffineExprKind::Add:
    OpText = " + ";
    break;
  case AffineExprKind::Mul:
    OpText = " * ";
    break;
  case AffineExprKind::Mod:
    OpText = " mod ";
    break;
  case AffineExprKind::FloorDiv:
    OpText = " floordiv ";
    break;
  case AffineExprKind::CeilDiv:
    OpText = " ceildiv ";
    break;
  default:
    break;
  }
  bool NeedParens = Prec < ParentPrec;
  if (NeedParens)
    OS << '(';
  printExpr(OS, Expr.getLHS(), Prec);
  OS << OpText;
  printExpr(OS, Expr.getRHS(), Prec + 1);
  if (NeedParens)
    OS << ')';
}

void AffineExpr::print(raw_ostream &OS) const { printExpr(OS, *this, 0); }

std::string AffineExpr::str() const {
  std::string Result;
  raw_string_ostream Stream(Result);
  print(Stream);
  return Result;
}

//===----------------------------------------------------------------------===//
// AffineMap
//===----------------------------------------------------------------------===//

uint64_t AffineMapStorage::hashKey(const KeyTy &Key) {
  StableHasher H;
  H.add(0x61666d0000000000ull) // "afm"
      .add(Key.NumDims)
      .add(Key.NumSymbols)
      .add(Key.Results.size());
  for (AffineExpr Expr : Key.Results)
    H.add(Expr.getHash());
  return H.get();
}

AffineMap AffineMap::get(Context &Ctx, unsigned NumDims, unsigned NumSymbols,
                         std::vector<AffineExpr> Results) {
  return AffineMap(
      Ctx.getStorage<AffineMapStorage>({NumDims, NumSymbols, Results}));
}

AffineMap AffineMap::getIdentity(Context &Ctx, unsigned NumDims) {
  std::vector<AffineExpr> Results;
  for (unsigned I = 0; I < NumDims; ++I)
    Results.push_back(getAffineDimExpr(Ctx, I));
  return get(Ctx, NumDims, 0, std::move(Results));
}

unsigned AffineMap::getNumDims() const { return Impl->NumDims; }
unsigned AffineMap::getNumSymbols() const { return Impl->NumSymbols; }
const std::vector<AffineExpr> &AffineMap::getResults() const {
  return Impl->Results;
}
AffineExpr AffineMap::getResult(unsigned Idx) const {
  return Impl->Results[Idx];
}
unsigned AffineMap::getNumResults() const { return Impl->Results.size(); }
Context *AffineMap::getContext() const { return Impl->Ctx; }
uint64_t AffineMap::getHash() const { return Impl->Hash; }

std::vector<int64_t>
AffineMap::evaluate(const std::vector<int64_t> &Operands) const {
  assert(Operands.size() == getNumInputs() && "wrong operand count");
  std::vector<int64_t> Dims(Operands.begin(), Operands.begin() + getNumDims());
  std::vector<int64_t> Symbols(Operands.begin() + getNumDims(),
                               Operands.end());
  std::vector<int64_t> Values;
  Values.reserve(getNumResults());
  for (AffineExpr Expr : getResults())
    Values.push_back(Expr.evaluate(Dims, Symbols));
  return Values;
}

void AffineMap::print(raw_ostream &OS) const {
  OS << '(';
  for (unsigned I = 0; I < getNumDims(); ++I) {
    if (I)
      OS << ", ";
    OS << 'd' << I;
  }
  OS << ')';
  if (getNumSymbols()) {
    OS << '[';
    for (unsigned I = 0; I < getNumSymbols(); ++I) {
      if (I)
        OS << ", ";
      OS << 's' << I;
    }
    OS << ']';
  }
  OS << " -> (";
  bool First = true;
  for (AffineExpr Expr : getResults()) {
    if (!First)
      OS << ", ";
    First = false;
    Expr.print(OS);
  }
  OS << ')';
}

std::string AffineMap::str() const {
  std::string Result;
  raw_string_ostream Stream(Result);
  print(Stream);
  return Result;
}
