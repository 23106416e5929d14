//===- TypeSystem.cpp - Uniqued IR types -----------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/TypeSystem.h"

#include "ir/Context.h"
#include "support/Hashing.h"
#include "support/Stream.h"

#include <memory>

using namespace tdl;

//===----------------------------------------------------------------------===//
// Storage definitions
//===----------------------------------------------------------------------===//

namespace {

/// Every type hash starts from the type domain tag and the kind, so a type
/// never collides with an attribute or affine storage of equal parameters.
StableHasher typeHasher(TypeStorage::Kind K) {
  StableHasher H;
  H.add(0x7479700000000000ull | static_cast<uint64_t>(K)); // "typ"
  return H;
}

void addInts(StableHasher &H, const std::vector<int64_t> &Values) {
  H.add(Values.size());
  for (int64_t Value : Values)
    H.add(static_cast<uint64_t>(Value));
}

void addTypes(StableHasher &H, const std::vector<Type> &Types) {
  H.add(Types.size());
  for (Type Ty : Types)
    H.add(Ty.getHash());
}

struct SimpleTypeStorage : TypeStorage {
  SimpleTypeStorage(Kind K, Context *Ctx) : TypeStorage(K, Ctx) {
    Hash = typeHasher(K).get();
  }
};

struct IntWidthTypeStorage : TypeStorage {
  IntWidthTypeStorage(Kind K, Context *Ctx, unsigned Width)
      : TypeStorage(K, Ctx), Width(Width) {
    Hash = typeHasher(K).add(Width).get();
  }
  unsigned Width;
};

struct ShapedTypeStorage : TypeStorage {
  ShapedTypeStorage(Kind K, Context *Ctx, std::vector<int64_t> Shape,
                    Type ElementType)
      : TypeStorage(K, Ctx), Shape(std::move(Shape)),
        ElementType(ElementType) {
    Hash = shapeHasher().get();
  }
  StableHasher shapeHasher() const {
    StableHasher H = typeHasher(TypeKind);
    addInts(H, Shape);
    H.add(ElementType.getHash());
    return H;
  }
  std::vector<int64_t> Shape;
  Type ElementType;
};

struct MemRefTypeStorage : ShapedTypeStorage {
  MemRefTypeStorage(Context *Ctx, std::vector<int64_t> Shape, Type ElementType,
                    bool HasLayout, int64_t Offset,
                    std::vector<int64_t> Strides)
      : ShapedTypeStorage(Kind::MemRef, Ctx, std::move(Shape), ElementType),
        HasLayout(HasLayout), Offset(Offset), Strides(std::move(Strides)) {
    StableHasher H = shapeHasher();
    H.add(HasLayout).add(static_cast<uint64_t>(Offset));
    addInts(H, this->Strides);
    Hash = H.get();
  }
  bool HasLayout;
  int64_t Offset;
  std::vector<int64_t> Strides;
};

struct FunctionTypeStorage : TypeStorage {
  FunctionTypeStorage(Context *Ctx, std::vector<Type> Inputs,
                      std::vector<Type> Results)
      : TypeStorage(Kind::Function, Ctx), Inputs(std::move(Inputs)),
        Results(std::move(Results)) {
    StableHasher H = typeHasher(Kind::Function);
    addTypes(H, this->Inputs);
    addTypes(H, this->Results);
    Hash = H.get();
  }
  std::vector<Type> Inputs;
  std::vector<Type> Results;
};

struct TransformOpTypeStorage : TypeStorage {
  TransformOpTypeStorage(Context *Ctx, std::string OpName)
      : TypeStorage(Kind::TransformOp, Ctx), OpName(std::move(OpName)) {
    Hash = typeHasher(Kind::TransformOp).addBytes(this->OpName).get();
  }
  std::string OpName;
};

} // namespace

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

static Type uniqueSimple(Context &Ctx, TypeStorage::Kind Kind,
                         const char *Key) {
  return Type(Ctx.uniqueType(Key, [&] {
    return std::make_unique<SimpleTypeStorage>(Kind, &Ctx);
  }));
}

IndexType IndexType::get(Context &Ctx) {
  return uniqueSimple(Ctx, TypeStorage::Kind::Index, "index")
      .cast<IndexType>();
}

NoneType NoneType::get(Context &Ctx) {
  return uniqueSimple(Ctx, TypeStorage::Kind::None, "none").cast<NoneType>();
}

IntegerType IntegerType::get(Context &Ctx, unsigned Width) {
  std::string Key = "i" + std::to_string(Width);
  return IntegerType(Ctx.uniqueType(Key, [&] {
    return std::make_unique<IntWidthTypeStorage>(TypeStorage::Kind::Integer,
                                                 &Ctx, Width);
  }));
}

unsigned IntegerType::getWidth() const {
  return static_cast<const IntWidthTypeStorage *>(Impl)->Width;
}

FloatType FloatType::get(Context &Ctx, unsigned Width) {
  assert((Width == 32 || Width == 64) && "only f32/f64 supported");
  std::string Key = "f" + std::to_string(Width);
  return FloatType(Ctx.uniqueType(Key, [&] {
    return std::make_unique<IntWidthTypeStorage>(TypeStorage::Kind::Float,
                                                 &Ctx, Width);
  }));
}

unsigned FloatType::getWidth() const {
  return static_cast<const IntWidthTypeStorage *>(Impl)->Width;
}

static void appendShapeKey(std::string &Key, const std::vector<int64_t> &Dims) {
  for (int64_t Dim : Dims) {
    Key += std::to_string(Dim);
    Key += 'x';
  }
}

MemRefType MemRefType::get(Context &Ctx, std::vector<int64_t> Shape,
                           Type ElementType) {
  std::string Key = "memref|";
  appendShapeKey(Key, Shape);
  Key += ElementType.str();
  return MemRefType(Ctx.uniqueType(Key, [&] {
    return std::make_unique<MemRefTypeStorage>(&Ctx, std::move(Shape),
                                               ElementType, /*HasLayout=*/false,
                                               0, std::vector<int64_t>());
  }));
}

MemRefType MemRefType::getStrided(Context &Ctx, std::vector<int64_t> Shape,
                                  Type ElementType, int64_t Offset,
                                  std::vector<int64_t> Strides) {
  assert(Strides.size() == Shape.size() && "stride per dimension required");
  std::string Key = "memref|";
  appendShapeKey(Key, Shape);
  Key += ElementType.str();
  Key += "|o" + std::to_string(Offset) + "|s";
  appendShapeKey(Key, Strides);
  return MemRefType(Ctx.uniqueType(Key, [&] {
    return std::make_unique<MemRefTypeStorage>(&Ctx, std::move(Shape),
                                               ElementType, /*HasLayout=*/true,
                                               Offset, std::move(Strides));
  }));
}

bool MemRefType::hasExplicitLayout() const {
  return static_cast<const MemRefTypeStorage *>(Impl)->HasLayout;
}

int64_t MemRefType::getOffset() const {
  const auto *S = static_cast<const MemRefTypeStorage *>(Impl);
  return S->HasLayout ? S->Offset : 0;
}

const std::vector<int64_t> &MemRefType::getStrides() const {
  const auto *S = static_cast<const MemRefTypeStorage *>(Impl);
  assert(S->HasLayout && "identity memref has no explicit strides");
  return S->Strides;
}

std::vector<int64_t> MemRefType::getIdentityStrides() const {
  const std::vector<int64_t> &Shape = getShape();
  std::vector<int64_t> Strides(Shape.size(), 1);
  for (int64_t I = static_cast<int64_t>(Shape.size()) - 2; I >= 0; --I) {
    assert(Shape[I + 1] != kDynamic && "dynamic dim in identity strides");
    Strides[I] = Strides[I + 1] * Shape[I + 1];
  }
  return Strides;
}

TensorType TensorType::get(Context &Ctx, std::vector<int64_t> Shape,
                           Type ElementType) {
  std::string Key = "tensor|";
  appendShapeKey(Key, Shape);
  Key += ElementType.str();
  return TensorType(Ctx.uniqueType(Key, [&] {
    return std::make_unique<ShapedTypeStorage>(
        TypeStorage::Kind::Tensor, &Ctx, std::move(Shape), ElementType);
  }));
}

const std::vector<int64_t> &ShapedType::getShape() const {
  return static_cast<const ShapedTypeStorage *>(Impl)->Shape;
}

Type ShapedType::getElementType() const {
  return static_cast<const ShapedTypeStorage *>(Impl)->ElementType;
}

int64_t ShapedType::getRank() const {
  return static_cast<int64_t>(getShape().size());
}

bool ShapedType::hasStaticShape() const {
  for (int64_t Dim : getShape())
    if (Dim == kDynamic)
      return false;
  return true;
}

int64_t ShapedType::getNumElements() const {
  assert(hasStaticShape() && "dynamic shape has no element count");
  int64_t Count = 1;
  for (int64_t Dim : getShape())
    Count *= Dim;
  return Count;
}

FunctionType FunctionType::get(Context &Ctx, std::vector<Type> Inputs,
                               std::vector<Type> Results) {
  std::string Key = "func|";
  for (Type Ty : Inputs)
    Key += Ty.str() + ",";
  Key += "->";
  for (Type Ty : Results)
    Key += Ty.str() + ",";
  return FunctionType(Ctx.uniqueType(Key, [&] {
    return std::make_unique<FunctionTypeStorage>(&Ctx, std::move(Inputs),
                                                 std::move(Results));
  }));
}

const std::vector<Type> &FunctionType::getInputs() const {
  return static_cast<const FunctionTypeStorage *>(Impl)->Inputs;
}

const std::vector<Type> &FunctionType::getResults() const {
  return static_cast<const FunctionTypeStorage *>(Impl)->Results;
}

TransformAnyOpType TransformAnyOpType::get(Context &Ctx) {
  return uniqueSimple(Ctx, TypeStorage::Kind::TransformAnyOp,
                      "!transform.any_op")
      .cast<TransformAnyOpType>();
}

TransformOpType TransformOpType::get(Context &Ctx, std::string_view OpName) {
  std::string Key = "!transform.op|" + std::string(OpName);
  return TransformOpType(Ctx.uniqueType(Key, [&] {
    return std::make_unique<TransformOpTypeStorage>(&Ctx, std::string(OpName));
  }));
}

std::string_view TransformOpType::getOpName() const {
  return static_cast<const TransformOpTypeStorage *>(Impl)->OpName;
}

TransformParamType TransformParamType::get(Context &Ctx) {
  return uniqueSimple(Ctx, TypeStorage::Kind::TransformParam,
                      "!transform.param")
      .cast<TransformParamType>();
}

TransformAnyValueType TransformAnyValueType::get(Context &Ctx) {
  return uniqueSimple(Ctx, TypeStorage::Kind::TransformAnyValue,
                      "!transform.any_value")
      .cast<TransformAnyValueType>();
}

bool tdl::isTransformType(Type Ty) {
  if (!Ty)
    return false;
  switch (Ty.getKind()) {
  case TypeStorage::Kind::TransformAnyOp:
  case TypeStorage::Kind::TransformOp:
  case TypeStorage::Kind::TransformParam:
  case TypeStorage::Kind::TransformAnyValue:
    return true;
  default:
    return false;
  }
}

bool tdl::isTransformHandleType(Type Ty) {
  if (!Ty)
    return false;
  return Ty.getKind() == TypeStorage::Kind::TransformAnyOp ||
         Ty.getKind() == TypeStorage::Kind::TransformOp;
}

bool tdl::isImplicitHandleConversion(Type Produced, Type Expected) {
  if (!Produced || !Expected)
    return false;
  if (Produced == Expected)
    return true;
  // op<"..."> widens into any_op; everything else (narrowing, crossing
  // between two op<"..."> types, handle/param/value kind mixes) needs an
  // explicit transform.cast or is plain ill-typed.
  return isTransformHandleType(Produced) &&
         Expected.getKind() == TypeStorage::Kind::TransformAnyOp;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

static void printDim(raw_ostream &OS, int64_t Dim) {
  if (Dim == kDynamic)
    OS << '?';
  else
    OS << Dim;
}

void Type::print(raw_ostream &OS) const {
  if (!Impl) {
    OS << "<<null-type>>";
    return;
  }
  switch (getKind()) {
  case TypeStorage::Kind::Index:
    OS << "index";
    return;
  case TypeStorage::Kind::None:
    OS << "none";
    return;
  case TypeStorage::Kind::Integer:
    OS << 'i' << cast<IntegerType>().getWidth();
    return;
  case TypeStorage::Kind::Float:
    OS << 'f' << cast<FloatType>().getWidth();
    return;
  case TypeStorage::Kind::MemRef: {
    MemRefType MemRef = cast<MemRefType>();
    OS << "memref<";
    for (int64_t Dim : MemRef.getShape()) {
      printDim(OS, Dim);
      OS << 'x';
    }
    OS << MemRef.getElementType();
    if (MemRef.hasExplicitLayout()) {
      OS << ", strided<[";
      bool First = true;
      for (int64_t Stride : MemRef.getStrides()) {
        if (!First)
          OS << ", ";
        First = false;
        printDim(OS, Stride);
      }
      OS << "], offset: ";
      printDim(OS, MemRef.getOffset());
      OS << '>';
    }
    OS << '>';
    return;
  }
  case TypeStorage::Kind::Tensor: {
    TensorType Tensor = cast<TensorType>();
    OS << "tensor<";
    for (int64_t Dim : Tensor.getShape()) {
      printDim(OS, Dim);
      OS << 'x';
    }
    OS << Tensor.getElementType() << '>';
    return;
  }
  case TypeStorage::Kind::Function: {
    FunctionType Func = cast<FunctionType>();
    OS << '(';
    bool First = true;
    for (Type Input : Func.getInputs()) {
      if (!First)
        OS << ", ";
      First = false;
      OS << Input;
    }
    OS << ") -> ";
    const std::vector<Type> &Results = Func.getResults();
    if (Results.size() == 1) {
      OS << Results[0];
      return;
    }
    OS << '(';
    First = true;
    for (Type Result : Results) {
      if (!First)
        OS << ", ";
      First = false;
      OS << Result;
    }
    OS << ')';
    return;
  }
  case TypeStorage::Kind::TransformAnyOp:
    OS << "!transform.any_op";
    return;
  case TypeStorage::Kind::TransformOp:
    OS << "!transform.op<\"" << cast<TransformOpType>().getOpName() << "\">";
    return;
  case TypeStorage::Kind::TransformParam:
    OS << "!transform.param";
    return;
  case TypeStorage::Kind::TransformAnyValue:
    OS << "!transform.any_value";
    return;
  }
}

std::string Type::str() const {
  std::string Result;
  raw_string_ostream Stream(Result);
  print(Stream);
  return Result;
}
