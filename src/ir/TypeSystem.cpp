//===- TypeSystem.cpp - Uniqued IR types -----------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/TypeSystem.h"

#include "ir/Context.h"
#include "support/Hashing.h"
#include "support/Stream.h"

#include <string_view>

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

/// A kind without parameters (index, none, the transform handle types).
struct SimpleTypeStorage : TypeStorage {
  using KeyTy = Kind;
  static uint64_t hashKey(Kind K) { return typeHasher(K).get(); }
  bool operator==(Kind K) const { return TypeKind == K; }
  SimpleTypeStorage(Context *Ctx, Kind K, uint64_t Hash)
      : TypeStorage(K, Ctx, Hash) {}
};

/// Integer and float types: a kind and a bit width.
struct IntWidthTypeStorage : TypeStorage {
  struct KeyTy {
    Kind K;
    unsigned Width;
  };
  static uint64_t hashKey(const KeyTy &Key) {
    return typeHasher(Key.K).add(Key.Width).get();
  }
  bool operator==(const KeyTy &Key) const {
    return TypeKind == Key.K && Width == Key.Width;
  }
  IntWidthTypeStorage(Context *Ctx, const KeyTy &Key, uint64_t Hash)
      : TypeStorage(Key.K, Ctx, Hash), Width(Key.Width) {}
  unsigned Width;
};

struct ShapedTypeStorage : TypeStorage {
  ShapedTypeStorage(Kind K, Context *Ctx, uint64_t Hash,
                    const std::vector<int64_t> &Shape, Type ElementType)
      : TypeStorage(K, Ctx, Hash), Shape(Shape), ElementType(ElementType) {}
  static StableHasher shapeHasher(Kind K, const std::vector<int64_t> &Shape,
                                  Type ElementType) {
    StableHasher H = typeHasher(K);
    addInts(H, Shape);
    H.add(ElementType.getHash());
    return H;
  }
  std::vector<int64_t> Shape;
  Type ElementType;
};

struct TensorTypeStorage : ShapedTypeStorage {
  struct KeyTy {
    const std::vector<int64_t> &Shape;
    Type ElementType;
  };
  static uint64_t hashKey(const KeyTy &Key) {
    return shapeHasher(Kind::Tensor, Key.Shape, Key.ElementType).get();
  }
  bool operator==(const KeyTy &Key) const {
    return ElementType == Key.ElementType && Shape == Key.Shape;
  }
  TensorTypeStorage(Context *Ctx, const KeyTy &Key, uint64_t Hash)
      : ShapedTypeStorage(Kind::Tensor, Ctx, Hash, Key.Shape,
                          Key.ElementType) {}
};

/// A memref with or without an explicit strided layout; an identity memref
/// and a strided one with identity strides are distinct types.
struct MemRefTypeStorage : ShapedTypeStorage {
  struct KeyTy {
    const std::vector<int64_t> &Shape;
    Type ElementType;
    bool HasLayout;
    int64_t Offset;
    const std::vector<int64_t> &Strides;
  };
  static uint64_t hashKey(const KeyTy &Key) {
    StableHasher H = shapeHasher(Kind::MemRef, Key.Shape, Key.ElementType);
    H.add(Key.HasLayout).add(static_cast<uint64_t>(Key.Offset));
    addInts(H, Key.Strides);
    return H.get();
  }
  bool operator==(const KeyTy &Key) const {
    return ElementType == Key.ElementType && HasLayout == Key.HasLayout &&
           Offset == Key.Offset && Shape == Key.Shape &&
           Strides == Key.Strides;
  }
  MemRefTypeStorage(Context *Ctx, const KeyTy &Key, uint64_t Hash)
      : ShapedTypeStorage(Kind::MemRef, Ctx, Hash, Key.Shape, Key.ElementType),
        HasLayout(Key.HasLayout), Offset(Key.Offset), Strides(Key.Strides) {}
  bool HasLayout;
  int64_t Offset;
  std::vector<int64_t> Strides;
};

struct FunctionTypeStorage : TypeStorage {
  struct KeyTy {
    const std::vector<Type> &Inputs;
    const std::vector<Type> &Results;
  };
  static uint64_t hashKey(const KeyTy &Key) {
    StableHasher H = typeHasher(Kind::Function);
    addTypes(H, Key.Inputs);
    addTypes(H, Key.Results);
    return H.get();
  }
  bool operator==(const KeyTy &Key) const {
    return Inputs == Key.Inputs && Results == Key.Results;
  }
  FunctionTypeStorage(Context *Ctx, const KeyTy &Key, uint64_t Hash)
      : TypeStorage(Kind::Function, Ctx, Hash), Inputs(Key.Inputs),
        Results(Key.Results) {}
  std::vector<Type> Inputs;
  std::vector<Type> Results;
};

struct TransformOpTypeStorage : TypeStorage {
  using KeyTy = std::string_view;
  static uint64_t hashKey(std::string_view OpName) {
    return typeHasher(Kind::TransformOp).addBytes(OpName).get();
  }
  bool operator==(std::string_view Key) const { return OpName == Key; }
  TransformOpTypeStorage(Context *Ctx, std::string_view OpName, uint64_t Hash)
      : TypeStorage(Kind::TransformOp, Ctx, Hash), OpName(OpName) {}
  std::string OpName;
};

} // namespace

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

static Type getSimple(Context &Ctx, TypeStorage::Kind Kind) {
  return Type(Ctx.getStorage<SimpleTypeStorage>(Kind));
}

IndexType IndexType::get(Context &Ctx) {
  return getSimple(Ctx, TypeStorage::Kind::Index).cast<IndexType>();
}

NoneType NoneType::get(Context &Ctx) {
  return getSimple(Ctx, TypeStorage::Kind::None).cast<NoneType>();
}

IntegerType IntegerType::get(Context &Ctx, unsigned Width) {
  return IntegerType(Ctx.getStorage<IntWidthTypeStorage>(
      {TypeStorage::Kind::Integer, Width}));
}

unsigned IntegerType::getWidth() const {
  return static_cast<const IntWidthTypeStorage *>(Impl)->Width;
}

FloatType FloatType::get(Context &Ctx, unsigned Width) {
  assert((Width == 32 || Width == 64) && "only f32/f64 supported");
  return FloatType(
      Ctx.getStorage<IntWidthTypeStorage>({TypeStorage::Kind::Float, Width}));
}

unsigned FloatType::getWidth() const {
  return static_cast<const IntWidthTypeStorage *>(Impl)->Width;
}

MemRefType MemRefType::get(Context &Ctx, std::vector<int64_t> Shape,
                           Type ElementType) {
  std::vector<int64_t> NoStrides;
  return MemRefType(Ctx.getStorage<MemRefTypeStorage>(
      {Shape, ElementType, /*HasLayout=*/false, 0, NoStrides}));
}

MemRefType MemRefType::getStrided(Context &Ctx, std::vector<int64_t> Shape,
                                  Type ElementType, int64_t Offset,
                                  std::vector<int64_t> Strides) {
  assert(Strides.size() == Shape.size() && "stride per dimension required");
  return MemRefType(Ctx.getStorage<MemRefTypeStorage>(
      {Shape, ElementType, /*HasLayout=*/true, Offset, Strides}));
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
  return TensorType(Ctx.getStorage<TensorTypeStorage>({Shape, ElementType}));
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
  return FunctionType(Ctx.getStorage<FunctionTypeStorage>({Inputs, Results}));
}

const std::vector<Type> &FunctionType::getInputs() const {
  return static_cast<const FunctionTypeStorage *>(Impl)->Inputs;
}

const std::vector<Type> &FunctionType::getResults() const {
  return static_cast<const FunctionTypeStorage *>(Impl)->Results;
}

TransformAnyOpType TransformAnyOpType::get(Context &Ctx) {
  return getSimple(Ctx, TypeStorage::Kind::TransformAnyOp)
      .cast<TransformAnyOpType>();
}

TransformOpType TransformOpType::get(Context &Ctx, std::string_view OpName) {
  return TransformOpType(Ctx.getStorage<TransformOpTypeStorage>(OpName));
}

std::string_view TransformOpType::getOpName() const {
  return static_cast<const TransformOpTypeStorage *>(Impl)->OpName;
}

TransformParamType TransformParamType::get(Context &Ctx) {
  return getSimple(Ctx, TypeStorage::Kind::TransformParam)
      .cast<TransformParamType>();
}

TransformAnyValueType TransformAnyValueType::get(Context &Ctx) {
  return getSimple(Ctx, TypeStorage::Kind::TransformAnyValue)
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
