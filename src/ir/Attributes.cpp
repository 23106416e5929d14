//===- Attributes.cpp - Uniqued IR attributes -------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Attributes.h"

#include "ir/Context.h"
#include "support/Hashing.h"
#include "support/Stream.h"

#include <string_view>

using namespace tdl;

//===----------------------------------------------------------------------===//
// Storage definitions
//===----------------------------------------------------------------------===//

namespace {

/// Every attribute hash starts from the attribute domain tag and the kind.
StableHasher attrHasher(AttrStorage::Kind K) {
  StableHasher H;
  H.add(0x6174720000000000ull | static_cast<uint64_t>(K)); // "atr"
  return H;
}

struct UnitAttrStorage : AttrStorage {
  struct KeyTy {};
  static uint64_t hashKey(KeyTy) { return attrHasher(Kind::Unit).get(); }
  bool operator==(KeyTy) const { return true; }
  UnitAttrStorage(Context *Ctx, KeyTy, uint64_t Hash)
      : AttrStorage(Kind::Unit, Ctx, Hash) {}
};

struct BoolAttrStorage : AttrStorage {
  using KeyTy = bool;
  static uint64_t hashKey(bool Value) {
    return attrHasher(Kind::Bool).add(Value).get();
  }
  bool operator==(bool Key) const { return Value == Key; }
  BoolAttrStorage(Context *Ctx, bool Value, uint64_t Hash)
      : AttrStorage(Kind::Bool, Ctx, Hash), Value(Value) {}
  bool Value;
};

struct IntegerAttrStorage : AttrStorage {
  struct KeyTy {
    int64_t Value;
    Type Ty;
  };
  static uint64_t hashKey(const KeyTy &Key) {
    return attrHasher(Kind::Integer)
        .add(static_cast<uint64_t>(Key.Value))
        .add(Key.Ty.getHash())
        .get();
  }
  bool operator==(const KeyTy &Key) const {
    return Value == Key.Value && Ty == Key.Ty;
  }
  IntegerAttrStorage(Context *Ctx, const KeyTy &Key, uint64_t Hash)
      : AttrStorage(Kind::Integer, Ctx, Hash), Value(Key.Value), Ty(Key.Ty) {}
  int64_t Value;
  Type Ty;
};

/// Floats compare by bit pattern, so 0.0 and -0.0 are distinct attributes.
struct FloatAttrStorage : AttrStorage {
  struct KeyTy {
    double Value;
    Type Ty;
  };
  static uint64_t hashKey(const KeyTy &Key) {
    return attrHasher(Kind::Float)
        .add(doubleBits(Key.Value))
        .add(Key.Ty.getHash())
        .get();
  }
  bool operator==(const KeyTy &Key) const {
    return doubleBits(Value) == doubleBits(Key.Value) && Ty == Key.Ty;
  }
  FloatAttrStorage(Context *Ctx, const KeyTy &Key, uint64_t Hash)
      : AttrStorage(Kind::Float, Ctx, Hash), Value(Key.Value), Ty(Key.Ty) {}
  double Value;
  Type Ty;
};

/// String and symbol-reference attributes: a kind and the text.
struct StringAttrStorage : AttrStorage {
  struct KeyTy {
    Kind K;
    std::string_view Value;
  };
  static uint64_t hashKey(const KeyTy &Key) {
    return attrHasher(Key.K).addBytes(Key.Value).get();
  }
  bool operator==(const KeyTy &Key) const {
    return AttrKind == Key.K && Value == Key.Value;
  }
  StringAttrStorage(Context *Ctx, const KeyTy &Key, uint64_t Hash)
      : AttrStorage(Key.K, Ctx, Hash), Value(Key.Value) {}
  std::string Value;
};

struct ArrayAttrStorage : AttrStorage {
  using KeyTy = std::vector<Attribute>;
  static uint64_t hashKey(const KeyTy &Elements) {
    StableHasher H = attrHasher(Kind::Array);
    H.add(Elements.size());
    for (Attribute Element : Elements)
      H.add(Element.getHash());
    return H.get();
  }
  bool operator==(const KeyTy &Key) const { return Elements == Key; }
  ArrayAttrStorage(Context *Ctx, const KeyTy &Elements, uint64_t Hash)
      : AttrStorage(Kind::Array, Ctx, Hash), Elements(Elements) {}
  std::vector<Attribute> Elements;
};

struct TypeAttrStorage : AttrStorage {
  using KeyTy = Type;
  static uint64_t hashKey(Type Value) {
    return attrHasher(Kind::Type).add(Value.getHash()).get();
  }
  bool operator==(Type Key) const { return Value == Key; }
  TypeAttrStorage(Context *Ctx, Type Value, uint64_t Hash)
      : AttrStorage(Kind::Type, Ctx, Hash), Value(Value) {}
  Type Value;
};

struct AffineMapAttrStorage : AttrStorage {
  using KeyTy = AffineMap;
  static uint64_t hashKey(AffineMap Value) {
    return attrHasher(Kind::AffineMap).add(Value.getHash()).get();
  }
  bool operator==(AffineMap Key) const { return Value == Key; }
  AffineMapAttrStorage(Context *Ctx, AffineMap Value, uint64_t Hash)
      : AttrStorage(Kind::AffineMap, Ctx, Hash), Value(Value) {}
  AffineMap Value;
};

/// A splat stores its one value; a splat and a dense attribute holding the
/// same single element are distinct.
struct DenseElementsAttrStorage : AttrStorage {
  struct KeyTy {
    TensorType Ty;
    const std::vector<double> &Values;
    bool IsSplat;
  };
  static uint64_t hashKey(const KeyTy &Key) {
    StableHasher H = attrHasher(Kind::DenseElements);
    H.add(Key.Ty.getHash()).add(Key.IsSplat).add(Key.Values.size());
    for (double Element : Key.Values)
      H.add(doubleBits(Element));
    return H.get();
  }
  bool operator==(const KeyTy &Key) const {
    if (Ty != Key.Ty || IsSplat != Key.IsSplat ||
        Values.size() != Key.Values.size())
      return false;
    for (size_t I = 0; I < Values.size(); ++I)
      if (doubleBits(Values[I]) != doubleBits(Key.Values[I]))
        return false;
    return true;
  }
  DenseElementsAttrStorage(Context *Ctx, const KeyTy &Key, uint64_t Hash)
      : AttrStorage(Kind::DenseElements, Ctx, Hash), Ty(Key.Ty),
        Values(Key.Values), IsSplat(Key.IsSplat) {}
  TensorType Ty;
  std::vector<double> Values;
  bool IsSplat;
};

} // namespace

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

UnitAttr UnitAttr::get(Context &Ctx) {
  return UnitAttr(Ctx.getStorage<UnitAttrStorage>({}));
}

BoolAttr BoolAttr::get(Context &Ctx, bool Value) {
  return BoolAttr(Ctx.getStorage<BoolAttrStorage>(Value));
}

bool BoolAttr::getValue() const {
  return static_cast<const BoolAttrStorage *>(Impl)->Value;
}

IntegerAttr IntegerAttr::get(Context &Ctx, int64_t Value, Type Ty) {
  assert(Ty.isIntOrIndex() && "integer attribute needs int/index type");
  return IntegerAttr(Ctx.getStorage<IntegerAttrStorage>({Value, Ty}));
}

IntegerAttr IntegerAttr::getIndex(Context &Ctx, int64_t Value) {
  return get(Ctx, Value, IndexType::get(Ctx));
}

int64_t IntegerAttr::getValue() const {
  return static_cast<const IntegerAttrStorage *>(Impl)->Value;
}

Type IntegerAttr::getType() const {
  return static_cast<const IntegerAttrStorage *>(Impl)->Ty;
}

FloatAttr FloatAttr::get(Context &Ctx, double Value, Type Ty) {
  assert(Ty.isFloat() && "float attribute needs float type");
  return FloatAttr(Ctx.getStorage<FloatAttrStorage>({Value, Ty}));
}

double FloatAttr::getValue() const {
  return static_cast<const FloatAttrStorage *>(Impl)->Value;
}

Type FloatAttr::getType() const {
  return static_cast<const FloatAttrStorage *>(Impl)->Ty;
}

StringAttr StringAttr::get(Context &Ctx, std::string_view Value) {
  return StringAttr(
      Ctx.getStorage<StringAttrStorage>({AttrStorage::Kind::String, Value}));
}

std::string_view StringAttr::getValue() const {
  return static_cast<const StringAttrStorage *>(Impl)->Value;
}

ArrayAttr ArrayAttr::get(Context &Ctx, std::vector<Attribute> Elements) {
  return ArrayAttr(Ctx.getStorage<ArrayAttrStorage>(Elements));
}

ArrayAttr ArrayAttr::getIndexArray(Context &Ctx,
                                   const std::vector<int64_t> &Values) {
  std::vector<Attribute> Elements;
  Elements.reserve(Values.size());
  for (int64_t Value : Values)
    Elements.push_back(IntegerAttr::getIndex(Ctx, Value));
  return get(Ctx, std::move(Elements));
}

const std::vector<Attribute> &ArrayAttr::getValue() const {
  return static_cast<const ArrayAttrStorage *>(Impl)->Elements;
}

std::vector<int64_t> ArrayAttr::getAsIntegers() const {
  std::vector<int64_t> Values;
  Values.reserve(size());
  for (Attribute Element : getValue())
    Values.push_back(Element.cast<IntegerAttr>().getValue());
  return Values;
}

TypeAttr TypeAttr::get(Context &Ctx, Type Value) {
  return TypeAttr(Ctx.getStorage<TypeAttrStorage>(Value));
}

Type TypeAttr::getValue() const {
  return static_cast<const TypeAttrStorage *>(Impl)->Value;
}

SymbolRefAttr SymbolRefAttr::get(Context &Ctx, std::string_view Name) {
  return SymbolRefAttr(
      Ctx.getStorage<StringAttrStorage>({AttrStorage::Kind::SymbolRef, Name}));
}

std::string_view SymbolRefAttr::getValue() const {
  return static_cast<const StringAttrStorage *>(Impl)->Value;
}

AffineMapAttr AffineMapAttr::get(Context &Ctx, AffineMap Map) {
  return AffineMapAttr(Ctx.getStorage<AffineMapAttrStorage>(Map));
}

AffineMap AffineMapAttr::getValue() const {
  return static_cast<const AffineMapAttrStorage *>(Impl)->Value;
}

DenseElementsAttr DenseElementsAttr::get(Context &Ctx, TensorType Ty,
                                         std::vector<double> Values) {
  assert(static_cast<int64_t>(Values.size()) == Ty.getNumElements() &&
         "element count must match tensor type");
  return DenseElementsAttr(Ctx.getStorage<DenseElementsAttrStorage>(
      {Ty, Values, /*IsSplat=*/false}));
}

DenseElementsAttr DenseElementsAttr::getSplat(Context &Ctx, TensorType Ty,
                                              double Value) {
  std::vector<double> Values{Value};
  return DenseElementsAttr(Ctx.getStorage<DenseElementsAttrStorage>(
      {Ty, Values, /*IsSplat=*/true}));
}

TensorType DenseElementsAttr::getType() const {
  return static_cast<const DenseElementsAttrStorage *>(Impl)->Ty;
}

bool DenseElementsAttr::isSplat() const {
  return static_cast<const DenseElementsAttrStorage *>(Impl)->IsSplat;
}

const std::vector<double> &DenseElementsAttr::getRawValues() const {
  return static_cast<const DenseElementsAttrStorage *>(Impl)->Values;
}

double DenseElementsAttr::getSplatValue() const {
  assert(isSplat() && "not a splat");
  return getRawValues()[0];
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

static void printEscapedString(raw_ostream &OS, std::string_view Text) {
  OS << '"';
  for (char C : Text) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      OS << C;
    }
  }
  OS << '"';
}

void Attribute::print(raw_ostream &OS) const {
  if (!Impl) {
    OS << "<<null-attr>>";
    return;
  }
  switch (getKind()) {
  case AttrStorage::Kind::Unit:
    OS << "unit";
    return;
  case AttrStorage::Kind::Bool:
    OS << (cast<BoolAttr>().getValue() ? "true" : "false");
    return;
  case AttrStorage::Kind::Integer: {
    IntegerAttr Int = cast<IntegerAttr>();
    OS << Int.getValue() << " : " << Int.getType();
    return;
  }
  case AttrStorage::Kind::Float: {
    FloatAttr Float = cast<FloatAttr>();
    OS << Float.getValue() << " : " << Float.getType();
    return;
  }
  case AttrStorage::Kind::String:
    printEscapedString(OS, cast<StringAttr>().getValue());
    return;
  case AttrStorage::Kind::Array: {
    OS << '[';
    bool First = true;
    for (Attribute Element : cast<ArrayAttr>().getValue()) {
      if (!First)
        OS << ", ";
      First = false;
      Element.print(OS);
    }
    OS << ']';
    return;
  }
  case AttrStorage::Kind::Type:
    OS << cast<TypeAttr>().getValue();
    return;
  case AttrStorage::Kind::SymbolRef:
    OS << '@' << cast<SymbolRefAttr>().getValue();
    return;
  case AttrStorage::Kind::AffineMap:
    OS << "affine_map<" << cast<AffineMapAttr>().getValue() << '>';
    return;
  case AttrStorage::Kind::DenseElements: {
    DenseElementsAttr Dense = cast<DenseElementsAttr>();
    OS << "dense<";
    if (Dense.isSplat()) {
      OS << Dense.getSplatValue();
    } else {
      OS << '[';
      bool First = true;
      for (double Value : Dense.getRawValues()) {
        if (!First)
          OS << ", ";
        First = false;
        OS << Value;
      }
      OS << ']';
    }
    OS << "> : " << Dense.getType();
    return;
  }
  }
}

std::string Attribute::str() const {
  std::string Result;
  raw_string_ostream Stream(Result);
  print(Stream);
  return Result;
}
