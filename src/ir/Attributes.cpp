//===- Attributes.cpp - Uniqued IR attributes -------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Attributes.h"

#include "ir/Context.h"
#include "support/Hashing.h"
#include "support/Stream.h"

#include <memory>

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

struct SimpleAttrStorage : AttrStorage {
  SimpleAttrStorage(Kind K, Context *Ctx) : AttrStorage(K, Ctx) {
    Hash = attrHasher(K).get();
  }
};

struct BoolAttrStorage : AttrStorage {
  BoolAttrStorage(Context *Ctx, bool Value)
      : AttrStorage(Kind::Bool, Ctx), Value(Value) {
    Hash = attrHasher(Kind::Bool).add(Value).get();
  }
  bool Value;
};

struct IntegerAttrStorage : AttrStorage {
  IntegerAttrStorage(Context *Ctx, int64_t Value, Type Ty)
      : AttrStorage(Kind::Integer, Ctx), Value(Value), Ty(Ty) {
    Hash = attrHasher(Kind::Integer)
               .add(static_cast<uint64_t>(Value))
               .add(Ty.getHash())
               .get();
  }
  int64_t Value;
  Type Ty;
};

struct FloatAttrStorage : AttrStorage {
  FloatAttrStorage(Context *Ctx, double Value, Type Ty)
      : AttrStorage(Kind::Float, Ctx), Value(Value), Ty(Ty) {
    Hash =
        attrHasher(Kind::Float).add(doubleBits(Value)).add(Ty.getHash()).get();
  }
  double Value;
  Type Ty;
};

struct StringAttrStorage : AttrStorage {
  StringAttrStorage(Context *Ctx, Kind K, std::string Value)
      : AttrStorage(K, Ctx), Value(std::move(Value)) {
    Hash = attrHasher(K).addBytes(this->Value).get();
  }
  std::string Value;
};

struct ArrayAttrStorage : AttrStorage {
  ArrayAttrStorage(Context *Ctx, std::vector<Attribute> Elements)
      : AttrStorage(Kind::Array, Ctx), Elements(std::move(Elements)) {
    StableHasher H = attrHasher(Kind::Array);
    H.add(this->Elements.size());
    for (Attribute Element : this->Elements)
      H.add(Element.getHash());
    Hash = H.get();
  }
  std::vector<Attribute> Elements;
};

struct TypeAttrStorage : AttrStorage {
  TypeAttrStorage(Context *Ctx, Type Value)
      : AttrStorage(Kind::Type, Ctx), Value(Value) {
    Hash = attrHasher(Kind::Type).add(Value.getHash()).get();
  }
  Type Value;
};

struct AffineMapAttrStorage : AttrStorage {
  AffineMapAttrStorage(Context *Ctx, AffineMap Value)
      : AttrStorage(Kind::AffineMap, Ctx), Value(Value) {
    Hash = attrHasher(Kind::AffineMap).add(Value.getHash()).get();
  }
  AffineMap Value;
};

struct DenseElementsAttrStorage : AttrStorage {
  DenseElementsAttrStorage(Context *Ctx, TensorType Ty,
                           std::vector<double> Values, bool IsSplat)
      : AttrStorage(Kind::DenseElements, Ctx), Ty(Ty),
        Values(std::move(Values)), IsSplat(IsSplat) {
    StableHasher H = attrHasher(Kind::DenseElements);
    H.add(Ty.getHash()).add(IsSplat).add(this->Values.size());
    for (double Element : this->Values)
      H.add(doubleBits(Element));
    Hash = H.get();
  }
  TensorType Ty;
  std::vector<double> Values;
  bool IsSplat;
};

} // namespace

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

UnitAttr UnitAttr::get(Context &Ctx) {
  return UnitAttr(Ctx.uniqueAttr("unit", [&] {
    return std::make_unique<SimpleAttrStorage>(AttrStorage::Kind::Unit, &Ctx);
  }));
}

BoolAttr BoolAttr::get(Context &Ctx, bool Value) {
  return BoolAttr(Ctx.uniqueAttr(Value ? "true" : "false", [&] {
    return std::make_unique<BoolAttrStorage>(&Ctx, Value);
  }));
}

bool BoolAttr::getValue() const {
  return static_cast<const BoolAttrStorage *>(Impl)->Value;
}

IntegerAttr IntegerAttr::get(Context &Ctx, int64_t Value, Type Ty) {
  assert(Ty.isIntOrIndex() && "integer attribute needs int/index type");
  std::string Key = "int|" + std::to_string(Value) + "|" + Ty.str();
  return IntegerAttr(Ctx.uniqueAttr(Key, [&] {
    return std::make_unique<IntegerAttrStorage>(&Ctx, Value, Ty);
  }));
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
  char Buffer[48];
  std::snprintf(Buffer, sizeof(Buffer), "float|%a|", Value);
  std::string Key = Buffer + Ty.str();
  return FloatAttr(Ctx.uniqueAttr(Key, [&] {
    return std::make_unique<FloatAttrStorage>(&Ctx, Value, Ty);
  }));
}

double FloatAttr::getValue() const {
  return static_cast<const FloatAttrStorage *>(Impl)->Value;
}

Type FloatAttr::getType() const {
  return static_cast<const FloatAttrStorage *>(Impl)->Ty;
}

StringAttr StringAttr::get(Context &Ctx, std::string_view Value) {
  std::string Key = "str|" + std::string(Value);
  return StringAttr(Ctx.uniqueAttr(Key, [&] {
    return std::make_unique<StringAttrStorage>(&Ctx, AttrStorage::Kind::String,
                                               std::string(Value));
  }));
}

std::string_view StringAttr::getValue() const {
  return static_cast<const StringAttrStorage *>(Impl)->Value;
}

ArrayAttr ArrayAttr::get(Context &Ctx, std::vector<Attribute> Elements) {
  std::string Key = "array|";
  char Buffer[24];
  for (Attribute Element : Elements) {
    std::snprintf(Buffer, sizeof(Buffer), "%p,",
                  static_cast<const void *>(Element.getImpl()));
    Key += Buffer;
  }
  return ArrayAttr(Ctx.uniqueAttr(Key, [&] {
    return std::make_unique<ArrayAttrStorage>(&Ctx, std::move(Elements));
  }));
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
  std::string Key = "type|" + Value.str();
  return TypeAttr(Ctx.uniqueAttr(Key, [&] {
    return std::make_unique<TypeAttrStorage>(&Ctx, Value);
  }));
}

Type TypeAttr::getValue() const {
  return static_cast<const TypeAttrStorage *>(Impl)->Value;
}

SymbolRefAttr SymbolRefAttr::get(Context &Ctx, std::string_view Name) {
  std::string Key = "sym|" + std::string(Name);
  return SymbolRefAttr(Ctx.uniqueAttr(Key, [&] {
    return std::make_unique<StringAttrStorage>(
        &Ctx, AttrStorage::Kind::SymbolRef, std::string(Name));
  }));
}

std::string_view SymbolRefAttr::getValue() const {
  return static_cast<const StringAttrStorage *>(Impl)->Value;
}

AffineMapAttr AffineMapAttr::get(Context &Ctx, AffineMap Map) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "map|%p",
                static_cast<const void *>(Map.getImpl()));
  return AffineMapAttr(Ctx.uniqueAttr(Buffer, [&] {
    return std::make_unique<AffineMapAttrStorage>(&Ctx, Map);
  }));
}

AffineMap AffineMapAttr::getValue() const {
  return static_cast<const AffineMapAttrStorage *>(Impl)->Value;
}

DenseElementsAttr DenseElementsAttr::get(Context &Ctx, TensorType Ty,
                                         std::vector<double> Values) {
  assert(static_cast<int64_t>(Values.size()) == Ty.getNumElements() &&
         "element count must match tensor type");
  std::string Key = "dense|" + Ty.str() + "|";
  char Buffer[32];
  for (double Value : Values) {
    std::snprintf(Buffer, sizeof(Buffer), "%a,", Value);
    Key += Buffer;
  }
  return DenseElementsAttr(Ctx.uniqueAttr(Key, [&] {
    return std::make_unique<DenseElementsAttrStorage>(&Ctx, Ty,
                                                      std::move(Values),
                                                      /*IsSplat=*/false);
  }));
}

DenseElementsAttr DenseElementsAttr::getSplat(Context &Ctx, TensorType Ty,
                                              double Value) {
  char Buffer[48];
  std::snprintf(Buffer, sizeof(Buffer), "splat|%a|", Value);
  std::string Key = Buffer + Ty.str();
  return DenseElementsAttr(Ctx.uniqueAttr(Key, [&] {
    return std::make_unique<DenseElementsAttrStorage>(
        &Ctx, Ty, std::vector<double>{Value}, /*IsSplat=*/true);
  }));
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
