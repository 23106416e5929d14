//===- Attributes.h - Uniqued IR attributes ---------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compile-time constant attribute values attached to operations. Like
/// types, attributes are immutable handles over Context-uniqued storage.
/// Transform parameters (`!transform.param` values, Section 3 of the paper)
/// are represented at interpretation time as lists of attributes.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_IR_ATTRIBUTES_H
#define TDL_IR_ATTRIBUTES_H

#include "ir/Affine.h"
#include "ir/TypeSystem.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace tdl {

class Context;
class raw_ostream;

struct AttrStorage {
  /// The kind values feed Hash, which persists in tuning-database keys:
  /// append new kinds, never reorder.
  enum class Kind : uint8_t {
    Unit,
    Bool,
    Integer,
    Float,
    String,
    Array,
    Type,
    SymbolRef,
    AffineMap,
    DenseElements,
  };

  AttrStorage(Kind K, Context *Ctx, uint64_t Hash)
      : AttrKind(K), Ctx(Ctx), Hash(Hash) {}

  Kind AttrKind;
  Context *Ctx;
  /// Stable structural hash of the kind and parameters (nested types,
  /// attributes and maps by their own hash, never by address). The storage
  /// class computes it from the parameters before the uniquer looks them
  /// up, and the uniquer keys by it.
  uint64_t Hash;
};

/// Value handle for a uniqued attribute.
class Attribute {
public:
  Attribute() = default;
  explicit Attribute(const AttrStorage *Impl) : Impl(Impl) {}

  explicit operator bool() const { return Impl != nullptr; }
  bool operator==(const Attribute &O) const { return Impl == O.Impl; }
  bool operator!=(const Attribute &O) const { return Impl != O.Impl; }
  bool operator<(const Attribute &O) const { return Impl < O.Impl; }

  Context *getContext() const {
    assert(Impl && "null attribute");
    return Impl->Ctx;
  }
  AttrStorage::Kind getKind() const {
    assert(Impl && "null attribute");
    return Impl->AttrKind;
  }

  template <typename T> bool isa() const { return Impl && T::classof(*this); }
  template <typename T> T cast() const {
    assert(isa<T>() && "bad attribute cast");
    return T(Impl);
  }
  template <typename T> T dyn_cast() const {
    return isa<T>() ? T(Impl) : T();
  }

  void print(raw_ostream &OS) const;
  std::string str() const;

  /// Structural hash, equal for equal attributes in any Context and any
  /// build.
  uint64_t getHash() const {
    assert(Impl && "null attribute");
    return Impl->Hash;
  }

  const AttrStorage *getImpl() const { return Impl; }

protected:
  const AttrStorage *Impl = nullptr;
};

inline raw_ostream &operator<<(raw_ostream &OS, Attribute Attr) {
  Attr.print(OS);
  return OS;
}

/// The unit attribute: presence-only flag, printed as the bare name.
class UnitAttr : public Attribute {
public:
  using Attribute::Attribute;
  UnitAttr() = default;
  static UnitAttr get(Context &Ctx);
  static bool classof(Attribute A) {
    return A.getKind() == AttrStorage::Kind::Unit;
  }
};

class BoolAttr : public Attribute {
public:
  using Attribute::Attribute;
  BoolAttr() = default;
  static BoolAttr get(Context &Ctx, bool Value);
  bool getValue() const;
  static bool classof(Attribute A) {
    return A.getKind() == AttrStorage::Kind::Bool;
  }
};

/// Integer constant with an integer or index type.
class IntegerAttr : public Attribute {
public:
  using Attribute::Attribute;
  IntegerAttr() = default;
  static IntegerAttr get(Context &Ctx, int64_t Value, Type Ty);
  /// Index-typed integer, the most common case in loop transforms.
  static IntegerAttr getIndex(Context &Ctx, int64_t Value);
  int64_t getValue() const;
  Type getType() const;
  static bool classof(Attribute A) {
    return A.getKind() == AttrStorage::Kind::Integer;
  }
};

class FloatAttr : public Attribute {
public:
  using Attribute::Attribute;
  FloatAttr() = default;
  static FloatAttr get(Context &Ctx, double Value, Type Ty);
  double getValue() const;
  Type getType() const;
  static bool classof(Attribute A) {
    return A.getKind() == AttrStorage::Kind::Float;
  }
};

class StringAttr : public Attribute {
public:
  using Attribute::Attribute;
  StringAttr() = default;
  static StringAttr get(Context &Ctx, std::string_view Value);
  std::string_view getValue() const;
  static bool classof(Attribute A) {
    return A.getKind() == AttrStorage::Kind::String;
  }
};

class ArrayAttr : public Attribute {
public:
  using Attribute::Attribute;
  ArrayAttr() = default;
  static ArrayAttr get(Context &Ctx, std::vector<Attribute> Elements);
  /// Convenience: an array of index-typed IntegerAttrs.
  static ArrayAttr getIndexArray(Context &Ctx,
                                 const std::vector<int64_t> &Values);
  const std::vector<Attribute> &getValue() const;
  size_t size() const { return getValue().size(); }
  Attribute operator[](size_t Idx) const { return getValue()[Idx]; }
  /// Extracts integer elements; asserts all elements are IntegerAttr.
  std::vector<int64_t> getAsIntegers() const;
  static bool classof(Attribute A) {
    return A.getKind() == AttrStorage::Kind::Array;
  }
};

class TypeAttr : public Attribute {
public:
  using Attribute::Attribute;
  TypeAttr() = default;
  static TypeAttr get(Context &Ctx, Type Value);
  Type getValue() const;
  static bool classof(Attribute A) {
    return A.getKind() == AttrStorage::Kind::Type;
  }
};

/// Reference to a symbol (e.g. a function), printed as `@name`.
class SymbolRefAttr : public Attribute {
public:
  using Attribute::Attribute;
  SymbolRefAttr() = default;
  static SymbolRefAttr get(Context &Ctx, std::string_view Name);
  std::string_view getValue() const;
  static bool classof(Attribute A) {
    return A.getKind() == AttrStorage::Kind::SymbolRef;
  }
};

class AffineMapAttr : public Attribute {
public:
  using Attribute::Attribute;
  AffineMapAttr() = default;
  static AffineMapAttr get(Context &Ctx, AffineMap Map);
  AffineMap getValue() const;
  static bool classof(Attribute A) {
    return A.getKind() == AttrStorage::Kind::AffineMap;
  }
};

/// Constant tensor data. Numeric payload is stored as doubles (sufficient
/// for the synthetic ML workloads); splats store a single element.
class DenseElementsAttr : public Attribute {
public:
  using Attribute::Attribute;
  DenseElementsAttr() = default;
  static DenseElementsAttr get(Context &Ctx, TensorType Ty,
                               std::vector<double> Values);
  static DenseElementsAttr getSplat(Context &Ctx, TensorType Ty, double Value);
  TensorType getType() const;
  bool isSplat() const;
  const std::vector<double> &getRawValues() const;
  /// Element count implied by the type.
  int64_t getNumElements() const { return getType().getNumElements(); }
  double getSplatValue() const;
  static bool classof(Attribute A) {
    return A.getKind() == AttrStorage::Kind::DenseElements;
  }
};

/// A named attribute entry on an operation.
struct NamedAttribute {
  std::string Name;
  Attribute Value;
};

} // namespace tdl

#endif // TDL_IR_ATTRIBUTES_H
