//===- TypeSystem.h - Uniqued IR types --------------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The payload IR type system. Types are immutable value handles over storage
/// uniqued in the Context, so equality is pointer equality — the same design
/// as MLIR. The built-in types cover what the paper's case studies need:
/// index/integer/float scalars, ranked memrefs with strided layouts, ranked
/// tensors, function types, and the Transform dialect handle/parameter types.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_IR_TYPESYSTEM_H
#define TDL_IR_TYPESYSTEM_H

#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace tdl {

class Context;
class raw_ostream;

/// Marker for a dynamic dimension, stride, or offset (printed as `?`).
inline constexpr int64_t kDynamic = std::numeric_limits<int64_t>::min();

/// Base storage for all types. Subclass storages add their parameters.
struct TypeStorage {
  /// The kind values feed Hash, which persists in tuning-database keys:
  /// append new kinds, never reorder.
  enum class Kind : uint8_t {
    Index,
    Integer,
    Float,
    None,
    MemRef,
    Tensor,
    Function,
    TransformAnyOp,
    TransformOp,
    TransformParam,
    TransformAnyValue,
  };

  TypeStorage(Kind K, Context *Ctx, uint64_t Hash)
      : TypeKind(K), Ctx(Ctx), Hash(Hash) {}

  Kind TypeKind;
  Context *Ctx;
  /// Stable structural hash of the kind and parameters (nested types by
  /// their own Hash). The storage class computes it from the parameters
  /// before the uniquer looks them up, and the uniquer keys by it.
  uint64_t Hash;
};

/// Value handle for a uniqued type. Cheap to copy; null-testable.
class Type {
public:
  Type() = default;
  explicit Type(const TypeStorage *Impl) : Impl(Impl) {}

  explicit operator bool() const { return Impl != nullptr; }
  bool operator==(const Type &Other) const { return Impl == Other.Impl; }
  bool operator!=(const Type &Other) const { return Impl != Other.Impl; }
  bool operator<(const Type &Other) const { return Impl < Other.Impl; }

  Context *getContext() const {
    assert(Impl && "null type");
    return Impl->Ctx;
  }
  TypeStorage::Kind getKind() const {
    assert(Impl && "null type");
    return Impl->TypeKind;
  }

  template <typename T> bool isa() const { return Impl && T::classof(*this); }
  template <typename T> T cast() const {
    assert(isa<T>() && "bad type cast");
    return T(Impl);
  }
  template <typename T> T dyn_cast() const {
    return isa<T>() ? T(Impl) : T();
  }

  /// Convenience predicates used all over lowering code.
  bool isIndex() const { return Impl && getKind() == TypeStorage::Kind::Index; }
  bool isInteger() const {
    return Impl && getKind() == TypeStorage::Kind::Integer;
  }
  bool isFloat() const { return Impl && getKind() == TypeStorage::Kind::Float; }
  bool isIntOrIndex() const { return isIndex() || isInteger(); }

  void print(raw_ostream &OS) const;
  std::string str() const;

  /// Structural hash, equal for equal types in any Context and any build.
  uint64_t getHash() const {
    assert(Impl && "null type");
    return Impl->Hash;
  }

  const TypeStorage *getImpl() const { return Impl; }

protected:
  const TypeStorage *Impl = nullptr;
};

inline raw_ostream &operator<<(raw_ostream &OS, Type Ty) {
  Ty.print(OS);
  return OS;
}

//===----------------------------------------------------------------------===//
// Scalar types
//===----------------------------------------------------------------------===//

class IndexType : public Type {
public:
  using Type::Type;
  IndexType() = default;
  static IndexType get(Context &Ctx);
  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::Index;
  }
};

class NoneType : public Type {
public:
  using Type::Type;
  NoneType() = default;
  static NoneType get(Context &Ctx);
  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::None;
  }
};

/// Signless integer type iN.
class IntegerType : public Type {
public:
  using Type::Type;
  IntegerType() = default;
  static IntegerType get(Context &Ctx, unsigned Width);
  unsigned getWidth() const;
  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::Integer;
  }
};

/// IEEE float type (f32 or f64).
class FloatType : public Type {
public:
  using Type::Type;
  FloatType() = default;
  static FloatType get(Context &Ctx, unsigned Width);
  static FloatType getF32(Context &Ctx) { return get(Ctx, 32); }
  static FloatType getF64(Context &Ctx) { return get(Ctx, 64); }
  unsigned getWidth() const;
  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::Float;
  }
};

//===----------------------------------------------------------------------===//
// Shaped types
//===----------------------------------------------------------------------===//

/// Common shape queries shared by memref and tensor types.
class ShapedType : public Type {
public:
  using Type::Type;
  ShapedType() = default;

  const std::vector<int64_t> &getShape() const;
  Type getElementType() const;
  int64_t getRank() const;
  bool hasStaticShape() const;
  /// Product of all dimensions; asserts the shape is static.
  int64_t getNumElements() const;

  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::MemRef ||
           Ty.getKind() == TypeStorage::Kind::Tensor;
  }
};

/// Ranked memref with an optional strided layout. Without a layout the
/// memref is identity-mapped (row-major contiguous, offset zero).
class MemRefType : public ShapedType {
public:
  using ShapedType::ShapedType;
  MemRefType() = default;

  /// Identity-layout memref.
  static MemRefType get(Context &Ctx, std::vector<int64_t> Shape,
                        Type ElementType);
  /// Memref with an explicit strided layout; kDynamic entries allowed.
  static MemRefType getStrided(Context &Ctx, std::vector<int64_t> Shape,
                               Type ElementType, int64_t Offset,
                               std::vector<int64_t> Strides);

  bool hasExplicitLayout() const;
  int64_t getOffset() const;
  const std::vector<int64_t> &getStrides() const;
  /// Row-major strides for the identity layout; asserts static shape.
  std::vector<int64_t> getIdentityStrides() const;

  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::MemRef;
  }
};

/// Ranked tensor type.
class TensorType : public ShapedType {
public:
  using ShapedType::ShapedType;
  TensorType() = default;
  static TensorType get(Context &Ctx, std::vector<int64_t> Shape,
                        Type ElementType);
  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::Tensor;
  }
};

//===----------------------------------------------------------------------===//
// Function type
//===----------------------------------------------------------------------===//

class FunctionType : public Type {
public:
  using Type::Type;
  FunctionType() = default;
  static FunctionType get(Context &Ctx, std::vector<Type> Inputs,
                          std::vector<Type> Results);
  const std::vector<Type> &getInputs() const;
  const std::vector<Type> &getResults() const;
  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::Function;
  }
};

//===----------------------------------------------------------------------===//
// Transform dialect types (Section 3 of the paper)
//===----------------------------------------------------------------------===//

/// `!transform.any_op` — a handle to arbitrary payload operations.
class TransformAnyOpType : public Type {
public:
  using Type::Type;
  TransformAnyOpType() = default;
  static TransformAnyOpType get(Context &Ctx);
  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::TransformAnyOp;
  }
};

/// `!transform.op<"scf.for">` — a handle statically known to reference
/// payload operations of one specific kind. This is the typing information
/// the paper uses for static reasoning about scripts (Fig. 1a).
class TransformOpType : public Type {
public:
  using Type::Type;
  TransformOpType() = default;
  static TransformOpType get(Context &Ctx, std::string_view OpName);
  std::string_view getOpName() const;
  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::TransformOp;
  }
};

/// `!transform.param` — a transform-time constant parameter (Section 3).
class TransformParamType : public Type {
public:
  using Type::Type;
  TransformParamType() = default;
  static TransformParamType get(Context &Ctx);
  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::TransformParam;
  }
};

/// `!transform.any_value` — a handle to arbitrary payload SSA values.
class TransformAnyValueType : public Type {
public:
  using Type::Type;
  TransformAnyValueType() = default;
  static TransformAnyValueType get(Context &Ctx);
  static bool classof(Type Ty) {
    return Ty.getKind() == TypeStorage::Kind::TransformAnyValue;
  }
};

/// Returns true for any `!transform.*` handle or parameter type.
bool isTransformType(Type Ty);
/// Returns true for op-handle types (any_op / op<...>), excluding params and
/// value handles.
bool isTransformHandleType(Type Ty);

/// Whether a value of handle type \p Produced may be used where \p Expected
/// is declared without an explicit `transform.cast`:
///   * identical types are compatible,
///   * any op<"..."> handle widens implicitly into `!transform.any_op`.
/// Narrowing (`!transform.any_op` into op<"...">) and crossing between two
/// different op<"..."> types require an explicit cast; handle/param/value
/// kind mismatches are never compatible.
bool isImplicitHandleConversion(Type Produced, Type Expected);

} // namespace tdl

#endif // TDL_IR_TYPESYSTEM_H
