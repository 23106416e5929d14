//===- Context.h - IR context: uniquing and registration --------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Context owns every uniqued IR object (types, attributes, affine
/// expressions) and the registry of dialects and operations. Operation
/// registration carries traits, a verifier, a folder, and interface tags —
/// the information passes, patterns, and the Transform dialect interpreter
/// dispatch on.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_IR_CONTEXT_H
#define TDL_IR_CONTEXT_H

#include "ir/Affine.h"
#include "ir/Attributes.h"
#include "ir/StorageUniquer.h"
#include "ir/TypeSystem.h"
#include "support/Diagnostics.h"
#include "support/LogicalResult.h"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>

namespace tdl {

class Operation;

/// Operation traits, a bitmask on OpInfo. Mirrors the MLIR trait system in
/// spirit; only the traits this project consults are modeled.
enum OpTrait : uint32_t {
  OT_None = 0,
  /// The op ends its block (may have successors).
  OT_IsTerminator = 1u << 0,
  /// Each region holds at most one block.
  OT_SingleBlock = 1u << 1,
  /// Blocks in regions need no terminator (e.g. builtin.module).
  OT_GraphRegion = 1u << 2,
  /// The op holds a symbol table (children with sym_name attributes).
  OT_SymbolTable = 1u << 3,
  /// The op defines a symbol via its sym_name attribute.
  OT_Symbol = 1u << 4,
  /// Regions may not reference values defined above the op.
  OT_IsolatedFromAbove = 1u << 5,
  /// No memory effects; safe to CSE/hoist/erase-if-unused.
  OT_Pure = 1u << 6,
  OT_Commutative = 1u << 7,
  /// Writes memory (used by LICM and the executor).
  OT_MemWrite = 1u << 8,
  /// Reads memory.
  OT_MemRead = 1u << 9,
  /// Allocates memory (used by condition interfaces).
  OT_MemAlloc = 1u << 10,
  /// Frees memory.
  OT_MemFree = 1u << 11,
};

/// Per-operation registration record.
struct OpInfo {
  /// Fully qualified name, e.g. "scf.for".
  std::string Name;
  uint32_t Traits = OT_None;
  /// Optional semantic verifier run by the IR verifier.
  std::function<LogicalResult(Operation *)> Verify;
  /// Optional constant folder: given constant-or-null operand attributes,
  /// fills result attributes and returns success when folded.
  std::function<LogicalResult(Operation *, const std::vector<Attribute> &,
                              std::vector<Attribute> &)>
      Fold;
  /// Interface tags consulted by pre-/post-condition sets (Section 3.3
  /// allows conditions over interfaces instead of op names).
  std::set<std::string> Interfaces;
  /// True for ops synthesized on first use in a permissive dialect.
  bool IsUnregistered = false;
  /// Lazily resolved `TransformOpDef *` for this op (type-erased so the IR
  /// layer stays independent of the core layer). The transform registry is
  /// a process-wide node-based map, so the cached pointer stays valid even
  /// when a definition is re-registered; only successful lookups are cached
  /// so a definition registered later is still found.
  mutable const void *TransformDefCache = nullptr;

  bool hasTrait(OpTrait Trait) const { return (Traits & Trait) != 0; }
  std::string_view getDialectName() const {
    auto Pos = Name.find('.');
    return std::string_view(Name).substr(0, Pos);
  }
};

/// A registered dialect namespace.
struct Dialect {
  std::string Name;
  /// When true, unknown "<name>.xyz" ops are synthesized on demand. Used for
  /// the permissive `llvm` dialect and for tests of the "soup of dialects"
  /// scenario (Case Study 2).
  bool AllowsUnknownOps = false;
};

/// The root object of the IR: uniquer, registry, diagnostics.
class Context {
public:
  Context();
  ~Context();
  Context(const Context &) = delete;
  Context &operator=(const Context &) = delete;

  DiagnosticEngine &getDiagEngine() { return DiagEngine; }
  InFlightDiagnostic emitError(Location Loc) {
    return InFlightDiagnostic(&DiagEngine, DiagnosticSeverity::Error, Loc);
  }
  InFlightDiagnostic emitRemark(Location Loc) {
    return InFlightDiagnostic(&DiagEngine, DiagnosticSeverity::Remark, Loc);
  }

  //===--------------------------------------------------------------------===//
  // Dialect and operation registration
  //===--------------------------------------------------------------------===//

  Dialect *registerDialect(std::string_view Name, bool AllowsUnknownOps = false);
  Dialect *getDialect(std::string_view Name);

  /// Registers an operation; returns its interned info.
  const OpInfo *registerOp(OpInfo Info);

  /// Looks up a registered op; returns nullptr when unknown.
  const OpInfo *lookupOpInfo(std::string_view Name) const;

  /// Looks up an op, synthesizing a permissive record when the dialect
  /// allows unknown ops (or when `setAllowUnregisteredOps(true)`).
  /// Returns nullptr when the op cannot be used in this context.
  const OpInfo *getOrCreateOpInfo(std::string_view Name);

  void setAllowUnregisteredOps(bool Allow) { AllowUnregisteredOps = Allow; }
  bool allowsUnregisteredOps() const { return AllowUnregisteredOps; }

  /// Returns the names of all registered (non-synthesized) ops.
  std::vector<std::string> getRegisteredOpNames() const;

  //===--------------------------------------------------------------------===//
  // Storage uniquing (types, attributes, affine expressions and maps)
  //===--------------------------------------------------------------------===//

  /// Returns the uniqued storage for \p Key (see StorageUniquer.h).
  template <typename StorageT>
  const StorageT *getStorage(const typename StorageT::KeyTy &Key) {
    return Uniquer.get<StorageT>(Key);
  }

  /// Number of Operation objects currently alive in this context; used by
  /// tests to detect leaks and double frees. Atomic: worker threads in the
  /// matcher engine's parallel commit phase create and destroy operations
  /// concurrently.
  std::atomic<int64_t> NumLiveOperations{0};

private:
  DiagnosticEngine DiagEngine;
  bool AllowUnregisteredOps = false;

  std::map<std::string, Dialect> Dialects;
  std::map<std::string, OpInfo, std::less<>> Ops;
  /// Guards Ops (and Dialects, mutated only through registration). std::map
  /// nodes are pointer-stable, so readers may keep OpInfo pointers across
  /// unlock; the lock only protects the map structure itself. Shared: the
  /// hot path (Operation::create -> getOrCreateOpInfo) is read-mostly.
  mutable std::shared_mutex OpsMutex;

  StorageUniquer Uniquer;
};

} // namespace tdl

#endif // TDL_IR_CONTEXT_H
