//===- IR.h - Values, operations, blocks, regions ---------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutable payload IR: SSA values with use-def chains, generic
/// operations carrying attributes/regions/successors, blocks, and regions.
/// Mirrors MLIR's design: every operation is an instance of the generic
/// `Operation` class parameterized by its registered `OpInfo`, which keeps
/// the op set extensible at runtime — the property the Transform dialect
/// (Section 3.2 of the paper) relies on.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_IR_IR_H
#define TDL_IR_IR_H

#include "ir/Attributes.h"
#include "ir/Context.h"
#include "ir/TypeSystem.h"
#include "support/Diagnostics.h"

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace tdl {

class Block;
class Operation;
class Region;

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

/// Underlying storage for an SSA value: either an operation result or a
/// block argument. Tracks its uses as (user op, operand index) pairs.
struct ValueImpl {
  Type Ty;
  /// Non-null for op results.
  Operation *DefOp = nullptr;
  /// Non-null for block arguments.
  Block *OwnerBlock = nullptr;
  /// Result index or argument index.
  unsigned Index = 0;
  std::vector<std::pair<Operation *, unsigned>> Uses;
};

/// A lightweight handle to an SSA value.
class Value {
public:
  Value() = default;
  explicit Value(ValueImpl *Impl) : Impl(Impl) {}

  explicit operator bool() const { return Impl != nullptr; }
  bool operator==(const Value &O) const { return Impl == O.Impl; }
  bool operator!=(const Value &O) const { return Impl != O.Impl; }
  bool operator<(const Value &O) const { return Impl < O.Impl; }

  Type getType() const { return Impl->Ty; }
  void setType(Type Ty) { Impl->Ty = Ty; }
  Context *getContext() const { return Impl->Ty.getContext(); }

  /// Returns the defining operation, or null for block arguments.
  Operation *getDefiningOp() const { return Impl->DefOp; }
  bool isBlockArgument() const { return Impl->OwnerBlock != nullptr; }
  Block *getOwnerBlock() const { return Impl->OwnerBlock; }
  unsigned getIndex() const { return Impl->Index; }

  /// Returns the block that contains this value's definition point: the
  /// defining op's block for results, the owner block for arguments.
  Block *getDefiningBlock() const;

  bool use_empty() const { return Impl->Uses.empty(); }
  bool hasOneUse() const { return Impl->Uses.size() == 1; }
  size_t getNumUses() const { return Impl->Uses.size(); }
  /// Snapshot of current uses; safe to mutate the IR while iterating it.
  std::vector<std::pair<Operation *, unsigned>> getUses() const {
    return Impl->Uses;
  }
  /// Snapshot of user operations (deduplicated, in first-use order).
  std::vector<Operation *> getUsers() const;

  /// Rewrites every use of this value to \p Replacement.
  void replaceAllUsesWith(Value Replacement) const;
  /// Rewrites the uses for which \p ShouldReplace returns true.
  void replaceUsesWithIf(
      Value Replacement,
      const std::function<bool(Operation *, unsigned)> &ShouldReplace) const;

  ValueImpl *getImpl() const { return Impl; }

private:
  ValueImpl *Impl = nullptr;
};

//===----------------------------------------------------------------------===//
// Operation
//===----------------------------------------------------------------------===//

/// State used to construct an operation.
struct OperationState {
  Location Loc = Location::unknown();
  std::string Name;
  std::vector<Value> Operands;
  std::vector<Type> ResultTypes;
  std::vector<NamedAttribute> Attributes;
  std::vector<Block *> Successors;
  unsigned NumRegions = 0;

  OperationState(Location Loc, std::string_view Name)
      : Loc(Loc), Name(Name) {}

  void addAttribute(std::string_view Name, Attribute Attr) {
    Attributes.push_back({std::string(Name), Attr});
  }
};

/// Maps values/blocks of an original IR fragment to their clones.
class IRMapping {
public:
  void map(Value From, Value To) { ValueMap[From.getImpl()] = To; }
  void map(Block *From, Block *To) { BlockMap[From] = To; }

  Value lookupOrDefault(Value From) const {
    auto It = ValueMap.find(From.getImpl());
    return It == ValueMap.end() ? From : It->second;
  }
  Block *lookupOrDefault(Block *From) const {
    auto It = BlockMap.find(From);
    return It == BlockMap.end() ? From : It->second;
  }
  bool contains(Value From) const {
    return ValueMap.find(From.getImpl()) != ValueMap.end();
  }

private:
  std::map<ValueImpl *, Value> ValueMap;
  std::map<Block *, Block *> BlockMap;
};

/// Result of an interruptible IR walk.
enum class WalkResult { Advance, Interrupt, Skip };

/// A generic operation instance. Owned by its parent block once inserted.
class Operation {
public:
  /// Creates a detached operation. Asserts that the op name resolves to a
  /// registered (or permissively synthesizable) OpInfo.
  static Operation *create(Context &Ctx, const OperationState &State);
  /// Creates a detached operation of the already resolved \p Info, taking
  /// the operands, attributes and successors out of \p State; \p State's
  /// name is not read.
  static Operation *create(Context &Ctx, const OpInfo *Info,
                           OperationState &&State);

  void destroy();

  Context &getContext() const { return *Ctx; }
  Location getLoc() const { return Loc; }
  void setLoc(Location NewLoc) { Loc = NewLoc; }
  const OpInfo *getInfo() const { return Info; }
  std::string_view getName() const { return Info->Name; }
  std::string_view getDialectName() const { return Info->getDialectName(); }
  bool hasTrait(OpTrait Trait) const { return Info->hasTrait(Trait); }

  //===--------------------------------------------------------------------===//
  // Operands
  //===--------------------------------------------------------------------===//

  unsigned getNumOperands() const { return Operands.size(); }
  Value getOperand(unsigned Idx) const {
    assert(Idx < Operands.size() && "operand index out of range");
    return Value(Operands[Idx]);
  }
  void setOperand(unsigned Idx, Value NewValue);
  std::vector<Value> getOperands() const;
  void setOperands(const std::vector<Value> &NewOperands);
  void appendOperand(Value V);
  void eraseOperand(unsigned Idx);
  /// Removes this op from the use lists of all its operands (including ops
  /// nested in its regions when \p Recursive).
  void dropAllReferences(bool Recursive = true);

  //===--------------------------------------------------------------------===//
  // Results
  //===--------------------------------------------------------------------===//

  unsigned getNumResults() const { return Results.size(); }
  Value getResult(unsigned Idx) const {
    assert(Idx < Results.size() && "result index out of range");
    return Value(Results[Idx].get());
  }
  std::vector<Value> getResults() const;
  std::vector<Type> getResultTypes() const;
  bool use_empty() const;
  /// Replaces all uses of all results with the results of \p Replacement.
  void replaceAllUsesWith(Operation *Replacement);
  void replaceAllUsesWith(const std::vector<Value> &Replacements);

  //===--------------------------------------------------------------------===//
  // Attributes
  //===--------------------------------------------------------------------===//

  Attribute getAttr(std::string_view Name) const;
  template <typename T> T getAttrOfType(std::string_view Name) const {
    Attribute Attr = getAttr(Name);
    return Attr ? Attr.dyn_cast<T>() : T();
  }
  bool hasAttr(std::string_view Name) const {
    return static_cast<bool>(getAttr(Name));
  }
  void setAttr(std::string_view Name, Attribute Attr);
  void removeAttr(std::string_view Name);
  const std::vector<NamedAttribute> &getAttrs() const { return Attrs; }

  /// Reads an IntegerAttr as int64_t; returns \p Default when absent.
  int64_t getIntAttr(std::string_view Name, int64_t Default = 0) const;
  /// Reads a StringAttr; returns empty when absent.
  std::string_view getStringAttr(std::string_view Name) const;

  //===--------------------------------------------------------------------===//
  // Regions and successors
  //===--------------------------------------------------------------------===//

  unsigned getNumRegions() const { return Regions.size(); }
  Region &getRegion(unsigned Idx) {
    assert(Idx < Regions.size() && "region index out of range");
    return *Regions[Idx];
  }
  const Region &getRegion(unsigned Idx) const { return *Regions[Idx]; }

  unsigned getNumSuccessors() const { return Successors.size(); }
  Block *getSuccessor(unsigned Idx) const { return Successors[Idx]; }
  void setSuccessor(unsigned Idx, Block *NewSucc) {
    Successors[Idx] = NewSucc;
  }

  //===--------------------------------------------------------------------===//
  // Position in the IR
  //===--------------------------------------------------------------------===//

  Block *getBlock() const { return ParentBlock; }
  Region *getParentRegion() const;
  /// The operation whose region contains this op, or null at the top level.
  Operation *getParentOp() const;
  /// Walks up to find the closest ancestor with the given op name.
  Operation *getParentOfName(std::string_view Name) const;
  bool isAncestorOf(const Operation *Other) const;
  bool isProperAncestorOf(const Operation *Other) const;
  /// True if this op appears before \p Other in their common block.
  bool isBeforeInBlock(const Operation *Other) const;

  void moveBefore(Operation *Anchor);
  void moveAfter(Operation *Anchor);
  /// Unlinks from the parent block without destroying.
  void removeFromParent();
  /// Unlinks and destroys this op (and everything nested in it). The op's
  /// results must be unused.
  void erase();

  //===--------------------------------------------------------------------===//
  // Cloning and traversal
  //===--------------------------------------------------------------------===//

  /// Deep-clones this operation; operands are remapped through \p Mapping,
  /// results and blocks are registered into it.
  Operation *clone(IRMapping &Mapping) const;
  Operation *clone() const {
    IRMapping Mapping;
    return clone(Mapping);
  }

  /// Post-order walk over this op and everything nested in it.
  void walk(const std::function<void(Operation *)> &Callback);
  /// Pre-order walk. The callback may return Skip to not descend, or
  /// Interrupt to stop the whole walk (reported through the return value).
  WalkResult walkPre(const std::function<WalkResult(Operation *)> &Callback);

  /// Counts this op plus all nested ops.
  int64_t getNumNestedOps();

  InFlightDiagnostic emitError() {
    return InFlightDiagnostic(&Ctx->getDiagEngine(), DiagnosticSeverity::Error,
                              Loc);
  }
  InFlightDiagnostic emitOpError();
  InFlightDiagnostic emitWarning() {
    return InFlightDiagnostic(&Ctx->getDiagEngine(),
                              DiagnosticSeverity::Warning, Loc);
  }
  InFlightDiagnostic emitRemark() {
    return InFlightDiagnostic(&Ctx->getDiagEngine(), DiagnosticSeverity::Remark,
                              Loc);
  }

  /// Attempts to fold the op via its registered folder. On success fills
  /// \p ResultAttrs with one attribute per result.
  LogicalResult fold(std::vector<Attribute> &ResultAttrs);

  void print(raw_ostream &OS) const;
  std::string str() const;
  /// Prints to stderr; for debugger use.
  void dump() const;

  using BlockIterator = std::list<Operation *>::iterator;
  BlockIterator getBlockIterator() const { return BlockIt; }

private:
  friend class Block;

  Operation(Context &Ctx, Location Loc, const OpInfo *Info);
  ~Operation();

  /// Everything create() does except setting attributes and successors.
  static Operation *createWithoutAttrs(Context &Ctx, const OpInfo *Info,
                                       const OperationState &State);

  Context *Ctx;
  Location Loc;
  const OpInfo *Info;

  Block *ParentBlock = nullptr;
  BlockIterator BlockIt;

  std::vector<ValueImpl *> Operands;
  std::vector<std::unique_ptr<ValueImpl>> Results;
  std::vector<NamedAttribute> Attrs;
  std::vector<std::unique_ptr<Region>> Regions;
  std::vector<Block *> Successors;
};

//===----------------------------------------------------------------------===//
// Block
//===----------------------------------------------------------------------===//

/// A straight-line sequence of operations with SSA block arguments.
class Block {
public:
  Block() = default;
  ~Block();
  Block(const Block &) = delete;
  Block &operator=(const Block &) = delete;

  Region *getParent() const { return ParentRegion; }
  Operation *getParentOp() const;

  //===--------------------------------------------------------------------===//
  // Arguments
  //===--------------------------------------------------------------------===//

  Value addArgument(Type Ty);
  unsigned getNumArguments() const { return Arguments.size(); }
  Value getArgument(unsigned Idx) const {
    assert(Idx < Arguments.size() && "argument index out of range");
    return Value(Arguments[Idx].get());
  }
  std::vector<Value> getArguments() const;
  void eraseArgument(unsigned Idx);

  //===--------------------------------------------------------------------===//
  // Operation list
  //===--------------------------------------------------------------------===//

  using iterator = std::list<Operation *>::iterator;
  using const_iterator = std::list<Operation *>::const_iterator;

  iterator begin() { return Ops.begin(); }
  iterator end() { return Ops.end(); }
  const_iterator begin() const { return Ops.begin(); }
  const_iterator end() const { return Ops.end(); }
  bool empty() const { return Ops.empty(); }
  size_t size() const { return Ops.size(); }
  Operation *front() const { return Ops.front(); }
  Operation *back() const { return Ops.back(); }

  /// Inserts a detached op at \p Where; returns an iterator to it.
  iterator insert(iterator Where, Operation *Op);
  void push_back(Operation *Op) { insert(end(), Op); }
  void push_front(Operation *Op) { insert(begin(), Op); }

  /// Returns the terminator, or null if the block is empty or its last op
  /// is not a terminator.
  Operation *getTerminator() const;

  /// Successor blocks of the terminator (empty for non-CFG blocks).
  std::vector<Block *> getSuccessors() const;

  /// Splits this block before \p Before: all ops from \p Before onwards move
  /// to a fresh block inserted right after this one in the parent region.
  Block *splitBefore(Operation *Before);

  /// Unlinks and destroys this block. All ops inside are destroyed.
  void erase();

  bool isEntryBlock() const;

private:
  friend class Operation;
  friend class Region;

  Region *ParentRegion = nullptr;
  std::vector<std::unique_ptr<ValueImpl>> Arguments;
  std::list<Operation *> Ops;
};

//===----------------------------------------------------------------------===//
// Region
//===----------------------------------------------------------------------===//

/// A list of blocks owned by an operation.
class Region {
public:
  explicit Region(Operation *Parent) : ParentOp(Parent) {}
  ~Region();
  Region(const Region &) = delete;
  Region &operator=(const Region &) = delete;

  Operation *getParentOp() const { return ParentOp; }

  using BlockListTy = std::list<std::unique_ptr<Block>>;

  bool empty() const { return Blocks.empty(); }
  size_t getNumBlocks() const { return Blocks.size(); }
  Block &front() { return *Blocks.front(); }
  Block &back() { return *Blocks.back(); }

  /// Appends a fresh block.
  Block *addBlock();
  /// Inserts a fresh block before \p Before (which must be in this region).
  Block *addBlockBefore(Block *Before);
  /// Transfers \p B (owned elsewhere is invalid — must be detached).
  Block *insertBlockBefore(Block *Before, std::unique_ptr<Block> B);
  /// Detaches \p B from this region, transferring ownership to the caller.
  std::unique_ptr<Block> detachBlock(Block *B);

  /// Iteration over blocks (as Block&).
  class BlockIterator {
  public:
    explicit BlockIterator(BlockListTy::iterator It) : It(It) {}
    Block &operator*() const { return **It; }
    Block *operator->() const { return It->get(); }
    BlockIterator &operator++() {
      ++It;
      return *this;
    }
    bool operator!=(const BlockIterator &O) const { return It != O.It; }
    bool operator==(const BlockIterator &O) const { return It == O.It; }
    BlockListTy::iterator getBase() const { return It; }

  private:
    BlockListTy::iterator It;
  };

  BlockIterator begin() { return BlockIterator(Blocks.begin()); }
  BlockIterator end() { return BlockIterator(Blocks.end()); }

  /// Moves all blocks of \p Other to the end of this region.
  void takeBody(Region &Other);

  /// Drops operand references of every op in the region.
  void dropAllReferences();

private:
  Operation *ParentOp;
  BlockListTy Blocks;
};

//===----------------------------------------------------------------------===//
// Structural hash
//===----------------------------------------------------------------------===//

/// A stable 64-bit hash of \p Op and everything nested in it, walked once in
/// pre-order. Per op it covers the op name, the attributes in printed order
/// (name plus storage hash), the result types, the successors, the region /
/// block / block-argument shape, and every operand as the def-use edge it
/// names: values and blocks are numbered by first appearance, as the printer
/// numbers `%N` and `^bbN`. Locations, SSA names, whitespace and comments do
/// not contribute, so two payloads hash equal exactly when their printed
/// forms agree (up to hash collisions) — parsed in any Context, by any build.
/// The value keys the strategy selection cache, the tuning database and the
/// run report's payload fingerprint.
uint64_t hashOperationStructure(Operation *Op);

//===----------------------------------------------------------------------===//
// OwningOpRef
//===----------------------------------------------------------------------===//

/// Owns a top-level (detached) operation, destroying it on scope exit.
class OwningOpRef {
public:
  OwningOpRef() = default;
  explicit OwningOpRef(Operation *Op) : Op(Op) {}
  OwningOpRef(OwningOpRef &&Other) : Op(Other.release()) {}
  OwningOpRef &operator=(OwningOpRef &&Other) {
    reset();
    Op = Other.release();
    return *this;
  }
  OwningOpRef(const OwningOpRef &) = delete;
  OwningOpRef &operator=(const OwningOpRef &) = delete;
  ~OwningOpRef() { reset(); }

  Operation *get() const { return Op; }
  Operation *operator->() const { return Op; }
  Operation &operator*() const { return *Op; }
  explicit operator bool() const { return Op != nullptr; }

  Operation *release() {
    Operation *Result = Op;
    Op = nullptr;
    return Result;
  }
  void reset() {
    if (Op)
      Op->destroy();
    Op = nullptr;
  }

private:
  Operation *Op = nullptr;
};

} // namespace tdl

#endif // TDL_IR_IR_H
