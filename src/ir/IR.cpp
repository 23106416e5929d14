//===- IR.cpp - Values, operations, blocks, regions --------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include "support/Hashing.h"

#include <algorithm>
#include <set>
#include <unordered_map>

using namespace tdl;

//===----------------------------------------------------------------------===//
// Use-list helpers
//===----------------------------------------------------------------------===//

static void addUse(ValueImpl *Impl, Operation *User, unsigned OperandIdx) {
  Impl->Uses.emplace_back(User, OperandIdx);
}

static void removeUse(ValueImpl *Impl, Operation *User, unsigned OperandIdx) {
  auto &Uses = Impl->Uses;
  for (auto It = Uses.begin(); It != Uses.end(); ++It) {
    if (It->first == User && It->second == OperandIdx) {
      Uses.erase(It);
      return;
    }
  }
  assert(false && "use record not found");
}

static void renumberUse(ValueImpl *Impl, Operation *User, unsigned OldIdx,
                        unsigned NewIdx) {
  for (auto &Use : Impl->Uses) {
    if (Use.first == User && Use.second == OldIdx) {
      Use.second = NewIdx;
      return;
    }
  }
  assert(false && "use record not found");
}

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

Block *Value::getDefiningBlock() const {
  if (Impl->OwnerBlock)
    return Impl->OwnerBlock;
  return Impl->DefOp->getBlock();
}

std::vector<Operation *> Value::getUsers() const {
  std::vector<Operation *> Users;
  std::set<Operation *> Seen;
  for (const auto &[User, Idx] : Impl->Uses)
    if (Seen.insert(User).second)
      Users.push_back(User);
  return Users;
}

void Value::replaceAllUsesWith(Value Replacement) const {
  assert(Replacement && "replacing with null value");
  std::vector<std::pair<Operation *, unsigned>> Uses = Impl->Uses;
  for (const auto &[User, Idx] : Uses)
    User->setOperand(Idx, Replacement);
}

void Value::replaceUsesWithIf(
    Value Replacement,
    const std::function<bool(Operation *, unsigned)> &ShouldReplace) const {
  std::vector<std::pair<Operation *, unsigned>> Uses = Impl->Uses;
  for (const auto &[User, Idx] : Uses)
    if (ShouldReplace(User, Idx))
      User->setOperand(Idx, Replacement);
}

//===----------------------------------------------------------------------===//
// Operation: creation and destruction
//===----------------------------------------------------------------------===//

Operation::Operation(Context &Ctx, Location Loc, const OpInfo *Info)
    : Ctx(&Ctx), Loc(Loc), Info(Info) {
  ++Ctx.NumLiveOperations;
}

Operation::~Operation() { --Ctx->NumLiveOperations; }

Operation *Operation::create(Context &Ctx, const OperationState &State) {
  const OpInfo *Info = Ctx.getOrCreateOpInfo(State.Name);
  assert(Info && "creating operation with unknown name; register the dialect "
                 "or enable unregistered ops");
  Operation *Op = createWithoutAttrs(Ctx, Info, State);
  Op->Attrs = State.Attributes;
  Op->Successors = State.Successors;
  return Op;
}

Operation *Operation::create(Context &Ctx, const OpInfo *Info,
                             OperationState &&State) {
  Operation *Op = createWithoutAttrs(Ctx, Info, State);
  Op->Attrs = std::move(State.Attributes);
  Op->Successors = std::move(State.Successors);
  return Op;
}

Operation *Operation::createWithoutAttrs(Context &Ctx, const OpInfo *Info,
                                         const OperationState &State) {
  Operation *Op = new Operation(Ctx, State.Loc, Info);

  Op->Operands.reserve(State.Operands.size());
  for (Value Operand : State.Operands) {
    assert(Operand && "null operand");
    addUse(Operand.getImpl(), Op, Op->Operands.size());
    Op->Operands.push_back(Operand.getImpl());
  }

  Op->Results.reserve(State.ResultTypes.size());
  for (unsigned I = 0; I < State.ResultTypes.size(); ++I) {
    auto Impl = std::make_unique<ValueImpl>();
    Impl->Ty = State.ResultTypes[I];
    Impl->DefOp = Op;
    Impl->Index = I;
    Op->Results.push_back(std::move(Impl));
  }

  for (unsigned I = 0; I < State.NumRegions; ++I)
    Op->Regions.push_back(std::make_unique<Region>(Op));

  return Op;
}

void Operation::destroy() {
  assert(!ParentBlock && "destroying op still attached to a block");
  dropAllReferences(/*Recursive=*/true);
  delete this;
}

void Operation::erase() {
  assert(use_empty() && "erasing an operation with live uses");
  removeFromParent();
  destroy();
}

void Operation::removeFromParent() {
  if (!ParentBlock)
    return;
  ParentBlock->Ops.erase(BlockIt);
  ParentBlock = nullptr;
}

void Operation::dropAllReferences(bool Recursive) {
  for (unsigned I = 0; I < Operands.size(); ++I)
    removeUse(Operands[I], this, I);
  Operands.clear();
  Successors.clear();
  if (Recursive)
    for (auto &R : Regions)
      R->dropAllReferences();
}

//===----------------------------------------------------------------------===//
// Operation: operands and results
//===----------------------------------------------------------------------===//

void Operation::setOperand(unsigned Idx, Value NewValue) {
  assert(Idx < Operands.size() && "operand index out of range");
  assert(NewValue && "null operand");
  removeUse(Operands[Idx], this, Idx);
  Operands[Idx] = NewValue.getImpl();
  addUse(NewValue.getImpl(), this, Idx);
}

std::vector<Value> Operation::getOperands() const {
  std::vector<Value> Result;
  Result.reserve(Operands.size());
  for (ValueImpl *Impl : Operands)
    Result.push_back(Value(Impl));
  return Result;
}

void Operation::setOperands(const std::vector<Value> &NewOperands) {
  for (unsigned I = 0; I < Operands.size(); ++I)
    removeUse(Operands[I], this, I);
  Operands.clear();
  Operands.reserve(NewOperands.size());
  for (Value Operand : NewOperands) {
    assert(Operand && "null operand");
    addUse(Operand.getImpl(), this, Operands.size());
    Operands.push_back(Operand.getImpl());
  }
}

void Operation::appendOperand(Value V) {
  assert(V && "null operand");
  addUse(V.getImpl(), this, Operands.size());
  Operands.push_back(V.getImpl());
}

void Operation::eraseOperand(unsigned Idx) {
  assert(Idx < Operands.size() && "operand index out of range");
  removeUse(Operands[Idx], this, Idx);
  Operands.erase(Operands.begin() + Idx);
  for (unsigned I = Idx; I < Operands.size(); ++I)
    renumberUse(Operands[I], this, I + 1, I);
}

std::vector<Value> Operation::getResults() const {
  std::vector<Value> Result;
  Result.reserve(Results.size());
  for (const auto &Impl : Results)
    Result.push_back(Value(Impl.get()));
  return Result;
}

std::vector<Type> Operation::getResultTypes() const {
  std::vector<Type> Types;
  Types.reserve(Results.size());
  for (const auto &Impl : Results)
    Types.push_back(Impl->Ty);
  return Types;
}

bool Operation::use_empty() const {
  for (const auto &Impl : Results)
    if (!Impl->Uses.empty())
      return false;
  return true;
}

void Operation::replaceAllUsesWith(Operation *Replacement) {
  assert(Replacement->getNumResults() == getNumResults() &&
         "result count mismatch in replacement");
  replaceAllUsesWith(Replacement->getResults());
}

void Operation::replaceAllUsesWith(const std::vector<Value> &Replacements) {
  assert(Replacements.size() == getNumResults() &&
         "result count mismatch in replacement");
  for (unsigned I = 0; I < getNumResults(); ++I)
    getResult(I).replaceAllUsesWith(Replacements[I]);
}

//===----------------------------------------------------------------------===//
// Operation: attributes
//===----------------------------------------------------------------------===//

Attribute Operation::getAttr(std::string_view Name) const {
  for (const NamedAttribute &Attr : Attrs)
    if (Attr.Name == Name)
      return Attr.Value;
  return Attribute();
}

void Operation::setAttr(std::string_view Name, Attribute Attr) {
  assert(Attr && "setting null attribute");
  for (NamedAttribute &Existing : Attrs) {
    if (Existing.Name == Name) {
      Existing.Value = Attr;
      return;
    }
  }
  Attrs.push_back({std::string(Name), Attr});
}

void Operation::removeAttr(std::string_view Name) {
  Attrs.erase(std::remove_if(Attrs.begin(), Attrs.end(),
                             [&](const NamedAttribute &Attr) {
                               return Attr.Name == Name;
                             }),
              Attrs.end());
}

int64_t Operation::getIntAttr(std::string_view Name, int64_t Default) const {
  if (IntegerAttr Attr = getAttrOfType<IntegerAttr>(Name))
    return Attr.getValue();
  return Default;
}

std::string_view Operation::getStringAttr(std::string_view Name) const {
  if (StringAttr Attr = getAttrOfType<StringAttr>(Name))
    return Attr.getValue();
  return {};
}

//===----------------------------------------------------------------------===//
// Operation: position
//===----------------------------------------------------------------------===//

Region *Operation::getParentRegion() const {
  return ParentBlock ? ParentBlock->getParent() : nullptr;
}

Operation *Operation::getParentOp() const {
  Region *R = getParentRegion();
  return R ? R->getParentOp() : nullptr;
}

Operation *Operation::getParentOfName(std::string_view Name) const {
  for (Operation *Op = getParentOp(); Op; Op = Op->getParentOp())
    if (Op->getName() == Name)
      return Op;
  return nullptr;
}

bool Operation::isAncestorOf(const Operation *Other) const {
  for (const Operation *Op = Other; Op; Op = Op->getParentOp())
    if (Op == this)
      return true;
  return false;
}

bool Operation::isProperAncestorOf(const Operation *Other) const {
  return Other != this && isAncestorOf(Other);
}

bool Operation::isBeforeInBlock(const Operation *Other) const {
  assert(ParentBlock && ParentBlock == Other->ParentBlock &&
         "ops must share a block");
  for (const Operation *Op : *ParentBlock) {
    if (Op == this)
      return true;
    if (Op == Other)
      return false;
  }
  assert(false && "ops not found in their block");
  return false;
}

void Operation::moveBefore(Operation *Anchor) {
  assert(Anchor->ParentBlock && "anchor must be in a block");
  removeFromParent();
  Anchor->ParentBlock->insert(Anchor->BlockIt, this);
}

void Operation::moveAfter(Operation *Anchor) {
  assert(Anchor->ParentBlock && "anchor must be in a block");
  removeFromParent();
  auto It = Anchor->BlockIt;
  ++It;
  Anchor->ParentBlock->insert(It, this);
}

//===----------------------------------------------------------------------===//
// Operation: cloning, walking, folding
//===----------------------------------------------------------------------===//

Operation *Operation::clone(IRMapping &Mapping) const {
  // The clone shares this op's OpInfo (no name lookup in the context) and
  // takes its attributes straight from this op.
  OperationState State(Loc, "");
  for (ValueImpl *Operand : Operands)
    State.Operands.push_back(Mapping.lookupOrDefault(Value(Operand)));
  for (const auto &Impl : Results)
    State.ResultTypes.push_back(Impl->Ty);
  for (Block *Succ : Successors)
    State.Successors.push_back(Mapping.lookupOrDefault(Succ));
  State.NumRegions = Regions.size();

  Operation *NewOp = create(*Ctx, Info, std::move(State));
  NewOp->Attrs = Attrs;
  for (unsigned I = 0; I < getNumResults(); ++I)
    Mapping.map(getResult(I), NewOp->getResult(I));

  for (unsigned R = 0; R < Regions.size(); ++R) {
    Region &OldRegion = *Regions[R];
    Region &NewRegion = NewOp->getRegion(R);
    // Pre-create all blocks so that forward successor references resolve.
    for (Block &OldBlock : OldRegion) {
      Block *NewBlock = NewRegion.addBlock();
      Mapping.map(&OldBlock, NewBlock);
      for (unsigned A = 0; A < OldBlock.getNumArguments(); ++A) {
        Value NewArg = NewBlock->addArgument(OldBlock.getArgument(A).getType());
        Mapping.map(OldBlock.getArgument(A), NewArg);
      }
    }
    for (Block &OldBlock : OldRegion) {
      Block *NewBlock = Mapping.lookupOrDefault(&OldBlock);
      for (Operation *OldNested : OldBlock)
        NewBlock->push_back(OldNested->clone(Mapping));
    }
  }
  return NewOp;
}

void Operation::walk(const std::function<void(Operation *)> &Callback) {
  for (auto &R : Regions) {
    for (Block &B : *R) {
      // Snapshot so callbacks may erase the visited op or its neighbors.
      std::vector<Operation *> Snapshot(B.begin(), B.end());
      for (Operation *Nested : Snapshot)
        Nested->walk(Callback);
    }
  }
  Callback(this);
}

WalkResult Operation::walkPre(
    const std::function<WalkResult(Operation *)> &Callback) {
  WalkResult Result = Callback(this);
  if (Result == WalkResult::Interrupt)
    return WalkResult::Interrupt;
  if (Result == WalkResult::Skip)
    return WalkResult::Advance;
  for (auto &R : Regions) {
    for (Block &B : *R) {
      std::vector<Operation *> Snapshot(B.begin(), B.end());
      for (Operation *Nested : Snapshot)
        if (Nested->walkPre(Callback) == WalkResult::Interrupt)
          return WalkResult::Interrupt;
    }
  }
  return WalkResult::Advance;
}

int64_t Operation::getNumNestedOps() {
  int64_t Count = 0;
  walk([&](Operation *) { ++Count; });
  return Count;
}

InFlightDiagnostic Operation::emitOpError() {
  InFlightDiagnostic Diag = emitError();
  Diag << "'" << getName() << "' op ";
  return Diag;
}

LogicalResult Operation::fold(std::vector<Attribute> &ResultAttrs) {
  if (!Info->Fold)
    return failure();
  std::vector<Attribute> OperandAttrs;
  OperandAttrs.reserve(Operands.size());
  for (ValueImpl *Operand : Operands) {
    Attribute Constant;
    if (Operation *Def = Operand->DefOp)
      if (Def->hasTrait(OT_Pure))
        Constant = Def->getAttr("value");
    OperandAttrs.push_back(Constant);
  }
  return Info->Fold(this, OperandAttrs, ResultAttrs);
}

//===----------------------------------------------------------------------===//
// Block
//===----------------------------------------------------------------------===//

Block::~Block() {
  for (Operation *Op : Ops)
    Op->dropAllReferences(/*Recursive=*/true);
  for (Operation *Op : Ops) {
    Op->ParentBlock = nullptr;
    delete Op;
  }
  Ops.clear();
}

Operation *Block::getParentOp() const {
  return ParentRegion ? ParentRegion->getParentOp() : nullptr;
}

Value Block::addArgument(Type Ty) {
  auto Impl = std::make_unique<ValueImpl>();
  Impl->Ty = Ty;
  Impl->OwnerBlock = this;
  Impl->Index = Arguments.size();
  Value Result(Impl.get());
  Arguments.push_back(std::move(Impl));
  return Result;
}

std::vector<Value> Block::getArguments() const {
  std::vector<Value> Result;
  Result.reserve(Arguments.size());
  for (const auto &Impl : Arguments)
    Result.push_back(Value(Impl.get()));
  return Result;
}

void Block::eraseArgument(unsigned Idx) {
  assert(Idx < Arguments.size() && "argument index out of range");
  assert(Arguments[Idx]->Uses.empty() && "erasing argument with live uses");
  Arguments.erase(Arguments.begin() + Idx);
  for (unsigned I = Idx; I < Arguments.size(); ++I)
    Arguments[I]->Index = I;
}

Block::iterator Block::insert(iterator Where, Operation *Op) {
  assert(!Op->ParentBlock && "op already attached to a block");
  Op->ParentBlock = this;
  Op->BlockIt = Ops.insert(Where, Op);
  return Op->BlockIt;
}

Operation *Block::getTerminator() const {
  if (Ops.empty())
    return nullptr;
  Operation *Last = Ops.back();
  return Last->hasTrait(OT_IsTerminator) ? Last : nullptr;
}

std::vector<Block *> Block::getSuccessors() const {
  Operation *Term = getTerminator();
  if (!Term)
    return {};
  std::vector<Block *> Succs;
  for (unsigned I = 0; I < Term->getNumSuccessors(); ++I)
    Succs.push_back(Term->getSuccessor(I));
  return Succs;
}

Block *Block::splitBefore(Operation *Before) {
  assert(Before->getBlock() == this && "op not in this block");
  assert(ParentRegion && "splitting a detached block");
  Block *NewBlock = ParentRegion->addBlockBefore(nullptr);
  // std::list::splice preserves iterators, so only parent links change.
  NewBlock->Ops.splice(NewBlock->Ops.end(), Ops, Before->getBlockIterator(),
                       Ops.end());
  for (Operation *Moved : NewBlock->Ops)
    Moved->ParentBlock = NewBlock;
  // Position the new block right after this one.
  std::unique_ptr<Block> Owned = ParentRegion->detachBlock(NewBlock);
  Region::BlockIterator It = ParentRegion->begin();
  while (&*It != this)
    ++It;
  ++It;
  Block *Anchor = (It != ParentRegion->end()) ? &*It : nullptr;
  return ParentRegion->insertBlockBefore(Anchor, std::move(Owned));
}

void Block::erase() {
  assert(ParentRegion && "erasing a detached block");
  for (Operation *Op : Ops)
    Op->dropAllReferences(/*Recursive=*/true);
  std::unique_ptr<Block> Owned = ParentRegion->detachBlock(this);
  // Owned goes out of scope and destroys the block.
}

bool Block::isEntryBlock() const {
  return ParentRegion && !ParentRegion->empty() &&
         &ParentRegion->front() == this;
}

//===----------------------------------------------------------------------===//
// Region
//===----------------------------------------------------------------------===//

Region::~Region() = default;

Block *Region::addBlock() {
  auto NewBlock = std::make_unique<Block>();
  NewBlock->ParentRegion = this;
  Block *Result = NewBlock.get();
  Blocks.push_back(std::move(NewBlock));
  return Result;
}

Block *Region::addBlockBefore(Block *Before) {
  auto NewBlock = std::make_unique<Block>();
  NewBlock->ParentRegion = this;
  Block *Result = NewBlock.get();
  if (!Before) {
    Blocks.push_back(std::move(NewBlock));
    return Result;
  }
  for (auto It = Blocks.begin(); It != Blocks.end(); ++It) {
    if (It->get() == Before) {
      Blocks.insert(It, std::move(NewBlock));
      return Result;
    }
  }
  assert(false && "anchor block not in region");
  return Result;
}

Block *Region::insertBlockBefore(Block *Before, std::unique_ptr<Block> B) {
  B->ParentRegion = this;
  Block *Result = B.get();
  if (!Before) {
    Blocks.push_back(std::move(B));
    return Result;
  }
  for (auto It = Blocks.begin(); It != Blocks.end(); ++It) {
    if (It->get() == Before) {
      Blocks.insert(It, std::move(B));
      return Result;
    }
  }
  assert(false && "anchor block not in region");
  return Result;
}

std::unique_ptr<Block> Region::detachBlock(Block *B) {
  for (auto It = Blocks.begin(); It != Blocks.end(); ++It) {
    if (It->get() == B) {
      std::unique_ptr<Block> Owned = std::move(*It);
      Blocks.erase(It);
      Owned->ParentRegion = nullptr;
      return Owned;
    }
  }
  assert(false && "block not in region");
  return nullptr;
}

void Region::takeBody(Region &Other) {
  for (auto &B : Other.Blocks)
    B->ParentRegion = this;
  Blocks.splice(Blocks.end(), Other.Blocks);
}

void Region::dropAllReferences() {
  for (auto &B : Blocks)
    for (Operation *Op : B->Ops)
      Op->dropAllReferences(/*Recursive=*/true);
}

//===----------------------------------------------------------------------===//
// Structural hash
//===----------------------------------------------------------------------===//

namespace {

/// One pre-order walk feeding a StableHasher. Values and blocks get dense
/// numbers on first appearance; their addresses only key the numbering and
/// never reach the hash.
class StructureHasher {
public:
  uint64_t run(Operation *Root) {
    hashOp(Root);
    return H.get();
  }

private:
  uint32_t number(const void *Key, uint32_t &Next) {
    auto [It, Inserted] = Numbers.try_emplace(Key, Next);
    if (Inserted)
      ++Next;
    return It->second;
  }
  uint32_t valueNumber(Value V) { return number(V.getImpl(), NextValue); }
  uint32_t blockNumber(Block *B) { return number(B, NextBlock); }

  void hashOp(Operation *Op) {
    H.addBytes(Op->getName());
    H.add(Op->getNumResults());
    for (unsigned I = 0; I < Op->getNumResults(); ++I) {
      Value Result = Op->getResult(I);
      H.add(valueNumber(Result)).add(Result.getType().getHash());
    }
    H.add(Op->getNumOperands());
    for (unsigned I = 0; I < Op->getNumOperands(); ++I)
      H.add(valueNumber(Op->getOperand(I)));
    H.add(Op->getNumSuccessors());
    for (unsigned I = 0; I < Op->getNumSuccessors(); ++I)
      H.add(blockNumber(Op->getSuccessor(I)));
    H.add(Op->getAttrs().size());
    for (const NamedAttribute &Attr : Op->getAttrs())
      H.addBytes(Attr.Name).add(Attr.Value.getHash());
    H.add(Op->getNumRegions());
    for (unsigned R = 0; R < Op->getNumRegions(); ++R) {
      Region &Body = Op->getRegion(R);
      H.add(Body.getNumBlocks());
      // Number the region's blocks up front, as the printer does, so a
      // forward successor reference gets the same number as its block.
      for (Block &B : Body)
        (void)blockNumber(&B);
      for (Block &B : Body) {
        H.add(blockNumber(&B)).add(B.getNumArguments());
        for (unsigned A = 0; A < B.getNumArguments(); ++A) {
          Value Arg = B.getArgument(A);
          H.add(valueNumber(Arg)).add(Arg.getType().getHash());
        }
        H.add(B.size());
        for (Operation *Nested : B)
          hashOp(Nested);
      }
    }
  }

  StableHasher H;
  std::unordered_map<const void *, uint32_t> Numbers;
  uint32_t NextValue = 0;
  uint32_t NextBlock = 0;
};

} // namespace

uint64_t tdl::hashOperationStructure(Operation *Op) {
  return StructureHasher().run(Op);
}
