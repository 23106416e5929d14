//===- Executor.cpp - Payload IR execution engine ------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/Executor.h"

#include "dialect/Dialects.h"
#include "ir/SymbolTable.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>

using namespace tdl;
using namespace tdl::exec;

//===----------------------------------------------------------------------===//
// Buffer
//===----------------------------------------------------------------------===//

Buffer Buffer::alloc(const std::vector<int64_t> &Shape) {
  Buffer Result;
  int64_t Count = 1;
  for (int64_t Dim : Shape)
    Count *= Dim;
  Result.Data = std::make_shared<std::vector<double>>(Count, 0.0);
  Result.Sizes = Shape;
  Result.Strides.assign(Shape.size(), 1);
  for (int64_t I = static_cast<int64_t>(Shape.size()) - 2; I >= 0; --I)
    Result.Strides[I] = Result.Strides[I + 1] * Shape[I + 1];
  return Result;
}

int64_t Buffer::linearIndex(const std::vector<int64_t> &Indices) const {
  int64_t Linear = Offset;
  for (size_t I = 0; I < Indices.size(); ++I)
    Linear += Indices[I] * Strides[I];
  return Linear;
}

double &Buffer::at(const std::vector<int64_t> &Indices) {
  return (*Data)[linearIndex(Indices)];
}

int64_t Buffer::getNumElements() const {
  int64_t Count = 1;
  for (int64_t Dim : Sizes)
    Count *= Dim;
  return Count;
}

RuntimeValue RuntimeValue::makeInt(int64_t Value) {
  RuntimeValue Result;
  Result.Kind = Kind::Int;
  Result.I = Value;
  return Result;
}

RuntimeValue RuntimeValue::makeFloat(double Value) {
  RuntimeValue Result;
  Result.Kind = Kind::Float;
  Result.F = Value;
  return Result;
}

RuntimeValue RuntimeValue::makeBuffer(Buffer Value) {
  RuntimeValue Result;
  Result.Kind = Kind::Mem;
  Result.Mem = std::move(Value);
  return Result;
}

//===----------------------------------------------------------------------===//
// The xsmm-lite microkernel
//===----------------------------------------------------------------------===//

void tdl::exec::xsmmMatmulKernel(Buffer &A, Buffer &B, Buffer &C, int64_t ILo,
                                 int64_t IHi, int64_t JLo, int64_t JHi,
                                 int64_t KLo, int64_t KHi,
                                 const std::vector<int64_t> &PrefixA,
                                 const std::vector<int64_t> &PrefixB,
                                 const std::vector<int64_t> &PrefixC) {
  size_t Pa = PrefixA.size(), Pb = PrefixB.size(), Pc = PrefixC.size();
  int64_t BaseA = A.Offset, BaseB = B.Offset, BaseC = C.Offset;
  for (size_t I = 0; I < Pa; ++I)
    BaseA += PrefixA[I] * A.Strides[I];
  for (size_t I = 0; I < Pb; ++I)
    BaseB += PrefixB[I] * B.Strides[I];
  for (size_t I = 0; I < Pc; ++I)
    BaseC += PrefixC[I] * C.Strides[I];
  int64_t As0 = A.Strides[Pa], As1 = A.Strides[Pa + 1];
  int64_t Bs0 = B.Strides[Pb], Bs1 = B.Strides[Pb + 1];
  int64_t Cs0 = C.Strides[Pc], Cs1 = C.Strides[Pc + 1];

  double *__restrict APtr = A.Data->data();
  double *__restrict BPtr = B.Data->data();
  double *__restrict CPtr = C.Data->data();

  // Register-blocked i-k-j kernel; the innermost stride-1 j loop vectorizes.
  for (int64_t I = ILo; I < IHi; ++I) {
    double *__restrict CRow = CPtr + BaseC + I * Cs0 + JLo * Cs1;
    for (int64_t K = KLo; K < KHi; ++K) {
      double AVal = APtr[BaseA + I * As0 + K * As1];
      const double *__restrict BRow = BPtr + BaseB + K * Bs0 + JLo * Bs1;
      if (Cs1 == 1 && Bs1 == 1) {
        int64_t N = JHi - JLo;
        for (int64_t J = 0; J < N; ++J)
          CRow[J] += AVal * BRow[J];
      } else {
        for (int64_t J = 0; J < JHi - JLo; ++J)
          CRow[J * Cs1] += AVal * BRow[J * Bs1];
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Compilation to a block program
//===----------------------------------------------------------------------===//

namespace {

struct Slot {
  enum class Kind { Int, Float, Mem } Kind = Kind::Int;
  unsigned Index = 0;
};

struct Frame {
  std::vector<int64_t> Ints;
  std::vector<double> Floats;
  std::vector<Buffer> Bufs;
  int64_t OpCount = 0;

  RuntimeValue get(Slot S) const {
    if (S.Kind == Slot::Kind::Int)
      return RuntimeValue::makeInt(Ints[S.Index]);
    if (S.Kind == Slot::Kind::Float)
      return RuntimeValue::makeFloat(Floats[S.Index]);
    return RuntimeValue::makeBuffer(Bufs[S.Index]);
  }

  void set(Slot S, const RuntimeValue &V) {
    switch (S.Kind) {
    case Slot::Kind::Int:
      Ints[S.Index] = V.I;
      break;
    case Slot::Kind::Float:
      Floats[S.Index] = V.F;
      break;
    case Slot::Kind::Mem:
      Bufs[S.Index] = V.Mem;
      break;
    }
  }

  /// Copies slot \p Src into index \p Dst of the same kind. Buffer copies
  /// reuse the destination's capacity, so a warm frame does not allocate.
  void copy(Slot Src, unsigned Dst) {
    switch (Src.Kind) {
    case Slot::Kind::Int:
      Ints[Dst] = Ints[Src.Index];
      break;
    case Slot::Kind::Float:
      Floats[Dst] = Floats[Src.Index];
      break;
    case Slot::Kind::Mem:
      Bufs[Dst] = Bufs[Src.Index];
      break;
    }
  }
};

using CompiledOp = std::function<void(Frame &)>;

/// One (source slot, destination block-argument slot) edge of a branch.
/// Branches copy with parallel semantics: all sources are read before any
/// destination is written, so `cf.br ^bb(%y, %x)` into `^bb(%x, %y)` swaps.
struct BranchCopy {
  Slot Src;
  Slot Dst;
};

/// A compiled basic block: a straight-line program plus a terminator that
/// the dispatch loop in `invoke` interprets. Every function body compiles to
/// one vector of these; structured `scf` ops and calls open extra blocks
/// while they compile.
struct CompiledBlock {
  std::vector<CompiledOp> Body;
  enum class Term { Return, Br, CondBr, LoopEnter, LoopNext, Call } Kind =
      Term::Return;
  /// Executed ops the terminator counts: 1 for `cf.*`, `scf.if`,
  /// `func.call` and a multi-block `func.return`; 0 for a single-block
  /// `func.return` and the jumps the compiler adds. A loop terminator counts
  /// it once per iteration it enters.
  int64_t Cost = 0;
  /// Return: the result slots. Call: the argument slots.
  std::vector<Slot> Operands;
  /// Call: the callee and the slots that receive its results.
  std::string Callee;
  std::vector<Slot> Results;
  /// Int slot indices. CondBr tests Cond. LoopEnter sets `Iv = Lb`, LoopNext
  /// sets `Iv += Step`; both then enter TrueDest while `Iv < Ub`.
  unsigned Cond = 0;
  struct LoopSlots {
    unsigned Iv = 0, Lb = 0, Ub = 0, Step = 0;
  } Loop;
  /// Successor indices into CompiledFunction::Blocks and the block-argument
  /// copies on each edge; FalseDest is the CondBr else edge and the loop
  /// exit.
  int TrueDest = -1, FalseDest = -1;
  std::vector<BranchCopy> TrueCopies, FalseCopies;
};

struct CompiledFunction {
  /// The block program; Blocks[0] is the entry.
  std::vector<CompiledBlock> Blocks;
  std::vector<Slot> ArgSlots;
  unsigned NumInts = 0, NumFloats = 0, NumBufs = 0;
  /// The most block-argument copies on one edge. Every frame holds this many
  /// scratch slots of each kind past the value slots.
  unsigned MaxCopies = 0;
  /// Initial int slot values (the constant `scf.forall` bounds), sized to
  /// the frame.
  std::vector<int64_t> IntInit;
};

} // namespace

struct Executor::Impl {
  Operation *Module;
  std::map<std::string, std::unique_ptr<CompiledFunction>, std::less<>> Cache;
  int64_t LastOpCount = 0;

  FailureOr<const CompiledFunction *> compile(std::string_view Name);
  FailureOr<std::vector<RuntimeValue>> invoke(const CompiledFunction &Fn,
                                              std::vector<RuntimeValue> Args,
                                              int64_t &OpCount);
};

namespace {

/// Copies view \p In into view \p Out element by element over In's sizes,
/// from dimension \p Dim on at the given positions past each view's offset.
void copyView(const Buffer &In, Buffer &Out, size_t Dim = 0, int64_t InPos = 0,
              int64_t OutPos = 0) {
  if (Dim == In.Sizes.size()) {
    (*Out.Data)[Out.Offset + OutPos] = (*In.Data)[In.Offset + InPos];
    return;
  }
  for (int64_t I = 0; I < In.Sizes[Dim]; ++I)
    copyView(In, Out, Dim + 1, InPos + I * In.Strides[Dim],
             OutPos + I * Out.Strides[Dim]);
}

class FunctionCompiler {
public:
  FunctionCompiler(Operation *Func, CompiledFunction &Fn)
      : Func(Func), Fn(Fn) {}

  /// One compiled block per basic block, in order; structured ops append
  /// more. A single-block body's return counts no executed op.
  LogicalResult compile() {
    Region &Top = Func->getRegion(0);
    for (Block &B : Top) {
      BlockIndex[&B] = newBlock();
      // Pre-assign block-argument slots so branch edges can target them.
      for (Value Arg : B.getArguments())
        (void)assignSlot(Arg);
    }
    for (Value Arg : Top.front().getArguments())
      Fn.ArgSlots.push_back(assignSlot(Arg));
    bool MultiBlock = Top.getNumBlocks() > 1;
    for (Block &B : Top) {
      Cur = BlockIndex[&B];
      if (failed(compileOps(B)))
        return failure();
      Operation *Terminator = B.getTerminator();
      if (!Terminator)
        return Func->emitOpError() << "executor: block without a terminator";
      CompiledBlock &Rec = Fn.Blocks[Cur];
      std::string_view TermName = Terminator->getName();
      Rec.Cost = MultiBlock || TermName != "func.return";
      if (TermName == "func.return") {
        Rec.Kind = CompiledBlock::Term::Return;
        for (Value Operand : Terminator->getOperands())
          Rec.Operands.push_back(assignSlot(Operand));
      } else if (TermName == "cf.br") {
        Rec.Kind = CompiledBlock::Term::Br;
        bindEdge(Terminator, 0, 0, Terminator->getNumOperands(), Rec.TrueDest,
                 Rec.TrueCopies);
      } else if (TermName == "cf.cond_br") {
        Rec.Kind = CompiledBlock::Term::CondBr;
        Rec.Cond = assignSlot(Terminator->getOperand(0)).Index;
        unsigned TrueEnd = 1 + static_cast<unsigned>(
                                   Terminator->getIntAttr("true_count", 0));
        bindEdge(Terminator, 0, 1, TrueEnd, Rec.TrueDest, Rec.TrueCopies);
        bindEdge(Terminator, 1, TrueEnd, Terminator->getNumOperands(),
                 Rec.FalseDest, Rec.FalseCopies);
      } else {
        return Terminator->emitOpError()
               << "executor: unsupported CFG terminator";
      }
    }
    Fn.IntInit.resize(Fn.NumInts + Fn.MaxCopies);
    return success();
  }

private:
  Slot assignSlot(Value V) {
    auto It = Slots.find(V.getImpl());
    if (It != Slots.end())
      return It->second;
    Slot S;
    Type Ty = V.getType();
    if (Ty.isFloat()) {
      S.Kind = Slot::Kind::Float;
      S.Index = Fn.NumFloats++;
    } else if (Ty.isa<MemRefType>()) {
      S.Kind = Slot::Kind::Mem;
      S.Index = Fn.NumBufs++;
    } else {
      S.Kind = Slot::Kind::Int;
      S.Index = Fn.NumInts++;
    }
    Slots[V.getImpl()] = S;
    return S;
  }

  /// A fresh int slot that holds \p V from frame set-up on.
  unsigned constSlot(int64_t V) {
    Fn.IntInit.resize(Fn.NumInts + 1);
    Fn.IntInit[Fn.NumInts] = V;
    return Fn.NumInts++;
  }

  int newBlock() {
    Fn.Blocks.emplace_back();
    return static_cast<int>(Fn.Blocks.size()) - 1;
  }

  void emit(CompiledOp Op) { Fn.Blocks[Cur].Body.push_back(std::move(Op)); }

  /// Binds successor \p Succ of \p Terminator, whose block arguments take
  /// operands [Begin, End), to \p Dest and the edge's \p Copies.
  void bindEdge(Operation *Terminator, unsigned Succ, unsigned Begin,
                unsigned End, int &Dest, std::vector<BranchCopy> &Copies) {
    Block *Target = Terminator->getSuccessor(Succ);
    Dest = BlockIndex.at(Target);
    for (unsigned I = Begin; I < End; ++I)
      Copies.push_back({assignSlot(Terminator->getOperand(I)),
                        assignSlot(Target->getArgument(I - Begin))});
    Fn.MaxCopies = std::max<unsigned>(Fn.MaxCopies, Copies.size());
  }

  /// Compiles \p B's ops up to its terminator from the current block on.
  LogicalResult compileOps(Block &B) {
    for (Operation *Op : B) {
      if (Op->hasTrait(OT_IsTerminator))
        break;
      if (failed(compileOp(Op)))
        return failure();
    }
    return success();
  }

  /// Compiles `for (Iv = Lb; Iv < Ub; Iv += Step) CompileBody()`: the
  /// current block ends in LoopEnter, the body's last block in LoopNext, and
  /// compilation goes on in a fresh exit block. Entering an iteration counts
  /// \p Cost executed ops.
  LogicalResult compileLoop(CompiledBlock::LoopSlots Loop, int64_t Cost,
                            const std::function<LogicalResult()> &CompileBody) {
    int Enter = Cur, Body = newBlock();
    Cur = Body;
    if (failed(CompileBody()))
      return failure();
    int Next = Cur, Exit = newBlock();
    for (auto [Index, Kind] :
         {std::pair(Enter, CompiledBlock::Term::LoopEnter),
          std::pair(Next, CompiledBlock::Term::LoopNext)}) {
      CompiledBlock &Rec = Fn.Blocks[Index];
      Rec.Kind = Kind;
      Rec.Loop = Loop;
      Rec.Cost = Cost;
      Rec.TrueDest = Body;
      Rec.FalseDest = Exit;
    }
    Cur = Exit;
    return success();
  }

  /// `scf.forall` as one loop per dimension from \p Dim on, outermost
  /// first; only an innermost iteration counts as an executed op.
  LogicalResult compileForall(Block &Body, const std::vector<int64_t> &Lbs,
                              const std::vector<int64_t> &Ubs, size_t Dim) {
    if (Dim == Lbs.size())
      return compileOps(Body);
    return compileLoop({assignSlot(Body.getArgument(Dim)).Index,
                        constSlot(Lbs[Dim]), constSlot(Ubs[Dim]), constSlot(1)},
                       Dim + 1 == Lbs.size(), [&] {
                         return compileForall(Body, Lbs, Ubs, Dim + 1);
                       });
  }

  LogicalResult compileOp(Operation *Op);

  Operation *Func;
  CompiledFunction &Fn;
  /// The block that compiled ops are appended to.
  int Cur = 0;
  std::map<Block *, int> BlockIndex;
  std::map<ValueImpl *, Slot> Slots;
};

LogicalResult FunctionCompiler::compileOp(Operation *Op) {
  std::string_view Name = Op->getName();

  //===--------------------------------------------------------------------===//
  // Constants and integer/float arithmetic
  //===--------------------------------------------------------------------===//

  if (Name == "arith.constant") {
    Slot Dst = assignSlot(Op->getResult(0));
    if (IntegerAttr Int = Op->getAttrOfType<IntegerAttr>("value")) {
      int64_t V = Int.getValue();
      emit([Dst, V](Frame &F) {
        ++F.OpCount;
        F.Ints[Dst.Index] = V;
      });
      return success();
    }
    if (FloatAttr Float = Op->getAttrOfType<FloatAttr>("value")) {
      double V = Float.getValue();
      emit([Dst, V](Frame &F) {
        ++F.OpCount;
        F.Floats[Dst.Index] = V;
      });
      return success();
    }
    return Op->emitOpError() << "executor: unsupported constant kind";
  }

  static const std::map<std::string_view, int> IntBinKind = {
      {"arith.addi", 0},       {"arith.subi", 1},  {"arith.muli", 2},
      {"arith.divsi", 3},      {"arith.remsi", 4}, {"arith.minsi", 5},
      {"arith.maxsi", 6},      {"arith.floordivsi", 7},
      {"arith.ceildivsi", 8},  {"arith.andi", 9},
      {"arith.ori", 10},       {"arith.xori", 11}};
  if (auto It = IntBinKind.find(Name); It != IntBinKind.end()) {
    Slot L = assignSlot(Op->getOperand(0)), R = assignSlot(Op->getOperand(1));
    Slot Dst = assignSlot(Op->getResult(0));
    int Kind = It->second;
    emit([L, R, Dst, Kind](Frame &F) {
      ++F.OpCount;
      int64_t A = F.Ints[L.Index], B = F.Ints[R.Index], V = 0;
      switch (Kind) {
      case 0: V = A + B; break;
      case 1: V = A - B; break;
      case 2: V = A * B; break;
      case 3: V = B ? A / B : 0; break;
      case 4: V = B ? A % B : 0; break;
      case 5: V = std::min(A, B); break;
      case 6: V = std::max(A, B); break;
      case 7:
        V = B ? A / B : 0;
        if (B && (A % B) != 0 && ((A < 0) != (B < 0)))
          --V;
        break;
      case 8:
        V = B ? A / B : 0;
        if (B && (A % B) != 0 && ((A < 0) == (B < 0)))
          ++V;
        break;
      case 9: V = A & B; break;
      case 10: V = A | B; break;
      case 11: V = A ^ B; break;
      }
      F.Ints[Dst.Index] = V;
    });
    return success();
  }

  static const std::map<std::string_view, int> FloatBinKind = {
      {"arith.addf", 0}, {"arith.subf", 1}, {"arith.mulf", 2},
      {"arith.divf", 3}, {"arith.minf", 4}, {"arith.maxf", 5}};
  if (auto It = FloatBinKind.find(Name); It != FloatBinKind.end()) {
    Slot L = assignSlot(Op->getOperand(0)), R = assignSlot(Op->getOperand(1));
    Slot Dst = assignSlot(Op->getResult(0));
    int Kind = It->second;
    emit([L, R, Dst, Kind](Frame &F) {
      ++F.OpCount;
      double A = F.Floats[L.Index], B = F.Floats[R.Index], V = 0;
      switch (Kind) {
      case 0: V = A + B; break;
      case 1: V = A - B; break;
      case 2: V = A * B; break;
      case 3: V = A / B; break;
      case 4: V = std::min(A, B); break;
      case 5: V = std::max(A, B); break;
      }
      F.Floats[Dst.Index] = V;
    });
    return success();
  }

  if (Name == "arith.cmpi") {
    // Decoded once here. The unsigned predicates compare the 64-bit
    // two's-complement patterns, which also orders sign-extended narrower
    // integers correctly.
    enum class Pred { Eq, Ne, Slt, Sle, Sgt, Sge, Ult, Ule, Ugt, Uge };
    static const std::map<std::string_view, Pred> Predicates = {
        {"eq", Pred::Eq},   {"ne", Pred::Ne},   {"slt", Pred::Slt},
        {"sle", Pred::Sle}, {"sgt", Pred::Sgt}, {"sge", Pred::Sge},
        {"ult", Pred::Ult}, {"ule", Pred::Ule}, {"ugt", Pred::Ugt},
        {"uge", Pred::Uge}};
    std::string_view Spelled = Op->getStringAttr("predicate");
    auto It = Predicates.find(Spelled);
    if (It == Predicates.end())
      return Op->emitOpError()
             << "executor: unknown cmpi predicate '" << Spelled << "'";
    Pred P = It->second;
    Slot L = assignSlot(Op->getOperand(0)), R = assignSlot(Op->getOperand(1));
    Slot Dst = assignSlot(Op->getResult(0));
    emit([L, R, Dst, P](Frame &F) {
      ++F.OpCount;
      int64_t A = F.Ints[L.Index], B = F.Ints[R.Index];
      uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
      bool V = false;
      switch (P) {
      case Pred::Eq: V = A == B; break;
      case Pred::Ne: V = A != B; break;
      case Pred::Slt: V = A < B; break;
      case Pred::Sle: V = A <= B; break;
      case Pred::Sgt: V = A > B; break;
      case Pred::Sge: V = A >= B; break;
      case Pred::Ult: V = UA < UB; break;
      case Pred::Ule: V = UA <= UB; break;
      case Pred::Ugt: V = UA > UB; break;
      case Pred::Uge: V = UA >= UB; break;
      }
      F.Ints[Dst.Index] = V;
    });
    return success();
  }

  if (Name == "arith.select") {
    Slot C = assignSlot(Op->getOperand(0));
    Slot L = assignSlot(Op->getOperand(1)), R = assignSlot(Op->getOperand(2));
    Slot Dst = assignSlot(Op->getResult(0));
    if (Dst.Kind == Slot::Kind::Float) {
      emit([C, L, R, Dst](Frame &F) {
        ++F.OpCount;
        F.Floats[Dst.Index] =
            F.Ints[C.Index] ? F.Floats[L.Index] : F.Floats[R.Index];
      });
    } else {
      emit([C, L, R, Dst](Frame &F) {
        ++F.OpCount;
        F.Ints[Dst.Index] =
            F.Ints[C.Index] ? F.Ints[L.Index] : F.Ints[R.Index];
      });
    }
    return success();
  }

  if (Name == "arith.index_cast") {
    Slot Src = assignSlot(Op->getOperand(0));
    Slot Dst = assignSlot(Op->getResult(0));
    emit([Src, Dst](Frame &F) {
      ++F.OpCount;
      F.Ints[Dst.Index] = F.Ints[Src.Index];
    });
    return success();
  }

  if (Name == "arith.sitofp") {
    Slot Src = assignSlot(Op->getOperand(0));
    Slot Dst = assignSlot(Op->getResult(0));
    emit([Src, Dst](Frame &F) {
      ++F.OpCount;
      F.Floats[Dst.Index] = static_cast<double>(F.Ints[Src.Index]);
    });
    return success();
  }

  //===--------------------------------------------------------------------===//
  // Affine
  //===--------------------------------------------------------------------===//

  if (Name == "affine.apply" || Name == "affine.min") {
    AffineMap Map = Op->getAttrOfType<AffineMapAttr>("map").getValue();
    std::vector<Slot> Operands;
    for (Value Operand : Op->getOperands())
      Operands.push_back(assignSlot(Operand));
    Slot Dst = assignSlot(Op->getResult(0));
    bool IsMin = Name == "affine.min";
    emit([Map, Operands, Dst, IsMin](Frame &F) {
      ++F.OpCount;
      std::vector<int64_t> Values;
      Values.reserve(Operands.size());
      for (Slot S : Operands)
        Values.push_back(F.Ints[S.Index]);
      std::vector<int64_t> Results = Map.evaluate(Values);
      int64_t V = Results[0];
      if (IsMin)
        for (int64_t R : Results)
          V = std::min(V, R);
      F.Ints[Dst.Index] = V;
    });
    return success();
  }

  //===--------------------------------------------------------------------===//
  // MemRef
  //===--------------------------------------------------------------------===//

  if (Name == "memref.alloc") {
    MemRefType Ty = Op->getResult(0).getType().cast<MemRefType>();
    if (!Ty.hasStaticShape())
      return Op->emitOpError() << "executor: dynamic alloc unsupported";
    Slot Dst = assignSlot(Op->getResult(0));
    std::vector<int64_t> Shape = Ty.getShape();
    emit([Dst, Shape](Frame &F) {
      ++F.OpCount;
      F.Bufs[Dst.Index] = Buffer::alloc(Shape);
    });
    return success();
  }

  if (Name == "memref.dealloc") {
    emit([](Frame &F) { ++F.OpCount; });
    return success();
  }

  if (Name == "memref.load") {
    Slot Mem = assignSlot(Op->getOperand(0));
    std::vector<Slot> Indices;
    for (unsigned I = 1; I < Op->getNumOperands(); ++I)
      Indices.push_back(assignSlot(Op->getOperand(I)));
    Slot Dst = assignSlot(Op->getResult(0));
    emit([Mem, Indices, Dst](Frame &F) {
      ++F.OpCount;
      Buffer &B = F.Bufs[Mem.Index];
      int64_t Linear = B.Offset;
      for (size_t I = 0; I < Indices.size(); ++I)
        Linear += F.Ints[Indices[I].Index] * B.Strides[I];
      F.Floats[Dst.Index] = (*B.Data)[Linear];
    });
    return success();
  }

  if (Name == "memref.store") {
    Slot Src = assignSlot(Op->getOperand(0));
    Slot Mem = assignSlot(Op->getOperand(1));
    std::vector<Slot> Indices;
    for (unsigned I = 2; I < Op->getNumOperands(); ++I)
      Indices.push_back(assignSlot(Op->getOperand(I)));
    emit([Src, Mem, Indices](Frame &F) {
      ++F.OpCount;
      Buffer &B = F.Bufs[Mem.Index];
      int64_t Linear = B.Offset;
      for (size_t I = 0; I < Indices.size(); ++I)
        Linear += F.Ints[Indices[I].Index] * B.Strides[I];
      (*B.Data)[Linear] = F.Floats[Src.Index];
    });
    return success();
  }

  if (Name == "memref.subview") {
    Slot Src = assignSlot(Op->getOperand(0));
    Slot Dst = assignSlot(Op->getResult(0));
    std::vector<int64_t> Offsets =
        Op->getAttrOfType<ArrayAttr>("static_offsets").getAsIntegers();
    std::vector<int64_t> Sizes =
        Op->getAttrOfType<ArrayAttr>("static_sizes").getAsIntegers();
    std::vector<int64_t> Strides =
        Op->getAttrOfType<ArrayAttr>("static_strides").getAsIntegers();
    std::vector<Slot> DynSlots;
    for (unsigned I = 1; I < Op->getNumOperands(); ++I)
      DynSlots.push_back(assignSlot(Op->getOperand(I)));
    emit([Src, Dst, Offsets, Sizes, Strides, DynSlots](Frame &F) {
      ++F.OpCount;
      Buffer &In = F.Bufs[Src.Index];
      Buffer Result;
      Result.Data = In.Data;
      size_t Dyn = 0;
      auto Resolve = [&](int64_t V) {
        return V == kDynamic ? F.Ints[DynSlots[Dyn++].Index] : V;
      };
      Result.Offset = In.Offset;
      std::vector<int64_t> Off(Offsets.size());
      for (size_t I = 0; I < Offsets.size(); ++I)
        Off[I] = Resolve(Offsets[I]);
      std::vector<int64_t> Sz(Sizes.size());
      for (size_t I = 0; I < Sizes.size(); ++I)
        Sz[I] = Resolve(Sizes[I]);
      std::vector<int64_t> St(Strides.size());
      for (size_t I = 0; I < Strides.size(); ++I)
        St[I] = Resolve(Strides[I]);
      for (size_t I = 0; I < Off.size(); ++I)
        Result.Offset += Off[I] * In.Strides[I];
      Result.Sizes = Sz;
      Result.Strides.resize(St.size());
      for (size_t I = 0; I < St.size(); ++I)
        Result.Strides[I] = St[I] * In.Strides[I];
      F.Bufs[Dst.Index] = std::move(Result);
    });
    return success();
  }

  if (Name == "memref.copy") {
    Slot Src = assignSlot(Op->getOperand(0));
    Slot Dst = assignSlot(Op->getOperand(1));
    emit([Src, Dst](Frame &F) {
      ++F.OpCount;
      copyView(F.Bufs[Src.Index], F.Bufs[Dst.Index]);
    });
    return success();
  }

  //===--------------------------------------------------------------------===//
  // Structured control flow: extra blocks of the one block program
  //===--------------------------------------------------------------------===//

  if (Name == "scf.for") {
    Block *Body = scf::getLoopBody(Op);
    return compileLoop({assignSlot(Body->getArgument(0)).Index,
                        assignSlot(Op->getOperand(0)).Index,
                        assignSlot(Op->getOperand(1)).Index,
                        assignSlot(Op->getOperand(2)).Index},
                       /*Cost=*/1, [&] { return compileOps(*Body); });
  }

  if (Name == "scf.forall")
    return compileForall(
        Op->getRegion(0).front(),
        Op->getAttrOfType<ArrayAttr>("lowerBound").getAsIntegers(),
        Op->getAttrOfType<ArrayAttr>("upperBound").getAsIntegers(), 0);

  if (Name == "scf.if") {
    // A counted CondBr into then/else blocks that jump, uncounted, to a join
    // block; a missing region branches straight to the join.
    int Branch = Cur, Dests[2] = {-1, -1};
    std::vector<int> Ends;
    for (unsigned R = 0; R < 2 && R < Op->getNumRegions(); ++R) {
      if (Op->getRegion(R).empty())
        continue;
      Cur = Dests[R] = newBlock();
      if (failed(compileOps(Op->getRegion(R).front())))
        return failure();
      Ends.push_back(Cur);
    }
    Cur = newBlock();
    for (int End : Ends) {
      Fn.Blocks[End].Kind = CompiledBlock::Term::Br;
      Fn.Blocks[End].TrueDest = Cur;
    }
    CompiledBlock &Rec = Fn.Blocks[Branch];
    Rec.Kind = CompiledBlock::Term::CondBr;
    Rec.Cost = 1;
    Rec.Cond = assignSlot(Op->getOperand(0)).Index;
    Rec.TrueDest = Dests[0] < 0 ? Cur : Dests[0];
    Rec.FalseDest = Dests[1] < 0 ? Cur : Dests[1];
    return success();
  }

  //===--------------------------------------------------------------------===//
  // Calls and microkernels
  //===--------------------------------------------------------------------===//

  if (Name == "func.call") {
    // A call ends its block, so a failing callee stops the dispatch loop
    // before any later op reads its results.
    int Next = newBlock();
    CompiledBlock &Rec = Fn.Blocks[Cur];
    Rec.Kind = CompiledBlock::Term::Call;
    Rec.Cost = 1;
    Rec.Callee = Op->getAttrOfType<SymbolRefAttr>("callee").getValue();
    for (Value Operand : Op->getOperands())
      Rec.Operands.push_back(assignSlot(Operand));
    for (Value Result : Op->getResults())
      Rec.Results.push_back(assignSlot(Result));
    Rec.TrueDest = Cur = Next;
    return success();
  }

  if (Name == "xsmm.matmul") {
    std::vector<Slot> Operands;
    for (Value Operand : Op->getOperands())
      Operands.push_back(assignSlot(Operand));
    std::vector<int64_t> PrefixCounts =
        Op->getAttrOfType<ArrayAttr>("prefix_counts").getAsIntegers();
    emit([Operands, PrefixCounts](Frame &F) {
      ++F.OpCount;
      Buffer &A = F.Bufs[Operands[0].Index];
      Buffer &B = F.Bufs[Operands[1].Index];
      Buffer &C = F.Bufs[Operands[2].Index];
      auto IntAt = [&](size_t I) { return F.Ints[Operands[I].Index]; };
      size_t Base = 9;
      std::vector<int64_t> Pa, Pb, Pc;
      for (int64_t I = 0; I < PrefixCounts[0]; ++I)
        Pa.push_back(IntAt(Base++));
      for (int64_t I = 0; I < PrefixCounts[1]; ++I)
        Pb.push_back(IntAt(Base++));
      for (int64_t I = 0; I < PrefixCounts[2]; ++I)
        Pc.push_back(IntAt(Base++));
      xsmmMatmulKernel(A, B, C, IntAt(3), IntAt(4), IntAt(5), IntAt(6),
                       IntAt(7), IntAt(8), Pa, Pb, Pc);
    });
    return success();
  }

  return Op->emitOpError() << "executor: unsupported operation";
}

} // namespace

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

FailureOr<const CompiledFunction *>
Executor::Impl::compile(std::string_view Name) {
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return It->second.get();
  Operation *Func = lookupSymbol(Module, Name);
  if (!Func || Func->getName() != "func.func")
    return Module->emitError()
           << "executor: no function '" << Name << "' in the module";
  auto Compiled = std::make_unique<CompiledFunction>();
  if (failed(FunctionCompiler(Func, *Compiled).compile()))
    return failure();
  return (Cache[std::string(Name)] = std::move(Compiled)).get();
}

FailureOr<std::vector<RuntimeValue>>
Executor::Impl::invoke(const CompiledFunction &Fn,
                       std::vector<RuntimeValue> Args, int64_t &OpCount) {
  if (Args.size() != Fn.ArgSlots.size())
    return Module->emitError() << "executor: argument count mismatch";
  Frame F;
  F.Ints = Fn.IntInit;
  F.Floats.resize(Fn.NumFloats + Fn.MaxCopies);
  F.Bufs.resize(Fn.NumBufs + Fn.MaxCopies);
  for (size_t I = 0; I < Args.size(); ++I)
    F.set(Fn.ArgSlots[I], Args[I]);
  // Branch copies have parallel semantics: every edge source is staged in
  // the frame's scratch slots before any destination block argument is
  // written.
  const unsigned ScratchBase[] = {Fn.NumInts, Fn.NumFloats, Fn.NumBufs};
  auto RunCopies = [&](const std::vector<BranchCopy> &Copies) {
    for (unsigned I = 0; I < Copies.size(); ++I)
      F.copy(Copies[I].Src, ScratchBase[int(Copies[I].Src.Kind)] + I);
    for (unsigned I = 0; I < Copies.size(); ++I) {
      Slot Dst = Copies[I].Dst;
      F.copy({Dst.Kind, ScratchBase[int(Dst.Kind)] + I}, Dst.Index);
    }
  };
  // The one dispatch loop: run a block's ops, then its terminator.
  for (int Current = 0;;) {
    const CompiledBlock &B = Fn.Blocks[Current];
    for (const CompiledOp &Op : B.Body)
      Op(F);
    switch (B.Kind) {
    case CompiledBlock::Term::Return: {
      std::vector<RuntimeValue> Results;
      for (Slot S : B.Operands)
        Results.push_back(F.get(S));
      OpCount = F.OpCount + B.Cost;
      return Results;
    }
    case CompiledBlock::Term::Br:
    case CompiledBlock::Term::CondBr: {
      F.OpCount += B.Cost;
      bool Taken = B.Kind == CompiledBlock::Term::Br || F.Ints[B.Cond] != 0;
      RunCopies(Taken ? B.TrueCopies : B.FalseCopies);
      Current = Taken ? B.TrueDest : B.FalseDest;
      break;
    }
    case CompiledBlock::Term::LoopEnter:
    case CompiledBlock::Term::LoopNext: {
      int64_t &Iv = F.Ints[B.Loop.Iv];
      Iv = B.Kind == CompiledBlock::Term::LoopEnter ? F.Ints[B.Loop.Lb]
                                                     : Iv + F.Ints[B.Loop.Step];
      // A one-block body ends in the LoopNext that re-enters it: iterate it
      // here, which saves structured loops a dispatch per iteration.
      while (B.TrueDest == Current && Iv < F.Ints[B.Loop.Ub]) {
        F.OpCount += B.Cost;
        for (const CompiledOp &Op : B.Body)
          Op(F);
        Iv += F.Ints[B.Loop.Step];
      }
      bool Enter = Iv < F.Ints[B.Loop.Ub];
      F.OpCount += Enter ? B.Cost : 0;
      Current = Enter ? B.TrueDest : B.FalseDest;
      break;
    }
    case CompiledBlock::Term::Call: {
      F.OpCount += B.Cost;
      auto Callee = compile(B.Callee);
      if (failed(Callee))
        return failure();
      std::vector<RuntimeValue> CallArgs;
      for (Slot S : B.Operands)
        CallArgs.push_back(F.get(S));
      int64_t Nested = 0;
      auto Results = invoke(**Callee, std::move(CallArgs), Nested);
      if (failed(Results))
        return failure();
      F.OpCount += Nested;
      for (size_t I = 0; I < B.Results.size() && I < Results->size(); ++I)
        F.set(B.Results[I], (*Results)[I]);
      Current = B.TrueDest;
      break;
    }
    }
  }
}

Executor::Executor(Operation *Module) : TheImpl(std::make_unique<Impl>()) {
  TheImpl->Module = Module;
}

Executor::~Executor() = default;

FailureOr<std::vector<RuntimeValue>>
Executor::run(std::string_view Name, std::vector<RuntimeValue> Args) {
  auto Fn = TheImpl->compile(Name);
  if (failed(Fn))
    return failure();
  int64_t OpCount = 0;
  auto Result = TheImpl->invoke(**Fn, std::move(Args), OpCount);
  TheImpl->LastOpCount = OpCount;
  return Result;
}

int64_t Executor::getLastOpCount() const { return TheImpl->LastOpCount; }

//===----------------------------------------------------------------------===//
// Objective hook
//===----------------------------------------------------------------------===//

FailureOr<double> exec::measureExecutionSeconds(Operation *Module,
                                                std::string_view FuncName,
                                                int Repeats) {
  Operation *Func = nullptr;
  if (FuncName.empty()) {
    Module->walk([&](Operation *Op) {
      if (!Func && Op->getName() == "func.func")
        Func = Op;
    });
    if (!Func)
      return Module->emitError()
             << "executor: module has no func.func to measure";
    FuncName = getSymbolName(Func);
  } else {
    Func = lookupSymbol(Module, FuncName);
    if (!Func || Func->getName() != "func.func")
      return Module->emitError()
             << "executor: no function '" << FuncName << "' to measure";
  }

  // Synthesize deterministic arguments from the signature: the objective
  // must reflect the schedule, so the data is the same fixed pattern every
  // run (and every tuning evaluation).
  FunctionType FuncTy = func::getFunctionType(Func);
  std::vector<RuntimeValue> Args;
  for (Type Input : FuncTy.getInputs()) {
    if (MemRefType MemTy = Input.dyn_cast<MemRefType>()) {
      if (!MemTy.hasStaticShape())
        return Func->emitError()
               << "executor: cannot synthesize a dynamically shaped memref "
                  "argument for measurement";
      Buffer Buf = Buffer::alloc(MemTy.getShape());
      for (size_t I = 0; I < Buf.Data->size(); ++I)
        (*Buf.Data)[I] = 0.25 + static_cast<double>(I % 7) * 0.125;
      Args.push_back(RuntimeValue::makeBuffer(std::move(Buf)));
    } else if (Input.isa<FloatType>()) {
      Args.push_back(RuntimeValue::makeFloat(1.5));
    } else if (Input.isa<IndexType>() || Input.isa<IntegerType>()) {
      Args.push_back(RuntimeValue::makeInt(1));
    } else {
      return Func->emitError()
             << "executor: cannot synthesize an argument of type '"
             << Input.str() << "' for measurement";
    }
  }

  Executor Exec(Module);
  double BestSeconds = 1e300;
  for (int I = 0; I < std::max(1, Repeats); ++I) {
    auto Start = std::chrono::steady_clock::now();
    if (failed(Exec.run(FuncName, Args)))
      return failure(); // diagnostics already emitted
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    BestSeconds = std::min(BestSeconds, Seconds);
  }
  return BestSeconds;
}
