//===- Executor.cpp - Payload IR execution engine ------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/Executor.h"

#include "dialect/Dialects.h"
#include "ir/SymbolTable.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>

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
  return {Kind::Int, Value, 0, {}};
}

RuntimeValue RuntimeValue::makeFloat(double Value) {
  return {Kind::Float, 0, Value, {}};
}

RuntimeValue RuntimeValue::makeBuffer(Buffer Value) {
  return {Kind::Mem, 0, 0, std::move(Value)};
}

//===----------------------------------------------------------------------===//
// The xsmm-lite microkernel
//===----------------------------------------------------------------------===//

void tdl::exec::xsmmMatmulKernel(Buffer &A, Buffer &B, Buffer &C, int64_t ILo,
                                 int64_t IHi, int64_t JLo, int64_t JHi,
                                 int64_t KLo, int64_t KHi,
                                 ArrayRef<int64_t> PrefixA,
                                 ArrayRef<int64_t> PrefixB,
                                 ArrayRef<int64_t> PrefixC) {
  size_t Pa = PrefixA.size(), Pb = PrefixB.size(), Pc = PrefixC.size();
  auto Base = [](const Buffer &X, ArrayRef<int64_t> Prefix) {
    int64_t Linear = X.Offset;
    for (size_t I = 0; I < Prefix.size(); ++I)
      Linear += Prefix[I] * X.Strides[I];
    return Linear;
  };
  int64_t BaseA = Base(A, PrefixA), BaseB = Base(B, PrefixB),
          BaseC = Base(C, PrefixC);
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
// Compilation to a flat instruction program
//===----------------------------------------------------------------------===//

namespace {

enum class SlotKind : uint8_t { Int, Float, Mem };

/// A value's register: the file its type selects and its index there.
struct Slot {
  SlotKind Kind = SlotKind::Int;
  unsigned Index = 0;
  bool operator==(Slot O) const { return Kind == O.Kind && Index == O.Index; }
};

/// Pool entries that name a slot of any kind keep the kind in two low bits.
uint32_t pack(Slot S) { return S.Index << 2 | static_cast<uint32_t>(S.Kind); }
Slot unpack(uint32_t P) { return {static_cast<SlotKind>(P & 3), P >> 2}; }

/// The operand layout of each opcode. A is the destination where there is
/// one and D an offset into CompiledFunction::Pool, unless noted.
enum class Opcode : uint8_t {
  ConstI, ConstF, // A = Imm / FImm
  // A = B op C over the int file.
  AddI, SubI, MulI, DivSI, RemSI, MinSI, MaxSI, FloorDivSI, CeilDivSI, AndI,
  OrI, XOrI,
  // A = B op C over the float file.
  AddF, SubF, MulF, DivF, MinF, MaxF,
  // A = B pred C; sgt, sge, ugt and uge swap B and C.
  CmpEq, CmpNe, CmpSlt, CmpSle, CmpUlt, CmpUle,
  // A compare, in the order above, fused with the cf.cond_br that tests A:
  // it writes A, then takes the edge at D if A holds, else the one at Imm.
  BrEq, BrNe, BrSlt, BrSle, BrUlt, BrUle,
  SelectI, SelectF, // A = B ? C : D
  CastI,            // A = B (arith.index_cast)
  SIToFP,           // A = B as f64
  Affine, // A = the least of the first C results of Maps[Imm] on B slots at D
  Alloc,            // A = a zeroed buffer of shape Shapes[Imm]
  Nop,              // memref.dealloc
  Load1, Load2, Load3, LoadN,     // A = buffer B at the C index slots at D
  Store1, Store2, Store3, StoreN, // buffer B at the C index slots at D = A
  SubView, // A = a view of B; D: offset, size, stride counts, then slots
  Copy,    // view B copied into view A
  Xsmm,    // D: three prefix counts, then the op's operand slots
  Call,    // Callees[Imm]; D: B packed argument, then C result slots
  LoopEnter, // A = B, then jump to Imm (the exit) unless A < C
  LoopNext,  // A += B, then jump to Imm (the body) while A < C
  Br,        // take the edge at D
  CondBr,    // take the edge at D if B != 0, else the one at Imm
  Return,    // the C packed result slots at D
};

/// One instruction: a plain record that the dispatch loop switches on.
struct Instr {
  Opcode Op = Opcode::Nop;
  /// Executed ops the instruction counts each time it runs.
  uint8_t Cost = 1;
  uint32_t A = 0, B = 0, C = 0, D = 0;
  union {
    int64_t Imm = 0;
    double FImm;
  };
};

/// One function's program. A branch edge in the pool is [target, move
/// count, staged, then a (packed source, destination index) pair per move].
/// Moves run in order; a staged edge first copies every source to scratch
/// slots, which only an edge whose later move reads an earlier move's
/// destination (a swap) needs.
struct CompiledFunction {
  std::vector<Instr> Code;
  std::vector<uint32_t> Pool;
  /// The entry block's argument slots, packed.
  std::vector<uint32_t> Args;
  /// Value slots per kind; each frame file holds Scratch[kind] more past
  /// them for staged moves, affine operands and results, and xsmm prefixes.
  unsigned NumSlots[3] = {}, Scratch[3] = {};
  /// Initial int value slots: the constants the compiler adds.
  std::vector<int64_t> IntInit;
  std::vector<AffineMap> Maps;
  std::vector<std::vector<int64_t>> Shapes;
  /// Call targets, each resolved on its first call.
  struct Callee {
    std::string Name;
    const CompiledFunction *Fn = nullptr;
  };
  mutable std::vector<Callee> Callees;
};

/// The registers of one activation.
struct Frame {
  std::vector<int64_t> Ints;
  std::vector<double> Floats;
  std::vector<Buffer> Bufs;

  RuntimeValue get(Slot S) const {
    if (S.Kind == SlotKind::Int)
      return RuntimeValue::makeInt(Ints[S.Index]);
    if (S.Kind == SlotKind::Float)
      return RuntimeValue::makeFloat(Floats[S.Index]);
    return RuntimeValue::makeBuffer(Bufs[S.Index]);
  }

  void set(Slot S, const RuntimeValue &V) {
    if (S.Kind == SlotKind::Int)
      Ints[S.Index] = V.I;
    else if (S.Kind == SlotKind::Float)
      Floats[S.Index] = V.F;
    else
      Bufs[S.Index] = V.Mem;
  }

  /// Copies slot \p Src of \p From into index \p Dst of the same kind here.
  /// Buffer copies reuse the destination's capacity.
  void copy(const Frame &From, Slot Src, unsigned Dst) {
    if (Src.Kind == SlotKind::Int)
      Ints[Dst] = From.Ints[Src.Index];
    else if (Src.Kind == SlotKind::Float)
      Floats[Dst] = From.Floats[Src.Index];
    else
      Bufs[Dst] = From.Bufs[Src.Index];
  }
};

} // namespace

struct Executor::Impl {
  Operation *Module;
  std::map<std::string, std::unique_ptr<CompiledFunction>, std::less<>> Cache;
  /// Frames[D] holds the registers of the call at depth D.
  std::vector<std::unique_ptr<Frame>> Frames;
  int64_t LastOpCount = 0;

  FailureOr<const CompiledFunction *> compile(std::string_view Name);
  Frame &enter(const CompiledFunction &Fn, size_t Depth);
  const Instr *invoke(const CompiledFunction &Fn, size_t Depth, int64_t &Ops);
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

  /// Lays the blocks out in order, each ending in its terminator's jump;
  /// structured ops compile inline. A single-block body's return counts no
  /// executed op.
  LogicalResult compile() {
    Region &Top = Func->getRegion(0);
    // A block with one incoming edge reads its arguments from the edge's
    // operand slots. Its predecessor dominates it, so before an operand's
    // slot is written again, control must re-enter the block to read it.
    std::map<Block *, int> Incoming;
    for (Block &B : Top) {
      if (!B.getTerminator())
        return Func->emitOpError() << "executor: block without a terminator";
      for (Block *Succ : B.getSuccessors())
        ++Incoming[Succ];
    }
    for (Block &B : Top) {
      Operation *Term = B.getTerminator();
      for (unsigned S = 0; S < Term->getNumSuccessors(); ++S) {
        Block *Succ = Term->getSuccessor(S);
        auto [Begin, End] = edgeOperands(Term, S);
        for (unsigned I = Begin; Incoming[Succ] == 1 && I < End; ++I)
          if (Succ != &Top.front())
            Alias[Succ->getArgument(I - Begin).getImpl()] =
                Term->getOperand(I);
      }
    }
    for (Value Arg : Top.front().getArguments())
      Fn.Args.push_back(pack(slot(Arg)));
    bool MultiBlock = Top.getNumBlocks() > 1;
    for (Block &B : Top) {
      BlockPc[&B] = Fn.Code.size();
      if (failed(compileOps(B)))
        return failure();
      Operation *Term = B.getTerminator();
      std::string_view Name = Term->getName();
      unsigned N = Term->getNumOperands();
      if (Name == "func.return") {
        emit(Opcode::Return, 0, 0, N, operandSlots(Term, 0, N, true)).Cost =
            MultiBlock;
      } else if (Name == "cf.br") {
        emit(Opcode::Br, 0, 0, 0, edge(Term, 0));
      } else if (Name == "cf.cond_br") {
        unsigned Cond = slot(Term->getOperand(0)).Index;
        uint32_t True = edge(Term, 0);
        int64_t False = edge(Term, 1);
        // A compare of Cond emitted last runs right before the branch.
        Instr *Last = Fn.Code.empty() ? nullptr : &Fn.Code.back();
        if (Last && Last->A == Cond && Last->Op >= Opcode::CmpEq &&
            Last->Op <= Opcode::CmpUle) {
          Last->Op = Opcode(int(Last->Op) + int(Opcode::BrEq) -
                            int(Opcode::CmpEq));
          Last->Cost = 2;
        } else {
          Last = &emit(Opcode::CondBr, 0, Cond);
        }
        Last->D = True;
        Last->Imm = False;
      } else {
        return Term->emitOpError() << "executor: unsupported CFG terminator";
      }
    }
    for (auto [At, Target] : Fixups)
      Fn.Pool[At] = BlockPc.at(Target);
    // A move-less jump to a conditional branch runs that branch itself.
    for (Instr &Jump : Fn.Code) {
      if (Jump.Op != Opcode::Br || Fn.Pool[Jump.D + 1])
        continue;
      const Instr &To = Fn.Code[Fn.Pool[Jump.D]];
      if (To.Op == Opcode::CondBr ||
          (To.Op >= Opcode::BrEq && To.Op <= Opcode::BrUle)) {
        uint8_t Cost = Jump.Cost + To.Cost;
        Jump = To;
        Jump.Cost = Cost;
      }
    }
    Fn.IntInit.resize(Fn.NumSlots[0]);
    return success();
  }

private:
  Slot slot(Value V) {
    if (auto It = Slots.find(V.getImpl()); It != Slots.end())
      return It->second;
    Slot S;
    if (auto It = Alias.find(V.getImpl()); It != Alias.end()) {
      Value Src = It->second;
      Alias.erase(It); // A cycle of aliases (dead blocks) ends in a new slot.
      S = slot(Src);
    } else {
      Type Ty = V.getType();
      S.Kind = Ty.isFloat()             ? SlotKind::Float
               : Ty.isa<MemRefType>() ? SlotKind::Mem
                                      : SlotKind::Int;
      S.Index = Fn.NumSlots[static_cast<int>(S.Kind)]++;
    }
    return Slots[V.getImpl()] = S;
  }

  /// The operands [Begin, End) of \p Term that successor \p Succ's block
  /// arguments take.
  static std::pair<unsigned, unsigned> edgeOperands(Operation *Term,
                                                    unsigned Succ) {
    if (Term->getName() != "cf.cond_br")
      return {0, Term->getNumOperands()};
    unsigned TrueEnd =
        1 + static_cast<unsigned>(Term->getIntAttr("true_count", 0));
    return Succ ? std::pair(TrueEnd, Term->getNumOperands())
                : std::pair(1u, TrueEnd);
  }

  /// An int slot that holds \p V from frame entry on.
  unsigned constSlot(int64_t V) {
    auto [It, Inserted] = Consts.try_emplace(V, Fn.NumSlots[0]);
    if (Inserted) {
      Fn.IntInit.resize(Fn.NumSlots[0] + 1);
      Fn.IntInit[Fn.NumSlots[0]++] = V;
    }
    return It->second;
  }

  Instr &emit(Opcode Op, uint32_t A = 0, uint32_t B = 0, uint32_t C = 0,
              uint32_t D = 0) {
    return Fn.Code.emplace_back(Instr{Op, 1, A, B, C, D, {}});
  }

  /// Appends the slots of \p Op's operands [Begin, End) to the pool, packed
  /// when \p Packed, and returns where they start.
  uint32_t operandSlots(Operation *Op, unsigned Begin, unsigned End,
                        bool Packed) {
    uint32_t At = Fn.Pool.size();
    for (unsigned I = Begin; I < End; ++I) {
      Slot S = slot(Op->getOperand(I));
      Fn.Pool.push_back(Packed ? pack(S) : S.Index);
    }
    return At;
  }

  /// Appends an edge without moves to \p Target and returns its offset.
  uint32_t edgeTo(size_t Target) {
    uint32_t At = Fn.Pool.size();
    Fn.Pool.insert(Fn.Pool.end(), {static_cast<uint32_t>(Target), 0, 0});
    return At;
  }

  /// Appends the edge into successor \p Succ of \p Term and returns its
  /// offset.
  uint32_t edge(Operation *Term, unsigned Succ) {
    Block *Target = Term->getSuccessor(Succ);
    auto [Begin, End] = edgeOperands(Term, Succ);
    // An int operand of a cf.br that the instruction just before it
    // computes, and that nothing else uses, is computed straight into its
    // block argument's slot, unless another move on the edge reads that.
    Instr *Last = Fn.Code.empty() ? nullptr : &Fn.Code.back();
    bool Fold = Term->getName() == "cf.br" && Last &&
                Last->Op >= Opcode::AddI && Last->Op <= Opcode::XOrI;
    for (unsigned I = Begin; Fold && I < End; ++I) {
      Value V = Term->getOperand(I);
      if (!(slot(V) == Slot{SlotKind::Int, Last->A}) || !V.hasOneUse())
        continue;
      Slot Dst = slot(Target->getArgument(I - Begin));
      for (unsigned J = Begin; J < End; ++J)
        Fold &= J == I || !(slot(Term->getOperand(J)) == Dst);
      if (Fold)
        Last->A = Slots[V.getImpl()].Index = Dst.Index;
      break;
    }
    std::vector<std::pair<Slot, Slot>> Moves;
    bool Staged = false;
    for (unsigned I = Begin; I < End; ++I) {
      Slot Src = slot(Term->getOperand(I));
      Slot Dst = slot(Target->getArgument(I - Begin));
      if (Src == Dst)
        continue;
      for (auto &Earlier : Moves)
        Staged |= Earlier.second == Src;
      Moves.push_back({Src, Dst});
    }
    uint32_t At = edgeTo(0);
    Fixups.push_back({At, Target});
    Fn.Pool[At + 1] = Moves.size();
    Fn.Pool[At + 2] = Staged;
    for (auto [Src, Dst] : Moves) {
      Fn.Pool.push_back(pack(Src));
      Fn.Pool.push_back(Dst.Index);
      if (Staged)
        Fn.Scratch[int(Src.Kind)] =
            std::max<unsigned>(Fn.Scratch[int(Src.Kind)], Moves.size());
    }
    return At;
  }

  /// Compiles \p B's ops up to its terminator.
  LogicalResult compileOps(Block &B) {
    for (Operation *Op : B) {
      if (Op->hasTrait(OT_IsTerminator))
        break;
      if (failed(compileOp(Op)))
        return failure();
    }
    return success();
  }

  /// Compiles `for (Iv = Lb; Iv < Ub; Iv += Step) CompileBody()`. Every
  /// iteration counts \p Cost executed ops when it reaches LoopNext.
  template <typename BodyFn>
  LogicalResult compileLoop(unsigned Iv, unsigned Lb, unsigned Ub,
                            unsigned Step, uint8_t Cost, BodyFn CompileBody) {
    size_t Enter = Fn.Code.size();
    emit(Opcode::LoopEnter, Iv, Lb, Ub).Cost = 0;
    size_t Body = Fn.Code.size();
    if (failed(CompileBody()))
      return failure();
    Instr &Next = emit(Opcode::LoopNext, Iv, Step, Ub);
    Next.Cost = Cost;
    Next.Imm = Body;
    Fn.Code[Enter].Imm = Fn.Code.size();
    return success();
  }

  /// `scf.forall` as one loop per dimension from \p Dim on, outermost
  /// first; only an innermost iteration counts as an executed op.
  LogicalResult compileForall(Block &Body, const std::vector<int64_t> &Lbs,
                              const std::vector<int64_t> &Ubs, size_t Dim) {
    if (Dim == Lbs.size())
      return compileOps(Body);
    return compileLoop(slot(Body.getArgument(Dim)).Index, constSlot(Lbs[Dim]),
                       constSlot(Ubs[Dim]), constSlot(1),
                       Dim + 1 == Lbs.size(), [&] {
                         return compileForall(Body, Lbs, Ubs, Dim + 1);
                       });
  }

  LogicalResult compileOp(Operation *Op);

  Operation *Func;
  CompiledFunction &Fn;
  std::map<Block *, size_t> BlockPc;
  /// Pool entries that hold the program counter of a block.
  std::vector<std::pair<uint32_t, Block *>> Fixups;
  std::map<ValueImpl *, Slot> Slots;
  /// Block arguments that share the slot of their one incoming value.
  std::map<ValueImpl *, Value> Alias;
  std::map<int64_t, unsigned> Consts;
};

LogicalResult FunctionCompiler::compileOp(Operation *Op) {
  std::string_view Name = Op->getName();
  auto Operand = [&](unsigned I) { return slot(Op->getOperand(I)).Index; };
  auto Result = [&] { return slot(Op->getResult(0)).Index; };

  //===--------------------------------------------------------------------===//
  // Constants and integer/float arithmetic
  //===--------------------------------------------------------------------===//

  if (Name == "arith.constant") {
    if (IntegerAttr Int = Op->getAttrOfType<IntegerAttr>("value")) {
      emit(Opcode::ConstI, Result()).Imm = Int.getValue();
      return success();
    }
    if (FloatAttr Float = Op->getAttrOfType<FloatAttr>("value")) {
      emit(Opcode::ConstF, Result()).FImm = Float.getValue();
      return success();
    }
    return Op->emitOpError() << "executor: unsupported constant kind";
  }

  static const std::map<std::string_view, Opcode> Binary = {
      {"arith.addi", Opcode::AddI},   {"arith.subi", Opcode::SubI},
      {"arith.muli", Opcode::MulI},   {"arith.divsi", Opcode::DivSI},
      {"arith.remsi", Opcode::RemSI}, {"arith.minsi", Opcode::MinSI},
      {"arith.maxsi", Opcode::MaxSI}, {"arith.floordivsi", Opcode::FloorDivSI},
      {"arith.ceildivsi", Opcode::CeilDivSI},
      {"arith.andi", Opcode::AndI},   {"arith.ori", Opcode::OrI},
      {"arith.xori", Opcode::XOrI},   {"arith.addf", Opcode::AddF},
      {"arith.subf", Opcode::SubF},   {"arith.mulf", Opcode::MulF},
      {"arith.divf", Opcode::DivF},   {"arith.minf", Opcode::MinF},
      {"arith.maxf", Opcode::MaxF}};
  if (auto It = Binary.find(Name); It != Binary.end()) {
    emit(It->second, Result(), Operand(0), Operand(1));
    return success();
  }

  if (Name == "arith.cmpi") {
    // Decoded once here. The unsigned predicates compare the 64-bit
    // two's-complement patterns, which also orders sign-extended narrower
    // integers correctly.
    static const std::map<std::string_view, std::pair<Opcode, bool>>
        Predicates = {
            {"eq", {Opcode::CmpEq, false}},   {"ne", {Opcode::CmpNe, false}},
            {"slt", {Opcode::CmpSlt, false}}, {"sle", {Opcode::CmpSle, false}},
            {"sgt", {Opcode::CmpSlt, true}},  {"sge", {Opcode::CmpSle, true}},
            {"ult", {Opcode::CmpUlt, false}}, {"ule", {Opcode::CmpUle, false}},
            {"ugt", {Opcode::CmpUlt, true}},  {"uge", {Opcode::CmpUle, true}}};
    std::string_view Spelled = Op->getStringAttr("predicate");
    auto It = Predicates.find(Spelled);
    if (It == Predicates.end())
      return Op->emitOpError()
             << "executor: unknown cmpi predicate '" << Spelled << "'";
    auto [Code, Swap] = It->second;
    unsigned L = Operand(0), R = Operand(1);
    emit(Code, Result(), Swap ? R : L, Swap ? L : R);
    return success();
  }

  if (Name == "arith.select") {
    Slot Dst = slot(Op->getResult(0));
    if (Dst.Kind == SlotKind::Mem)
      return Op->emitOpError() << "executor: memref select unsupported";
    emit(Dst.Kind == SlotKind::Float ? Opcode::SelectF : Opcode::SelectI,
         Dst.Index, Operand(0), Operand(1), Operand(2));
    return success();
  }

  if (Name == "arith.index_cast" || Name == "arith.sitofp") {
    emit(Name == "arith.sitofp" ? Opcode::SIToFP : Opcode::CastI, Result(),
         Operand(0));
    return success();
  }

  //===--------------------------------------------------------------------===//
  // Affine and MemRef
  //===--------------------------------------------------------------------===//

  if (Name == "affine.apply" || Name == "affine.min") {
    AffineMap Map = Op->getAttrOfType<AffineMapAttr>("map").getValue();
    unsigned N = Op->getNumOperands(), R = Map.getNumResults();
    if (N != Map.getNumInputs() || R == 0)
      return Op->emitOpError() << "executor: affine map does not fit its op";
    // Operands and results are evaluated in int scratch slots.
    Fn.Scratch[0] = std::max(Fn.Scratch[0], N + R);
    emit(Opcode::Affine, Result(), N, Name == "affine.min" ? R : 1,
         operandSlots(Op, 0, N, false))
        .Imm = Fn.Maps.size();
    Fn.Maps.push_back(Map);
    return success();
  }

  if (Name == "memref.alloc") {
    MemRefType Ty = Op->getResult(0).getType().cast<MemRefType>();
    if (!Ty.hasStaticShape())
      return Op->emitOpError() << "executor: dynamic alloc unsupported";
    emit(Opcode::Alloc, Result()).Imm = Fn.Shapes.size();
    Fn.Shapes.push_back(Ty.getShape());
    return success();
  }

  if (Name == "memref.dealloc") {
    emit(Opcode::Nop);
    return success();
  }

  if (Name == "memref.load" || Name == "memref.store") {
    bool Load = Name == "memref.load";
    unsigned Mem = Load ? 0 : 1, N = Op->getNumOperands(),
             Rank = N - Mem - 1;
    // Load1..3 and LoadN, then Store1..3 and StoreN, are adjacent.
    int Form = Rank >= 1 && Rank <= 3 ? Rank - 1 : 3;
    emit(static_cast<Opcode>(int(Load ? Opcode::Load1 : Opcode::Store1) + Form),
         Load ? Result() : Operand(0), Operand(Mem), Rank,
         operandSlots(Op, Mem + 1, N, false));
    return success();
  }

  if (Name == "memref.subview") {
    // Each list is its count and then one slot per entry; static entries
    // become constant slots, so a run only reads slots.
    uint32_t At = Fn.Pool.size();
    unsigned Dyn = 1;
    for (const char *List :
         {"static_offsets", "static_sizes", "static_strides"}) {
      std::vector<int64_t> Values =
          Op->getAttrOfType<ArrayAttr>(List).getAsIntegers();
      Fn.Pool.push_back(Values.size());
      for (int64_t V : Values)
        Fn.Pool.push_back(V == kDynamic ? Operand(Dyn++) : constSlot(V));
    }
    emit(Opcode::SubView, Result(), Operand(0), 0, At);
    return success();
  }

  if (Name == "memref.copy") {
    emit(Opcode::Copy, Operand(1), Operand(0));
    return success();
  }

  //===--------------------------------------------------------------------===//
  // Structured control flow, inline in the one program
  //===--------------------------------------------------------------------===//

  if (Name == "scf.for") {
    Block *Body = scf::getLoopBody(Op);
    return compileLoop(slot(Body->getArgument(0)).Index, Operand(0),
                       Operand(1), Operand(2), /*Cost=*/1,
                       [&] { return compileOps(*Body); });
  }

  if (Name == "scf.forall")
    return compileForall(
        Op->getRegion(0).front(),
        Op->getAttrOfType<ArrayAttr>("lowerBound").getAsIntegers(),
        Op->getAttrOfType<ArrayAttr>("upperBound").getAsIntegers(), 0);

  if (Name == "scf.if") {
    // A counted CondBr into the then code; with an else, the then code ends
    // in an uncounted jump over it to the join.
    uint32_t True = edgeTo(Fn.Code.size() + 1), False = edgeTo(0);
    uint32_t Join = False;
    emit(Opcode::CondBr, 0, Operand(0), 0, True).Imm = False;
    for (unsigned R = 0; R < 2 && R < Op->getNumRegions(); ++R) {
      if (Op->getRegion(R).empty())
        continue;
      if (R == 1) {
        emit(Opcode::Br, 0, 0, 0, Join = edgeTo(0)).Cost = 0;
        Fn.Pool[False] = Fn.Code.size();
      }
      if (failed(compileOps(Op->getRegion(R).front())))
        return failure();
    }
    Fn.Pool[Join] = Fn.Code.size();
    return success();
  }

  //===--------------------------------------------------------------------===//
  // Calls and microkernels
  //===--------------------------------------------------------------------===//

  if (Name == "func.call") {
    unsigned N = Op->getNumOperands(), R = Op->getNumResults();
    uint32_t At = operandSlots(Op, 0, N, true);
    for (unsigned I = 0; I < R; ++I)
      Fn.Pool.push_back(pack(slot(Op->getResult(I))));
    emit(Opcode::Call, 0, N, R, At).Imm = Fn.Callees.size();
    Fn.Callees.push_back(
        {std::string(Op->getAttrOfType<SymbolRefAttr>("callee").getValue()),
         nullptr});
    return success();
  }

  if (Name == "xsmm.matmul") {
    std::vector<int64_t> Counts =
        Op->getAttrOfType<ArrayAttr>("prefix_counts").getAsIntegers();
    int64_t Prefixes =
        std::accumulate(Counts.begin(), Counts.end(), int64_t(0));
    unsigned N = Op->getNumOperands();
    if (Counts.size() != 3 || 9 + Prefixes != N)
      return Op->emitOpError()
             << "executor: prefix_counts do not match the operands";
    // The prefix indices are gathered into int scratch for the kernel.
    Fn.Scratch[0] = std::max<unsigned>(Fn.Scratch[0], Prefixes);
    uint32_t At = Fn.Pool.size();
    Fn.Pool.insert(Fn.Pool.end(), Counts.begin(), Counts.end());
    operandSlots(Op, 0, N, false);
    emit(Opcode::Xsmm, 0, 0, 0, At);
    return success();
  }

  return Op->emitOpError() << "executor: unsupported operation";
}

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//

/// Runs the moves of the edge at \p E in \p F and returns its target.
size_t takeEdge(Frame &F, const CompiledFunction &Fn, const uint32_t *E) {
  const uint32_t *Move = E + 3;
  for (uint32_t I = 0; I < E[1]; ++I) {
    Slot Src = unpack(Move[2 * I]);
    unsigned Scratch = Fn.NumSlots[static_cast<int>(Src.Kind)] + I;
    F.copy(F, Src, E[2] ? Scratch : Move[2 * I + 1]);
  }
  for (uint32_t I = 0; E[2] && I < E[1]; ++I) {
    SlotKind Kind = unpack(Move[2 * I]).Kind;
    F.copy(F, {Kind, Fn.NumSlots[static_cast<int>(Kind)] + I},
           Move[2 * I + 1]);
  }
  return E[0];
}

/// The element of \p B at the index slots \p Idx of the int file \p I: the
/// rank is \p Rank, or \p N for the generic form (Rank 0).
template <unsigned Rank>
double &element(const Buffer &B, const int64_t *I, const uint32_t *Idx,
                unsigned N) {
  int64_t Linear = B.Offset;
  for (unsigned K = 0; K < (Rank ? Rank : N); ++K)
    Linear += I[Idx[K]] * B.Strides[K];
  return (*B.Data)[Linear];
}

int64_t floorDivSI(int64_t A, int64_t B) {
  return B ? A / B - ((A % B) != 0 && ((A < 0) != (B < 0))) : 0;
}

int64_t ceilDivSI(int64_t A, int64_t B) {
  return B ? A / B + ((A % B) != 0 && ((A < 0) == (B < 0))) : 0;
}

/// Writes the view of \p In that the counted offset, size and stride slot
/// lists at \p Q describe into \p Out's existing storage.
void subview(Buffer &Out, const Buffer &In, const int64_t *I,
             const uint32_t *Q) {
  Out.Data = In.Data;
  Out.Offset = In.Offset;
  for (uint32_t K = 0; K < Q[0]; ++K)
    Out.Offset += I[Q[1 + K]] * In.Strides[K];
  Q += Q[0] + 1;
  Out.Sizes.resize(Q[0]);
  for (uint32_t K = 0; K < Q[0]; ++K)
    Out.Sizes[K] = I[Q[1 + K]];
  Q += Q[0] + 1;
  Out.Strides.resize(Q[0]);
  for (uint32_t K = 0; K < Q[0]; ++K)
    Out.Strides[K] = I[Q[1 + K]] * In.Strides[K];
}

void xsmm(Frame &F, const CompiledFunction &Fn, const uint32_t *Q) {
  int64_t *I = F.Ints.data(), *Prefix = I + Fn.NumSlots[0];
  Buffer *M = F.Bufs.data();
  const uint32_t *Ops = Q + 3;
  for (uint32_t K = 0; K < Q[0] + Q[1] + Q[2]; ++K)
    Prefix[K] = I[Ops[9 + K]];
  xsmmMatmulKernel(M[Ops[0]], M[Ops[1]], M[Ops[2]], I[Ops[3]], I[Ops[4]],
                   I[Ops[5]], I[Ops[6]], I[Ops[7]], I[Ops[8]],
                   ArrayRef<int64_t>(Prefix, Q[0]),
                   ArrayRef<int64_t>(Prefix + Q[0], Q[1]),
                   ArrayRef<int64_t>(Prefix + Q[0] + Q[1], Q[2]));
}

} // namespace

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

/// The frame at \p Depth, sized for \p Fn. Frames are reused across calls
/// and runs and never shrink, so a warm frame does not allocate.
Frame &Executor::Impl::enter(const CompiledFunction &Fn, size_t Depth) {
  while (Frames.size() <= Depth)
    Frames.push_back(std::make_unique<Frame>());
  Frame &F = *Frames[Depth];
  auto Grow = [](auto &File, size_t Size) {
    if (File.size() < Size)
      File.resize(Size);
  };
  Grow(F.Ints, Fn.NumSlots[0] + Fn.Scratch[0]);
  Grow(F.Floats, Fn.NumSlots[1] + Fn.Scratch[1]);
  Grow(F.Bufs, Fn.NumSlots[2] + Fn.Scratch[2]);
  std::copy(Fn.IntInit.begin(), Fn.IntInit.end(), F.Ints.begin());
  return F;
}

/// Runs \p Fn in the frame at \p Depth, whose argument slots are set, and
/// adds its executed ops to \p Ops. Returns the Return instruction that
/// ended it, or null on failure.
const Instr *Executor::Impl::invoke(const CompiledFunction &Fn, size_t Depth,
                                    int64_t &Ops) {
  Frame &F = *Frames[Depth];
  int64_t *I = F.Ints.data();
  double *R = F.Floats.data();
  Buffer *M = F.Bufs.data();
  const Instr *Code = Fn.Code.data();
  const uint32_t *P = Fn.Pool.data();
  auto Jump = [&](const uint32_t *Edge) {
    return Edge[1] ? takeEdge(F, Fn, Edge) : Edge[0];
  };
  int64_t Count = 0;
  for (size_t PC = 0;;) {
    const Instr &In = Code[PC++];
    Count += In.Cost;
    switch (In.Op) {
#define BINARY(Name, File, Expr)                                               \
  case Opcode::Name: {                                                         \
    auto X = File[In.B], Y = File[In.C];                                       \
    File[In.A] = (Expr);                                                       \
    break;                                                                     \
  }
#define COMPARE(Name, Expr)                                                    \
  BINARY(Cmp##Name, I, Expr)                                                   \
  case Opcode::Br##Name: {                                                     \
    int64_t X = I[In.B], Y = I[In.C];                                          \
    bool Holds = (Expr);                                                       \
    I[In.A] = Holds;                                                           \
    PC = Jump(P + (Holds ? In.D : In.Imm));                                    \
    break;                                                                     \
  }
      BINARY(AddI, I, X + Y)
      BINARY(SubI, I, X - Y)
      BINARY(MulI, I, X * Y)
      BINARY(DivSI, I, Y ? X / Y : 0)
      BINARY(RemSI, I, Y ? X % Y : 0)
      BINARY(MinSI, I, std::min(X, Y))
      BINARY(MaxSI, I, std::max(X, Y))
      BINARY(FloorDivSI, I, floorDivSI(X, Y))
      BINARY(CeilDivSI, I, ceilDivSI(X, Y))
      BINARY(AndI, I, X & Y)
      BINARY(OrI, I, X | Y)
      BINARY(XOrI, I, X ^ Y)
      BINARY(AddF, R, X + Y)
      BINARY(SubF, R, X - Y)
      BINARY(MulF, R, X * Y)
      BINARY(DivF, R, X / Y)
      BINARY(MinF, R, std::min(X, Y))
      BINARY(MaxF, R, std::max(X, Y))
      COMPARE(Eq, X == Y)
      COMPARE(Ne, X != Y)
      COMPARE(Slt, X < Y)
      COMPARE(Sle, X <= Y)
      COMPARE(Ult, uint64_t(X) < uint64_t(Y))
      COMPARE(Ule, uint64_t(X) <= uint64_t(Y))
#undef COMPARE
#undef BINARY
    case Opcode::ConstI:
      I[In.A] = In.Imm;
      break;
    case Opcode::ConstF:
      R[In.A] = In.FImm;
      break;
    case Opcode::SelectI:
      I[In.A] = I[In.B] ? I[In.C] : I[In.D];
      break;
    case Opcode::SelectF:
      R[In.A] = I[In.B] ? R[In.C] : R[In.D];
      break;
    case Opcode::CastI:
      I[In.A] = I[In.B];
      break;
    case Opcode::SIToFP:
      R[In.A] = static_cast<double>(I[In.B]);
      break;
    case Opcode::Affine: {
      int64_t *Operands = I + Fn.NumSlots[0], *Results = Operands + In.B;
      for (uint32_t K = 0; K < In.B; ++K)
        Operands[K] = I[P[In.D + K]];
      Fn.Maps[In.Imm].evaluate(ArrayRef<int64_t>(Operands, In.B), Results);
      I[In.A] = *std::min_element(Results, Results + In.C);
      break;
    }
    case Opcode::Alloc:
      M[In.A] = Buffer::alloc(Fn.Shapes[In.Imm]);
      break;
    case Opcode::Nop:
      break;
#define ACCESS(Rank, Suffix)                                                   \
  case Opcode::Load##Suffix:                                                   \
    R[In.A] = element<Rank>(M[In.B], I, P + In.D, In.C);                       \
    break;                                                                     \
  case Opcode::Store##Suffix:                                                  \
    element<Rank>(M[In.B], I, P + In.D, In.C) = R[In.A];                       \
    break;
      ACCESS(1, 1)
      ACCESS(2, 2)
      ACCESS(3, 3)
      ACCESS(0, N)
#undef ACCESS
    case Opcode::SubView:
      subview(M[In.A], M[In.B], I, P + In.D);
      break;
    case Opcode::Copy:
      copyView(M[In.B], M[In.A]);
      break;
    case Opcode::Xsmm:
      xsmm(F, Fn, P + In.D);
      break;
    case Opcode::Call: {
      CompiledFunction::Callee &Target = Fn.Callees[In.Imm];
      if (!Target.Fn) {
        auto Compiled = compile(Target.Name);
        if (failed(Compiled))
          return nullptr;
        Target.Fn = *Compiled;
      }
      const CompiledFunction &Callee = *Target.Fn;
      if (In.B != Callee.Args.size()) {
        Module->emitError() << "executor: argument count mismatch";
        return nullptr;
      }
      Frame &G = enter(Callee, Depth + 1);
      for (uint32_t K = 0; K < In.B; ++K)
        G.copy(F, unpack(P[In.D + K]), unpack(Callee.Args[K]).Index);
      const Instr *Ret = invoke(Callee, Depth + 1, Count);
      if (!Ret)
        return nullptr;
      const uint32_t *Values = Callee.Pool.data() + Ret->D;
      for (uint32_t K = 0; K < In.C && K < Ret->C; ++K)
        F.copy(G, unpack(Values[K]), unpack(P[In.D + In.B + K]).Index);
      break;
    }
    case Opcode::LoopEnter:
      I[In.A] = I[In.B];
      if (!(I[In.A] < I[In.C]))
        PC = In.Imm;
      break;
    case Opcode::LoopNext:
      if ((I[In.A] += I[In.B]) < I[In.C])
        PC = In.Imm;
      break;
    case Opcode::Br:
      PC = Jump(P + In.D);
      break;
    case Opcode::CondBr:
      PC = Jump(P + (I[In.B] ? In.D : In.Imm));
      break;
    case Opcode::Return:
      Ops += Count;
      return &In;
    }
  }
}

Executor::Executor(Operation *Module) : TheImpl(std::make_unique<Impl>()) {
  TheImpl->Module = Module;
}

Executor::~Executor() = default;

FailureOr<std::vector<RuntimeValue>>
Executor::run(std::string_view Name, std::vector<RuntimeValue> Args) {
  static telemetry::Counter &Runs = telemetry::counter("exec.runs");
  static telemetry::Counter &Executed =
      telemetry::counter("exec.executed_ops");
  telemetry::ScopedSpan Span("exec:run", "exec");
  if (Span.isActive())
    Span.arg("function", Name);
  Runs.add();
  Impl &X = *TheImpl;
  X.LastOpCount = 0;
  auto Fn = X.compile(Name);
  if (failed(Fn))
    return failure();
  if (Args.size() != (*Fn)->Args.size())
    return X.Module->emitError() << "executor: argument count mismatch";
  Frame &F = X.enter(**Fn, 0);
  for (size_t I = 0; I < Args.size(); ++I)
    F.set(unpack((*Fn)->Args[I]), Args[I]);
  int64_t Ops = 0;
  const Instr *Ret = X.invoke(**Fn, 0, Ops);
  std::vector<RuntimeValue> Results;
  for (uint32_t I = 0; Ret && I < Ret->C; ++I)
    Results.push_back(F.get(unpack((*Fn)->Pool[Ret->D + I])));
  // Frames keep their storage for the next run but not the caller's data.
  for (auto &Held : X.Frames)
    for (Buffer &B : Held->Bufs)
      B.Data.reset();
  if (!Ret)
    return failure();
  X.LastOpCount = Ops;
  Executed.add(Ops);
  return Results;
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
