//===- Executor.h - Payload IR execution engine ------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes payload IR (func/scf/cf/arith/memref/affine/xsmm) as a register
/// machine. Each function compiles once into one flat instruction array:
/// plain records of an opcode, slot indices into typed register files, an
/// immediate and an offset into a per-function pool of slot indices. One
/// `switch` loop runs it. `scf` loops and branches compile inline to jumps;
/// CFG terminators become jumps with resolved targets whose block-argument
/// moves ride inside the jump (staged through scratch slots only when a
/// later move reads an earlier destination, as in a swap). An `arith.cmpi`
/// right before the `cf.cond_br` it feeds fuses into one compare-and-branch
/// instruction, and the hot arith kinds and rank-1..3 loads and stores each
/// have their own opcode. Frames come from a stack the Executor keeps across
/// runs, so a warm run allocates nothing.
///
/// The executed-op count is a contract: the autotuner minimizes it, so a
/// fused instruction still counts every op it stands for (see
/// getLastOpCount). Loop structure is kept, so the measured run time
/// responds to tiling, unrolling, interchange, and microkernel substitution
/// — the quantities Sections 4.4/4.5 of the paper study. The `xsmm.matmul`
/// op dispatches to a natively compiled register-blocked kernel (the
/// LIBXSMM substitute).
///
//===----------------------------------------------------------------------===//

#ifndef TDL_EXEC_EXECUTOR_H
#define TDL_EXEC_EXECUTOR_H

#include "ir/IR.h"
#include "support/LogicalResult.h"
#include "support/STLExtras.h"

#include <memory>
#include <vector>

namespace tdl {
namespace exec {

/// A runtime memref: shared base storage plus an offset/size/stride view.
struct Buffer {
  std::shared_ptr<std::vector<double>> Data;
  int64_t Offset = 0;
  std::vector<int64_t> Sizes;
  std::vector<int64_t> Strides;

  /// Allocates a zero-initialized row-major buffer.
  static Buffer alloc(const std::vector<int64_t> &Shape);

  double &at(const std::vector<int64_t> &Indices);
  int64_t linearIndex(const std::vector<int64_t> &Indices) const;
  int64_t getNumElements() const;
};

/// An argument or scalar runtime value.
struct RuntimeValue {
  enum class Kind { Int, Float, Mem } Kind = Kind::Int;
  int64_t I = 0;
  double F = 0;
  Buffer Mem;

  static RuntimeValue makeInt(int64_t Value);
  static RuntimeValue makeFloat(double Value);
  static RuntimeValue makeBuffer(Buffer Value);
};

/// Compiles functions of a payload module to instruction programs and runs
/// them. Every run adds to the `exec.runs` and `exec.executed_ops` registry
/// counters and records one `exec:run` span naming the function.
class Executor {
public:
  explicit Executor(Operation *Module);
  ~Executor();
  Executor(const Executor &) = delete;
  Executor &operator=(const Executor &) = delete;

  /// Runs function \p Name with the given arguments. Returns the function
  /// results (empty for void functions). Compilation is cached per function.
  FailureOr<std::vector<RuntimeValue>> run(std::string_view Name,
                                           std::vector<RuntimeValue> Args);

  /// Ops executed by the last run (0 after a failed one): every payload op
  /// counts 1, a structured-loop iteration 1, `scf.if` 1, a `func.call` 1
  /// plus its callee's ops, every `cf.*` terminator and multi-block
  /// `func.return` 1, a single-block `func.return` 0. A proxy for
  /// interpretation overhead and the tuning objective of strategy dispatch.
  int64_t getLastOpCount() const;

  struct Impl;

private:
  std::unique_ptr<Impl> TheImpl;
};

/// Objective hook for autotuned strategy dispatch (Section 4.5): compiles
/// \p Module and times one run of the function named \p FuncName (the first
/// `func.func` when empty) with deterministic arguments derived from the
/// function signature — statically shaped memrefs are allocated and filled
/// with a fixed pattern, scalars get fixed values — so callers (the
/// StrategyManager's AutoTuner loop, benchmarks) need no per-payload
/// plumbing to turn "run the schedule" into a cost. Returns the minimum
/// wall-clock seconds over \p Repeats runs (compilation is cached inside
/// the Executor, so with Repeats >= 2 the reported cost reflects execution,
/// not compilation). Fails with a diagnostic when the function is missing,
/// an argument type cannot be synthesized (dynamic shapes), or execution
/// fails.
FailureOr<double> measureExecutionSeconds(Operation *Module,
                                          std::string_view FuncName = {},
                                          int Repeats = 2);

/// The natively compiled xsmm-lite microkernel:
/// C[pc.., i, j] += A[pa.., i, k] * B[pb.., k, j] over the given ranges.
void xsmmMatmulKernel(Buffer &A, Buffer &B, Buffer &C, int64_t ILo,
                      int64_t IHi, int64_t JLo, int64_t JHi, int64_t KLo,
                      int64_t KHi, ArrayRef<int64_t> PrefixA,
                      ArrayRef<int64_t> PrefixB, ArrayRef<int64_t> PrefixC);

} // namespace exec
} // namespace tdl

#endif // TDL_EXEC_EXECUTOR_H
