//===- Executor.h - Payload IR execution engine ------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes payload IR (func/scf/cf/arith/memref/affine/xsmm) by compiling
/// each function once into a block program that one dispatch loop runs;
/// `scf` loops and branches compile to blocks too. Loop structure is kept,
/// so the measured run time responds to tiling, unrolling, interchange, and
/// microkernel substitution — the quantities Sections 4.4/4.5 of the paper
/// study. The `xsmm.matmul` op dispatches to a natively compiled
/// register-blocked kernel (the LIBXSMM substitute).
///
//===----------------------------------------------------------------------===//

#ifndef TDL_EXEC_EXECUTOR_H
#define TDL_EXEC_EXECUTOR_H

#include "ir/IR.h"
#include "support/LogicalResult.h"

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

/// Compiles functions of a payload module to block programs and runs them.
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

  /// Ops executed by the last run, loop iterations and branches included; a
  /// proxy for interpretation overhead in the ablation benchmark.
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
                      int64_t KHi, const std::vector<int64_t> &PrefixA,
                      const std::vector<int64_t> &PrefixB,
                      const std::vector<int64_t> &PrefixC);

} // namespace exec
} // namespace tdl

#endif // TDL_EXEC_EXECUTOR_H
