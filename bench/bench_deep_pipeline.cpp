//===- bench_deep_pipeline.cpp - Structured vs CFG-lowered execution ------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end cost of the script-driven lowering pipeline: one strategy
/// library (match -> autotuned tile -> lower_scf_to_cf) dispatched against
/// a structured payload, then both forms — the original scf nest and the
/// tuned branch-form CFG — executed through exec::Executor. Reports the
/// per-run cost of each form, checks they compute the same values, and
/// (with TDL_BENCH_JSON_DIR set) drops the numbers as BENCH_*.json. The
/// tuned config is picked by wall time, so the deterministic `exec.*`
/// counters come from both forms at one fixed tile config instead.
///
///   ./build/bench_deep_pipeline [--smoke]
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "dialect/Dialects.h"
#include "exec/Executor.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "loops/LoopUtils.h"
#include "lowering/Passes.h"
#include "strategy/StrategyManager.h"
#include "support/Stream.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace tdl;
using namespace tdl::benchutil;

namespace {

/// An NxN element-squaring double loop nest — the shape the deep-lowering
/// strategy's matcher gates on (outermost scf.for directly under func.func).
std::string makePayload(int N) {
  std::string Size = std::to_string(N);
  std::string MemTy = "memref<" + Size + "x" + Size + "xf64>";
  return std::string("\"builtin.module\"() ({\n"
                     "  \"func.func\"() ({\n"
                     "  ^bb0(%m: ") +
         MemTy +
         R"():
    %lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %ub = "arith.constant"() {value = )" +
         Size + R"( : index} : () -> (index)
    %step = "arith.constant"() {value = 1 : index} : () -> (index)
    "scf.for"(%lb, %ub, %step) ({
    ^bi(%i: index):
      "scf.for"(%lb, %ub, %step) ({
      ^bj(%j: index):
        %v = "memref.load"(%m, %i, %j)
          : ()" +
         MemTy + R"(, index, index) -> (f64)
        %w = "arith.mulf"(%v, %v) : (f64, f64) -> (f64)
        "memref.store"(%w, %m, %i, %j)
          : (f64, )" +
         MemTy + R"(, index, index) -> ()
        "scf.yield"() : () -> ()
      }) : (index, index, index) -> ()
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "square_all",
      function_type = ()" +
         MemTy + R"() -> ()} : () -> ()
}) : () -> ()
)";
}

/// The deep-lowering strategy: collect outer loops, tile by two tuned
/// parameters, then lower every structured loop to cf branches.
const char *DeepLoweringLibrary = R"("builtin.module"() ({
  "transform.library"() ({
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      %p = "transform.get_parent_op"(%op)
        : (!transform.op<"scf.for">) -> (!transform.any_op)
      %f = "transform.match.operation_name"(%p) {op_names = ["func.func"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "outer_loop", visibility = "private"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op, %ti: !transform.param, %tj: !transform.param):
      %loops = "transform.collect_matching"(%root) {matcher = @outer_loop}
        : (!transform.any_op) -> (!transform.op<"scf.for">)
      %tiles, %points = "transform.loop.tile"(%loops, %ti, %tj)
        : (!transform.op<"scf.for">, !transform.param, !transform.param)
          -> (!transform.any_op, !transform.any_op)
      %lowered = "transform.lower_scf_to_cf"(%root)
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "strategy"} : () -> ()
  }) {sym_name = "deep_lowering",
      strategy.target = "cfg",
      strategy.params = [["tile_i", 2, 4, 8],
                         ["tile_j", "divisors_of_dim", 1]]} : () -> ()
}) : () -> ()
)";

/// Runs @square_all on a fresh pattern-filled NxN buffer; returns the
/// mutated buffer for cross-form comparison and, in \p Ops, the executed
/// op count.
exec::Buffer runSquareAll(Operation *Module, int N, int64_t *Ops = nullptr) {
  exec::Buffer Mem = exec::Buffer::alloc({N, N});
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      Mem.at({I, J}) = 0.25 * I - 0.5 * J + 1.0;
  exec::Executor Exec(Module);
  if (failed(Exec.run("square_all", {exec::RuntimeValue::makeBuffer(Mem)}))) {
    std::fprintf(stderr, "square_all execution failed\n");
    std::exit(1);
  }
  if (Ops)
    *Ops = Exec.getLastOpCount();
  return Mem;
}

/// Tiles the outermost loop of @square_all in \p Module by \p Tiles and,
/// with \p Lower, converts the result to branch form.
bool tileAndLower(Operation *Module, const std::vector<int64_t> &Tiles,
                  bool Lower) {
  Operation *Func = nullptr;
  Module->walk([&](Operation *Op) {
    if (Op->getName() == "func.func")
      Func = Op;
  });
  Operation *Outer = nullptr;
  for (Operation *Op : Func->getRegion(0).front())
    if (!Outer && Op->getName() == "scf.for")
      Outer = Op;
  return Outer && succeeded(loops::tileLoopNest(Outer, Tiles)) &&
         (!Lower || succeeded(convertScfToCf(Func)));
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int N = Smoke ? 16 : 64;
  const int Repeats = Smoke ? 3 : 10;
  const int TuneBudget = Smoke ? 2 : 8;

  Context Ctx;
  registerAllDialects(Ctx);
  registerTransformDialect(Ctx);

  printHeader("Deep pipeline: structured vs script-lowered CFG execution");
  std::printf("payload: %dx%d square_all, repeats: %d, tune budget: %d\n", N,
              N, Repeats, TuneBudget);

  std::string PayloadText = makePayload(N);
  OwningOpRef Structured = parseSourceString(Ctx, PayloadText, "structured");
  OwningOpRef Lowered = parseSourceString(Ctx, PayloadText, "lowered");
  OwningOpRef FixedStructured = parseSourceString(Ctx, PayloadText, "fixed");
  OwningOpRef FixedLowered = parseSourceString(Ctx, PayloadText, "fixed");
  if (!Structured || !Lowered || !FixedStructured || !FixedLowered) {
    std::fprintf(stderr, "payload parse failed\n");
    return 1;
  }

  // Deterministic work: both forms at one fixed tile config, counted
  // before any tuning touches the executor.
  const std::vector<int64_t> FixedTiles = {4, 8};
  if (!tileAndLower(FixedStructured.get(), FixedTiles, false) ||
      !tileAndLower(FixedLowered.get(), FixedTiles, true)) {
    std::fprintf(stderr, "fixed-config tiling or lowering failed\n");
    return 1;
  }
  telemetry::MetricsWindow FixedWindow;
  int64_t FixedStructuredOps = 0, FixedLoweredOps = 0;
  runSquareAll(FixedStructured.get(), N, &FixedStructuredOps);
  runSquareAll(FixedLowered.get(), N, &FixedLoweredOps);
  telemetry::MetricsSnapshot FixedCounters = FixedWindow.diff();
  std::printf("fixed config [4, 8] executed ops: structured %lld, lowered "
              "%lld\n",
              (long long)FixedStructuredOps, (long long)FixedLoweredOps);

  std::string Dir = "/tmp/tdl_bench_deep_" + std::to_string(::getpid());
  ::mkdir(Dir.c_str(), 0755);
  std::string LibPath = Dir + "/deep_lowering.mlir";
  {
    std::ofstream Out(LibPath, std::ios::trunc);
    Out << DeepLoweringLibrary;
  }

  // One dispatch turns the second copy into tuned, branch-form IR: the
  // tuner itself times CFG clones through the same executor.
  TransformLibraryManager Libraries(Ctx);
  strategy::StrategyManager Strategies(Ctx, Libraries);
  strategy::DispatchOptions Options;
  Options.TuneBudget = TuneBudget;
  if (failed(Strategies.addStrategyDir(Dir))) {
    std::fprintf(stderr, "strategy dir load failed\n");
    return 1;
  }
  auto Result = Strategies.dispatch(Lowered.get(), "cfg", Options);
  if (failed(Result)) {
    std::fprintf(stderr, "dispatch failed\n");
    return 1;
  }
  std::string LoweredText = printOperationToString(Lowered.get());
  if (LoweredText.find("scf.") != std::string::npos ||
      LoweredText.find("cf.cond_br") == std::string::npos) {
    std::fprintf(stderr, "lowered payload is not in CFG form\n");
    return 1;
  }
  std::printf("tuned config: [tile_i = %lld, tile_j = %lld] after %lld "
              "evaluations\n",
              (long long)(*Result).Config[0], (long long)(*Result).Config[1],
              (long long)(*Result).TuneEvaluations);

  // Both forms must compute the same values before timing means anything.
  exec::Buffer StructuredOut = runSquareAll(Structured.get(), N);
  exec::Buffer LoweredOut = runSquareAll(Lowered.get(), N);
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      if (StructuredOut.at({I, J}) != LoweredOut.at({I, J})) {
        std::fprintf(stderr,
                     "structured/lowered mismatch at (%d, %d): %f vs %f\n", I,
                     J, StructuredOut.at({I, J}), LoweredOut.at({I, J}));
        return 1;
      }
  std::printf("structured and lowered outputs agree (%d elements)\n", N * N);

  auto StructuredCost =
      exec::measureExecutionSeconds(Structured.get(), "square_all", Repeats);
  auto LoweredCost =
      exec::measureExecutionSeconds(Lowered.get(), "square_all", Repeats);
  if (failed(StructuredCost) || failed(LoweredCost)) {
    std::fprintf(stderr, "measurement failed\n");
    return 1;
  }
  std::printf("structured (scf) execution:  %9.2f us/run\n",
              *StructuredCost * 1e6);
  std::printf("lowered (cf) execution:      %9.2f us/run\n",
              *LoweredCost * 1e6);
  std::printf("lowered/structured ratio: %.2fx\n",
              *LoweredCost / *StructuredCost);

  JsonReport Report("deep_pipeline");
  Report.metric("payload_n", N);
  Report.metric("repeats", Repeats);
  Report.metric("tune_budget", TuneBudget);
  Report.metric("tune_evaluations", (long long)(*Result).TuneEvaluations);
  Report.metric("tile_i", (long long)(*Result).Config[0]);
  Report.metric("tile_j", (long long)(*Result).Config[1]);
  Report.metric("structured_us_per_run", *StructuredCost * 1e6);
  Report.metric("lowered_us_per_run", *LoweredCost * 1e6);
  Report.metric("lowered_over_structured", *LoweredCost / *StructuredCost);
  Report.metric("fixed_tile_i", (long long)FixedTiles[0]);
  Report.metric("fixed_tile_j", (long long)FixedTiles[1]);
  Report.metric("exec.fixed_structured_ops", (long long)FixedStructuredOps);
  Report.metric("exec.fixed_lowered_ops", (long long)FixedLoweredOps);
  // Only the fixed-config window: the tuner's executor runs vary with the
  // configs that wall time picks.
  Report.addMetricsSnapshot(FixedCounters);

  std::remove(LibPath.c_str());
  ::rmdir(Dir.c_str());
  return 0;
}
