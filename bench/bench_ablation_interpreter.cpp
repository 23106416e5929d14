//===- bench_ablation_interpreter.cpp - Interpreter micro-costs ------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation microbenchmarks (google-benchmark) for the interpreter design
/// choices README.md describes ("Matcher engine architecture" and "Table 1:
/// pass manager vs. Transform script"): per-transform-op dispatch cost,
/// handle matching over growing payloads, invalidation tracking with many
/// live handles, and macro (include) execution vs. pre-inlined scripts.
///
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "exec/Workloads.h"
#include "ir/Parser.h"

#include <benchmark/benchmark.h>

using namespace tdl;

namespace {

struct Fixture {
  Context Ctx;
  Fixture() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
  }
  static Fixture &get() {
    static Fixture F;
    return F;
  }
};

OwningOpRef makeScript(Context &Ctx, const std::string &Body) {
  std::string Source = R"("transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
)" + Body + R"(    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
)";
  return parseSourceString(Ctx, Source, "bench-script");
}

/// Dispatch cost: a chain of N param.constant ops (no payload work).
void BM_InterpreterDispatch(benchmark::State &State) {
  Context &Ctx = Fixture::get().Ctx;
  std::string Body;
  for (int I = 0; I < State.range(0); ++I)
    Body += "    %p" + std::to_string(I) +
            " = \"transform.param.constant\"() {value = 1 : index} : () -> "
            "(!transform.param)\n";
  OwningOpRef Script = makeScript(Ctx, Body);
  OwningOpRef Payload(builtin::buildModule(Ctx, Location::unknown()));
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        applyTransforms(Payload.get(), Script.get()).succeeded());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_InterpreterDispatch)->Arg(10)->Arg(100)->Arg(1000);

/// match.op over payloads of growing size.
void BM_MatchOverPayload(benchmark::State &State) {
  Context &Ctx = Fixture::get().Ctx;
  OwningOpRef Payload =
      workloads::buildSyntheticTosaModel(Ctx, State.range(0), 3);
  OwningOpRef Script = makeScript(
      Ctx, "    %m = \"transform.match.op\"(%root) {op_name = \"tosa.add\"}"
           " : (!transform.any_op) -> (!transform.any_op)\n");
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        applyTransforms(Payload.get(), Script.get()).succeeded());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_MatchOverPayload)->Arg(100)->Arg(1000)->Arg(4000);

/// Invalidation tracking: consume with K live sibling handles.
void BM_InvalidationTracking(benchmark::State &State) {
  Context &Ctx = Fixture::get().Ctx;
  std::string Body;
  for (int I = 0; I < State.range(0); ++I)
    Body += "    %h" + std::to_string(I) +
            " = \"transform.match.op\"(%root) {op_name = \"scf.for\"} : "
            "(!transform.any_op) -> (!transform.any_op)\n";
  Body += "    %last = \"transform.match.op\"(%root) {op_name = "
          "\"scf.for\", first} : (!transform.any_op) -> "
          "(!transform.any_op)\n";
  Body += "    \"transform.loop.unroll\"(%last) {factor = 2 : index} : "
          "(!transform.any_op) -> ()\n";
  OwningOpRef Script = makeScript(Ctx, Body);
  for (auto _ : State) {
    State.PauseTiming();
    OwningOpRef Payload = parseSourceString(Ctx, R"(
      "builtin.module"() ({
        "func.func"() ({
          %lb = "arith.constant"() {value = 0 : index} : () -> (index)
          %ub = "arith.constant"() {value = 8 : index} : () -> (index)
          %one = "arith.constant"() {value = 1 : index} : () -> (index)
          "scf.for"(%lb, %ub, %one) ({
          ^b(%i: index):
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "func.return"() : () -> ()
        }) {sym_name = "f", function_type = () -> ()} : () -> ()
      }) : () -> ()
    )");
    State.ResumeTiming();
    benchmark::DoNotOptimize(
        applyTransforms(Payload.get(), Script.get()).succeeded());
  }
}
BENCHMARK(BM_InvalidationTracking)->Arg(1)->Arg(16)->Arg(128);

/// Macro execution vs. pre-inlined scripts (Section 3.4 simplification).
void BM_IncludeVsInlined(benchmark::State &State) {
  Context &Ctx = Fixture::get().Ctx;
  bool Inlined = State.range(0) == 1;
  std::string MacroCall;
  for (int I = 0; I < 16; ++I)
    MacroCall += "        \"transform.include\"(%root) {callee = @macro} : "
                 "(!transform.any_op) -> ()\n";
  std::string Source = R"(
    "builtin.module"() ({
      "transform.named_sequence"() ({
      ^bb0(%arg: !transform.any_op):
        %m = "transform.match.op"(%arg) {op_name = "tosa.add"}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.yield"() : () -> ()
      }) {sym_name = "macro"} : () -> ()
      "transform.named_sequence"() ({
      ^bb0(%root: !transform.any_op):
)" + MacroCall + R"(        "transform.yield"() : () -> ()
      }) {sym_name = "__transform_main"} : () -> ()
    }) : () -> ()
  )";
  OwningOpRef Script = parseSourceString(Ctx, Source, "macro-bench");
  if (Inlined)
    (void)inlineIncludes(Script.get());
  OwningOpRef Payload = workloads::buildSyntheticTosaModel(Ctx, 200, 5);
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        applyTransforms(Payload.get(), Script.get()).succeeded());
  }
}
BENCHMARK(BM_IncludeVsInlined)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
