//===- collect_matching_demo.cpp - Matches as handles, no actions ---------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The matcher/action split without the action: `transform.collect_matching`
/// runs one pure matcher over the whole payload walk and returns every match
/// as handles — the same MatcherEngine that powers `foreach_match`, used as
/// a query. The matcher here narrows to rank-2 loads and yields both the
/// load and a parameter; the script then annotates all collected loads in
/// one shot and asserts on the forwarded parameters.
///
/// Because the match phase is side-effect-free, the same script can run the
/// walk sharded across worker threads (TransformOptions::MatchShards, or
/// `tdl-opt --match-shards=N`) with byte-identical results; the demo runs
/// both and prints the match counts.
///
/// Build & run:  cmake --build build && ./build/example_collect_matching_demo
///
//===----------------------------------------------------------------------===//

#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "support/Stream.h"
#include "support/Telemetry.h"

using namespace tdl;

int main() {
  Context Ctx;
  registerAllDialects(Ctx);
  registerTransformDialect(Ctx);

  // Payload: two functions, each loading from a rank-2 and a rank-1 buffer.
  OwningOpRef Payload = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%a: memref<64x8xf64>, %s: memref<8xf64>):
        %i = "arith.constant"() {value = 0 : index} : () -> (index)
        %v = "memref.load"(%a, %i, %i)
          : (memref<64x8xf64>, index, index) -> (f64)
        %w = "memref.load"(%s, %i) : (memref<8xf64>, index) -> (f64)
        %x = "arith.addf"(%v, %w) : (f64, f64) -> (f64)
        "memref.store"(%x, %s, %i) : (f64, memref<8xf64>, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "first",
          function_type = (memref<64x8xf64>, memref<8xf64>) -> ()} : () -> ()
      "func.func"() ({
      ^bb0(%a: memref<32x4xf64>, %s: memref<4xf64>):
        %i = "arith.constant"() {value = 0 : index} : () -> (index)
        %v = "memref.load"(%a, %i, %i)
          : (memref<32x4xf64>, index, index) -> (f64)
        %w = "memref.load"(%s, %i) : (memref<4xf64>, index) -> (f64)
        %x = "arith.mulf"(%v, %w) : (f64, f64) -> (f64)
        "memref.store"(%x, %s, %i) : (f64, memref<4xf64>, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "second",
          function_type = (memref<32x4xf64>, memref<4xf64>) -> ()} : () -> ()
    }) : () -> ()
  )");
  if (!Payload) {
    errs() << "payload parse error\n";
    return 1;
  }

  // Script: one pure matcher (rank-2 loads, with a forwarded parameter),
  // collected in a single walk and annotated through the returned handle.
  OwningOpRef Script = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "transform.named_sequence"() ({
      ^bb0(%op: !transform.any_op):
        %0 = "transform.match.operation_name"(%op)
          {op_names = ["memref.load"]}
          : (!transform.any_op) -> (!transform.any_op)
        %1 = "transform.match.structured.rank"(%0) {rank = 2 : index}
          : (!transform.any_op) -> (!transform.any_op)
        %hint = "transform.param.constant"() {value = 1 : index}
          : () -> (!transform.param)
        "transform.yield"(%1, %hint)
          : (!transform.any_op, !transform.param) -> ()
      }) {sym_name = "rank2_load_with_hint"} : () -> ()

      "transform.named_sequence"() ({
      ^bb0(%root: !transform.any_op):
        %loads, %hints = "transform.collect_matching"(%root)
          {matcher = @rank2_load_with_hint}
          : (!transform.any_op) -> (!transform.any_op, !transform.param)
        "transform.assert"(%hints) {message = "hints must be forwarded"}
          : (!transform.param) -> ()
        "transform.annotate"(%loads) {name = "prefetch"}
          : (!transform.any_op) -> ()
        "transform.yield"() : () -> ()
      }) {sym_name = "__transform_main"} : () -> ()
    }) : () -> ()
  )");
  if (!Script) {
    errs() << "script parse error\n";
    return 1;
  }

  // The walk is pure, so re-running at a different shard count finds the
  // same matches; annotations are idempotent.
  for (unsigned Shards : {1u, 4u}) {
    TransformOptions Options;
    Options.MatchShards = Shards;
    telemetry::MetricsWindow Window;
    TransformInterpreter Interp(Payload.get(), Script.get(), Options);
    if (failed(Interp.run())) {
      errs() << "transform script failed\n";
      return 1;
    }
    int64_t Collected = 0;
    Payload->walk(
        [&](Operation *Op) { Collected += Op->hasAttr("prefetch"); });
    outs() << "match-shards=" << Shards << ": collected " << Collected
           << " rank-2 loads ("
           << Window.counter("interp.matcher_invocations")
           << " matcher invocations)\n";
  }

  outs() << "\nAnnotated payload:\n";
  Payload->print(outs());
  outs() << "\n";
  return 0;
}
