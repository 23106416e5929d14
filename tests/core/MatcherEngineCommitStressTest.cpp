//===- MatcherEngineCommitStressTest.cpp - Parallel-commit stress tests --------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-stress tests for the MatcherEngine's parallel commit phase: wide
/// payloads (64 top-level functions), shard counts well above the hardware
/// concurrency, and repeated runs to shake out interleavings. The whole
/// test binary runs under TSan in CI, so any data race between commit
/// workers — in the IR uniquer, the diagnostic capture, or the event
/// replay — fails here even when the output happens to stay correct.
///
//===----------------------------------------------------------------------===//

#include "core/Transform.h"

#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "support/Stream.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace tdl;

namespace {

class MatcherEngineCommitStressTest : public ::testing::Test {
protected:
  MatcherEngineCommitStressTest() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
  }

  /// A module with \p NumFuncs top-level functions — the conflict-partition
  /// unit of the parallel commit — each holding a loop with a
  /// load/add/store body.
  OwningOpRef makeManyFuncPayload(int NumFuncs) {
    std::string Funcs;
    for (int F = 0; F < NumFuncs; ++F) {
      Funcs += R"(
        "func.func"() ({
        ^bb0(%m: memref<8x8xf64>):
          %lb = "arith.constant"() {value = 0 : index} : () -> (index)
          %ub = "arith.constant"() {value = 8 : index} : () -> (index)
          %one = "arith.constant"() {value = 1 : index} : () -> (index)
          "scf.for"(%lb, %ub, %one) ({
          ^body(%i: index):
            %v = "memref.load"(%m, %i, %lb)
              : (memref<8x8xf64>, index, index) -> (f64)
            %w = "arith.addf"(%v, %v) : (f64, f64) -> (f64)
            "memref.store"(%w, %m, %i, %lb)
              : (f64, memref<8x8xf64>, index, index) -> ()
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "func.return"() : () -> ()
        }) {sym_name = "f)" +
               std::to_string(F) + R"(",
            function_type = (memref<8x8xf64>) -> ()} : () -> ()
      )";
    }
    return parseSourceString(
        Ctx, "\"builtin.module\"() ({" + Funcs + "}) : () -> ()");
  }

  OwningOpRef makeScriptModule(std::string_view Sequences) {
    return parseSourceString(Ctx,
                             R"("builtin.module"() ({)" +
                                 std::string(Sequences) + R"(}) : () -> ()
    )",
                             "script");
  }

  std::string printed(Operation *Root) {
    std::string Text;
    raw_string_ostream Stream(Text);
    Root->print(Stream);
    return Text;
  }

  int64_t countAttr(Operation *Root, std::string_view Name) {
    int64_t Count = 0;
    Root->walk([&](Operation *Op) { Count += Op->hasAttr(Name); });
    return Count;
  }

  Context Ctx;
};

/// Conflict-free pairs: annotate the loop and both memory ops in every
/// function, plus a remark — three matches per partition, with diagnostic
/// traffic from every worker.
static const char *const StressPairs = R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    "transform.annotate"(%loop) {name = "stress_loop"}
      : (!transform.any_op) -> ()
    "transform.debug.emit_remark"(%loop) {message = "stress committed"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op)
      {op_names = ["memref.load", "memref.store"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_memop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%mem: !transform.any_op):
    "transform.annotate"(%mem) {name = "stress_mem"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_mem"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root)
      {matchers = [@is_loop, @is_memop], actions = [@mark_loop, @mark_mem]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
)";

TEST_F(MatcherEngineCommitStressTest, WidePayloadHighShardCounts) {
  // 64 conflict-free partitions committed at shard counts far above the
  // core count, repeated to vary the interleaving. Every run must be
  // byte-identical to the serial commit and must report all partitions as
  // parallel.
  OwningOpRef Script = makeScriptModule(StressPairs);
  ASSERT_TRUE(Script);
  constexpr int NumFuncs = 64;

  std::string SerialText;
  {
    OwningOpRef Payload = makeManyFuncPayload(NumFuncs);
    ASSERT_TRUE(Payload);
    TransformOptions Options;
    Options.CommitShards = 1;
    ASSERT_TRUE(
        succeeded(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_EQ(countAttr(Payload.get(), "stress_loop"), NumFuncs);
    EXPECT_EQ(countAttr(Payload.get(), "stress_mem"), 2 * NumFuncs);
    SerialText = printed(Payload.get());
  }
  for (unsigned NumShards : {8u, 16u}) {
    for (int Repeat = 0; Repeat < 3; ++Repeat) {
      OwningOpRef Payload = makeManyFuncPayload(NumFuncs);
      TransformOptions Options;
      Options.CommitShards = NumShards;
      ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
      telemetry::MetricsWindow Window;
      TransformInterpreter Interp(Payload.get(), Script.get(), Options);
      ASSERT_TRUE(succeeded(Interp.run()));
      EXPECT_EQ(Window.counter("engine.commit.parallel_partitions"), NumFuncs)
          << "shard count " << NumShards << ", repeat " << Repeat;
      EXPECT_EQ(Window.counter("engine.commit.serial_partitions"), 0);
      EXPECT_TRUE(succeeded(verify(Payload.get())));
      EXPECT_EQ(printed(Payload.get()), SerialText)
          << "shard count " << NumShards << ", repeat " << Repeat;
      int64_t Remarks = 0;
      for (const Diagnostic &Diag : Capture.getDiagnostics())
        Remarks += Diag.Message.find("stress committed") != std::string::npos;
      EXPECT_EQ(Remarks, NumFuncs);
    }
  }
}

TEST_F(MatcherEngineCommitStressTest, ConsumingActionsUnderHighShardCounts) {
  // Worker-side payload rewriting: full unroll consumes every matched loop
  // on its worker thread; the replayed consume events must leave the
  // driver's state consistent and the IR byte-identical, run after run.
  static const char *const UnrollingPairs = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.any_op):
      "transform.loop.unroll"(%loop) {full} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "unroll_it"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@is_loop], actions = [@unroll_it]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )";
  OwningOpRef Script = makeScriptModule(UnrollingPairs);
  ASSERT_TRUE(Script);
  constexpr int NumFuncs = 64;

  std::string SerialText;
  {
    OwningOpRef Payload = makeManyFuncPayload(NumFuncs);
    TransformOptions Options;
    Options.CommitShards = 1;
    ASSERT_TRUE(
        succeeded(applyTransforms(Payload.get(), Script.get(), Options)));
    SerialText = printed(Payload.get());
  }
  for (int Repeat = 0; Repeat < 2; ++Repeat) {
    OwningOpRef Payload = makeManyFuncPayload(NumFuncs);
    TransformOptions Options;
    Options.CommitShards = 16;
    telemetry::MetricsWindow Window;
    TransformInterpreter Interp(Payload.get(), Script.get(), Options);
    ASSERT_TRUE(succeeded(Interp.run()));
    EXPECT_EQ(Window.counter("engine.commit.parallel_partitions"), NumFuncs);
    EXPECT_EQ(Window.counter("engine.commit.serial_partitions"), 0);
    EXPECT_TRUE(succeeded(verify(Payload.get())));
    EXPECT_EQ(printed(Payload.get()), SerialText) << "repeat " << Repeat;
  }
}

TEST_F(MatcherEngineCommitStressTest, ConflictFallbackUnderHighShardCounts) {
  // get_parent_op in the action disqualifies every partition: even at high
  // shard counts the engine must count 64 serial-fallback partitions, zero
  // parallel ones, and reproduce the serial output.
  static const char *const ParentPairs = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.any_op):
      %parent = "transform.get_parent_op"(%loop)
        : (!transform.any_op) -> (!transform.any_op)
      "transform.annotate"(%parent) {name = "stress_parent"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark_parent"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@is_loop], actions = [@mark_parent]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )";
  OwningOpRef Script = makeScriptModule(ParentPairs);
  ASSERT_TRUE(Script);
  constexpr int NumFuncs = 64;

  std::string SerialText;
  {
    OwningOpRef Payload = makeManyFuncPayload(NumFuncs);
    TransformOptions Options;
    Options.CommitShards = 1;
    ASSERT_TRUE(
        succeeded(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_EQ(countAttr(Payload.get(), "stress_parent"), NumFuncs);
    SerialText = printed(Payload.get());
  }
  {
    OwningOpRef Payload = makeManyFuncPayload(NumFuncs);
    TransformOptions Options;
    Options.CommitShards = 16;
    telemetry::MetricsWindow Window;
    TransformInterpreter Interp(Payload.get(), Script.get(), Options);
    ASSERT_TRUE(succeeded(Interp.run()));
    EXPECT_EQ(Window.counter("engine.commit.parallel_partitions"), 0);
    EXPECT_EQ(Window.counter("engine.commit.serial_partitions"), NumFuncs);
    EXPECT_EQ(countAttr(Payload.get(), "stress_parent"), NumFuncs);
    EXPECT_EQ(printed(Payload.get()), SerialText);
  }
}

} // namespace
