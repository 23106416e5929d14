//===- MatcherEngineTest.cpp - MatcherEngine client + sharding tests ----------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the MatcherEngine subsystem shared by `transform.foreach_match`,
/// `transform.collect_matching`, and match-driven `transform.apply_patterns`:
/// cross-shard determinism of the sharded match phase (byte-identical printed
/// output at any shard count), collect_matching semantics (typed results,
/// parameter forwarding, the empty-match case), and per-match pattern sets.
///
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/Transform.h"

#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "support/Stream.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

using namespace tdl;

namespace {

class MatcherEngineTest : public ::testing::Test {
protected:
  MatcherEngineTest() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
  }

  /// A module with \p NumFuncs top-level functions — the shard unit of the
  /// parallel walk — each holding a loop with a load/add/store body.
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

  int64_t countOps(Operation *Root, std::string_view Name) {
    int64_t Count = 0;
    Root->walk([&](Operation *Op) { Count += Op->getName() == Name; });
    return Count;
  }

  Context Ctx;
};

//===----------------------------------------------------------------------===//
// Cross-shard determinism
//===----------------------------------------------------------------------===//

/// Two (matcher, action) pairs whose matches land in every function, with a
/// forwarded-yield action feeding a trailing result.
static const char *const AnnotatingPairs = R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    "transform.annotate"(%loop) {name = "marked_loop"}
      : (!transform.any_op) -> ()
    "transform.yield"(%loop) : (!transform.any_op) -> ()
  }) {sym_name = "mark_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["memref.load"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_load"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%load: !transform.any_op):
    "transform.annotate"(%load) {name = "marked_load"}
      : (!transform.any_op) -> ()
    "transform.yield"(%load) : (!transform.any_op) -> ()
  }) {sym_name = "mark_load"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u, %loops = "transform.foreach_match"(%root)
      {matchers = [@is_loop, @is_load], actions = [@mark_loop, @mark_load],
       flatten_results}
      : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    "transform.annotate"(%loops) {name = "forwarded"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
)";

TEST_F(MatcherEngineTest, ShardedWalkOutputIsByteIdentical) {
  // Matches land in different shards of a 12-function payload; the merged
  // match order — and therefore annotation order, forwarded-result order,
  // and the final printed module — must be byte-identical to the serial
  // walk.
  OwningOpRef Script = makeScriptModule(AnnotatingPairs);
  ASSERT_TRUE(Script);

  std::string Serial;
  {
    OwningOpRef Payload = makeManyFuncPayload(12);
    ASSERT_TRUE(Payload);
    TransformOptions Options;
    Options.MatchShards = 1;
    ASSERT_TRUE(
        succeeded(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_EQ(countAttr(Payload.get(), "marked_loop"), 12);
    EXPECT_EQ(countAttr(Payload.get(), "marked_load"), 12);
    Serial = printed(Payload.get());
  }
  for (unsigned NumShards : {2u, 4u, 7u}) {
    OwningOpRef Payload = makeManyFuncPayload(12);
    TransformOptions Options;
    Options.MatchShards = NumShards;
    ASSERT_TRUE(
        succeeded(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_EQ(printed(Payload.get()), Serial)
        << "shard count " << NumShards << " diverged from the serial walk";
  }
}

TEST_F(MatcherEngineTest, ShardedWalkWithConsumingActionsIsDeterministic) {
  // Actions that rewrite payload (full unroll consumes the matched loop)
  // run in the single-threaded commit phase; stale-match skipping and the
  // final IR must not depend on the shard count of the match phase.
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

  std::string Serial;
  {
    OwningOpRef Payload = makeManyFuncPayload(6);
    TransformOptions Options;
    Options.MatchShards = 1;
    ASSERT_TRUE(
        succeeded(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_TRUE(succeeded(verify(Payload.get())));
    EXPECT_EQ(countOps(Payload.get(), "scf.for"), 0);
    Serial = printed(Payload.get());
  }
  {
    OwningOpRef Payload = makeManyFuncPayload(6);
    TransformOptions Options;
    Options.MatchShards = 4;
    ASSERT_TRUE(
        succeeded(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_TRUE(succeeded(verify(Payload.get())));
    EXPECT_EQ(printed(Payload.get()), Serial);
  }
}

/// AnnotatingPairs' matchers over nested roots: every scf.for root also
/// lies inside a func.func root, so two walk units can reach each loop.
static const char *const NestedRootPairs = R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    "transform.annotate"(%loop) {name = "marked_loop"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["memref.load"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_load"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%load: !transform.any_op):
    "transform.annotate"(%load) {name = "marked_load"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_load"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %funcs = "transform.match.op"(%root) {op_name = "func.func"}
      : (!transform.any_op) -> (!transform.any_op)
    %loops = "transform.match.op"(%root) {op_name = "scf.for"}
      : (!transform.any_op) -> (!transform.any_op)
    %roots = "transform.merge_handles"(%funcs, %loops)
      : (!transform.any_op, !transform.any_op) -> (!transform.any_op)
    %u = "transform.foreach_match"(%roots)
      {matchers = [@is_loop, @is_load], actions = [@mark_loop, @mark_load]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
)";

TEST_F(MatcherEngineTest, ShardedMatcherInvocationCountMatchesSerial) {
  // Each op is offered by exactly one walk unit, settled before the walk,
  // so the registry counters agree with the serial walk — for disjoint
  // top-level functions and for nested roots alike.
  for (const char *Pairs : {AnnotatingPairs, NestedRootPairs}) {
    OwningOpRef Script = makeScriptModule(Pairs);
    ASSERT_TRUE(Script);
    int64_t SerialInvocations = -1, SerialExecuted = -1;
    std::string SerialText;
    for (unsigned NumShards : {1u, 3u}) {
      OwningOpRef Payload = makeManyFuncPayload(5);
      TransformOptions Options;
      Options.MatchShards = NumShards;
      telemetry::MetricsWindow Window;
      TransformInterpreter Interp(Payload.get(), Script.get(), Options);
      ASSERT_TRUE(succeeded(Interp.run()));
      int64_t Invocations = Window.counter("interp.matcher_invocations");
      int64_t Executed = Window.counter("interp.executed_ops");
      EXPECT_EQ(countAttr(Payload.get(), "marked_loop"), 5);
      if (NumShards == 1) {
        EXPECT_GT(Invocations, 0);
        SerialInvocations = Invocations;
        SerialExecuted = Executed;
        SerialText = printed(Payload.get());
        continue;
      }
      EXPECT_EQ(Invocations, SerialInvocations);
      EXPECT_EQ(Executed, SerialExecuted);
      EXPECT_EQ(printed(Payload.get()), SerialText);
    }
  }
}

TEST_F(MatcherEngineTest, ShardedDefiniteMatcherErrorIsReported) {
  // A malformed matcher op is a definite error; the sharded walk must
  // surface it (and fail the interpretation) exactly like the serial one.
  static const char *const BrokenMatcher = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "broken"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@broken], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )";
  OwningOpRef Script = makeScriptModule(BrokenMatcher);
  ASSERT_TRUE(Script);
  for (unsigned NumShards : {1u, 4u}) {
    OwningOpRef Payload = makeManyFuncPayload(6);
    TransformOptions Options;
    Options.MatchShards = NumShards;
    ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
    EXPECT_TRUE(
        failed(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_TRUE(Capture.contains("op_names"));
  }
}

TEST_F(MatcherEngineTest, ShardedRemarksReplayOncePerClaimedOp) {
  // Overlapping roots: the module root and every function are roots at
  // once, so each addf is reachable from two walk units that may land on
  // different shards. The claim-dedup at merge time must replay the
  // matcher's remark exactly once per claimed op at any shard count (the
  // serial walk's visit-once rule).
  static const char *const RemarkPairs = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["arith.addf"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.debug.emit_remark"(%0) {message = "claimed an add"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "is_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %funcs = "transform.match.op"(%root) {op_name = "func.func"}
        : (!transform.any_op) -> (!transform.any_op)
      %both = "transform.merge_handles"(%root, %funcs)
        : (!transform.any_op, !transform.any_op) -> (!transform.any_op)
      %u = "transform.foreach_match"(%both)
        {matchers = [@is_add], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )";
  OwningOpRef Script = makeScriptModule(RemarkPairs);
  ASSERT_TRUE(Script);
  for (unsigned NumShards : {1u, 4u}) {
    OwningOpRef Payload = makeManyFuncPayload(4);
    TransformOptions Options;
    Options.MatchShards = NumShards;
    ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
    ASSERT_TRUE(
        succeeded(applyTransforms(Payload.get(), Script.get(), Options)));
    int64_t Remarks = 0;
    for (const Diagnostic &Diag : Capture.getDiagnostics())
      Remarks += Diag.Message.find("claimed an add") != std::string::npos;
    EXPECT_EQ(Remarks, 4) << "shard count " << NumShards;
  }
}

TEST_F(MatcherEngineTest, ShardedErrorPathReplaysPriorRemarks) {
  // A definite error mid-walk must still replay the successful matchers'
  // remarks from before the serial error point — even when other shards
  // own those earlier units. Pair 1 remarks on loops; pair 2's typed
  // argument prefilters it to func.return, where its malformed body is a
  // definite error. The first func subtree holds one loop before its
  // return, so exactly one remark precedes the error at any shard count.
  static const char *const RemarkThenError = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.debug.emit_remark"(%0) {message = "saw a loop"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "remark_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"func.return">):
      %0 = "transform.match.operation_name"(%op) {}
        : (!transform.op<"func.return">) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "broken_on_return"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@remark_loop, @broken_on_return],
         actions = [@noop, @noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )";
  OwningOpRef Script = makeScriptModule(RemarkThenError);
  ASSERT_TRUE(Script);
  for (unsigned NumShards : {1u, 4u}) {
    OwningOpRef Payload = makeManyFuncPayload(6);
    TransformOptions Options;
    Options.MatchShards = NumShards;
    ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
    EXPECT_TRUE(
        failed(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_TRUE(Capture.contains("op_names"));
    int64_t Remarks = 0;
    for (const Diagnostic &Diag : Capture.getDiagnostics())
      Remarks += Diag.Message.find("saw a loop") != std::string::npos;
    EXPECT_EQ(Remarks, 1) << "shard count " << NumShards;
  }
}

TEST_F(MatcherEngineTest, ErasingActionThenFailingReportsWithoutCandidate) {
  // The action fully unrolls (erases) its matched loop, then fails on a
  // missing forwarded yield. The error message is built after the action
  // ran, so it must not read the erased candidate op (ASan-guarded).
  OwningOpRef Payload = makeManyFuncPayload(1);
  OwningOpRef Script = makeScriptModule(R"(
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
    }) {sym_name = "unroll_no_yield"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u, %extra = "transform.foreach_match"(%root)
        {matchers = [@is_loop], actions = [@unroll_no_yield]}
        : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  // The diagnostic still names the matched op via its pre-captured name.
  EXPECT_TRUE(Capture.contains("on payload op 'scf.for'"));
  EXPECT_TRUE(Capture.contains("forwarded results are expected"));
}

//===----------------------------------------------------------------------===//
// collect_matching
//===----------------------------------------------------------------------===//

TEST_F(MatcherEngineTest, CollectMatchingTypedResults) {
  // All loops collected through a typed matcher into a typed handle; the
  // script passes the static type check and the handle holds every loop.
  OwningOpRef Payload = makeManyFuncPayload(3);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.collect_matching"(%root) {matcher = @is_loop}
        : (!transform.any_op) -> (!transform.op<"scf.for">)
      "transform.annotate"(%loops) {name = "collected"}
        : (!transform.op<"scf.for">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(analyzeHandleTypes(Script.get()).empty());
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "collected"), 3);
  Payload->walk([&](Operation *Op) {
    if (Op->hasAttr("collected")) {
      EXPECT_EQ(Op->getName(), "scf.for");
    }
  });
}

TEST_F(MatcherEngineTest, CollectMatchingEmptyMatchSucceeds) {
  // No payload op matches: unlike match.op, collect_matching succeeds with
  // an empty handle (annotate over it is a no-op).
  OwningOpRef Payload = makeManyFuncPayload(2);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"linalg.matmul">):
      "transform.yield"(%op) : (!transform.op<"linalg.matmul">) -> ()
    }) {sym_name = "is_matmul"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %mm = "transform.collect_matching"(%root) {matcher = @is_matmul}
        : (!transform.any_op) -> (!transform.op<"linalg.matmul">)
      "transform.annotate"(%mm) {name = "never"}
        : (!transform.op<"linalg.matmul">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "never"), 0);
}

TEST_F(MatcherEngineTest, CollectMatchingForwardsHandlesAndParams) {
  // The matcher yields the candidate and a parameter; collect_matching
  // concatenates both across matches (one param per matched load).
  OwningOpRef Payload = makeManyFuncPayload(2);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["memref.load"]}
        : (!transform.any_op) -> (!transform.any_op)
      %p = "transform.param.constant"() {value = 1 : index}
        : () -> (!transform.param)
      "transform.yield"(%0, %p) : (!transform.any_op, !transform.param) -> ()
    }) {sym_name = "load_with_param"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loads, %flags = "transform.collect_matching"(%root)
        {matcher = @load_with_param}
        : (!transform.any_op) -> (!transform.any_op, !transform.param)
      "transform.assert"(%flags) {message = "params must be forwarded"}
        : (!transform.param) -> ()
      "transform.annotate"(%loads) {name = "collected_load"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "collected_load"), 2);
}

TEST_F(MatcherEngineTest, CollectMatchingShardedMatchesSerial) {
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"memref.store">):
      "transform.yield"(%op) : (!transform.op<"memref.store">) -> ()
    }) {sym_name = "is_store"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %stores = "transform.collect_matching"(%root) {matcher = @is_store}
        : (!transform.any_op) -> (!transform.op<"memref.store">)
      "transform.annotate"(%stores) {name = "store_seen"}
        : (!transform.op<"memref.store">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::string Serial;
  for (unsigned NumShards : {1u, 4u}) {
    OwningOpRef Payload = makeManyFuncPayload(9);
    TransformOptions Options;
    Options.MatchShards = NumShards;
    ASSERT_TRUE(
        succeeded(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_EQ(countAttr(Payload.get(), "store_seen"), 9);
    if (NumShards == 1)
      Serial = printed(Payload.get());
    else
      EXPECT_EQ(printed(Payload.get()), Serial);
  }
}

TEST_F(MatcherEngineTest, CollectMatchingArityMismatchIsDefiniteError) {
  OwningOpRef Payload = makeManyFuncPayload(1);
  // The matcher forwards one value but the op declares two results.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %a, %b = "transform.collect_matching"(%root) {matcher = @is_loop}
        : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("declares"));
}

TEST_F(MatcherEngineTest, CollectMatchingUnknownMatcherIsDefiniteError) {
  OwningOpRef Payload = makeManyFuncPayload(1);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %a = "transform.collect_matching"(%root) {matcher = @missing}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("unknown named sequence"));
}

TEST_F(MatcherEngineTest, CollectMatchingTypedYieldMismatchRejectedStatically) {
  // The matcher forwards op<"scf.for"> but the result declares
  // op<"memref.load">: caught by the static type analysis before any
  // interpretation.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %a = "transform.collect_matching"(%root) {matcher = @is_loop}
        : (!transform.any_op) -> (!transform.op<"memref.load">)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::vector<TypeCheckIssue> Issues = analyzeHandleTypes(Script.get());
  ASSERT_FALSE(Issues.empty());
  EXPECT_NE(Issues[0].Message.find("collect_matching"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// apply_patterns: named sets and per-match pattern sets
//===----------------------------------------------------------------------===//

TEST_F(MatcherEngineTest, ApplyPatternsNamedSetFlatForm) {
  // The attribute form replaces the region form: named sets resolve through
  // the transform.pattern registry ("canonicalization" is built in).
  // x * 1 folds away under canonicalization.
  OwningOpRef Payload = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: f64):
        %one = "arith.constant"() {value = 1.0 : f64} : () -> (f64)
        %y = "arith.mulf"(%x, %one) : (f64, f64) -> (f64)
        "func.return"(%y) : (f64) -> ()
      }) {sym_name = "f", function_type = (f64) -> f64} : () -> ()
    }) : () -> ()
  )");
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {pattern_sets = ["canonicalization"]} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countOps(Payload.get(), "arith.mulf"), 0);
}

TEST_F(MatcherEngineTest, ApplyPatternsPerMatchAppliesOnlyInsideMatches) {
  // The paper's pattern-control example: a named pattern set applied only
  // within ops a pure matcher approved. Two functions, one tagged
  // {kernel}; addf->mulf must rewrite inside the tagged one only.
  registerTransformPatternOp(Ctx, "addf_to_mulf", [](PatternSet &Patterns) {
    Patterns.addFn("addf-to-mulf", "arith.addf",
                   [](Operation *Op, PatternRewriter &Rewriter) {
                     Rewriter.replaceOpWithNew(Op, "arith.mulf",
                                               Op->getOperands(),
                                               Op->getResultTypes());
                     return success();
                   });
  });
  OwningOpRef Payload = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: f64):
        %a = "arith.addf"(%x, %x) : (f64, f64) -> (f64)
        "func.return"(%a) : (f64) -> ()
      }) {sym_name = "hot", kernel,
          function_type = (f64) -> f64} : () -> ()
      "func.func"() ({
      ^bb0(%x: f64):
        %a = "arith.addf"(%x, %x) : (f64, f64) -> (f64)
        "func.return"(%a) : (f64) -> ()
      }) {sym_name = "cold", function_type = (f64) -> f64} : () -> ()
    }) : () -> ()
  )");
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"func.func">):
      %0 = "transform.match.attr"(%op) {name = "kernel"}
        : (!transform.op<"func.func">) -> (!transform.op<"func.func">)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_kernel_func"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {matchers = [@is_kernel_func], pattern_sets = ["addf_to_mulf"]}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(analyzeHandleTypes(Script.get()).empty());
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t HotMulf = 0, ColdAddf = 0;
  Payload->walk([&](Operation *Op) {
    if (Op->getName() != "func.func")
      return;
    bool Hot = Op->hasAttr("kernel");
    Op->walk([&](Operation *Nested) {
      if (Hot)
        HotMulf += Nested->getName() == "arith.mulf";
      else
        ColdAddf += Nested->getName() == "arith.addf";
    });
  });
  EXPECT_EQ(HotMulf, 1);  // rewritten inside the matched func
  EXPECT_EQ(ColdAddf, 1); // untouched outside it
}

TEST_F(MatcherEngineTest, ApplyPatternsPerMatchUnknownSetIsRejected) {
  OwningOpRef Payload = makeManyFuncPayload(1);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"func.func">):
      "transform.yield"() : () -> ()
    }) {sym_name = "is_func"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {matchers = [@is_func], pattern_sets = ["no_such_set"]}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("unknown pattern set"));
}

TEST_F(MatcherEngineTest, ApplyPatternsFlatUnknownSetRejectedStatically) {
  // The flat form gets the same static registry check as the match-driven
  // form: an unknown set name is an ill-typed script, caught before any
  // transform runs.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {pattern_sets = ["no_such_flat_set"]} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::vector<TypeCheckIssue> Issues = analyzeHandleTypes(Script.get());
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_NE(Issues[0].Message.find("unknown pattern set"), std::string::npos);
}

TEST_F(MatcherEngineTest, ApplyPatternsMismatchedPairArraysAreRejected) {
  OwningOpRef Payload = makeManyFuncPayload(1);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "m"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {matchers = [@m, @m], pattern_sets = ["canonicalization"]}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("equally sized"));
}

TEST_F(MatcherEngineTest, ApplyPatternsPerMatchSkipsStaleMatches) {
  // Two pairs claim overlapping payload: the func (whose pattern run
  // replaces the addf inside it) and the addf itself. The func is claimed
  // first in walk order, its commit replaces the addf, and the addf match
  // goes stale — the engine must skip it rather than anchor a pattern run
  // at a replaced op.
  registerTransformPatternOp(Ctx, "erase_adds", [](PatternSet &Patterns) {
    Patterns.addFn("erase-adds", "arith.addf",
                   [](Operation *Op, PatternRewriter &Rewriter) {
                     Rewriter.replaceOpWithNew(Op, "arith.mulf",
                                               Op->getOperands(),
                                               Op->getResultTypes());
                     return success();
                   });
  });
  OwningOpRef Payload = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: f64):
        %a = "arith.addf"(%x, %x) : (f64, f64) -> (f64)
        "func.return"(%a) : (f64) -> ()
      }) {sym_name = "f", function_type = (f64) -> f64} : () -> ()
    }) : () -> ()
  )");
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"func.func">):
      "transform.yield"() : () -> ()
    }) {sym_name = "is_func"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"arith.addf">):
      "transform.yield"() : () -> ()
    }) {sym_name = "is_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.apply_patterns"(%root)
        {matchers = [@is_func, @is_add],
         pattern_sets = ["erase_adds", "erase_adds"]}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countOps(Payload.get(), "arith.addf"), 0);
  EXPECT_EQ(countOps(Payload.get(), "arith.mulf"), 1);
}

//===----------------------------------------------------------------------===//
// Parallel commit phase
//===----------------------------------------------------------------------===//

/// One pair whose action annotates the matched loop and emits a remark: the
/// payload edit and the diagnostic must both come back in serial walk order
/// from the parallel commit.
static const char *const CommitRemarkPairs = R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    "transform.annotate"(%loop) {name = "committed_loop"}
      : (!transform.any_op) -> ()
    "transform.debug.emit_remark"(%loop) {message = "committed a loop"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root)
      {matchers = [@is_loop], actions = [@mark_loop]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
)";

TEST_F(MatcherEngineTest, CommitShardedOutputAndDiagnosticsByteIdentical) {
  // Twelve conflict-free partitions (one per function): the printed module
  // AND the full diagnostic stream must be byte-identical to the serial
  // commit at every shard count, and the probe counters must show that the
  // partitions actually committed on worker threads.
  OwningOpRef Script = makeScriptModule(CommitRemarkPairs);
  ASSERT_TRUE(Script);

  std::string SerialText;
  std::vector<std::string> SerialDiags;
  {
    OwningOpRef Payload = makeManyFuncPayload(12);
    ASSERT_TRUE(Payload);
    TransformOptions Options;
    Options.CommitShards = 1;
    ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
    telemetry::MetricsWindow Window;
    TransformInterpreter Interp(Payload.get(), Script.get(), Options);
    ASSERT_TRUE(succeeded(Interp.run()));
    // Shards == 1 is the serial fast path: no partitioning at all.
    EXPECT_EQ(Window.counter("engine.commit.parallel_partitions"), 0);
    EXPECT_EQ(Window.counter("engine.commit.serial_partitions"), 0);
    EXPECT_EQ(countAttr(Payload.get(), "committed_loop"), 12);
    SerialText = printed(Payload.get());
    for (const Diagnostic &Diag : Capture.getDiagnostics())
      SerialDiags.push_back(Diag.Message);
    EXPECT_EQ(SerialDiags.size(), 12u);
  }
  for (unsigned NumShards : {2u, 4u, 7u}) {
    OwningOpRef Payload = makeManyFuncPayload(12);
    TransformOptions Options;
    Options.CommitShards = NumShards;
    ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
    telemetry::MetricsWindow Window;
    TransformInterpreter Interp(Payload.get(), Script.get(), Options);
    ASSERT_TRUE(succeeded(Interp.run()));
    EXPECT_EQ(Window.counter("engine.commit.parallel_partitions"), 12)
        << "conflict-free partitions must commit in parallel at shard count "
        << NumShards;
    EXPECT_EQ(Window.counter("engine.commit.serial_partitions"), 0);
    EXPECT_EQ(Window.counter("engine.commit.snapshots"), 0)
        << "annotate/remark actions cannot fail, so nothing is speculative";
    EXPECT_EQ(printed(Payload.get()), SerialText)
        << "commit shard count " << NumShards
        << " diverged from the serial commit";
    std::vector<std::string> Diags;
    for (const Diagnostic &Diag : Capture.getDiagnostics())
      Diags.push_back(Diag.Message);
    EXPECT_EQ(Diags, SerialDiags)
        << "diagnostic replay at commit shard count " << NumShards
        << " diverged from the serial commit";
  }
}

TEST_F(MatcherEngineTest, CommitShardedConsumingActionsAreDeterministic) {
  // Full unroll consumes the matched loop and splices new ops into its
  // function: a payload-rewriting, handle-consuming action committed on a
  // worker thread, with the consume/replace events replayed into the
  // driver's state. Final IR must be byte-identical at every shard count.
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

  std::string SerialText;
  {
    OwningOpRef Payload = makeManyFuncPayload(6);
    TransformOptions Options;
    Options.CommitShards = 1;
    ASSERT_TRUE(
        succeeded(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_TRUE(succeeded(verify(Payload.get())));
    EXPECT_EQ(countOps(Payload.get(), "scf.for"), 0);
    SerialText = printed(Payload.get());
  }
  for (unsigned NumShards : {2u, 4u, 7u}) {
    OwningOpRef Payload = makeManyFuncPayload(6);
    TransformOptions Options;
    Options.CommitShards = NumShards;
    telemetry::MetricsWindow Window;
    TransformInterpreter Interp(Payload.get(), Script.get(), Options);
    ASSERT_TRUE(succeeded(Interp.run()));
    EXPECT_TRUE(succeeded(verify(Payload.get())));
    EXPECT_EQ(Window.counter("engine.commit.parallel_partitions"), 6)
        << "consuming actions inside a partition are still conflict-free";
    EXPECT_EQ(Window.counter("engine.commit.serial_partitions"), 0);
    // Unroll may fail, so partitions claimed while an earlier one runs
    // snapshot first; the first partition never has an earlier one.
    EXPECT_LT(Window.counter("engine.commit.snapshots"), 6);
    EXPECT_EQ(printed(Payload.get()), SerialText)
        << "commit shard count " << NumShards
        << " diverged from the serial commit";
  }
}

TEST_F(MatcherEngineTest, RewritingActionsUnderNonIsolatedChildrenCommitSerially) {
  // The payload root is a function, so the partition keys are the loops of
  // its body, and their ops use %m and %lb, defined outside every key.
  // Unrolling an inner loop clones ops that use them (as does the snapshot
  // guarding a speculative partition), editing use lists all partitions
  // share: such partitions commit serially. Annotations touch no use list
  // and stay parallel.
  std::string Loops;
  for (int L = 0; L < 4; ++L)
    Loops += R"(
        "scf.for"(%lb, %ub, %one) ({
        ^outer(%i: index):
          "scf.for"(%lb, %ub, %one) ({
          ^inner(%j: index):
            %v = "memref.load"(%m, %i, %j)
              : (memref<8x8xf64>, index, index) -> (f64)
            "memref.store"(%v, %m, %j, %i)
              : (f64, memref<8x8xf64>, index, index) -> ()
            "scf.yield"() : () -> ()
          }) {inner} : (index, index, index) -> ()
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ())";
  std::string PayloadText = R"("builtin.module"() ({
      "func.func"() ({
      ^bb0(%m: memref<8x8xf64>):
        %lb = "arith.constant"() {value = 0 : index} : () -> (index)
        %ub = "arith.constant"() {value = 8 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index))" +
                            Loops + R"(
        "func.return"() : () -> ()
      }) {sym_name = "f", function_type = (memref<8x8xf64>) -> ()}
        : () -> ()
    }) : () -> ())";
  auto ScriptFor = [&](std::string_view ActionBody) {
    return makeScriptModule(R"(
      "transform.named_sequence"() ({
      ^bb0(%op: !transform.any_op):
        %0 = "transform.match.attr"(%op) {name = "inner"}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.yield"() : () -> ()
      }) {sym_name = "is_inner"} : () -> ()
      "transform.named_sequence"() ({
      ^bb0(%loop: !transform.any_op):)" +
                            std::string(ActionBody) + R"(
        "transform.yield"() : () -> ()
      }) {sym_name = "act"} : () -> ()
      "transform.named_sequence"() ({
      ^bb0(%root: !transform.any_op):
        %u = "transform.foreach_match"(%root)
          {matchers = [@is_inner], actions = [@act]}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.yield"() : () -> ()
      }) {sym_name = "__transform_main"} : () -> ()
    )");
  };
  OwningOpRef Unroll = ScriptFor(R"(
        "transform.loop.unroll"(%loop) {factor = 2 : index}
          : (!transform.any_op) -> ())");
  OwningOpRef Annotate = ScriptFor(R"(
        "transform.annotate"(%loop) {name = "seen"}
          : (!transform.any_op) -> ())");
  ASSERT_TRUE(Unroll);
  ASSERT_TRUE(Annotate);

  struct Case {
    Operation *Script;
    int64_t Parallel, Serial;
  };
  for (Case C : {Case{Unroll.get(), 0, 4}, Case{Annotate.get(), 4, 0}}) {
    std::string SerialText;
    for (unsigned NumShards : {1u, 4u}) {
      OwningOpRef Payload = parseSourceString(Ctx, PayloadText);
      ASSERT_TRUE(Payload);
      Operation *Func = *Payload->getRegion(0).front().begin();
      TransformOptions Options;
      Options.CommitShards = NumShards;
      telemetry::MetricsWindow Window;
      ASSERT_TRUE(succeeded(applyTransforms(Func, C.Script, Options)));
      EXPECT_TRUE(succeeded(verify(Payload.get())));
      if (NumShards == 1) {
        SerialText = printed(Payload.get());
        continue;
      }
      EXPECT_EQ(Window.counter("engine.commit.parallel_partitions"),
                C.Parallel);
      EXPECT_EQ(Window.counter("engine.commit.serial_partitions"), C.Serial);
      EXPECT_EQ(printed(Payload.get()), SerialText);
    }
  }
}

TEST_F(MatcherEngineTest, CommitCrossPartitionHandleForcesSerialFallback) {
  // get_parent_op escapes the static locality analysis (its result can
  // reach any ancestor, including ops outside the partition's subtree), so
  // every partition must fall back to the in-order serial commit — and the
  // output must still match the serial run exactly.
  static const char *const ParentMarkingPairs = R"(
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
      "transform.annotate"(%parent) {name = "parent_marked"}
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
  OwningOpRef Script = makeScriptModule(ParentMarkingPairs);
  ASSERT_TRUE(Script);

  std::string SerialText;
  {
    OwningOpRef Payload = makeManyFuncPayload(6);
    TransformOptions Options;
    Options.CommitShards = 1;
    ASSERT_TRUE(
        succeeded(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_EQ(countAttr(Payload.get(), "parent_marked"), 6);
    SerialText = printed(Payload.get());
  }
  {
    OwningOpRef Payload = makeManyFuncPayload(6);
    TransformOptions Options;
    Options.CommitShards = 4;
    telemetry::MetricsWindow Window;
    TransformInterpreter Interp(Payload.get(), Script.get(), Options);
    ASSERT_TRUE(succeeded(Interp.run()));
    EXPECT_EQ(Window.counter("engine.commit.parallel_partitions"), 0)
        << "a cross-partition handle must disqualify parallel commit";
    EXPECT_EQ(Window.counter("engine.commit.serial_partitions"), 6);
    EXPECT_EQ(countAttr(Payload.get(), "parent_marked"), 6);
    EXPECT_EQ(printed(Payload.get()), SerialText);
  }
}

TEST_F(MatcherEngineTest, CommitShardedErrorReplaysEarlierPartitionRemarks) {
  // Six functions: three addf functions (remark action), then one mulf
  // function whose action is a definite error, then two more addf
  // functions. The serial commit emits three remarks and stops at the
  // error; the parallel commit may race ahead on workers, but its replay
  // must surface exactly the same three remarks and the error — nothing
  // from partitions after the failure point.
  auto MakeAddFunc = [](int N) {
    return R"(
      "func.func"() ({
      ^bb0(%x: f64):
        %a = "arith.addf"(%x, %x) : (f64, f64) -> (f64)
        "func.return"(%a) : (f64) -> ()
      }) {sym_name = "f)" +
           std::to_string(N) + R"(", function_type = (f64) -> f64} : () -> ()
    )";
  };
  std::string Funcs = MakeAddFunc(0) + MakeAddFunc(1) + MakeAddFunc(2) + R"(
    "func.func"() ({
    ^bb0(%x: f64):
      %m = "arith.mulf"(%x, %x) : (f64, f64) -> (f64)
      "func.return"(%m) : (f64) -> ()
    }) {sym_name = "boom", function_type = (f64) -> f64} : () -> ()
  )" + MakeAddFunc(3) + MakeAddFunc(4);

  static const char *const RemarkThenBrokenAction = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["arith.addf"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%add: !transform.any_op):
      "transform.debug.emit_remark"(%add) {message = "acting on an add"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "remark_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["arith.mulf"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_mul"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%mul: !transform.any_op):
      %0 = "transform.match.operation_name"(%mul) {}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "broken_action"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@is_add, @is_mul],
         actions = [@remark_add, @broken_action]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )";
  OwningOpRef Script = makeScriptModule(RemarkThenBrokenAction);
  ASSERT_TRUE(Script);

  for (unsigned NumShards : {1u, 2u, 4u, 7u}) {
    OwningOpRef Payload = parseSourceString(
        Ctx, "\"builtin.module\"() ({" + Funcs + "}) : () -> ()");
    ASSERT_TRUE(Payload);
    TransformOptions Options;
    Options.CommitShards = NumShards;
    ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
    EXPECT_TRUE(
        failed(applyTransforms(Payload.get(), Script.get(), Options)));
    EXPECT_TRUE(Capture.contains("op_names"))
        << "commit shard count " << NumShards;
    int64_t Remarks = 0;
    for (const Diagnostic &Diag : Capture.getDiagnostics())
      Remarks += Diag.Message.find("acting on an add") != std::string::npos;
    EXPECT_EQ(Remarks, 3)
        << "commit shard count " << NumShards
        << " must replay exactly the remarks before the failure point";
  }
}

//===----------------------------------------------------------------------===//
// Failure replay and the shared shard pool
//===----------------------------------------------------------------------===//

/// Eight functions like makeManyFuncPayload's; only function 4 — a middle
/// walk unit and a middle commit partition — also multiplies.
static std::string middleMulPayloadText() {
  std::string Funcs;
  for (int F = 0; F < 8; ++F) {
    std::string Mul = F == 4 ? R"(
          %p = "arith.mulf"(%w, %w) : (f64, f64) -> (f64))"
                             : "";
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
          %w = "arith.addf"(%v, %v) : (f64, f64) -> (f64))" +
             Mul + R"(
          "memref.store"(%w, %m, %i, %lb)
            : (f64, memref<8x8xf64>, index, index) -> ()
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "f)" +
             std::to_string(F) +
             R"(", function_type = (memref<8x8xf64>) -> ()} : () -> ()
    )";
  }
  return "\"builtin.module\"() ({" + Funcs + "}) : () -> ()";
}

/// Runs \p Script over a fresh middleMulPayloadText() module at \p Shards
/// match and commit shards; returns every diagnostic, rendered, followed by
/// the printed payload. The run itself must fail.
static std::string failedRunTranscript(Context &Ctx, Operation *Script,
                                       unsigned Shards) {
  OwningOpRef Payload = parseSourceString(Ctx, middleMulPayloadText());
  if (!Payload)
    return "payload does not parse";
  TransformOptions Options;
  Options.MatchShards = Shards;
  Options.CommitShards = Shards;
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  bool Failed = failed(applyTransforms(Payload.get(), Script, Options));
  std::string Text = Failed ? "" : "unexpected success\n";
  for (const Diagnostic &Diag : Capture.getDiagnostics())
    Text += Diag.str() + "\n";
  raw_string_ostream Stream(Text);
  Payload->print(Stream);
  return Text;
}

TEST_F(MatcherEngineTest, MiddleUnitMatcherErrorMatchesSerialAtFourShards) {
  // Every function's loop draws a matcher remark; the typed matcher on
  // arith.mulf is malformed, a definite error that only function 4
  // reaches. At 4 shards the walk units after it may already be done when
  // it fails; the replay must still stop exactly where the serial
  // walk stops, and the failed match phase must leave the payload alone.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.debug.emit_remark"(%0) {message = "saw a loop"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "remark_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"arith.mulf">):
      %0 = "transform.match.operation_name"(%op) {}
        : (!transform.op<"arith.mulf">) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "broken_on_mul"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.annotate"(%op) {name = "visited"} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@remark_loop, @broken_on_mul], actions = [@mark, @mark]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::string Serial = failedRunTranscript(Ctx, Script.get(), 1);
  EXPECT_NE(Serial.find("op_names"), std::string::npos) << Serial;
  EXPECT_EQ(Serial.find("visited"), std::string::npos) << Serial;
  // Functions 0-4 each hold one loop before the failing mulf.
  size_t Remarks = 0;
  for (size_t Pos = 0; (Pos = Serial.find("saw a loop", Pos)) !=
                       std::string::npos;
       ++Pos)
    ++Remarks;
  EXPECT_EQ(Remarks, 5u);
  for (int Repeat = 0; Repeat < 20; ++Repeat)
    ASSERT_EQ(failedRunTranscript(Ctx, Script.get(), 4), Serial)
        << "repeat " << Repeat;
}

TEST_F(MatcherEngineTest, MiddlePartitionActionFailureMatchesSerialAtFourShards) {
  // One conflict-free wave of eight partitions. Every add is annotated and
  // remarked on; function 4's mulf action annotates and then fails
  // definitely. The serial commit stops there: functions 5-7 keep their
  // adds unannotated. At 4 shards later partitions may be claimed while
  // function 4 is still committing; the diagnostics and the payload must
  // still match the serial commit exactly.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["arith.addf"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%add: !transform.any_op):
      "transform.annotate"(%add) {name = "acted"} : (!transform.any_op) -> ()
      "transform.debug.emit_remark"(%add) {message = "acting on an add"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "remark_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["arith.mulf"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_mul"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%mul: !transform.any_op):
      "transform.annotate"(%mul) {name = "acted"} : (!transform.any_op) -> ()
      %0 = "transform.match.operation_name"(%mul) {}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "broken_action"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@is_add, @is_mul],
         actions = [@remark_add, @broken_action]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::string Serial = failedRunTranscript(Ctx, Script.get(), 1);
  EXPECT_NE(Serial.find("op_names"), std::string::npos) << Serial;
  // Functions 0-4 are acted on (function 4's add and its mulf), 5-7 not.
  size_t Acted = 0;
  for (size_t Pos = 0; (Pos = Serial.find("acted", Pos)) != std::string::npos;
       ++Pos)
    ++Acted;
  EXPECT_EQ(Acted, 6u) << Serial;
  for (int Repeat = 0; Repeat < 20; ++Repeat) {
    telemetry::MetricsWindow Window;
    ASSERT_EQ(failedRunTranscript(Ctx, Script.get(), 4), Serial)
        << "repeat " << Repeat;
    EXPECT_EQ(Window.counter("engine.commit.parallel_partitions"), 5)
        << "the wave replays partitions 0-4, up to the failing one";
  }
}

TEST_F(MatcherEngineTest, ConcurrentInterpretersShareThePool) {
  // Two interpreters, each with its own Context and payload, run sharded
  // foreach_match at the same time. Whichever finds the shard pool busy
  // runs its workers inline; either way each output must be byte-identical
  // to its serial run.
  struct Client {
    Context Ctx;
    OwningOpRef Script;
    std::string Serial;
  };
  auto RunOnce = [](Client &C, unsigned Shards) {
    OwningOpRef Payload = parseSourceString(C.Ctx, middleMulPayloadText());
    if (!Payload)
      return std::string("payload does not parse");
    TransformOptions Options;
    Options.MatchShards = Shards;
    Options.CommitShards = Shards;
    ScopedDiagnosticCapture Capture(C.Ctx.getDiagEngine());
    if (failed(applyTransforms(Payload.get(), C.Script.get(), Options)))
      return std::string("transform failed");
    std::string Text;
    for (const Diagnostic &Diag : Capture.getDiagnostics())
      Text += Diag.str() + "\n";
    raw_string_ostream Stream(Text);
    Payload->print(Stream);
    return Text;
  };
  // Registration touches process-wide registries: do it before any thread
  // starts.
  Client Clients[2];
  for (Client &C : Clients) {
    registerAllDialects(C.Ctx);
    registerTransformDialect(C.Ctx);
    C.Script = parseSourceString(C.Ctx,
                                 std::string(R"("builtin.module"() ({)") +
                                     CommitRemarkPairs + "}) : () -> ()",
                                 "script");
    ASSERT_TRUE(C.Script);
    C.Serial = RunOnce(C, 1);
    EXPECT_NE(C.Serial.find("committed_loop"), std::string::npos);
  }
  std::string Outputs[2][10];
  std::vector<std::thread> Threads;
  for (int T = 0; T < 2; ++T)
    Threads.emplace_back([&, T] {
      for (std::string &Out : Outputs[T])
        Out = RunOnce(Clients[T], 3);
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  for (int T = 0; T < 2; ++T)
    for (const std::string &Out : Outputs[T])
      EXPECT_EQ(Out, Clients[T].Serial) << "client " << T;
}

TEST_F(MatcherEngineTest, ConsecutiveSpanSessionsReusePoolThreads) {
  // Pool threads outlive a SpanCollector session. Each session must hold
  // exactly its own run's worker spans — one walk-shard span per match
  // worker and one commit:worker span per wave worker, none missing and
  // none left over from the previous session — and the second session
  // must not start any thread.
  OwningOpRef Script = makeScriptModule(CommitRemarkPairs);
  ASSERT_TRUE(Script);
  auto RunSession = [&] {
    OwningOpRef Payload = makeManyFuncPayload(12);
    TransformOptions Options;
    Options.MatchShards = 4;
    Options.CommitShards = 4;
    ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
    telemetry::SpanCollector::instance().start();
    bool Applied =
        succeeded(applyTransforms(Payload.get(), Script.get(), Options));
    std::vector<telemetry::Span> Spans =
        telemetry::SpanCollector::instance().finish();
    EXPECT_TRUE(Applied);
    return Spans;
  };
  auto Count = [](const std::vector<telemetry::Span> &Spans,
                  std::string_view Name) {
    return std::count_if(
        Spans.begin(), Spans.end(),
        [&](const telemetry::Span &S) { return S.Name == Name; });
  };
  telemetry::Counter &ThreadsStarted =
      telemetry::counter("engine.worker_threads_started");
  std::vector<telemetry::Span> First = RunSession();
  // Four shards need three helpers, created by now if not earlier.
  int64_t Started = ThreadsStarted.get();
  EXPECT_GE(Started, 3);
  std::vector<telemetry::Span> Second = RunSession();
  EXPECT_EQ(ThreadsStarted.get(), Started)
      << "the second session must reuse the pool's threads";
  for (const std::vector<telemetry::Span> *Spans : {&First, &Second}) {
    EXPECT_EQ(Count(*Spans, "engine:match"), 1);
    EXPECT_EQ(Count(*Spans, "match:walk-shard"), 4);
    EXPECT_EQ(Count(*Spans, "commit:wave"), 1);
    EXPECT_EQ(Count(*Spans, "commit:worker"), 4);
    EXPECT_EQ(Count(*Spans, "commit:partition"), 12);
    // Every worker span lies inside its session's enclosing engine span.
    for (const telemetry::Span &S : *Spans) {
      std::string_view Parent = S.Name == "match:walk-shard" ? "engine:match"
                                : S.Name == "commit:worker"  ? "commit:wave"
                                                             : "";
      if (Parent.empty())
        continue;
      auto It = std::find_if(Spans->begin(), Spans->end(),
                             [&](const telemetry::Span &P) {
                               return P.Name == Parent;
                             });
      ASSERT_NE(It, Spans->end());
      EXPECT_GE(S.StartNanos, It->StartNanos) << S.Name;
      EXPECT_LE(S.StartNanos + S.DurNanos, It->StartNanos + It->DurNanos)
          << S.Name;
    }
  }
}

} // namespace
