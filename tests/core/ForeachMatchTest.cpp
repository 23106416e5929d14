//===- ForeachMatchTest.cpp - foreach_match matcher engine tests -------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/Transform.h"

#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace tdl;

namespace {

class ForeachMatchTest : public ::testing::Test {
protected:
  ForeachMatchTest() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
  }

  /// A function with a 2x2 nested loop whose inner body has two loads.
  OwningOpRef makePayload() {
    return parseSourceString(Ctx, R"(
      "builtin.module"() ({
        "func.func"() ({
        ^bb0(%m: memref<2x4xf64>):
          %lb = "arith.constant"() {value = 0 : index} : () -> (index)
          %ub = "arith.constant"() {value = 2 : index} : () -> (index)
          %step = "arith.constant"() {value = 1 : index} : () -> (index)
          "scf.for"(%lb, %ub, %step) ({
          ^outer(%i: index):
            "scf.for"(%lb, %ub, %step) ({
            ^inner(%j: index):
              %v = "memref.load"(%m, %i, %j)
                : (memref<2x4xf64>, index, index) -> (f64)
              %u = "memref.load"(%m, %j, %i)
                : (memref<2x4xf64>, index, index) -> (f64)
              %w = "arith.addf"(%v, %u) : (f64, f64) -> (f64)
              "memref.store"(%w, %m, %i, %j)
                : (f64, memref<2x4xf64>, index, index) -> ()
              "scf.yield"() : () -> ()
            }) : (index, index, index) -> ()
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "func.return"() : () -> ()
        }) {sym_name = "f",
            function_type = (memref<2x4xf64>) -> ()} : () -> ()
      }) : () -> ()
    )");
  }

  /// Wraps \p Sequences (matcher/action/main named sequences) in a module.
  OwningOpRef makeScriptModule(std::string_view Sequences) {
    std::string Source = R"("builtin.module"() ({)" +
                         std::string(Sequences) + R"(}) : () -> ()
    )";
    return parseSourceString(Ctx, Source, "script");
  }

  int64_t countAttr(Operation *Root, std::string_view Name) {
    int64_t Count = 0;
    Root->walk([&](Operation *Op) { Count += Op->hasAttr(Name); });
    return Count;
  }

  Context Ctx;
};

//===----------------------------------------------------------------------===//
// Matcher predicate ops (standalone, outside foreach_match)
//===----------------------------------------------------------------------===//

TEST_F(ForeachMatchTest, MatchOperationNamePredicate) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match.op"(%root) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.any_op)
      %checked = "transform.match.operation_name"(%loops)
        {op_names = ["scf.*"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.annotate"(%checked) {name = "is_scf"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "is_scf"), 2);
}

TEST_F(ForeachMatchTest, MatchOperationNameMismatchIsSilenceable) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match.op"(%root) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.any_op)
      %checked = "transform.match.operation_name"(%loops)
        {op_names = ["memref.*"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));

  TransformOptions Options;
  Options.FailOnSilenceable = false;
  OwningOpRef Payload2 = makePayload();
  EXPECT_TRUE(
      succeeded(applyTransforms(Payload2.get(), Script.get(), Options)));
}

TEST_F(ForeachMatchTest, MatchOperationNameRejectsNonStringNames) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match.op"(%root) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.any_op)
      %checked = "transform.match.operation_name"(%loops)
        {op_names = ["scf.for", 3 : index]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("'op_names' must contain strings"));
}

TEST_F(ForeachMatchTest, MatchAttrAndOperandsAndRankPredicates) {
  OwningOpRef Payload = makePayload();
  // scf.for has 3 operands; memref.load reads a rank-2 memref; the func
  // carries a sym_name attribute.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %func = "transform.match.op"(%root) {op_name = "func.func"}
        : (!transform.any_op) -> (!transform.any_op)
      %named = "transform.match.attr"(%func) {name = "sym_name"}
        : (!transform.any_op) -> (!transform.any_op)
      %loops = "transform.match.op"(%root) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.any_op)
      %ternary = "transform.match.operands"(%loops) {count = 3 : index}
        : (!transform.any_op) -> (!transform.any_op)
      %loads = "transform.match.op"(%root) {op_name = "memref.load"}
        : (!transform.any_op) -> (!transform.any_op)
      %rank2 = "transform.match.structured.rank"(%loads) {rank = 2 : index}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.annotate"(%rank2) {name = "rank_ok"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "rank_ok"), 2);
}

TEST_F(ForeachMatchTest, MatchAttrValueMismatchFails) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %func = "transform.match.op"(%root) {op_name = "func.func"}
        : (!transform.any_op) -> (!transform.any_op)
      %named = "transform.match.attr"(%func)
        {name = "sym_name", value = "not_the_name"}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
}

//===----------------------------------------------------------------------===//
// foreach_match dispatch
//===----------------------------------------------------------------------===//

TEST_F(ForeachMatchTest, TwoPairsSingleWalk) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.any_op):
      "transform.annotate"(%loop) {name = "loop"} : (!transform.any_op) -> ()
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
      "transform.annotate"(%load) {name = "load"} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark_load"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@is_loop, @is_load], actions = [@mark_loop, @mark_load]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "loop"), 2);
  EXPECT_EQ(countAttr(Payload.get(), "load"), 2);
  // Only matched ops were rewritten.
  Payload->walk([&](Operation *Op) {
    if (Op->hasAttr("loop")) {
      EXPECT_EQ(Op->getName(), "scf.for");
    }
    if (Op->hasAttr("load")) {
      EXPECT_EQ(Op->getName(), "memref.load");
    }
  });
}

TEST_F(ForeachMatchTest, FirstMatcherWins) {
  OwningOpRef Payload = makePayload();
  // Both matchers accept scf.for; ordering must give every loop to the
  // first pair only.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.*"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_scf"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.annotate"(%op) {name = "first"} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark_first"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_for"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.annotate"(%op) {name = "second"} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark_second"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@is_scf, @is_for], actions = [@mark_first, @mark_second]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  // scf.for (2) and scf.yield (2) hit the first matcher; nothing reaches
  // the second.
  EXPECT_EQ(countAttr(Payload.get(), "first"), 4);
  EXPECT_EQ(countAttr(Payload.get(), "second"), 0);
}

TEST_F(ForeachMatchTest, MatcherModeRejectsSideEffects) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.annotate"(%op) {name = "oops"} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "bad_matcher"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@bad_matcher], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("not a matcher op"));
  EXPECT_EQ(countAttr(Payload.get(), "oops"), 0);
}

TEST_F(ForeachMatchTest, MatcherModeRejectsConsumingTransforms) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.loop.unroll"(%op) {factor = 2 : index}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "bad_matcher"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@bad_matcher], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("not a matcher op"));
}

TEST_F(ForeachMatchTest, RestrictRootOnlyMatchesRoots) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op)
        {op_names = ["func.func", "scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_func_or_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.annotate"(%op) {name = "hit"} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %funcs = "transform.match.op"(%root) {op_name = "func.func"}
        : (!transform.any_op) -> (!transform.any_op)
      %updated = "transform.foreach_match"(%funcs)
        {matchers = [@is_func_or_loop], actions = [@mark], restrict_root}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  // Only the func itself was offered to the matcher, not the nested loops.
  EXPECT_EQ(countAttr(Payload.get(), "hit"), 1);
}

TEST_F(ForeachMatchTest, MatcherYieldForwardsHandlesAndParams) {
  OwningOpRef Payload = makePayload();
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
    ^bb0(%load: !transform.any_op, %p: !transform.param):
      "transform.assert"(%p) {message = "param must be forwarded"}
        : (!transform.param) -> ()
      "transform.annotate"(%load) {name = "param_ok"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "check"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@load_with_param], actions = [@check]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "param_ok"), 2);
}

TEST_F(ForeachMatchTest, FlattenResultsCollectsActionYields) {
  // The inner loop (the only scf.for with an scf.for parent) holds two
  // loads; the action yields all of them, which requires flatten_results.
  static const char *const Sequences = R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      %parent = "transform.get_parent_op"(%op) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"(%0) : (!transform.any_op) -> ()
    }) {sym_name = "is_inner_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.any_op):
      %loads = "transform.match.op"(%loop) {op_name = "memref.load"}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"(%loads) : (!transform.any_op) -> ()
    }) {sym_name = "collect_loads"} : () -> ()
  )";
  {
    OwningOpRef Payload = makePayload();
    OwningOpRef Script = makeScriptModule(
        std::string(Sequences) + R"(
      "transform.named_sequence"() ({
      ^bb0(%root: !transform.any_op):
        %updated, %loads = "transform.foreach_match"(%root)
          {matchers = [@is_inner_loop], actions = [@collect_loads],
           flatten_results}
          : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
        "transform.annotate"(%loads) {name = "collected"}
          : (!transform.any_op) -> ()
        "transform.yield"() : () -> ()
      }) {sym_name = "__transform_main"} : () -> ()
    )");
    EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
    EXPECT_EQ(countAttr(Payload.get(), "collected"), 2);
  }
  {
    // Without flatten_results the 2-op yield is a definite error.
    OwningOpRef Payload = makePayload();
    OwningOpRef Script = makeScriptModule(
        std::string(Sequences) + R"(
      "transform.named_sequence"() ({
      ^bb0(%root: !transform.any_op):
        %updated, %loads = "transform.foreach_match"(%root)
          {matchers = [@is_inner_loop], actions = [@collect_loads]}
          : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
        "transform.yield"() : () -> ()
      }) {sym_name = "__transform_main"} : () -> ()
    )");
    ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
    EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
    EXPECT_TRUE(Capture.contains("flatten_results"));
  }
}

TEST_F(ForeachMatchTest, ActionErasingOpsSkipsStaleMatches) {
  OwningOpRef Payload = makePayload();
  // The outer loop is matched first (pre-order); its action fully unrolls
  // it, consuming the handle and erasing the recorded inner-loop match.
  // The walk must not dereference the stale match.
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
    }) {sym_name = "unroll_it"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@is_loop], actions = [@unroll_it]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(succeeded(verify(Payload.get())));
  // Outer loop unrolled; the inner-loop copies were processed by the
  // unrolling itself, and no scf.for remains... except the unrolled clones
  // of the inner loop, which were never re-matched (single walk).
  int64_t Loops = 0;
  Payload->walk([&](Operation *Op) { Loops += Op->getName() == "scf.for"; });
  EXPECT_EQ(Loops, 2); // two clones of the inner loop, one per iteration
}

TEST_F(ForeachMatchTest, ConsumesRootHandle) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@is_loop], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.annotate"(%root) {name = "use_after_consume"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  // Statically detectable (Section 3.4) ...
  Operation *Main = nullptr;
  Script->walk([&](Operation *Op) {
    if (Op->getStringAttr("sym_name") == "__transform_main")
      Main = Op;
  });
  ASSERT_NE(Main, nullptr);
  EXPECT_FALSE(analyzeHandleInvalidation(Main).empty());
  // ... and dynamically reported.
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("invalidated"));
}

TEST_F(ForeachMatchTest, UpdatedRootDropsConsumedRoots) {
  OwningOpRef Payload = makePayload();
  // restrict_root over the two loops: the inner loop's action fully
  // unrolls (consumes) it. The updated-root result must contain only the
  // surviving outer loop, not a dangling pointer to the erased inner one.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      %parent = "transform.get_parent_op"(%op) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"(%0) : (!transform.any_op) -> ()
    }) {sym_name = "is_inner"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.any_op):
      "transform.loop.unroll"(%loop) {full} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "unroll_it"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match.op"(%root) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.any_op)
      %updated = "transform.foreach_match"(%loops)
        {matchers = [@is_inner], actions = [@unroll_it], restrict_root}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.annotate"(%updated) {name = "survivor"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(succeeded(verify(Payload.get())));
  // Only the outer loop remains, and only it carries the annotation bound
  // through the updated-root handle.
  int64_t Loops = 0, Survivors = 0;
  Payload->walk([&](Operation *Op) {
    Loops += Op->getName() == "scf.for";
    Survivors += Op->hasAttr("survivor");
  });
  EXPECT_EQ(Loops, 1);
  EXPECT_EQ(Survivors, 1);
}

TEST_F(ForeachMatchTest, SuccessfulMatcherRemarksAreReplayed) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.debug.emit_remark"(%0) {message = "matched a loop"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@is_loop], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  // Remarks from matchers that succeeded surface; failing-matcher noise
  // (the non-loop candidates) stays silenced.
  EXPECT_TRUE(Capture.contains("matched a loop"));
}

TEST_F(ForeachMatchTest, StateLeavesNoStaleBindingsBehind) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.any_op):
      "transform.annotate"(%loop) {name = "seen"} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@is_loop], actions = [@mark]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  TransformInterpreter Interp(Payload.get(), Script.get());
  EXPECT_TRUE(succeeded(Interp.run()));
  // Only the entry block arg, the match.op result inside main, and the
  // foreach_match result remain mapped; matcher/action internals and the
  // synthetic pins were forgotten.
  EXPECT_LE(Interp.getState().getNumHandles(), 3u);
}

TEST_F(ForeachMatchTest, MultiArgumentMatcherIsRejectedUpFront) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op, %extra: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "two_args"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op, %extra: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop2"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@two_args], actions = [@noop2]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("exactly one argument"));
}

TEST_F(ForeachMatchTest, ArityMismatchIsRejectedBeforeAnyAction) {
  OwningOpRef Payload = makePayload();
  // The first pair would match and annotate loops; the second pair's
  // action arity mismatch must abort before ANY payload mutation.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.annotate"(%op) {name = "hit"} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["memref.load"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_load"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%a: !transform.any_op, %b: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "needs_two"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@is_loop, @is_load], actions = [@mark, @needs_two]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("forwards"));
  EXPECT_EQ(countAttr(Payload.get(), "hit"), 0); // payload untouched
}

TEST_F(ForeachMatchTest, StateRebindSwitchesBetweenParamAndHandle) {
  OwningOpRef Payload = makePayload();
  Operation *Loop = nullptr;
  Payload->walkPre([&](Operation *Op) {
    if (Op->getName() == "scf.for") {
      Loop = Op;
      return WalkResult::Interrupt;
    }
    return WalkResult::Advance;
  });
  ASSERT_NE(Loop, nullptr);
  Operation *Func = Loop->getParentOp();
  Value Arg = Func->getRegion(0).front().getArgument(0);

  TransformState State(Payload.get());
  State.setParams(Arg, {IntegerAttr::getIndex(Ctx, 7)});
  EXPECT_TRUE(State.isParam(Arg));
  // Rebinding as an op handle must clear the param kind, and vice versa
  // (foreach_match actions shared between pairs rebind the same block arg
  // with different kinds).
  State.setPayload(Arg, {Loop});
  EXPECT_FALSE(State.isParam(Arg));
  EXPECT_EQ(State.getPayloadOps(Arg).size(), 1u);
  State.setParams(Arg, {IntegerAttr::getIndex(Ctx, 8)});
  EXPECT_TRUE(State.isParam(Arg));
  EXPECT_TRUE(State.getPayloadOps(Arg).empty());
}

TEST_F(ForeachMatchTest, NestedRootsVisitEachOpOnce) {
  OwningOpRef Payload = makePayload();
  // The root handle holds both nested loops; ops inside the inner loop are
  // reachable from both walks but must be claimed at most once.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["arith.addf"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%add: !transform.any_op):
      "transform.debug.emit_remark"(%add) {message = "claimed an add"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "remark_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match.op"(%root) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.any_op)
      %u = "transform.foreach_match"(%loops)
        {matchers = [@is_add], actions = [@remark_add]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  // One addf in the payload, reachable from both loop roots: exactly one
  // action application.
  int64_t Remarks = 0;
  for (const Diagnostic &Diag : Capture.getDiagnostics())
    Remarks += Diag.Message.find("claimed an add") != std::string::npos;
  EXPECT_EQ(Remarks, 1);
}

TEST_F(ForeachMatchTest, ReplacedCandidateIsNotActedOn) {
  // A pattern that turns arith.addf into arith.mulf; the first match's
  // action applies it across the whole function, replacing the second
  // match's candidate before its action runs.
  registerTransformPatternOp(Ctx, "addf_to_mulf", [](PatternSet &Patterns) {
    Patterns.addFn("addf-to-mulf", "arith.addf",
                   [](Operation *Op, PatternRewriter &Rewriter) {
                     Rewriter.replaceOpWithNew(Op, "arith.mulf",
                                               Op->getOperands(),
                                               Op->getResultTypes());
                     return success();
                   });
  });
  // Two addf ops in one function.
  OwningOpRef Payload = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: f64):
        %a = "arith.addf"(%x, %x) : (f64, f64) -> (f64)
        %b = "arith.addf"(%a, %x) : (f64, f64) -> (f64)
        "func.return"(%b) : (f64) -> ()
      }) {sym_name = "f", function_type = (f64) -> f64} : () -> ()
    }) : () -> ()
  )");
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = ["arith.addf"]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_add"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%add: !transform.any_op):
      %func = "transform.get_parent_op"(%add) {op_name = "func.func"}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.apply_patterns"(%func) ({
        "transform.pattern.addf_to_mulf"() : () -> ()
      }) : (!transform.any_op) -> ()
      "transform.annotate"(%add) {name = "acted_on_add"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "rewrite_all_adds"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@is_add, @is_add],
         actions = [@rewrite_all_adds, @rewrite_all_adds]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  // The first match's action replaced every addf with mulf; the second
  // match's candidate is now a mulf the matcher never approved, so its
  // action must not run. The annotation of the first action lands on the
  // replacement of its own candidate (tracking), or nowhere if the
  // replacement happened before the annotate — but never on the second
  // candidate via a stale match.
  int64_t Mulfs = 0, Addfs = 0, ActedOn = 0;
  Payload->walk([&](Operation *Op) {
    Mulfs += Op->getName() == "arith.mulf";
    Addfs += Op->getName() == "arith.addf";
    ActedOn += Op->hasAttr("acted_on_add");
  });
  EXPECT_EQ(Addfs, 0);
  EXPECT_EQ(Mulfs, 2);
  // Exactly one action ran: the first (annotating the tracked replacement
  // of its own candidate). A second annotation would mean the stale match
  // fired on the replacement op.
  EXPECT_EQ(ActedOn, 1);
}

TEST_F(ForeachMatchTest, MatcherSymbolsResolveInNestedModules) {
  OwningOpRef Payload = makePayload();
  // Matcher/action live in a nested library module inside the script root.
  OwningOpRef Script = makeScriptModule(R"(
    "builtin.module"() ({
      "transform.named_sequence"() ({
      ^bb0(%op: !transform.any_op):
        %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.yield"() : () -> ()
      }) {sym_name = "lib_is_loop"} : () -> ()
      "transform.named_sequence"() ({
      ^bb0(%op: !transform.any_op):
        "transform.annotate"(%op) {name = "lib_hit"}
          : (!transform.any_op) -> ()
        "transform.yield"() : () -> ()
      }) {sym_name = "lib_mark"} : () -> ()
    }) : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@lib_is_loop], actions = [@lib_mark]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "lib_hit"), 2);
}

TEST_F(ForeachMatchTest, UnknownMatcherSymbolIsDefiniteError) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@does_not_exist], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("unknown named sequence"));
}

TEST_F(ForeachMatchTest, MissingRootOperandIsDefiniteError) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"()
        {matchers = [@noop], actions = [@noop]}
        : () -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("requires a root handle operand"));
}

//===----------------------------------------------------------------------===//
// Typed handles (!transform.op<"...">) and transform.cast
//===----------------------------------------------------------------------===//

TEST_F(ForeachMatchTest, TypedHandlesRunEndToEnd) {
  // Fig. 1a-style typing: the matcher declares its candidate and yield as
  // !transform.op<"scf.for">, the action consumes the same type. The script
  // parses, type-checks, and runs through foreach_match.
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.op<"scf.for">):
      "transform.annotate"(%loop) {name = "typed_loop"}
        : (!transform.op<"scf.for">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@is_loop], actions = [@mark_loop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(analyzeHandleTypes(Script.get()).empty());
  telemetry::MetricsWindow Window;
  TransformInterpreter Interp(Payload.get(), Script.get());
  EXPECT_TRUE(succeeded(Interp.run()));
  EXPECT_EQ(countAttr(Payload.get(), "typed_loop"), 2);
  // The declared !transform.op<"scf.for"> type doubles as a dispatch
  // prefilter: only the two scf.for candidates enter the matcher at all.
  EXPECT_EQ(Window.counter("interp.matcher_invocations"), 2);
}

TEST_F(ForeachMatchTest, TypedYieldMismatchIsRejectedStatically) {
  OwningOpRef Payload = makePayload();
  // The matcher yields a handle typed op<"scf.for">; the action demands
  // op<"memref.load">. Rejected before interpretation, payload untouched.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%load: !transform.op<"memref.load">):
      "transform.annotate"(%load) {name = "oops"}
        : (!transform.op<"memref.load">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark_load"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@is_loop], actions = [@mark_load]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  EXPECT_FALSE(analyzeHandleTypes(Script.get()).empty());
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("ill-typed transform script"));
  EXPECT_EQ(countAttr(Payload.get(), "oops"), 0);
}

TEST_F(ForeachMatchTest, NarrowingWithoutCastIsRejectedStatically) {
  OwningOpRef Payload = makePayload();
  // any_op flowing into a typed action argument needs an explicit cast.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"(%op) : (!transform.any_op) -> ()
    }) {sym_name = "anything"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.op<"scf.for">):
      "transform.yield"() : () -> ()
    }) {sym_name = "wants_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@anything], actions = [@wants_loop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("transform.cast"));
}

TEST_F(ForeachMatchTest, CastFailureInMatcherIsSilentNonMatch) {
  OwningOpRef Payload = makePayload();
  // The matcher accepts any candidate and narrows via transform.cast; the
  // cast fails silenceably for every non-loop op, which foreach_match
  // reads as "no match" — only the two loops reach the action.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %loop = "transform.cast"(%op)
        : (!transform.any_op) -> (!transform.op<"scf.for">)
      "transform.yield"(%loop) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "narrow_to_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.op<"scf.for">):
      "transform.annotate"(%loop) {name = "narrowed"}
        : (!transform.op<"scf.for">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@narrow_to_loop], actions = [@mark]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  EXPECT_TRUE(analyzeHandleTypes(Script.get()).empty());
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countAttr(Payload.get(), "narrowed"), 2);
  Payload->walk([&](Operation *Op) {
    if (Op->hasAttr("narrowed")) {
      EXPECT_EQ(Op->getName(), "scf.for");
    }
  });
}

TEST_F(ForeachMatchTest, CastFailureAtTopLevelIsSilenceable) {
  OwningOpRef Payload = makePayload();
  // Outside a matcher the failed narrowing surfaces as an ordinary
  // silenceable failure (error by default, warning when suppressed).
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loads = "transform.match.op"(%root) {op_name = "memref.load"}
        : (!transform.any_op) -> (!transform.any_op)
      %bad = "transform.cast"(%loads)
        : (!transform.any_op) -> (!transform.op<"scf.for">)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  EXPECT_TRUE(analyzeHandleTypes(Script.get()).empty());
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("does not satisfy"));

  OwningOpRef Payload2 = makePayload();
  TransformOptions Options;
  Options.FailOnSilenceable = false;
  EXPECT_TRUE(
      succeeded(applyTransforms(Payload2.get(), Script.get(), Options)));
}

TEST_F(ForeachMatchTest, ImpossibleCastIsRejectedStatically) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match.op"(%root) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.op<"scf.for">)
      %bad = "transform.cast"(%loops)
        : (!transform.op<"scf.for">) -> (!transform.op<"memref.load">)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::vector<TypeCheckIssue> Issues = analyzeHandleTypes(Script.get());
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_NE(Issues[0].Message.find("impossible transform.cast"),
            std::string::npos);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("can never succeed"));
}

TEST_F(ForeachMatchTest, HandleConsumedAsParamIsRejectedStatically) {
  OwningOpRef Payload = makePayload();
  // transform.assert wants a !transform.param; feeding it a typed handle
  // is a kind error caught before interpretation.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match.op"(%root) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.op<"scf.for">)
      "transform.assert"(%loops) {message = "not a param"}
        : (!transform.op<"scf.for">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::vector<TypeCheckIssue> Issues = analyzeHandleTypes(Script.get());
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_NE(Issues[0].Message.find("expects a parameter"), std::string::npos);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("ill-typed transform script"));
}

TEST_F(ForeachMatchTest, ParamIntoMatcherCandidateIsRejected) {
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%p: !transform.param):
      "transform.yield"() : () -> ()
    }) {sym_name = "param_matcher"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@param_matcher], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("ill-typed transform script"));
}

TEST_F(ForeachMatchTest, TypedEntryArgumentMustMatchPayloadRoot) {
  // Binding the payload root to the entry argument is itself a narrowing:
  // a root-typed entry against a module payload must be rejected, not
  // silently bound through a false-typed handle.
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.op<"scf.for">):
      "transform.annotate"(%root) {name = "false_premise"}
        : (!transform.op<"scf.for">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("does not match the payload root"));
  EXPECT_EQ(countAttr(Payload.get(), "false_premise"), 0);
}

TEST_F(ForeachMatchTest, ValueHandleMatcherArgumentIsRejectedStatically) {
  // The static check must agree with the interpreter: a matcher candidate
  // declared as a value handle is ill-typed before interpretation, not a
  // mid-flight definite error.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%v: !transform.any_value):
      "transform.yield"() : () -> ()
    }) {sym_name = "value_matcher"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@value_matcher], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::vector<TypeCheckIssue> Issues = analyzeHandleTypes(Script.get());
  // The bad candidate type also poisons the forwarded-yield check, so
  // expect at least the argument-kind issue.
  ASSERT_FALSE(Issues.empty());
  EXPECT_NE(Issues[0].Message.find("must take an op handle"),
            std::string::npos);
}

TEST_F(ForeachMatchTest, TypedMatchResultContradictionIsRejected) {
  OwningOpRef Payload = makePayload();
  // The declared result type promises scf.for but the op matches loads.
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %lie = "transform.match.op"(%root) {op_name = "memref.load"}
        : (!transform.any_op) -> (!transform.op<"scf.for">)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::vector<TypeCheckIssue> Issues = analyzeHandleTypes(Script.get());
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_NE(Issues[0].Message.find("contradicts"), std::string::npos);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
}

TEST_F(ForeachMatchTest, TypedYieldIntoTypedForeachMatchResult) {
  // Typed action yields flow into typed foreach_match results; a mismatch
  // there is also caught statically.
  OwningOpRef Payload = makePayload();
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "is_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.op<"scf.for">):
      "transform.yield"(%loop) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "forward_loop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u, %loops = "transform.foreach_match"(%root)
        {matchers = [@is_loop], actions = [@forward_loop], flatten_results}
        : (!transform.any_op)
        -> (!transform.any_op, !transform.op<"memref.load">)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ASSERT_TRUE(Script);
  std::vector<TypeCheckIssue> Issues = analyzeHandleTypes(Script.get());
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_NE(Issues[0].Message.find("foreach_match result"),
            std::string::npos);
}

TEST_F(ForeachMatchTest, MismatchedPairArraysAreRejected) {
  OwningOpRef Payload = makePayload();
  Ctx.setAllowUnregisteredOps(true);
  OwningOpRef Script = makeScriptModule(R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "noop"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %updated = "transform.foreach_match"(%root)
        {matchers = [@noop, @noop], actions = [@noop]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("equally sized"));
}

} // namespace
