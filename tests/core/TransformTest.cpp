//===- TransformTest.cpp - Transform dialect interpreter tests ---------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Transform.h"

#include "dialect/Dialects.h"
#include "exec/Workloads.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "loops/LoopUtils.h"
#include "lowering/Passes.h"
#include "pass/Pass.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace tdl;

namespace {

class TransformTest : public ::testing::Test {
protected:
  TransformTest() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
  }

  /// The payload of Fig. 1b: an uneven nested loop with invariant constants
  /// inside the loop bodies.
  OwningOpRef makeFig1Payload() {
    return parseSourceString(Ctx, R"(
      "builtin.module"() ({
        "func.func"() ({
        ^bb0(%values: memref<3x4096x2042xf64>):
          %lb = "arith.constant"() {value = 0 : index} : () -> (index)
          %ub = "arith.constant"() {value = 4096 : index} : () -> (index)
          %step = "arith.constant"() {value = 1 : index} : () -> (index)
          "scf.for"(%lb, %ub, %step) ({
          ^outer(%i: index):
            %c1 = "arith.constant"() {value = 1 : index} : () -> (index)
            %jub = "arith.constant"() {value = 2042 : index} : () -> (index)
            "scf.for"(%lb, %jub, %step) ({
            ^inner(%j: index):
              %v = "memref.load"(%values, %c1, %i, %j)
                : (memref<3x4096x2042xf64>, index, index, index) -> (f64)
              %w = "arith.addf"(%v, %v) : (f64, f64) -> (f64)
              "memref.store"(%w, %values, %c1, %i, %j)
                : (f64, memref<3x4096x2042xf64>, index, index, index) -> ()
              "scf.yield"() : () -> ()
            }) : (index, index, index) -> ()
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "func.return"() : () -> ()
        }) {sym_name = "myFunc",
            function_type = (memref<3x4096x2042xf64>) -> ()} : () -> ()
      }) : () -> ()
    )");
  }

  /// Parses a transform script (a named_sequence with one !transform.any_op
  /// argument).
  OwningOpRef makeScript(std::string_view Body) {
    std::string Source = R"("transform.named_sequence"() ({
      ^bb0(%root: !transform.any_op):
    )" + std::string(Body) +
                         R"(
        "transform.yield"() : () -> ()
      }) {sym_name = "__transform_main"} : () -> ()
    )";
    return parseSourceString(Ctx, Source, "script");
  }

  int64_t countOps(Operation *Root, std::string_view Name) {
    int64_t Count = 0;
    Root->walk([&](Operation *Op) { Count += Op->getName() == Name; });
    return Count;
  }

  /// Process-wide total of ops walked into consume closures.
  static int64_t closureOps() {
    return telemetry::counter("interp.consume.closure_ops").get();
  }

  Context Ctx;
};

TEST_F(TransformTest, MatchOpBindsHandles) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %loops = "transform.match.op"(%root) {op_name = "scf.for"}
      : (!transform.any_op) -> (!transform.any_op)
    %first = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.annotate"(%loops) {name = "seen"} : (!transform.any_op) -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t Annotated = 0;
  Payload->walk([&](Operation *Op) { Annotated += Op->hasAttr("seen"); });
  EXPECT_EQ(Annotated, 2); // both loops annotated
}

TEST_F(TransformTest, MatchFailureIsSilenceable) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %none = "transform.match.op"(%root) {op_name = "scf.forall"}
      : (!transform.any_op) -> (!transform.any_op)
  )");
  // Default: silenceable failures surviving to the top are errors.
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));

  TransformOptions Options;
  Options.FailOnSilenceable = false;
  OwningOpRef Payload2 = makeFig1Payload();
  EXPECT_TRUE(
      succeeded(applyTransforms(Payload2.get(), Script.get(), Options)));
}

TEST_F(TransformTest, Figure1SplitTileUnroll) {
  OwningOpRef Payload = makeFig1Payload();
  // The script of Fig. 1a (without the deliberate error).
  OwningOpRef Script = makeScript(R"(
    %outer = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    %hoisted = "transform.loop.hoist"(%outer)
      : (!transform.any_op) -> (!transform.any_op)
    %inner = "transform.match.op"(%outer) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    %param = "transform.param.constant"() {value = 8 : index}
      : () -> (!transform.param)
    %main, %rest = "transform.loop.split"(%inner, %param)
      : (!transform.any_op, !transform.param)
      -> (!transform.any_op, !transform.any_op)
    %tiles, %points = "transform.loop.tile"(%main, %param)
      : (!transform.any_op, !transform.param)
      -> (!transform.any_op, !transform.any_op)
    "transform.loop.unroll"(%rest) {full} : (!transform.any_op) -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  ASSERT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(succeeded(verify(Payload.get())));

  // Loops: outer + tile + point (inner was split; remainder fully unrolled).
  EXPECT_EQ(countOps(Payload.get(), "scf.for"), 3);
  // The remainder had 2042 - 2040 = 2 iterations; its body (load, addf,
  // store) was duplicated twice into the outer loop.
  EXPECT_EQ(countOps(Payload.get(), "memref.load"), 3);
  // Hoisting moved the invariant constants out of the outer loop body.
  Operation *Func = nullptr;
  Payload->walk([&](Operation *Op) {
    if (Op->getName() == "func.func")
      Func = Op;
  });
  ASSERT_NE(Func, nullptr);
  Operation *OuterLoop = nullptr;
  Payload->walkPre([&](Operation *Op) {
    if (Op->getName() == "scf.for") {
      OuterLoop = Op;
      return WalkResult::Interrupt;
    }
    return WalkResult::Advance;
  });
  // The original invariant constants (1 and 2042) were hoisted; the only
  // constants inside the outer loop are the bound/index constants the
  // split/tile/unroll transformations materialized (as in Fig. 1c, where
  // 2040/2041 appear inline).
  OuterLoop->walk([&](Operation *Op) {
    if (Op->getName() != "arith.constant")
      return;
    int64_t Value = Op->getIntAttr("value", -1);
    EXPECT_NE(Value, 1) << "invariant constant 1 was not hoisted";
    EXPECT_NE(Value, 2042) << "invariant bound 2042 was not hoisted";
  });
}

TEST_F(TransformTest, UseAfterConsumeIsReportedDynamically) {
  OwningOpRef Payload = makeFig1Payload();
  // Fig. 1a line 11: unrolling the same (consumed) handle twice.
  OwningOpRef Script = makeScript(R"(
    %outer = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    %inner = "transform.match.op"(%outer) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    %main, %rest = "transform.loop.split"(%inner) {divisor = 8 : index}
      : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    "transform.loop.unroll"(%rest) {full} : (!transform.any_op) -> ()
    "transform.loop.unroll"(%rest) {full} : (!transform.any_op) -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("invalidated"));
}

TEST_F(TransformTest, ConsumingLoopInvalidatesNestedHandles) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %outer = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    %inner = "transform.match.op"(%outer) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.loop.unroll"(%outer) {factor = 2 : index}
      : (!transform.any_op) -> ()
    "transform.annotate"(%inner) {name = "x"} : (!transform.any_op) -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("invalidated"));
}

TEST_F(TransformTest, ConsumeChainStillInvalidatesNestedHandle) {
  registerAllPasses();
  OwningOpRef Payload = makeFig1Payload();
  // The first two consumes see no other live handle and skip the closure
  // walk; the third must still invalidate %loop, nested in its payload.
  OwningOpRef Script = makeScript(R"(
    %m1 = "transform.apply_registered_pass"(%root) {pass_name = "cse"}
      : (!transform.any_op) -> (!transform.any_op)
    %m2 = "transform.apply_registered_pass"(%m1) {pass_name = "cse"}
      : (!transform.any_op) -> (!transform.any_op)
    %loop = "transform.match.op"(%m2) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    %m3 = "transform.apply_registered_pass"(%m2) {pass_name = "cse"}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.annotate"(%loop) {name = "x"} : (!transform.any_op) -> ()
  )");
  int64_t Before = closureOps();
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("invalidated"));
  // Only the third consume walks: the whole module.
  int64_t ModuleOps = 0;
  Payload->walk([&](Operation *) { ++ModuleOps; });
  EXPECT_EQ(closureOps() - Before, ModuleOps);
}

TEST_F(TransformTest, ConsumeLeavesDisjointSiblingHandleLive) {
  OwningOpRef Payload = makeFig1Payload();
  // %lb is defined before the loops, outside the consumed loop's closure.
  OwningOpRef Script = makeScript(R"(
    %lb = "transform.match.op"(%root) {op_name = "arith.constant", first}
      : (!transform.any_op) -> (!transform.any_op)
    %outer = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.loop.unroll"(%outer) {factor = 2 : index}
      : (!transform.any_op) -> ()
    "transform.annotate"(%lb) {name = "kept"} : (!transform.any_op) -> ()
  )");
  int64_t Before = closureOps();
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t Kept = 0;
  Payload->walk([&](Operation *Op) { Kept += Op->hasAttr("kept"); });
  EXPECT_EQ(Kept, 1);
  EXPECT_GT(closureOps() - Before, 0);
}

TEST_F(TransformTest, Table1ScriptWalksNoConsumeClosure) {
  registerAllPasses();
  std::string Pipeline = workloads::getTosaPipeline();
  OwningOpRef Script = buildTransformScriptFromPipeline(Ctx, Pipeline);
  ASSERT_TRUE(Script);
  int64_t ApplyOps = 0;
  Script->walk([&](Operation *Op) {
    ApplyOps += Op->getName() == "transform.apply_registered_pass";
  });
  EXPECT_EQ(ApplyOps, 14);

  OwningOpRef Payload = workloads::buildSyntheticTosaModel(Ctx, 126, 7);
  int64_t Before = closureOps();
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(closureOps() - Before, 0);
}

TEST_F(TransformTest, EventLogStateRecordsFullConsumeClosure) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript("");
  Value Handle = Script->getRegion(0).front().getArgument(0);
  // A commit-phase worker state: no other handle is live, but the engine
  // replays the Consume event into the main state by pointer identity, so
  // it must carry every op of the consumed payload.
  TransformState State(Payload.get());
  State.enableEventLog();
  State.setPayload(Handle, {Payload.get()});
  State.consume(Handle);
  EXPECT_TRUE(State.isInvalidated(Handle));
  std::vector<PayloadEvent> Events = State.takeEvents();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].EventKind, PayloadEvent::Kind::Consume);
  std::vector<Operation *> All;
  Payload->walk([&](Operation *Op) { All.push_back(Op); });
  EXPECT_EQ(Events[0].Ops, All);
}

TEST_F(TransformTest, AlternativesFallThrough) {
  OwningOpRef Payload = makeFig1Payload();
  // First alternative fails silenceably (no scf.forall to match); the empty
  // second alternative succeeds, leaving the payload unchanged.
  OwningOpRef Script = makeScript(R"(
    %outer = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.alternatives"(%outer) ({
    ^bb0(%scope: !transform.any_op):
      %nope = "transform.match.op"(%scope) {op_name = "scf.forall"}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }, {
    }) : (!transform.any_op) -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countOps(Payload.get(), "scf.for"), 2);
}

TEST_F(TransformTest, AlternativesFirstSuccessWins) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %outer = "transform.match.op"(%root) {op_name = "scf.for", first}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.alternatives"(%outer) ({
    ^bb0(%scope: !transform.any_op):
      "transform.annotate"(%scope) {name = "first_alt"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }, {
    ^bb1(%scope2: !transform.any_op):
      "transform.annotate"(%scope2) {name = "second_alt"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t First = 0, Second = 0;
  Payload->walk([&](Operation *Op) {
    First += Op->hasAttr("first_alt");
    Second += Op->hasAttr("second_alt");
  });
  EXPECT_EQ(First, 1);
  EXPECT_EQ(Second, 0);
}

TEST_F(TransformTest, IncludeExecutesNamedSequence) {
  OwningOpRef Payload = makeFig1Payload();
  // A module containing the entry point and a macro.
  OwningOpRef Script = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "transform.named_sequence"() ({
      ^bb0(%arg: !transform.any_op):
        %loops = "transform.match.op"(%arg) {op_name = "scf.for"}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.annotate"(%loops) {name = "via_macro"}
          : (!transform.any_op) -> ()
        "transform.yield"(%loops) : (!transform.any_op) -> ()
      }) {sym_name = "annotate_loops"} : () -> ()
      "transform.named_sequence"() ({
      ^bb0(%root: !transform.any_op):
        %res = "transform.include"(%root) {callee = @annotate_loops}
          : (!transform.any_op) -> (!transform.any_op)
        "transform.annotate"(%res) {name = "from_yield"}
          : (!transform.any_op) -> ()
        "transform.yield"() : () -> ()
      }) {sym_name = "__transform_main"} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t ViaMacro = 0, FromYield = 0;
  Payload->walk([&](Operation *Op) {
    ViaMacro += Op->hasAttr("via_macro");
    FromYield += Op->hasAttr("from_yield");
  });
  EXPECT_EQ(ViaMacro, 2);
  EXPECT_EQ(FromYield, 2);
}

TEST_F(TransformTest, ForeachIteratesPayload) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %loops = "transform.match.op"(%root) {op_name = "scf.for"}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.foreach"(%loops) ({
    ^bb0(%loop: !transform.any_op):
      "transform.annotate"(%loop) {name = "visited"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : (!transform.any_op) -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t Visited = 0;
  Payload->walk([&](Operation *Op) { Visited += Op->hasAttr("visited"); });
  EXPECT_EQ(Visited, 2);
}

TEST_F(TransformTest, ApplyRegisteredPassViaScript) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %r = "transform.apply_registered_pass"(%root)
      {pass_name = "convert-scf-to-cf"}
      : (!transform.any_op) -> (!transform.any_op)
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countOps(Payload.get(), "scf.for"), 0);
  EXPECT_GT(countOps(Payload.get(), "cf.cond_br"), 0);
}

TEST_F(TransformTest, ApplyPatternsTracksHandles) {
  OwningOpRef Payload = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: index):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %sum = "arith.addi"(%x, %zero) : (index, index) -> (index)
        %use = "arith.muli"(%sum, %sum) : (index, index) -> (index)
        "func.return"(%use) : (index) -> ()
      }) {sym_name = "f", function_type = (index) -> index} : () -> ()
    }) : () -> ()
  )");
  OwningOpRef Script = makeScript(R"(
    %adds = "transform.match.op"(%root) {op_name = "arith.muli"}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.apply_patterns"(%root) ({
      "transform.pattern.canonicalization"() : () -> ()
    }) : (!transform.any_op) -> ()
    "transform.annotate"(%adds) {name = "still_tracked"}
      : (!transform.any_op) -> ()
  )");
  ASSERT_TRUE(Payload);
  ASSERT_TRUE(Script);
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  // add-zero folded away; the muli survived and stayed tracked.
  EXPECT_EQ(countOps(Payload.get(), "arith.addi"), 0);
  int64_t Tracked = 0;
  Payload->walk([&](Operation *Op) {
    Tracked += Op->hasAttr("still_tracked");
  });
  EXPECT_EQ(Tracked, 1);
}

TEST_F(TransformTest, SplitAndMergeHandles) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    %loops = "transform.match.op"(%root) {op_name = "scf.for"}
      : (!transform.any_op) -> (!transform.any_op)
    %a, %b = "transform.split_handle"(%loops)
      : (!transform.any_op) -> (!transform.any_op, !transform.any_op)
    %merged = "transform.merge_handles"(%a, %b)
      : (!transform.any_op, !transform.any_op) -> (!transform.any_op)
    "transform.annotate"(%merged) {name = "merged"}
      : (!transform.any_op) -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  int64_t Merged = 0;
  Payload->walk([&](Operation *Op) { Merged += Op->hasAttr("merged"); });
  EXPECT_EQ(Merged, 2);
}

TEST_F(TransformTest, AssertOnParams) {
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef ScriptTrue = makeScript(R"(
    %p = "transform.param.constant"() {value = 1 : index}
      : () -> (!transform.param)
    "transform.assert"(%p) {message = "should hold"}
      : (!transform.param) -> ()
  )");
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), ScriptTrue.get())));

  OwningOpRef ScriptFalse = makeScript(R"(
    %p = "transform.param.constant"() {value = 0 : index}
      : () -> (!transform.param)
    "transform.assert"(%p) {message = "vectorization precondition"}
      : (!transform.param) -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), ScriptFalse.get())));
  EXPECT_TRUE(Capture.contains("vectorization precondition"));
}

TEST_F(TransformTest, PipelineToScriptConversion) {
  registerAllPasses();
  OwningOpRef Script = buildTransformScriptFromPipeline(
      Ctx, "builtin.module(func.func(convert-scf-to-cf),canonicalize)");
  ASSERT_TRUE(Script);
  int64_t ApplyOps = 0;
  Script->walk([&](Operation *Op) {
    ApplyOps += Op->getName() == "transform.apply_registered_pass";
  });
  EXPECT_EQ(ApplyOps, 2);

  OwningOpRef Payload = makeFig1Payload();
  EXPECT_TRUE(succeeded(applyTransforms(Payload.get(), Script.get())));
  EXPECT_EQ(countOps(Payload.get(), "scf.for"), 0);
}

TEST_F(TransformTest, PipelineAnchorSelectsPassTargetsInBothArms) {
  registerAllPasses();
  // Registered on the module, but nested under func.func in the pipeline:
  // both arms must run it once per function, then once on the module.
  static std::vector<std::string> Visited;
  PassRegistry::instance().registerFnPass(
      "test-record-targets", "Records the ops it runs on", "builtin.module",
      [](Operation *Target, Pass &) {
        Visited.push_back(std::string(Target->getName()) + "@" +
                          std::string(Target->getStringAttr("sym_name")));
        return success();
      });
  const char *Source = R"(
    "builtin.module"() ({
      "func.func"() ({
        "func.return"() : () -> ()
      }) {sym_name = "a", function_type = () -> ()} : () -> ()
      "func.func"() ({
        "func.return"() : () -> ()
      }) {sym_name = "b", function_type = () -> ()} : () -> ()
    }) : () -> ()
  )";
  std::string Pipeline =
      "builtin.module(func.func(test-record-targets),test-record-targets)";
  std::vector<std::string> Expected = {"func.func@a", "func.func@b",
                                       "builtin.module@"};

  OwningOpRef Native = parseSourceString(Ctx, Source);
  ASSERT_TRUE(Native);
  auto Elements = parsePassPipeline(Ctx, Pipeline);
  ASSERT_TRUE(succeeded(Elements));
  PassManager PM(Ctx);
  ASSERT_TRUE(succeeded(buildPassManager(PM, *Elements)));
  Visited.clear();
  ASSERT_TRUE(succeeded(PM.run(Native.get())));
  EXPECT_EQ(Visited, Expected);

  OwningOpRef Scripted = parseSourceString(Ctx, Source);
  ASSERT_TRUE(Scripted);
  OwningOpRef Script = buildTransformScriptFromPipeline(Ctx, Pipeline);
  ASSERT_TRUE(Script);
  Visited.clear();
  ASSERT_TRUE(succeeded(applyTransforms(Scripted.get(), Script.get())));
  EXPECT_EQ(Visited, Expected);
}

TEST_F(TransformTest, UnregisteredTransformOpIsDefiniteError) {
  Ctx.setAllowUnregisteredOps(true);
  OwningOpRef Payload = makeFig1Payload();
  OwningOpRef Script = makeScript(R"(
    "transform.not_a_real_op"(%root) : (!transform.any_op) -> ()
  )");
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(applyTransforms(Payload.get(), Script.get())));
  EXPECT_TRUE(Capture.contains("unregistered transform op"));
}

} // namespace
