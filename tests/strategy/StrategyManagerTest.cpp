//===- StrategyManagerTest.cpp - Strategy dispatch subsystem tests --------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "strategy/StrategyManager.h"

#include "core/Analysis.h"
#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "support/Stream.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <unistd.h>

using namespace tdl;
using namespace tdl::strategy;

namespace {

//===----------------------------------------------------------------------===//
// Fixtures
//===----------------------------------------------------------------------===//

/// A strategy directory on disk, cleaned up on destruction (the subsystem's
/// contract is file-based: libraries live in --strategy-dir directories).
struct TempStrategyDir {
  std::string Path;
  std::vector<std::string> Files;

  TempStrategyDir() {
    char Template[] = "/tmp/tdl_strategy_test_XXXXXX";
    Path = ::mkdtemp(Template);
  }
  ~TempStrategyDir() {
    for (const std::string &File : Files)
      std::remove(File.c_str());
    ::rmdir(Path.c_str());
  }

  void write(const std::string &Name, std::string_view Text) {
    std::string File = Path + "/" + Name;
    std::ofstream Stream(File, std::ios::trunc);
    Stream << Text;
    Files.push_back(File);
  }
};

const char *const LoopPayloadText = R"("builtin.module"() ({
  "func.func"() ({
  ^bb0(%m: memref<8x8xf64>):
    %lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %ub = "arith.constant"() {value = 8 : index} : () -> (index)
    %step = "arith.constant"() {value = 1 : index} : () -> (index)
    "scf.for"(%lb, %ub, %step) ({
    ^bi(%i: index):
      "scf.for"(%lb, %ub, %step) ({
      ^bj(%j: index):
        %v = "memref.load"(%m, %i, %j)
          : (memref<8x8xf64>, index, index) -> (f64)
        %w = "arith.mulf"(%v, %v) : (f64, f64) -> (f64)
        "memref.store"(%w, %m, %i, %j)
          : (f64, memref<8x8xf64>, index, index) -> ()
        "scf.yield"() : () -> ()
      }) : (index, index, index) -> ()
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "square_all",
      function_type = (memref<8x8xf64>) -> ()} : () -> ()
}) : () -> ()
)";

const char *const LooplessPayloadText = R"("builtin.module"() ({
  "func.func"() ({
  ^bb0(%x: f64):
    %y = "arith.mulf"(%x, %x) : (f64, f64) -> (f64)
    "func.return"(%y) : (f64) -> ()
  }) {sym_name = "square",
      function_type = (f64) -> (f64)} : () -> ()
}) : () -> ()
)";

/// The avx2 strategy: @applies gates on the presence of an scf.for, the
/// entry annotates every loop via foreach_match.
const char *const Avx2StrategyText = R"("builtin.module"() ({
  "transform.library"() ({
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "applies", visibility = "private"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.op<"scf.for">):
      "transform.annotate"(%loop) {name = "avx2_schedule"}
        : (!transform.op<"scf.for">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark", visibility = "private"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@applies], actions = [@mark]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "strategy"} : () -> ()
  }) {sym_name = "avx2_loop_schedule",
      strategy.target = "avx2",
      strategy.priority = 10 : index} : () -> ()
}) : () -> ()
)";

const char *const GenericStrategyText = R"("builtin.module"() ({
  "transform.library"() ({
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.annotate"(%root) {name = "generic_schedule"}
        : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "strategy"} : () -> ()
  }) {sym_name = "generic_baseline",
      strategy.target = "generic"} : () -> ()
}) : () -> ()
)";

/// A tuned strategy: one explicit parameter, the entry tiles the outermost
/// loop by it (through the readIntParams path of transform.loop.tile).
const char *const TunedStrategyText = R"("builtin.module"() ({
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
    ^bb0(%root: !transform.any_op, %ti: !transform.param):
      %loops = "transform.collect_matching"(%root) {matcher = @outer_loop}
        : (!transform.any_op) -> (!transform.op<"scf.for">)
      %tiles, %points = "transform.loop.tile"(%loops, %ti)
        : (!transform.op<"scf.for">, !transform.param)
          -> (!transform.any_op, !transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "strategy"} : () -> ()
  }) {sym_name = "tuned_tiling",
      strategy.target = "generic",
      strategy.params = [["tile_i", 1, 2, 4, 8]]} : () -> ()
}) : () -> ()
)";

struct StrategyTest : public ::testing::Test {
  StrategyTest() : Libraries(Ctx), Strategies(Ctx, Libraries) {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
  }

  OwningOpRef parsePayload(const char *Text) {
    return parseSourceString(Ctx, Text, "payload");
  }

  static std::string printOp(Operation *Op) {
    std::string Text;
    raw_string_ostream OS(Text);
    Op->print(OS);
    return Text;
  }

  static int64_t countAttr(Operation *Root, std::string_view Name) {
    int64_t Count = 0;
    Root->walk([&](Operation *Op) { Count += Op->hasAttr(Name); });
    return Count;
  }

  Context Ctx;
  TransformLibraryManager Libraries;
  StrategyManager Strategies;
};

//===----------------------------------------------------------------------===//
// Dispatch selection
//===----------------------------------------------------------------------===//

TEST_F(StrategyTest, DispatchSelectsTargetSpecificStrategy) {
  TempStrategyDir Dir;
  Dir.write("avx2.mlir", Avx2StrategyText);
  Dir.write("generic.mlir", GenericStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));
  EXPECT_EQ(Strategies.getNumStrategies(), 2u);

  OwningOpRef Payload = parsePayload(LoopPayloadText);
  ASSERT_TRUE(Payload);
  FailureOr<DispatchResult> Result =
      Strategies.dispatch(Payload.get(), "avx2");
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ(Result->Strategy->Manifest.LibraryName, "avx2_loop_schedule");
  EXPECT_EQ(Result->MatchedTarget, "avx2");
  EXPECT_FALSE(Result->SelectionCacheHit);
  EXPECT_EQ(countAttr(Payload.get(), "avx2_schedule"), 2);
  EXPECT_EQ(countAttr(Payload.get(), "generic_schedule"), 0);
}

TEST_F(StrategyTest, UnknownTargetFallsBackToGeneric) {
  TempStrategyDir Dir;
  Dir.write("avx2.mlir", Avx2StrategyText);
  Dir.write("generic.mlir", GenericStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  OwningOpRef Payload = parsePayload(LoopPayloadText);
  FailureOr<DispatchResult> Result =
      Strategies.dispatch(Payload.get(), "riscv");
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ(Result->Strategy->Manifest.LibraryName, "generic_baseline");
  EXPECT_EQ(Result->MatchedTarget, "generic");
  EXPECT_EQ(countAttr(Payload.get(), "generic_schedule"), 1);
}

TEST_F(StrategyTest, AppliesMatcherGatesOntoFallback) {
  // The avx2 strategy requires an scf.for; a loop-less payload must fall
  // through to generic even when avx2 is the requested target.
  TempStrategyDir Dir;
  Dir.write("avx2.mlir", Avx2StrategyText);
  Dir.write("generic.mlir", GenericStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  OwningOpRef Payload = parsePayload(LooplessPayloadText);
  FailureOr<DispatchResult> Result =
      Strategies.dispatch(Payload.get(), "avx2");
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ(Result->Strategy->Manifest.LibraryName, "generic_baseline");
  EXPECT_EQ(Result->MatchedTarget, "generic");
}

TEST_F(StrategyTest, NoApplicableStrategyFails) {
  TempStrategyDir Dir;
  Dir.write("avx2.mlir", Avx2StrategyText); // gated on scf.for, no generic
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  OwningOpRef Payload = parsePayload(LooplessPayloadText);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Strategies.dispatch(Payload.get(), "avx2")));
  EXPECT_TRUE(Capture.contains("no applicable strategy for target 'avx2'"));
}

TEST_F(StrategyTest, NoStrategiesRegisteredFails) {
  OwningOpRef Payload = parsePayload(LoopPayloadText);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Strategies.dispatch(Payload.get(), "avx2")));
  EXPECT_TRUE(Capture.contains("0 strategies registered"));
}

TEST_F(StrategyTest, PriorityRanksSurvivors) {
  // Two applicable avx2 strategies: the higher priority must win even when
  // its library name sorts later.
  TempStrategyDir Dir;
  std::string Low = GenericStrategyText;
  // Rewrite the generic baseline into a low-priority avx2 strategy named
  // so it sorts *before* the high-priority one.
  size_t Pos = Low.find("generic_baseline");
  Low.replace(Pos, strlen("generic_baseline"), "aaa_low_priority");
  Pos = Low.find("\"generic\"");
  Low.replace(Pos, strlen("\"generic\""), "\"avx2\"");
  Dir.write("low.mlir", Low);
  Dir.write("high.mlir", Avx2StrategyText); // priority 10
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  OwningOpRef Payload = parsePayload(LoopPayloadText);
  FailureOr<DispatchResult> Result =
      Strategies.dispatch(Payload.get(), "avx2");
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ(Result->Strategy->Manifest.LibraryName, "avx2_loop_schedule");
}

TEST_F(StrategyTest, AmbiguousPriorityTieWarnsAndBreaksByName) {
  TempStrategyDir Dir;
  std::string A = GenericStrategyText;
  std::string B = GenericStrategyText;
  A.replace(A.find("generic_baseline"), strlen("generic_baseline"), "tie_a");
  B.replace(B.find("generic_baseline"), strlen("generic_baseline"), "tie_b");
  Dir.write("a.mlir", A);
  Dir.write("b.mlir", B);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  OwningOpRef Payload = parsePayload(LoopPayloadText);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  FailureOr<DispatchResult> Result =
      Strategies.dispatch(Payload.get(), "generic");
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ(Result->Strategy->Manifest.LibraryName, "tie_a");
  EXPECT_TRUE(Capture.contains("ambiguous strategy priority tie"));
  EXPECT_TRUE(Capture.contains("selecting '@tie_a'"));
}

TEST_F(StrategyTest, SetFallbackInvalidatesSelectionCache) {
  TempStrategyDir Dir;
  std::string CpuA = GenericStrategyText;
  CpuA.replace(CpuA.find("generic_baseline"), strlen("generic_baseline"),
               "cpu_a_schedule");
  CpuA.replace(CpuA.find("\"generic\""), strlen("\"generic\""), "\"cpu_a\"");
  Dir.write("cpu_a.mlir", CpuA);
  Dir.write("generic.mlir", GenericStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  // avx512 -> generic under the default chain ...
  TransformOptions Options;
  OwningOpRef Payload = parsePayload(LoopPayloadText);
  FailureOr<StrategyManager::Selection> Before =
      Strategies.select(Payload.get(), "avx512", Options);
  ASSERT_TRUE(succeeded(Before));
  EXPECT_EQ(Before->Strategy->Manifest.LibraryName, "generic_baseline");

  // ... but rewiring the chain must invalidate the cached selection: the
  // same payload/target now resolves through avx512 -> cpu_a.
  Strategies.setFallback("avx512", "cpu_a");
  FailureOr<StrategyManager::Selection> After =
      Strategies.select(Payload.get(), "avx512", Options);
  ASSERT_TRUE(succeeded(After));
  EXPECT_FALSE(After->CacheHit);
  EXPECT_EQ(After->Strategy->Manifest.LibraryName, "cpu_a_schedule");
}

TEST_F(StrategyTest, FallbackChainShape) {
  EXPECT_EQ(Strategies.getFallbackChain("avx2"),
            (std::vector<std::string>{"avx2", "generic"}));
  EXPECT_EQ(Strategies.getFallbackChain("generic"),
            (std::vector<std::string>{"generic"}));
  Strategies.setFallback("avx512", "avx2");
  EXPECT_EQ(Strategies.getFallbackChain("avx512"),
            (std::vector<std::string>{"avx512", "avx2", "generic"}));
}

//===----------------------------------------------------------------------===//
// Selection cache
//===----------------------------------------------------------------------===//

TEST_F(StrategyTest, SelectionCachedByPayloadFingerprintAndTarget) {
  TempStrategyDir Dir;
  Dir.write("avx2.mlir", Avx2StrategyText);
  Dir.write("generic.mlir", GenericStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  // Two structurally identical payloads: the second dispatch must be
  // answered from the cache (no applicability queries re-run).
  OwningOpRef First = parsePayload(LoopPayloadText);
  OwningOpRef Second = parsePayload(LoopPayloadText);
  FailureOr<DispatchResult> R1 = Strategies.dispatch(First.get(), "avx2");
  ASSERT_TRUE(succeeded(R1));
  EXPECT_FALSE(R1->SelectionCacheHit);
  FailureOr<DispatchResult> R2 = Strategies.dispatch(Second.get(), "avx2");
  ASSERT_TRUE(succeeded(R2));
  EXPECT_TRUE(R2->SelectionCacheHit);
  EXPECT_EQ(R2->Strategy, R1->Strategy);
  EXPECT_EQ(Strategies.getNumSelectQueries(), 2);
  EXPECT_EQ(Strategies.getNumSelectComputations(), 1);

  // A different target is a different cache key.
  OwningOpRef Third = parsePayload(LoopPayloadText);
  ASSERT_TRUE(succeeded(Strategies.dispatch(Third.get(), "generic")));
  EXPECT_EQ(Strategies.getNumSelectComputations(), 2);
}

//===----------------------------------------------------------------------===//
// Dispatch output equivalence
//===----------------------------------------------------------------------===//

TEST_F(StrategyTest, DispatchOutputByteIdenticalToInlineRun) {
  // The acceptance bar: dispatching to the avx2 strategy produces exactly
  // the payload an inline-pasted script with the same body produces.
  TempStrategyDir Dir;
  Dir.write("avx2.mlir", Avx2StrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  OwningOpRef Dispatched = parsePayload(LoopPayloadText);
  ASSERT_TRUE(succeeded(Strategies.dispatch(Dispatched.get(), "avx2")));

  static const char *const InlineScript = R"("builtin.module"() ({
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.op<"scf.for">):
      "transform.yield"(%op) : (!transform.op<"scf.for">) -> ()
    }) {sym_name = "applies"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%loop: !transform.op<"scf.for">):
      "transform.annotate"(%loop) {name = "avx2_schedule"}
        : (!transform.op<"scf.for">) -> ()
      "transform.yield"() : () -> ()
    }) {sym_name = "mark"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %u = "transform.foreach_match"(%root)
        {matchers = [@applies], actions = [@mark]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "__transform_main"} : () -> ()
  }) : () -> ()
)";
  OwningOpRef Inline = parsePayload(LoopPayloadText);
  OwningOpRef Script = parseSourceString(Ctx, InlineScript, "inline");
  ASSERT_TRUE(Script);
  ASSERT_TRUE(succeeded(applyTransforms(Inline.get(), Script.get())));

  EXPECT_EQ(printOp(Dispatched.get()), printOp(Inline.get()));
}

//===----------------------------------------------------------------------===//
// Tuning integration
//===----------------------------------------------------------------------===//

/// Synthetic objective with a unique known optimum: the tiled outer loop's
/// step constant equals the tile size, so minimizing the distance of the
/// nearest index constant to 3.9 makes tile_i = 4 the unique best config.
FailureOr<double> nearestConstantTo39(Operation *Module) {
  double Best = 1e9;
  Module->walk([&](Operation *Op) {
    if (Op->getName() != "arith.constant")
      return;
    IntegerAttr Value = Op->getAttrOfType<IntegerAttr>("value");
    if (!Value)
      return;
    double Distance = std::abs(static_cast<double>(Value.getValue()) - 3.9);
    Best = std::min(Best, Distance);
  });
  return Best;
}

TEST_F(StrategyTest, TunedDispatchFindsKnownOptimum) {
  TempStrategyDir Dir;
  Dir.write("tuned.mlir", TunedStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  OwningOpRef Payload = parsePayload(LoopPayloadText);
  DispatchOptions Options;
  Options.TuneBudget = 30;
  Options.Objective = nearestConstantTo39;
  FailureOr<DispatchResult> Result =
      Strategies.dispatch(Payload.get(), "generic", Options);
  ASSERT_TRUE(succeeded(Result));
  // The 4-config space is exhausted well inside the budget (memoized
  // evaluations), and the unique optimum is found exactly.
  EXPECT_EQ(Result->Config, (std::vector<int64_t>{4}));
  EXPECT_LE(Result->TuneEvaluations, 4);
  EXPECT_GE(Result->TuneEvaluations, 1);
  EXPECT_NEAR(Result->BestCost, 0.1 /* |4 - 3.9| */, 1e-9);
  // The winning config was bound for the real run: the payload is tiled
  // (the original 2 loops become 3: tile, point, inner).
  EXPECT_EQ(countAttr(Payload.get(), "sym_name"), 1);
  int64_t Loops = 0;
  Payload->walk([&](Operation *Op) { Loops += Op->getName() == "scf.for"; });
  EXPECT_EQ(Loops, 3);
}

TEST_F(StrategyTest, UntunedDispatchBindsFirstCandidates) {
  TempStrategyDir Dir;
  Dir.write("tuned.mlir", TunedStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  OwningOpRef Payload = parsePayload(LoopPayloadText);
  FailureOr<DispatchResult> Result =
      Strategies.dispatch(Payload.get(), "generic"); // no budget
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ(Result->Config, (std::vector<int64_t>{1}));
  EXPECT_EQ(Result->TuneEvaluations, 0);
}

TEST_F(StrategyTest, TunedDispatchWithExecObjectiveRuns) {
  // Default objective: exec::measureExecutionSeconds on the transformed
  // clone — the full Section 4.5 loop through the real executor.
  TempStrategyDir Dir;
  Dir.write("tuned.mlir", TunedStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  OwningOpRef Payload = parsePayload(LoopPayloadText);
  DispatchOptions Options;
  Options.TuneBudget = 4;
  FailureOr<DispatchResult> Result =
      Strategies.dispatch(Payload.get(), "generic", Options);
  ASSERT_TRUE(succeeded(Result));
  ASSERT_EQ(Result->Config.size(), 1u);
  std::vector<int64_t> Candidates{1, 2, 4, 8};
  EXPECT_TRUE(std::find(Candidates.begin(), Candidates.end(),
                        Result->Config[0]) != Candidates.end());
  EXPECT_GT(Result->TuneEvaluations, 0);
  EXPECT_GT(Result->BestCost, 0.0);
  EXPECT_LT(Result->BestCost, 1e9);
}

TEST_F(StrategyTest, DivisorsOfDimOutOfRangeFails) {
  TempStrategyDir Dir;
  std::string Bad = TunedStrategyText;
  Bad.replace(Bad.find("[[\"tile_i\", 1, 2, 4, 8]]"),
              strlen("[[\"tile_i\", 1, 2, 4, 8]]"),
              "[[\"tile_i\", \"divisors_of_dim\", 7]]");
  Dir.write("bad_dim.mlir", Bad);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  OwningOpRef Payload = parsePayload(LoopPayloadText); // 2-deep nest
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Strategies.dispatch(Payload.get(), "generic")));
  EXPECT_TRUE(Capture.contains("divisors_of_dim(7)"));
}

//===----------------------------------------------------------------------===//
// Persistent tuning database integration
//===----------------------------------------------------------------------===//

TEST_F(StrategyTest, WarmDispatchSkipsTuningEntirely) {
  TempStrategyDir Dir;
  Dir.write("tuned.mlir", TunedStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));

  autotune::TuningDB DB; // in-memory: the warm-start logic needs no file
  Strategies.setTuningDB(&DB);

  int ObjectiveCalls = 0;
  DispatchOptions Options;
  Options.TuneBudget = 30;
  Options.Objective = [&](Operation *Module) {
    ++ObjectiveCalls;
    return nearestConstantTo39(Module);
  };

  // Cold dispatch: a miss that tunes and records the winner.
  OwningOpRef Cold = parsePayload(LoopPayloadText);
  FailureOr<DispatchResult> ColdResult =
      Strategies.dispatch(Cold.get(), "generic", Options);
  ASSERT_TRUE(succeeded(ColdResult));
  EXPECT_FALSE(ColdResult->TuningDBHit);
  EXPECT_GT(ColdResult->TuneEvaluations, 0);
  EXPECT_EQ(Strategies.getNumTuningDBMisses(), 1);
  EXPECT_EQ(Strategies.getNumTuningDBHits(), 0);
  EXPECT_EQ(DB.size(), 1u);
  EXPECT_TRUE(DB.isDirty());
  int ColdCalls = ObjectiveCalls;
  EXPECT_GT(ColdCalls, 0);

  // Warm dispatch of the same payload text: the probe — the objective
  // must run zero times, and the bound configuration is the stored one.
  OwningOpRef Warm = parsePayload(LoopPayloadText);
  FailureOr<DispatchResult> WarmResult =
      Strategies.dispatch(Warm.get(), "generic", Options);
  ASSERT_TRUE(succeeded(WarmResult));
  EXPECT_TRUE(WarmResult->TuningDBHit);
  EXPECT_EQ(WarmResult->TuneEvaluations, 0);
  EXPECT_EQ(ObjectiveCalls, ColdCalls) << "warm hit must not re-evaluate";
  EXPECT_EQ(WarmResult->Config, ColdResult->Config);
  EXPECT_DOUBLE_EQ(WarmResult->BestCost, ColdResult->BestCost);
  EXPECT_EQ(Strategies.getNumTuningDBHits(), 1);
  EXPECT_EQ(Strategies.getNumTuningDBMisses(), 1);

  // Acceptance gate: cold and warm transformed payloads are byte-identical.
  EXPECT_EQ(printOp(Warm.get()), printOp(Cold.get()));
}

TEST_F(StrategyTest, EditedLibraryInvalidatesAndSeedsReTune) {
  // Tune once against the original library edition...
  TempStrategyDir DirV1;
  DirV1.write("tuned.mlir", TunedStrategyText);
  autotune::TuningDB DB;
  DispatchOptions Options;
  Options.TuneBudget = 30;
  Options.Objective = nearestConstantTo39;
  {
    ASSERT_TRUE(succeeded(Strategies.addStrategyDir(DirV1.Path)));
    Strategies.setTuningDB(&DB);
    OwningOpRef Payload = parsePayload(LoopPayloadText);
    ASSERT_TRUE(
        succeeded(Strategies.dispatch(Payload.get(), "generic", Options)));
    ASSERT_EQ(DB.size(), 1u);
  }
  autotune::TuningKey V1Key = DB.getRecords().begin()->first;

  // ... then edit the library (a priority tweak changes the content hash
  // but not the schedule) and dispatch through a fresh manager.
  std::string Edited = TunedStrategyText;
  size_t At = Edited.find("strategy.target");
  ASSERT_NE(At, std::string::npos);
  Edited.insert(At, "strategy.priority = 3, ");
  TempStrategyDir DirV2;
  DirV2.write("tuned.mlir", Edited);

  TransformLibraryManager LibrariesV2(Ctx);
  StrategyManager StrategiesV2(Ctx, LibrariesV2);
  ASSERT_TRUE(succeeded(StrategiesV2.addStrategyDir(DirV2.Path)));
  StrategiesV2.setTuningDB(&DB);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  OwningOpRef Payload = parsePayload(LoopPayloadText);
  FailureOr<DispatchResult> Result =
      StrategiesV2.dispatch(Payload.get(), "generic", Options);
  ASSERT_TRUE(succeeded(Result));

  // The stored entry no longer matches exactly: reported stale, used as a
  // re-tune seed, and superseded by the re-tuned winner.
  EXPECT_TRUE(Result->TuningDBStale);
  EXPECT_FALSE(Result->TuningDBHit);
  EXPECT_GT(Result->TuneEvaluations, 0);
  EXPECT_EQ(Result->Config, (std::vector<int64_t>{4}));
  EXPECT_EQ(StrategiesV2.getNumTuningDBStale(), 1);
  EXPECT_TRUE(Capture.contains("is stale"));
  EXPECT_TRUE(Capture.contains("re-tuning with the stale configuration"));
  EXPECT_EQ(DB.size(), 1u) << "the stale edition must be superseded";
  EXPECT_EQ(DB.lookup(V1Key), nullptr);
  EXPECT_NE(DB.getRecords().begin()->first.LibraryHash, V1Key.LibraryHash);
}

TEST_F(StrategyTest, DumpStrategiesReportsTuningDBStatus) {
  TempStrategyDir Dir;
  Dir.write("avx2.mlir", Avx2StrategyText);
  Dir.write("tuned.mlir", TunedStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));
  autotune::TuningDB DB;
  Strategies.setTuningDB(&DB);

  DispatchOptions Options;
  Options.TuneBudget = 30;
  Options.Objective = nearestConstantTo39;
  OwningOpRef Payload = parsePayload(LoopPayloadText);
  FailureOr<DispatchResult> Result =
      Strategies.dispatch(Payload.get(), "generic", Options);
  ASSERT_TRUE(succeeded(Result));

  // Dispatch transformed `Payload` in place; status is keyed by the
  // *pre-transform* fingerprint, which the result carries and which a fresh
  // parse reproduces.
  OwningOpRef Fresh = parsePayload(LoopPayloadText);
  EXPECT_EQ(Result->PayloadFingerprint, hashOperationStructure(Fresh.get()));
  EXPECT_NE(Result->PayloadFingerprint, hashOperationStructure(Payload.get()));
  std::string Text;
  raw_string_ostream OS(Text);
  Strategies.dumpStrategies(OS, Result->PayloadFingerprint);
  // The tuned strategy has a stored entry; the avx2 strategy was never
  // tuned for this payload.
  EXPECT_NE(Text.find("tuning-db: hit"), std::string::npos) << Text;
  EXPECT_NE(Text.find("tuning-db: absent"), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// Loading and registration
//===----------------------------------------------------------------------===//

TEST_F(StrategyTest, AddStrategyDirIsRepeatableAndParseOnce) {
  TempStrategyDir Dir;
  Dir.write("avx2.mlir", Avx2StrategyText);
  Dir.write("generic.mlir", GenericStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));
  int64_t ParsesAfterFirst = Libraries.getNumParses();
  // Re-adding the same directory is a no-op: the library manager's content
  // cache answers every load, and registration skips known ops.
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));
  EXPECT_EQ(Strategies.getNumStrategies(), 2u);
  EXPECT_EQ(Libraries.getNumParses(), ParsesAfterFirst);
}

TEST_F(StrategyTest, MissingAndEmptyDirsFail) {
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Strategies.addStrategyDir("/tmp/no_such_tdl_dir_42")));
  EXPECT_TRUE(Capture.contains("cannot open strategy directory"));
  TempStrategyDir Empty;
  EXPECT_TRUE(failed(Strategies.addStrategyDir(Empty.Path)));
  EXPECT_TRUE(Capture.contains("contains no .mlir strategy library files"));
}

TEST_F(StrategyTest, IllFormedManifestFailsAtLoad) {
  TempStrategyDir Dir;
  std::string Bad = GenericStrategyText;
  Bad.replace(Bad.find("\"strategy\""), strlen("\"strategy\""),
              "\"not_the_entry\"");
  Dir.write("bad.mlir", Bad);
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Strategies.addStrategyDir(Dir.Path)));
  EXPECT_TRUE(Capture.contains("missing the public '@strategy' entry"));
}

TEST_F(StrategyTest, DumpStrategiesListsManifest) {
  TempStrategyDir Dir;
  Dir.write("avx2.mlir", Avx2StrategyText);
  Dir.write("tuned.mlir", TunedStrategyText);
  ASSERT_TRUE(succeeded(Strategies.addStrategyDir(Dir.Path)));
  std::string Text;
  raw_string_ostream OS(Text);
  Strategies.dumpStrategies(OS);
  EXPECT_NE(Text.find("strategy '@avx2_loop_schedule' (target 'avx2', "
                      "priority 10"),
            std::string::npos);
  EXPECT_NE(Text.find("applies: @applies"), std::string::npos);
  EXPECT_NE(Text.find("applies: always"), std::string::npos);
  EXPECT_NE(Text.find("param tile_i in [1, 2, 4, 8]"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Static manifest rules (analyzeHandleTypes surface)
//===----------------------------------------------------------------------===//

std::vector<TypeCheckIssue> analyzeText(Context &Ctx, std::string Text) {
  OwningOpRef Module = parseSourceString(Ctx, Text, "manifest");
  EXPECT_TRUE(Module);
  return analyzeHandleTypes(Module.get());
}

TEST_F(StrategyTest, StaticRuleRequiresTargetWithParams) {
  std::string Text = GenericStrategyText;
  Text.replace(Text.find("strategy.target = \"generic\""),
               strlen("strategy.target = \"generic\""),
               "strategy.priority = 3 : index");
  std::vector<TypeCheckIssue> Issues = analyzeText(Ctx, Text);
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_NE(Issues[0].Message.find("requires a string 'strategy.target'"),
            std::string::npos);
}

TEST_F(StrategyTest, StaticRuleChecksEntryArity) {
  // One declared parameter but an entry taking only the payload root.
  std::string Text = GenericStrategyText;
  Text.replace(Text.find("strategy.target = \"generic\""),
               strlen("strategy.target = \"generic\""),
               "strategy.target = \"generic\", "
               "strategy.params = [[\"tile\", 1, 2]]");
  std::vector<TypeCheckIssue> Issues = analyzeText(Ctx, Text);
  ASSERT_EQ(Issues.size(), 1u);
  EXPECT_NE(Issues[0].Message.find("must take 2 arguments"),
            std::string::npos);
}

TEST_F(StrategyTest, StaticRuleChecksParamEncoding) {
  for (const char *BadParams :
       {"[[\"only_name\"]]",              // no candidates at all
        "[[\"x\", \"unknown_spec\", 1]]", // bad keyword
        "[[\"x\", 1, \"two\"]]",          // mixed candidate kinds
        "[\"flat\"]"}) {                  // entry not an array
    std::string Text = TunedStrategyText;
    Text.replace(Text.find("[[\"tile_i\", 1, 2, 4, 8]]"),
                 strlen("[[\"tile_i\", 1, 2, 4, 8]]"), BadParams);
    std::vector<TypeCheckIssue> Issues = analyzeText(Ctx, Text);
    EXPECT_FALSE(Issues.empty()) << "accepted bad params: " << BadParams;
  }
}

TEST_F(StrategyTest, StaticRuleRejectsNestedImpureApplies) {
  // Impurity hidden inside a nested region of @applies (here a
  // transform.sequence wrapping transform.annotate) must still be caught
  // by the recursive load-time walk, not first fail at dispatch time.
  std::vector<TypeCheckIssue> Issues = analyzeText(Ctx, R"("builtin.module"() ({
  "transform.library"() ({
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      "transform.sequence"(%op) ({
      ^bb1(%h: !transform.any_op):
        "transform.annotate"(%h) {name = "nested_impure"}
          : (!transform.any_op) -> ()
        "transform.yield"() : () -> ()
      }) : (!transform.any_op) -> ()
      "transform.yield"(%op) : (!transform.any_op) -> ()
    }) {sym_name = "applies", visibility = "private"} : () -> ()
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      "transform.yield"() : () -> ()
    }) {sym_name = "strategy"} : () -> ()
  }) {sym_name = "nested_impure_lib",
      strategy.target = "avx2"} : () -> ()
}) : () -> ()
)");
  ASSERT_FALSE(Issues.empty());
  bool FoundImpure = false;
  for (const TypeCheckIssue &Issue : Issues)
    FoundImpure |= Issue.Message.find("'@applies' is impure: op "
                                      "'transform.annotate'") !=
                   std::string::npos;
  EXPECT_TRUE(FoundImpure);
}

TEST_F(StrategyTest, StaticRuleAcceptsWellFormedManifest) {
  EXPECT_TRUE(analyzeText(Ctx, Avx2StrategyText).empty());
  EXPECT_TRUE(analyzeText(Ctx, TunedStrategyText).empty());
  // A plain (non-strategy) library stays exempt from manifest rules.
  EXPECT_TRUE(analyzeText(Ctx, R"("builtin.module"() ({
    "transform.library"() ({
      "transform.named_sequence"() ({
      ^bb0(%op: !transform.any_op):
        "transform.yield"(%op) : (!transform.any_op) -> ()
      }) {sym_name = "is_any"} : () -> ()
    }) {sym_name = "plain_lib"} : () -> ()
  }) : () -> ()
)")
                  .empty());
}

} // namespace
