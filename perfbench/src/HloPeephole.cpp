//===- HloPeephole.cpp - Case Study 3 pattern-control workload ------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `hlo_peephole`: pattern-level control over a many-function StableHLO
/// module (Case Studies 2 and 3). Each request is a fresh module of several
/// Case Study 3 models, sent as text. The script arm parses it, runs one
/// Transform script (a match-driven `apply_patterns` that applies the
/// productive peephole corpus per function, then a `foreach_match` with hot
/// and cold matcher/action pairs), verifies and prints. The native arm does
/// the same work with direct C++ calls: `applyPatternsGreedily` per
/// function and a walk that annotates the ops the hot matchers select.
/// Both arms must print byte-identical IR.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "exec/Workloads.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

#include <stdexcept>

using namespace tdl;
using namespace perfbench;

namespace {

/// The pattern set the script and the native arm both apply: the Case
/// Study 3 corpus without its counter-productive pattern.
constexpr const char *PatternSetName = "perfbench_hlo_productive";

/// Op kinds the hot foreach_match pairs annotate (all occur in every
/// model after the peepholes) and kinds the cold pairs look for (none do).
const char *const HotOps[] = {"stablehlo.dot_general", "stablehlo.reduce",
                              "stablehlo.transpose", "stablehlo.reshape",
                              "stablehlo.add"};
const char *const ColdOps[] = {
    "stablehlo.exponential", "stablehlo.tanh",     "stablehlo.slice",
    "stablehlo.concatenate", "stablehlo.convert",  "stablehlo.divide",
    "stablehlo.maximum",     "stablehlo.minimum"};

std::string hotTag(size_t I) { return "hot_" + std::to_string(I); }
std::string coldTag(size_t I) { return "cold_" + std::to_string(I); }

std::string matcherAndAction(const std::string &Tag, const char *OpName) {
  return R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = [")" +
         std::string(OpName) + R"("]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_)" +
         Tag + R"("} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    "transform.annotate"(%op) {name = ")" +
         Tag + R"("} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_)" +
         Tag + R"("} : () -> ()
)";
}

std::string scriptText() {
  std::string Sequences, Matchers, Actions;
  auto AddPair = [&](const std::string &Tag, const char *OpName) {
    Sequences += matcherAndAction(Tag, OpName);
    Matchers += std::string(Matchers.empty() ? "" : ", ") + "@is_" + Tag;
    Actions += std::string(Actions.empty() ? "" : ", ") + "@mark_" + Tag;
  };
  for (size_t I = 0; I < std::size(HotOps); ++I)
    AddPair(hotTag(I), HotOps[I]);
  for (size_t I = 0; I < std::size(ColdOps); ++I)
    AddPair(coldTag(I), ColdOps[I]);
  return R"("builtin.module"() ({
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.op<"func.func">):
    "transform.yield"() : () -> ()
  }) {sym_name = "is_func"} : () -> ()
)" + Sequences +
         R"(
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    "transform.apply_patterns"(%root)
      {matchers = [@is_func], pattern_sets = [")" +
         PatternSetName + R"("]}
      : (!transform.any_op) -> ()
    %u = "transform.foreach_match"(%root) {matchers = [)" +
         Matchers + "], actions = [" + Actions + R"(]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
)";
}

bool isZeroSplatConstant(Value V) {
  Operation *Def = V.getDefiningOp();
  if (!Def || Def->getName() != "stablehlo.constant")
    return false;
  DenseElementsAttr Attr = Def->getAttrOfType<DenseElementsAttr>("value");
  return Attr && Attr.isSplat() && Attr.getSplatValue() == 0.0;
}

bool definedBy(Value V, std::string_view OpName) {
  Operation *Def = V.getDefiningOp();
  return Def && Def->getName() == OpName;
}

/// Oracle: counts, independently of the pattern code, every motif a
/// productive pattern that fires on these models rewrites, and checks the
/// foreach_match annotations (each hot-kind op tagged, no cold tag
/// anywhere). Empty when nothing survives.
std::string checkMotifs(Operation *Module) {
  int64_t ZeroPadAdds = 0, DoubleNegates = 0, DoubleTransposes = 0,
          TransposedMatmuls = 0, DoubleReshapes = 0, BadTags = 0;
  Module->walk([&](Operation *Op) {
    std::string_view Name = Op->getName();
    if (Name == "stablehlo.add")
      for (unsigned I = 0; I < Op->getNumOperands() && I < 2; ++I) {
        Operation *Pad = Op->getOperand(I).getDefiningOp();
        if (Pad && Pad->getName() == "stablehlo.pad" &&
            isZeroSplatConstant(Pad->getOperand(0)))
          ++ZeroPadAdds;
      }
    if (Name == "stablehlo.negate" &&
        definedBy(Op->getOperand(0), "stablehlo.negate"))
      ++DoubleNegates;
    if (Name == "stablehlo.transpose" &&
        definedBy(Op->getOperand(0), "stablehlo.transpose") &&
        Op->getResult(0).getType() ==
            Op->getOperand(0).getDefiningOp()->getOperand(0).getType())
      ++DoubleTransposes;
    if (Name == "stablehlo.dot_general" && !Op->hasAttr("lhs_transposed") &&
        definedBy(Op->getOperand(0), "stablehlo.transpose"))
      ++TransposedMatmuls;
    if (Name == "stablehlo.reshape" &&
        definedBy(Op->getOperand(0), "stablehlo.reshape"))
      ++DoubleReshapes;
    for (size_t I = 0; I < std::size(HotOps); ++I)
      if ((Name == HotOps[I]) != Op->hasAttr(hotTag(I)))
        ++BadTags;
    for (size_t I = 0; I < std::size(ColdOps); ++I)
      BadTags += Op->hasAttr(coldTag(I));
  });
  if (ZeroPadAdds + DoubleNegates + DoubleTransposes + TransposedMatmuls +
          DoubleReshapes + BadTags ==
      0)
    return "";
  return "surviving motifs: add_of_zero_pad " + std::to_string(ZeroPadAdds) +
         ", negate_of_negate " + std::to_string(DoubleNegates) +
         ", transpose_of_transpose " + std::to_string(DoubleTransposes) +
         ", matmul_of_transpose " + std::to_string(TransposedMatmuls) +
         ", reshape_of_reshape " + std::to_string(DoubleReshapes) +
         ", wrong foreach_match tags " + std::to_string(BadTags);
}

class HloPeephole final : public Workload {
public:
  const char *name() const override { return "hlo_peephole"; }
  unsigned shards() const override { return 2; }

  void setUp(uint64_t NewSeed) override {
    Script = OwningOpRef();
    Ctx = std::make_unique<Context>();
    Seed = NewSeed;
    registerAllDialects(*Ctx);
    registerTransformDialect(*Ctx);
    std::vector<std::string> Corpus = workloads::registerHloPatternCorpus(*Ctx);
    std::vector<const std::function<void(PatternSet &)> *> Productive;
    for (const std::string &Name : Corpus)
      if (Name != workloads::getCounterproductivePatternName())
        Productive.push_back(lookupNamedPatternSet(Name));
    registerTransformPatternOp(*Ctx, PatternSetName,
                               [Productive](PatternSet &Patterns) {
                                 for (const auto *Populate : Productive)
                                   (*Populate)(Patterns);
                               });
    NativePatterns = PatternSet();
    (*lookupNamedPatternSet(PatternSetName))(NativePatterns);
    Script = parseSourceString(*Ctx, scriptText(), "hlo-script");
    if (!Script)
      throw std::runtime_error("hlo_peephole: script does not parse");
    // Warm-up: one request-shaped module outside the request stream.
    LayerSamples Discard;
    std::string Warm = buildPayloadText(mixSeed(Seed, 0xA11CE), 4);
    (void)runScript(Warm, shards(), Discard);
    (void)runNative(Warm, Discard);
  }

  RequestResult serve(int64_t Index, const RequestMode &Mode,
                      LayerSamples &Layers) override {
    // Function counts come in balanced blocks (each of 8, 12 and 16 once,
    // in a seeded order), so every run sees the same size mix.
    int64_t NumFuncs = 8 + 4 * blockPermutation(mixSeed(Seed, Index / 3),
                                                3)[Index % 3];
    std::string Payload = buildPayloadText(
        mixSeed(Seed, 0x41C0 + static_cast<uint64_t>(Index)), NumFuncs);

    RequestResult Result;
    Result.Class = "funcs_" + std::to_string(NumFuncs);
    Result.PayloadKey = hashText(Payload);
    unsigned Shards = Mode.Shards ? Mode.Shards : shards();
    Arm Scripted, Native;
    auto RunScripted = [&] {
      double Start = nowSeconds();
      Scripted = runScript(Payload, Shards, Layers);
      Result.CompileMs = (nowSeconds() - Start) * 1e3;
    };
    auto RunNative = [&] {
      double Start = nowSeconds();
      Native = runNative(Payload, Layers);
      Result.NativeMs = (nowSeconds() - Start) * 1e3;
    };
    if (Index % 2 == 0) {
      RunNative();
      RunScripted();
    } else {
      RunScripted();
      RunNative();
    }
    Layers.add("core.overhead_ms", Result.CompileMs - Result.NativeMs);
    Result.PayloadOps = Scripted.PayloadOps;

    if (!Scripted.Error.empty())
      Result.Failures.push_back("script arm: " + Scripted.Error);
    if (!Native.Error.empty())
      Result.Failures.push_back("native arm: " + Native.Error);
    if (Scripted.Module) {
      std::string Motifs = checkMotifs(Scripted.Module.get());
      if (!Motifs.empty())
        Result.Failures.push_back(Motifs);
    }
    std::string Diff =
        compareTexts("script arm vs native arm", Scripted.Text, Native.Text);
    if (!Diff.empty())
      Result.Failures.push_back(Diff);
    if (Mode.CaptureOutput)
      Result.Output = std::move(Scripted.Text);
    return Result;
  }

  int probeRequests() const override { return 8; }

  std::vector<std::string> checkOraclesFlagCorruption() override {
    std::vector<std::string> Missed;
    LayerSamples Discard;
    std::string Payload = buildPayloadText(mixSeed(Seed, 0xBAD), 3);
    Arm Scripted = runScript(Payload, shards(), Discard);
    Arm Serial = runScript(Payload, 1, Discard);
    if (!Scripted.Module || !checkMotifs(Scripted.Module.get()).empty() ||
        !compareTexts("shards", Serial.Text, Scripted.Text).empty()) {
      Missed.push_back("hlo_peephole: clean output was rejected");
      return Missed;
    }
    // A double negation the peepholes would have removed.
    Operation *Func = getFunctions(Scripted.Module.get())[0];
    Block &Body = Func->getRegion(0).front();
    Operation *Terminator = Body.back();
    OpBuilder B(*Ctx);
    B.setInsertionPoint(Terminator);
    Value Arg = Body.getArgument(0);
    OperationState Neg(Location::name("corrupt"), "stablehlo.negate");
    Neg.Operands = {Arg};
    Neg.ResultTypes = {Arg.getType()};
    Operation *Inner = B.create(Neg);
    Neg.Operands = {Inner->getResult(0)};
    B.create(Neg);
    if (checkMotifs(Scripted.Module.get()).empty())
      Missed.push_back("hlo_peephole: motif counter");
    std::string Corrupted = Serial.Text;
    Corrupted[Corrupted.size() / 2] ^= 1;
    if (compareTexts("shards", Corrupted, Scripted.Text).empty())
      Missed.push_back("hlo_peephole: 1-shard vs 2-shard identity");
    corruptForVerifier(Scripted.Module.get());
    if (verifyTimed(Scripted.Module.get(), Discard))
      Missed.push_back("hlo_peephole: verifier");
    return Missed;
  }

private:
  /// One arm's outcome: the compiled module, its printed form, and what
  /// went wrong (empty on success).
  struct Arm {
    OwningOpRef Module;
    std::string Text;
    std::string Error;
    int64_t PayloadOps = 0;
  };

  /// A module of \p NumFuncs Case Study 3 models with distinct function
  /// names, printed: the request as sent. Layer counts cycle through 2..6
  /// from a seeded offset; each model has its own seed.
  std::string buildPayloadText(uint64_t PayloadSeed, int64_t NumFuncs) {
    Rng R(PayloadSeed);
    int64_t FirstLayers = R.uniform(5);
    OwningOpRef Combined(
        builtin::buildModule(*Ctx, Location::name("hlo-request")));
    Block *Body = builtin::getModuleBody(Combined.get());
    for (int64_t F = 0; F < NumFuncs; ++F) {
      OwningOpRef Model =
          workloads::buildStableHloModel(*Ctx, 2 + (FirstLayers + F) % 5,
                                         R.next());
      Operation *Func = getFunctions(Model.get())[0];
      Func->setAttr("sym_name",
                    StringAttr::get(*Ctx, "model_" + std::to_string(F)));
      Func->removeFromParent();
      Body->push_back(Func);
    }
    return printOperationToString(Combined.get());
  }

  Arm parse(const std::string &Payload, LayerSamples &Layers) {
    Arm Result;
    Result.Module = parseTimed(*Ctx, Payload, Layers);
    if (!Result.Module)
      Result.Error = "payload does not parse";
    else
      Result.PayloadOps = countPayloadOps(Result.Module.get());
    return Result;
  }

  /// parse, then the Transform script, then verify, then print.
  Arm runScript(const std::string &Payload, unsigned Shards,
                LayerSamples &Layers) {
    Arm Result = parse(Payload, Layers);
    if (!Result.Module)
      return Result;
    TransformOptions Options;
    Options.MatchShards = Shards;
    Options.CommitShards = Shards;
    bool Applied;
    {
      LayerCall Call(Layers, "core.apply_ms", "core.applyTransforms", "core");
      Applied = succeeded(
          applyTransforms(Result.Module.get(), Script.get(), Options));
    }
    finish(Result, Applied, Layers);
    return Result;
  }

  /// parse, then applyPatternsGreedily per function and the annotation walk
  /// as direct C++ calls, then verify, then print.
  Arm runNative(const std::string &Payload, LayerSamples &Layers) {
    Arm Result = parse(Payload, Layers);
    if (!Result.Module)
      return Result;
    {
      LayerCall Call(Layers, "rewrite.greedy_ms", "rewrite.greedy", "rewrite");
      for (Operation *Func : getFunctions(Result.Module.get()))
        (void)applyPatternsGreedily(Func, NativePatterns);
    }
    Result.Module->walk([&](Operation *Op) {
      for (size_t I = 0; I < std::size(HotOps); ++I)
        if (Op->getName() == HotOps[I])
          Op->setAttr(hotTag(I), UnitAttr::get(*Ctx));
    });
    finish(Result, true, Layers);
    return Result;
  }

  void finish(Arm &Result, bool Applied, LayerSamples &Layers) {
    if (!Applied)
      Result.Error = "transform failed";
    else if (!verifyTimed(Result.Module.get(), Layers))
      Result.Error = "output fails the verifier";
    Result.Text = printTimed(Result.Module.get(), Layers);
  }

  std::unique_ptr<Context> Ctx;
  OwningOpRef Script;
  PatternSet NativePatterns;
  uint64_t Seed = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeHloPeephole() {
  return std::make_unique<HloPeephole>();
}
