//===- TosaPipeline.cpp - Table 1 protocol workload -----------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `tosa_pipeline`: the paper's Table 1 protocol as a closed request loop.
/// Each request draws a fresh synthetic TOSA model (size from the paper's
/// five op counts, a model seed never used before) and compiles two
/// pre-built copies of it with the Table 1 pipeline: once through the
/// native `PassManager` and once through the equivalent Transform script of
/// `apply_registered_pass` ops. The arms alternate order between requests,
/// so each pair shares machine state and the per-pair ratio cancels drift.
/// Model construction, printing and verification stay outside both arms.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "exec/Workloads.h"
#include "ir/Printer.h"
#include "pass/Pass.h"

#include <stdexcept>

using namespace tdl;
using namespace perfbench;

namespace {

/// Op counts of the five Table 1 models (Squeezenet, Whisper decoder,
/// BERT-base, GPT-2, Mobile BERT).
constexpr int64_t PaperOpCounts[] = {126, 847, 1182, 2861, 4134};

class TosaPipeline final : public Workload {
public:
  const char *name() const override { return "tosa_pipeline"; }

  void setUp(uint64_t NewSeed) override {
    Script = OwningOpRef();
    Ctx = std::make_unique<Context>();
    Seed = NewSeed;
    registerAllDialects(*Ctx);
    registerTransformDialect(*Ctx);
    std::string Pipeline = workloads::getTosaPipeline();
    Script = buildTransformScriptFromPipeline(*Ctx, Pipeline);
    FailureOr<std::vector<PipelineElement>> Parsed =
        parsePassPipeline(*Ctx, Pipeline);
    if (!Script || failed(Parsed))
      throw std::runtime_error("tosa_pipeline: cannot build the pipeline");
    Elements = *Parsed;
    // Warm-up: one pair on the smallest model, outside the request stream.
    LayerSamples Discard;
    OwningOpRef Warm = workloads::buildSyntheticTosaModel(
        *Ctx, PaperOpCounts[0], mixSeed(Seed, 0xA11CE));
    OwningOpRef WarmCopy(Warm->clone());
    (void)runNative(Warm.get(), false, Discard);
    (void)runScript(WarmCopy.get(), Discard);
  }

  RequestResult serve(int64_t Index, const RequestMode &Mode,
                      LayerSamples &Layers) override {
    // Sizes are drawn in blocks of five that hold each paper size once, in
    // a seeded order, so every run sees the same size mix.
    int64_t NumOps = PaperOpCounts[blockPermutation(
        mixSeed(Seed, static_cast<uint64_t>(Index / 5)), 5)[Index % 5]];
    uint64_t ModelSeed = mixSeed(Seed, 0x40DE1 + static_cast<uint64_t>(Index));

    RequestResult Result;
    Result.Class = "ops_" + std::to_string(NumOps);
    Result.PayloadKey = ModelSeed ^ static_cast<uint64_t>(NumOps);
    OwningOpRef NativeModule =
        workloads::buildSyntheticTosaModel(*Ctx, NumOps, ModelSeed);
    OwningOpRef ScriptModule(NativeModule->clone());
    Result.PayloadOps = countPayloadOps(NativeModule.get());

    // Alternate which arm runs first so neither always sees warm caches.
    bool NativeOk = true, ScriptOk = true;
    auto Native = [&] {
      double Start = nowSeconds();
      NativeOk = runNative(NativeModule.get(), Mode.Traced, Layers);
      Result.NativeMs = (nowSeconds() - Start) * 1e3;
    };
    auto Scripted = [&] {
      double Start = nowSeconds();
      ScriptOk = runScript(ScriptModule.get(), Layers);
      Result.CompileMs = (nowSeconds() - Start) * 1e3;
    };
    if (Index % 2 == 0) {
      Native();
      Scripted();
    } else {
      Scripted();
      Native();
    }
    Layers.add("core.overhead_ms", Result.CompileMs - Result.NativeMs);

    // Oracles, outside both timed arms.
    if (!NativeOk)
      Result.Failures.push_back("native PassManager arm failed");
    if (!ScriptOk)
      Result.Failures.push_back("Transform script arm failed");
    std::string ScriptText = printTimed(ScriptModule.get(), Layers);
    std::string NativeText = printTimed(NativeModule.get(), Layers);
    std::string Diff =
        compareTexts("script arm vs native arm", ScriptText, NativeText);
    if (!Diff.empty())
      Result.Failures.push_back(Diff);
    if (!verifyTimed(ScriptModule.get(), Layers))
      Result.Failures.push_back("script-arm output fails the verifier");
    if (Mode.CaptureOutput)
      Result.Output = std::move(ScriptText);
    return Result;
  }

  int probeRequests() const override { return 6; }

  std::vector<std::string> checkOraclesFlagCorruption() override {
    std::vector<std::string> Missed;
    LayerSamples Discard;
    OwningOpRef Native = workloads::buildSyntheticTosaModel(
        *Ctx, PaperOpCounts[0], mixSeed(Seed, 0xBAD));
    OwningOpRef Scripted(Native->clone());
    (void)runNative(Native.get(), false, Discard);
    (void)runScript(Scripted.get(), Discard);
    std::string NativeText = printOperationToString(Native.get());
    std::string Corrupted = printOperationToString(Scripted.get());
    Corrupted[Corrupted.size() / 2] ^= 1;
    if (compareTexts("arms", Corrupted, NativeText).empty())
      Missed.push_back("tosa_pipeline: byte-identical arms");
    corruptForVerifier(Scripted.get());
    if (verifyTimed(Scripted.get(), Discard))
      Missed.push_back("tosa_pipeline: verifier");
    return Missed;
  }

private:
  /// The native arm: a fresh PassManager over the parsed pipeline. In a
  /// traced request pass timing is on and each pass's total lands in
  /// `pass.<name>_ms`.
  bool runNative(Operation *Module, bool Traced, LayerSamples &Layers) {
    PassManager PM(*Ctx);
    if (failed(buildPassManager(PM, Elements)))
      return false;
    PM.enableTiming(Traced);
    bool Ok;
    {
      LayerCall Call(Layers, "pass.run_ms", "pass.run", "pass");
      Ok = succeeded(PM.run(Module));
    }
    for (const PassTiming &Timing : PM.getTimings())
      Layers.add("pass." + Timing.PassName + "_ms", Timing.Milliseconds);
    return Ok;
  }

  /// The script arm: the same pipeline as a Transform script.
  bool runScript(Operation *Module, LayerSamples &Layers) {
    LayerCall Call(Layers, "core.apply_ms", "core.applyTransforms", "core");
    return succeeded(applyTransforms(Module, Script.get()));
  }

  std::unique_ptr<Context> Ctx;
  OwningOpRef Script;
  std::vector<PipelineElement> Elements;
  uint64_t Seed = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeTosaPipeline() {
  return std::make_unique<TosaPipeline>();
}
