//===- bench_table1_compile_overhead.cpp - Table 1 / Figure 6 -------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Table 1 and Figure 6: compile-time of the TOSA->Linalg
/// pipeline driven by the native pass manager vs. the same pipeline
/// expressed as a Transform script of `transform.apply_registered_pass`
/// ops. The models are synthetic TOSA graphs with the paper's exact op
/// counts (the TensorFlow-converted originals are proprietary inputs; see
/// README.md, "Table 1: pass manager vs. Transform script"). The paper
/// reports <= 2.6% interpretation overhead; the verdict printed at the end
/// is computed from the measured medians against that bound.
///
/// Usage: bench_table1_compile_overhead [--smoke]
///   --smoke  3 repeats of 1 pipeline application per arm and model (CI);
///            the default is 9 repeats of 8 applications.
/// With TDL_BENCH_JSON_DIR set, writes BENCH_table1_compile_overhead.json:
/// per-model min/median timings and overheads plus the metrics registry
/// (including the deterministic `interp.consume.closure_ops`).
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "exec/Workloads.h"
#include "pass/Pass.h"

#include <cstring>
#include <iterator>

using namespace tdl;
using namespace tdl::benchutil;

namespace {
struct Model {
  const char *Name;
  const char *Key; // JSON key prefix
  int64_t NumOps;
  double PaperMlirMs;
  double PaperTransformMs;
};

/// The paper's bound on Transform-script interpretation overhead.
constexpr double PaperBoundPct = 2.6;

double overheadPct(double Mlir, double Transform) {
  return 100.0 * (Transform - Mlir) / Mlir;
}
} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0) {
      Smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  const int Repeats = Smoke ? 3 : 9;
  const int Inner = Smoke ? 1 : 8; // pipeline applications per sample

  printHeader("Table 1 / Figure 6: pass-manager vs Transform-script compile "
              "time (TOSA -> Linalg pipeline)");
  std::printf("%d repeats x %d applications per arm; ms per application\n\n",
              Repeats, Inner);

  static const Model Models[] = {
      {"Squeezenet", "squeezenet", 126, 16.6, 16.9},
      {"GPT-2", "gpt2", 2861, 185.4, 190.0},
      {"Mobile BERT", "mobile_bert", 4134, 316.7, 317.7},
      {"Whisper (dec)", "whisper_dec", 847, 457.5, 462.3},
      {"BERT-base", "bert_base", 1182, 1315.3, 1348.6},
  };

  JsonReport Report("table1_compile_overhead");
  Report.metric("repeats", Repeats);
  Report.metric("inner", Inner);

  std::printf("%-15s %6s | %17s %17s | %9s %9s | paper: %6s\n", "Model",
              "#Ops", "MLIR min/median", "Transf min/median", "ovh(med)",
              "ovh(min)", "ovh");
  std::printf("----------------------------------------------------------------"
              "----------------------------------\n");

  std::vector<std::pair<double, double>> Fig6Series;
  std::vector<double> MedianOverheads;
  std::vector<std::string> OverBound;
  for (const Model &M : Models) {
    Context Ctx;
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);

    std::string Pipeline = workloads::getTosaPipeline();
    OwningOpRef Script = buildTransformScriptFromPipeline(Ctx, Pipeline);
    auto Elements = parsePassPipeline(Ctx, Pipeline);

    auto MakeModules = [&] {
      std::vector<OwningOpRef> Modules;
      for (int I = 0; I < Inner; ++I)
        Modules.push_back(
            workloads::buildSyntheticTosaModel(Ctx, M.NumOps, 7));
      return Modules;
    };
    auto RunNative = [&](Operation *Module) {
      PassManager PM(Ctx);
      (void)buildPassManager(PM, *Elements);
      (void)PM.run(Module);
    };
    auto RunScript = [&](Operation *Module) {
      (void)applyTransforms(Module, Script.get());
    };
    // Model construction is excluded from both arms: modules are pre-built
    // outside the timed region, and only the pipeline application is timed.
    auto TimeOne = [&](const std::function<void(Operation *)> &RunOne) {
      std::vector<OwningOpRef> Modules = MakeModules();
      double Sample = timeSeconds([&] {
        for (OwningOpRef &Module : Modules)
          RunOne(Module.get());
      });
      return 1000.0 * Sample / Inner;
    };

    // Warm up allocators and registries.
    {
      std::vector<OwningOpRef> Warm = MakeModules();
      OwningOpRef Other(Warm[0]->clone());
      RunNative(Warm[0].get());
      RunScript(Other.get());
    }

    // The arms alternate which runs first, so neither always sees the
    // warmer caches; min and median are taken per arm over the repeats.
    std::vector<double> MlirSamples, TransformSamples;
    for (int Rep = 0; Rep < Repeats; ++Rep) {
      if (Rep % 2 == 0) {
        MlirSamples.push_back(TimeOne(RunNative));
        TransformSamples.push_back(TimeOne(RunScript));
      } else {
        TransformSamples.push_back(TimeOne(RunScript));
        MlirSamples.push_back(TimeOne(RunNative));
      }
    }
    Spread Mlir = spreadOf(MlirSamples);
    Spread Transform = spreadOf(TransformSamples);
    double OverheadMedian = overheadPct(Mlir.Median, Transform.Median);
    double OverheadMin = overheadPct(Mlir.Min, Transform.Min);
    double PaperOverhead = overheadPct(M.PaperMlirMs, M.PaperTransformMs);
    std::printf("%-15s %6lld | %8.2f %8.2f %8.2f %8.2f | %8.2f%% %8.2f%% | "
                "%12.1f%%\n",
                M.Name, static_cast<long long>(M.NumOps), Mlir.Min,
                Mlir.Median, Transform.Min, Transform.Median, OverheadMedian,
                OverheadMin, PaperOverhead);
    Fig6Series.push_back({Mlir.Median, Transform.Median});
    MedianOverheads.push_back(OverheadMedian);
    if (OverheadMedian > PaperBoundPct)
      OverBound.push_back(M.Name);

    std::string Key = M.Key;
    Report.metric(Key + "_ops", (long long)M.NumOps);
    Report.metric(Key + "_mlir_ms_min", Mlir.Min);
    Report.metric(Key + "_mlir_ms_median", Mlir.Median);
    Report.metric(Key + "_transform_ms_min", Transform.Min);
    Report.metric(Key + "_transform_ms_median", Transform.Median);
    Report.metric(Key + "_overhead_pct_median", OverheadMedian);
    Report.metric(Key + "_overhead_pct_min", OverheadMin);
  }

  std::printf("\nFigure 6 series (log-log scatter: x = MLIR ms, y = Transform "
              "ms, medians; points on the diagonal = no overhead):\n");
  for (auto [X, Y] : Fig6Series)
    std::printf("  (%.3f, %.3f)\n", X, Y);

  Spread Overall = spreadOf(MedianOverheads);
  double Worst =
      *std::max_element(MedianOverheads.begin(), MedianOverheads.end());
  int Within = static_cast<int>(std::size(Models) - OverBound.size());
  std::printf("\nVerdict: median Transform overhead is within the paper's "
              "%.1f%% on %d of %zu models (median across models %.2f%%, "
              "worst %.2f%%).\n",
              PaperBoundPct, Within, std::size(Models), Overall.Median, Worst);
  if (OverBound.empty()) {
    std::printf("The Transform-interpreted pipeline tracks the native pass "
                "manager on every model.\n");
  } else {
    std::printf("Over the bound:");
    for (const std::string &Name : OverBound)
      std::printf(" %s", Name.c_str());
    std::printf("%s\n", Smoke ? " (smoke run: too few repeats to conclude)"
                              : "");
  }
  Report.metric("overhead_pct_median_across_models", Overall.Median);
  Report.metric("overhead_pct_worst_model", Worst);
  Report.metric("models_within_paper_bound", Within);
  Report.addMetricsSnapshot();
  return 0;
}
