//===- main.cpp - tdl-perfbench entry point -------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark. One process runs one workload as a closed
/// loop with a single client: request i+1 is sent when request i is done.
///
///   tdl-perfbench --workload <tosa_pipeline|hlo_peephole|dispatch_serve>
///                 --seed <n> --seconds <s> --trace <0|1>
///                 [--strategy-dir <dir>] [--out-dir <dir>]
///   tdl-perfbench --self-test [--strategy-dir <dir>]
///
/// A run first replays the first requests of the seed's stream twice in
/// fresh state (the determinism probe, which also bounds `peak_rss_mb` to a
/// fixed amount of work), then sets the workload up SetupSamples times,
/// spread over the run (the median is `setup_s`), while it serves requests
/// for `--seconds`. The last stdout line is one JSON object: the bounded
/// end-to-end metrics with `--trace 0`, the per-layer metrics with
/// `--trace 1`. A traced run arms the span collector on every other pair of
/// requests, so traced and untraced requests interleave; it writes a Chrome
/// trace and the per-layer table to `--out-dir`.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "exec/Workloads.h"
#include "lowering/Passes.h"
#include "pass/Pass.h"
#include "support/Stream.h"
#include "support/Telemetry.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

using namespace perfbench;
namespace telemetry = tdl::telemetry;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string StrategyDir = "perfbench/strategies";
  std::string OutDir = ".bench_build/perfbench/out";
  /// Stops after this many requests (self-test); 0 = time-bounded.
  int64_t MaxRequests = 0;
  bool SelfTest = false;
};

constexpr int SetupSamples = 21;
/// Traced requests whose spans go into the Chrome trace file.
constexpr int64_t TraceFileRequests = 64;

/// End-to-end metrics in the JSON result of `--trace 0`, on every
/// workload. Only metrics whose run-to-run spread on a shared host stays
/// well inside a regression bound are here: the paired per-request ratio,
/// set-up and compile-plus-run time scaled to the reference host by the
/// calibration kernel (HostSpeed), and memory over a fixed amount of work.
/// Raw wall-clock latencies drift by 20-45% between runs on such hosts;
/// they are printed by every run and listed with the per-layer metrics
/// (ReportedEndToEnd) instead.
const std::vector<std::pair<std::string, std::string>> EndToEndMetrics = {
    {"setup_s", "s"},
    {"script_over_native", "ratio"},
    {"compile_exec_ref_ms.p50", "ms"},
    {"peak_rss_mb", "MB"}};

/// End-to-end numbers every untraced run prints but the JSON result of
/// `--trace 0` leaves out; a traced run reports them from its untraced
/// requests. The last four exist on some workloads only (0 elsewhere).
const std::vector<std::pair<std::string, std::string>> ReportedEndToEnd = {
    {"compile_ms.p50", "ms"}, {"compile_ms.p95", "ms"},
    {"payload_ops_per_s", "ops/s"}, {"native_ms.p50", "ms"},
    {"hit_ms.p50", "ms"},     {"miss_ms.p50", "ms"},
    {"exec_us.p50", "us"},    {"fail_rate", "ratio"}};

/// Per-layer metrics: the JSON result of `--trace 1`, followed by the
/// report-only end-to-end numbers. A layer a workload does not exercise
/// reports 0.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  using MetricList = std::vector<std::pair<std::string, std::string>>;
  static const MetricList All = [] {
    MetricList Metrics = {
        {"core.apply_ms", "ms"}, {"core.overhead_ms", "ms"},
        {"pass.run_ms", "ms"}};
    std::set<std::string> Passes = {"convert-scf-to-cf"};
    tdl::Context Ctx;
    tdl::registerAllPasses();
    auto Elements =
        tdl::parsePassPipeline(Ctx, tdl::workloads::getTosaPipeline());
    if (tdl::succeeded(Elements))
      for (const tdl::PipelineElement &E : *Elements)
        Passes.insert(E.PassName);
    for (const std::string &Pass : Passes)
      Metrics.push_back({"pass." + Pass + "_ms", "ms"});
    const MetricList Rest = {
        {"rewrite.greedy_ms", "ms"},
        {"ir.parse_ms", "ms"},
        {"ir.print_ms", "ms"},
        {"ir.verify_ms", "ms"},
        {"ir.payload_ops", "count"},
        {"core.engine.match_ms", "ms"},
        {"core.engine.commit_ms", "ms"},
        {"core.interp.executed_ops", "count"},
        {"core.interp.matcher_invocations", "count"},
        {"core.engine.commit.parallel_partitions", "count"},
        {"core.engine.commit.serial_partitions", "count"},
        {"strategy.dispatch.hit_ms", "ms"},
        {"strategy.dispatch.miss_ms", "ms"},
        {"strategy.select.hit_ratio", "ratio"},
        {"strategy.applicability_queries", "count"},
        {"strategy.tuning_db.hits", "count"},
        {"strategy.tuning_db.misses", "count"},
        {"autotune.evaluations", "count"},
        {"autotune.evaluation_ms", "ms"},
        {"strategy.tune_ms", "ms"},
        {"exec.run_us", "us"},
        {"exec.first_run_us", "us"},
        {"exec.ops", "count"},
        {"trace.overhead_pct", "%"}};
    Metrics.insert(Metrics.end(), Rest.begin(), Rest.end());
    Metrics.insert(Metrics.end(), ReportedEndToEnd.begin(),
                   ReportedEndToEnd.end());
    return Metrics;
  }();
  return All;
}

/// Registry counters the determinism probe compares, under their
/// benchmark names.
const std::vector<std::pair<std::string, std::string>> ProbeCounters = {
    {"core.interp.executed_ops", "interp.executed_ops"},
    {"core.interp.matcher_invocations", "interp.matcher_invocations"},
    {"core.engine.commit.parallel_partitions",
     "engine.commit.parallel_partitions"},
    {"core.engine.commit.serial_partitions", "engine.commit.serial_partitions"},
    {"strategy.applicability_queries", "strategy.applicability_queries"},
    {"strategy.select_queries", "strategy.select_queries"},
    {"strategy.select_computations", "strategy.select_computations"},
    {"strategy.tuning_db.hits", "strategy.tuning_db.hits"},
    {"strategy.tuning_db.misses", "strategy.tuning_db.misses"},
    {"autotune.evaluations", "autotune.evaluations"}};

/// Peak resident memory of this process image so far. VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the parent's peak across fork
/// and exec.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // The value is in kB.
  return 0;
}

int64_t counterOf(const telemetry::MetricsSnapshot &S, const std::string &K) {
  auto It = S.Counters.find(K);
  return It == S.Counters.end() ? 0 : It->second;
}

/// Mean milliseconds per recorded event of duration \p K, or per \p PerEvents
/// events when given (e.g. per request).
double durationMs(const telemetry::MetricsSnapshot &S, const std::string &K,
                  int64_t PerEvents = 0) {
  auto It = S.Durations.find(K);
  if (It == S.Durations.end())
    return 0;
  int64_t Events = PerEvents ? PerEvents : It->second.Count;
  return Events ? It->second.TotalNanos / 1e6 / Events : 0;
}

/// One replay of the first probeRequests() requests in fresh state.
struct ProbePass {
  std::map<std::string, int64_t> Counts;
  std::vector<std::string> Outputs;
  std::vector<std::string> Failures;
};

ProbePass runProbe(Workload &W, uint64_t Seed, unsigned Shards) {
  ProbePass Pass;
  W.setUp(Seed);
  LayerSamples Discard;
  RequestMode Mode;
  Mode.CaptureOutput = true;
  Mode.Shards = Shards;
  telemetry::MetricsSnapshot Before =
      telemetry::MetricsRegistry::instance().snapshot();
  for (int64_t I = 0; I < W.probeRequests(); ++I) {
    RequestResult R = W.serve(I, Mode, Discard);
    Discard.endRequest(false);
    Pass.Counts["ir.payload_ops"] += R.PayloadOps;
    for (const auto &[Name, Value] : R.Counts)
      Pass.Counts[Name] += Value;
    for (const std::string &F : R.Failures)
      Pass.Failures.push_back("probe request " + std::to_string(I) + ": " + F);
    Pass.Outputs.push_back(std::move(R.Output));
  }
  telemetry::MetricsSnapshot Diff = telemetry::diffSnapshots(
      telemetry::MetricsRegistry::instance().snapshot(), Before);
  for (const auto &[Name, Key] : ProbeCounters)
    Pass.Counts[Name] = counterOf(Diff, Key);
  return Pass;
}

double selectHitRatio(const std::map<std::string, int64_t> &Counts) {
  int64_t Queries = Counts.at("strategy.select_queries");
  return Queries ? 1.0 - double(Counts.at("strategy.select_computations")) /
                             Queries
                 : 0;
}

/// Everything one run measured.
struct RunReport {
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  bool Correct = true;
  /// Failed requests by index, probe failures, determinism mismatches.
  std::vector<std::string> Problems;
};

std::string formatValue(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::trunc);
  Out << Text;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const Options &O) {
  if (Name == "tosa_pipeline")
    return makeTosaPipeline();
  if (Name == "hlo_peephole")
    return makeHloPeephole();
  if (Name == "dispatch_serve")
    return makeDispatchServe(O.StrategyDir);
  return nullptr;
}

/// What the request loop saw, request by request.
struct LoopLog {
  LayerSamples TracedLayers, UntracedLayers;
  std::vector<double> CompileTraced, CompileUntraced, NativeMs, Ratios;
  /// Untraced compile plus steady-state execution, in reference-host ms.
  std::vector<double> CompileExecRef;
  std::map<std::string, std::vector<double>> UntracedByClass;
  std::map<std::string, int64_t> ClassCounts;
  std::vector<double> PayloadOps;
  std::set<uint64_t> SeenPayloads;
  int64_t Repeats = 0, TotalOps = 0;
  double CompileSeconds = 0;
  std::vector<telemetry::Span> TraceSpans;

  void record(const RequestResult &R, bool Traced) {
    (Traced ? CompileTraced : CompileUntraced).push_back(R.CompileMs);
    if (!Traced)
      UntracedByClass[R.Class].push_back(R.CompileMs);
    NativeMs.push_back(R.NativeMs);
    if (R.NativeMs > 0)
      Ratios.push_back(R.CompileMs / R.NativeMs);
    ++ClassCounts[R.Class];
    PayloadOps.push_back(static_cast<double>(R.PayloadOps));
    TotalOps += R.PayloadOps;
    CompileSeconds += R.CompileMs / 1e3;
    Repeats += !SeenPayloads.insert(R.PayloadKey).second;
  }

  double classMedian(const char *Class) const {
    auto It = UntracedByClass.find(Class);
    return It == UntracedByClass.end() ? 0 : median(It->second);
  }
};

/// Serves request \p I with the span collector armed, keeping the spans of
/// the first TraceFileRequests traced requests for the trace file.
RequestResult serveTraced(Workload &W, int64_t I, const RequestMode &Mode,
                          LayerSamples &Layers, double LoopStart,
                          std::vector<telemetry::Span> &Kept) {
  telemetry::SpanCollector &Collector = telemetry::SpanCollector::instance();
  Collector.start();
  double Offset = (nowSeconds() - LoopStart) * 1e9;
  RequestResult R;
  {
    telemetry::ScopedSpan Span("request", "perfbench");
    R = W.serve(I, Mode, Layers);
  }
  std::vector<telemetry::Span> Spans = Collector.finish();
  if (I / 4 * 2 + I % 2 < TraceFileRequests)
    for (telemetry::Span &S : Spans) {
      S.StartNanos += static_cast<int64_t>(Offset);
      S.Args.emplace_back("request", std::to_string(I));
      Kept.push_back(std::move(S));
    }
  return R;
}

/// The determinism self-check: the probe requests replayed twice in fresh
/// state must do exactly the same work and print exactly the same IR; with
/// engine shards, a 1-shard replay must print the same IR too. Returns the
/// first replay and appends every problem to \p Problems.
ProbePass checkDeterminism(Workload &W, uint64_t Seed,
                           std::vector<std::string> &Problems) {
  ProbePass First = runProbe(W, Seed, 0);
  ProbePass Second = runProbe(W, Seed, 0);
  Problems.insert(Problems.end(), First.Failures.begin(), First.Failures.end());
  for (const auto &[Name, Value] : First.Counts)
    if (Second.Counts[Name] != Value)
      Problems.push_back("determinism: " + Name + " was " +
                         std::to_string(Value) + " then " +
                         std::to_string(Second.Counts[Name]));
  for (size_t I = 0; I < First.Outputs.size(); ++I)
    if (First.Outputs[I] != Second.Outputs[I])
      Problems.push_back("determinism: output of probe request " +
                         std::to_string(I) + " changed between replays");
  if (W.shards() > 1) {
    ProbePass Serial = runProbe(W, Seed, 1);
    for (size_t I = 0; I < First.Outputs.size(); ++I) {
      std::string Diff = compareTexts(
          "probe request " + std::to_string(I) + " at 1 vs " +
              std::to_string(W.shards()) + " shards",
          Serial.Outputs[I], First.Outputs[I]);
      if (!Diff.empty())
        Problems.push_back(Diff);
    }
  }
  return First;
}

void printMetrics(const std::vector<Metric> &Metrics, bool ZeroIsNa) {
  for (const Metric &M : Metrics) {
    bool Na = ZeroIsNa && M.Value == 0 && M.Name != "fail_rate";
    std::printf("  %-40s %14s %s\n", M.Name.c_str(),
                Na ? "n/a" : formatValue(M.Value).c_str(), M.Unit.c_str());
  }
}

/// The workload-property record: what the run's inputs looked like.
void printProperties(const Workload &W, const Options &O, const LoopLog &Log,
                     int64_t Attempted, bool Deterministic) {
  std::printf("\nworkload properties\n  seed %llu, requests %lld (",
              (unsigned long long)O.Seed, (long long)Attempted);
  const char *Sep = "";
  for (const auto &[Class, Count] : Log.ClassCounts) {
    std::printf("%s%s %lld", Sep, Class.c_str(), (long long)Count);
    Sep = ", ";
  }
  std::printf(")\n  payload ops per request: min %s, p50 %s, max %s\n",
              formatValue(percentile(Log.PayloadOps, 0)).c_str(),
              formatValue(median(Log.PayloadOps)).c_str(),
              formatValue(percentile(Log.PayloadOps, 100)).c_str());
  unsigned Shards = W.shards() ? W.shards() : 1;
  std::printf("  engine shards: match %u, commit %u\n", Shards, Shards);
  std::printf("  repeat share: %.4f (%lld of %lld requests repeat an "
              "earlier payload)\n",
              Attempted ? double(Log.Repeats) / Attempted : 0,
              (long long)Log.Repeats, (long long)Attempted);
  std::printf("  determinism probe: %d requests replayed twice%s: %s\n",
              W.probeRequests(), W.shards() > 1 ? " and once at 1 shard" : "",
              Deterministic ? "identical" : "MISMATCH");
}

/// Writes the per-layer table (plus the span attribution profile) and the
/// Chrome trace of a traced run.
void writeTraceFiles(const Workload &W, const Options &O, const LoopLog &Log,
                     const std::vector<Metric> &PerLayer, int64_t Queries) {
  std::string Table =
      "per-layer metrics (traced requests: " +
      std::to_string(Log.CompileTraced.size()) + "; counts over the " +
      std::to_string(W.probeRequests()) +
      " probe requests; select hit ratio base: " + std::to_string(Queries) +
      " queries)\n";
  for (const Metric &M : PerLayer) {
    char Line[160];
    std::snprintf(Line, sizeof(Line), "  %-40s %14s %s\n", M.Name.c_str(),
                  formatValue(M.Value).c_str(), M.Unit.c_str());
    Table += Line;
  }
  std::string Profile, Trace;
  {
    tdl::raw_string_ostream OS(Profile);
    telemetry::renderProfile(Log.TraceSpans, OS);
  }
  {
    tdl::raw_string_ostream OS(Trace);
    telemetry::writeChromeTrace(Log.TraceSpans, OS);
  }
  std::filesystem::create_directories(O.OutDir);
  std::string Stem =
      O.OutDir + "/" + W.name() + "-seed" + std::to_string(O.Seed);
  writeFile(Stem + "-layers.txt", Table + "\n" + Profile);
  writeFile(Stem + "-trace.json", Trace);
  std::printf("\n%s  trace: %s-trace.json (first %lld traced requests)\n"
              "  table: %s-layers.txt\n",
              Table.c_str(), Stem.c_str(), (long long)TraceFileRequests,
              Stem.c_str());
}

RunReport runWorkload(Workload &W, const Options &O) {
  RunReport Report;
  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", W.name(),
              (unsigned long long)O.Seed, O.Seconds, O.Trace ? 1 : 0);

  // The determinism probe runs first, so that the peak resident memory
  // covers the same fixed work on every run (the probe's set-ups and
  // requests) rather than growing with the requests a run has time for.
  std::vector<std::string> ProbeProblems;
  ProbePass Probe = checkDeterminism(W, O.Seed, ProbeProblems);
  double PeakRssMb = peakRssMb();

  // Set-up: once for the instance that serves the run, then SetupSamples-1
  // more times on throwaway instances, spread evenly over the request
  // loop. Machine speed on a shared host drifts over seconds; samples taken
  // in one burst would all land in one phase of it. Each sample is scaled
  // by the calibration kernel timed just before it. The registry durations
  // these set-ups record are taken out of the loop's registry diff.
  HostSpeed Speed;
  std::vector<double> SetupSeconds, SetupRefSeconds;
  std::map<std::string, telemetry::MetricsSnapshot::DurationValue> InSetup;
  auto SampleSetup = [&](Workload &Target) {
    Speed.sample(/*Force=*/true);
    telemetry::MetricsSnapshot Before =
        telemetry::MetricsRegistry::instance().snapshot();
    double Start = nowSeconds();
    Target.setUp(O.Seed);
    SetupSeconds.push_back(nowSeconds() - Start);
    SetupRefSeconds.push_back(Speed.toReference(SetupSeconds.back()));
    telemetry::MetricsSnapshot Diff = telemetry::diffSnapshots(
        telemetry::MetricsRegistry::instance().snapshot(), Before);
    for (const auto &[Name, Value] : Diff.Durations) {
      InSetup[Name].Count += Value.Count;
      InSetup[Name].TotalNanos += Value.TotalNanos;
    }
  };
  auto SampleThrowawaySetup = [&] { SampleSetup(*makeWorkload(W.name(), O)); };
  SampleSetup(W);
  if (O.MaxRequests)
    while (static_cast<int>(SetupSeconds.size()) < SetupSamples)
      SampleThrowawaySetup();

  // The closed request loop. A traced run traces every other pair of
  // requests.
  LoopLog Log;
  telemetry::MetricsSnapshot Before =
      telemetry::MetricsRegistry::instance().snapshot();
  double LoopStart = nowSeconds();
  for (int64_t I = 0;; ++I) {
    double Elapsed = nowSeconds() - LoopStart;
    if (O.MaxRequests ? I >= O.MaxRequests : Elapsed >= O.Seconds)
      break;
    if (static_cast<int>(SetupSeconds.size()) < SetupSamples &&
        Elapsed >= O.Seconds * (SetupSeconds.size() - 1) / (SetupSamples - 1))
      SampleThrowawaySetup();
    Speed.sample();
    RequestMode Mode;
    // Workloads alternate arm order on the request index; tracing pairs of
    // requests keeps both arm orders in the traced and the untraced group.
    Mode.Traced = O.Trace && (I / 2) % 2 == 0;
    LayerSamples &Layers = Mode.Traced ? Log.TracedLayers : Log.UntracedLayers;
    RequestResult R = Mode.Traced ? serveTraced(W, I, Mode, Layers, LoopStart,
                                                Log.TraceSpans)
                                  : W.serve(I, Mode, Layers);
    if (!Mode.Traced)
      Log.CompileExecRef.push_back(Speed.toReference(
          R.CompileMs + Layers.current("exec.run_us") / 1e3));
    Layers.endRequest(true);
    ++Report.Attempted;
    if (!R.Failures.empty())
      ++Report.Failed;
    for (const std::string &F : R.Failures)
      Report.Problems.push_back("request " + std::to_string(I) + ": " + F);
    Log.record(R, Mode.Traced);
  }
  telemetry::MetricsSnapshot Loop = telemetry::diffSnapshots(
      telemetry::MetricsRegistry::instance().snapshot(), Before);
  for (auto &[Name, Value] : Loop.Durations) {
    Value.Count -= InSetup[Name].Count;
    Value.TotalNanos -= InSetup[Name].TotalNanos;
  }

  Report.Problems.insert(Report.Problems.end(), ProbeProblems.begin(),
                         ProbeProblems.end());
  Report.Correct = Report.Failed == 0 && ProbeProblems.empty();

  // End-to-end metrics: untraced requests only.
  const std::vector<double> &Untraced = Log.CompileUntraced;
  double P50 = median(Untraced);
  Report.EndToEnd = {
      {"setup_s", median(SetupRefSeconds), "s"},
      {"script_over_native", median(Log.Ratios), "ratio"},
      {"compile_exec_ref_ms.p50", median(Log.CompileExecRef), "ms"},
      {"peak_rss_mb", PeakRssMb, "MB"}};
  double P95 = percentile(Untraced, 95);
  std::vector<Metric> Reported = {
      {"compile_ms.p50", P50, "ms"},
      {"compile_ms.p95", P95, "ms"},
      {"payload_ops_per_s",
       Log.CompileSeconds ? Log.TotalOps / Log.CompileSeconds : 0, "ops/s"},
      {"native_ms.p50", median(Log.NativeMs), "ms"},
      {"hit_ms.p50", Log.classMedian("hit"), "ms"},
      {"miss_ms.p50", Log.classMedian("miss"), "ms"},
      {"exec_us.p50", Log.UntracedLayers.median("exec.run_us"), "us"},
      {"fail_rate",
       Report.Attempted ? double(Report.Failed) / Report.Attempted : 0,
       "ratio"}};

  // Per-layer metrics: traced requests, the loop's registry diff, and the
  // probe's exact counts.
  std::map<std::string, double> Layer;
  for (const auto &[Name, Unit] : perLayerMetrics())
    Layer[Name] = Log.TracedLayers.median(Name);
  Layer["core.engine.match_ms"] =
      durationMs(Loop, "engine.match", Report.Attempted);
  Layer["core.engine.commit_ms"] =
      durationMs(Loop, "engine.commit", Report.Attempted);
  Layer["autotune.evaluation_ms"] = durationMs(Loop, "autotune.evaluation");
  Layer["strategy.tune_ms"] = durationMs(Loop, "strategy.tune");
  for (const char *Count :
       {"ir.payload_ops", "core.interp.executed_ops",
        "core.interp.matcher_invocations",
        "core.engine.commit.parallel_partitions",
        "core.engine.commit.serial_partitions",
        "strategy.applicability_queries", "strategy.tuning_db.hits",
        "strategy.tuning_db.misses", "autotune.evaluations", "exec.ops"})
    Layer[Count] = static_cast<double>(Probe.Counts[Count]);
  Layer["strategy.select.hit_ratio"] = selectHitRatio(Probe.Counts);
  for (const Metric &M : Reported)
    Layer[M.Name] = M.Value;
  Layer["trace.overhead_pct"] =
      P50 > 0 ? 100.0 * (median(Log.CompileTraced) / P50 - 1) : 0;
  for (const auto &[Name, Unit] : perLayerMetrics())
    Report.PerLayer.push_back({Name, Layer[Name], Unit});

  // The human-readable report.
  std::printf("\nend-to-end, JSON result (untraced requests: %zu)\n",
              Untraced.size());
  printMetrics(Report.EndToEnd, false);
  std::printf("end-to-end, report only\n");
  printMetrics(Reported, true);
  std::printf("  setup_s and compile_exec_ref_ms.p50 are scaled to the "
              "reference host;\n  wall set-up median %s s, calibration kernel "
              "median %s ms over %zu samples\n",
              formatValue(median(SetupSeconds)).c_str(),
              formatValue(Speed.medianKernelSeconds() * 1e3).c_str(),
              Speed.numSamples());
  size_t Beyond = Untraced.size() -
                  static_cast<size_t>(std::ceil(0.95 * Untraced.size()));
  std::printf("  compile_ms.p95 over %zu untraced requests, %zu beyond it%s\n",
              Untraced.size(), Beyond,
              Beyond < 10 ? " (fewer than 10: the p95 is unreliable)" : "");
  if (Log.ClassCounts.count("miss"))
    std::printf("  miss_ms.p50 over %lld first-sight requests\n",
                (long long)Log.ClassCounts.at("miss"));
  printProperties(W, O, Log, Report.Attempted, ProbeProblems.empty());
  if (O.Trace)
    writeTraceFiles(W, O, Log, Report.PerLayer,
                    Probe.Counts["strategy.select_queries"]);
  if (!Report.Problems.empty()) {
    std::printf("\nfailures (%zu):\n", Report.Problems.size());
    for (size_t I = 0; I < Report.Problems.size() && I < 20; ++I)
      std::printf("  %s\n", Report.Problems[I].c_str());
  }
  return Report;
}

std::string resultJson(const RunReport &Report, bool Trace) {
  std::string Json = std::string("{\"correct\": ") +
                     (Report.Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Report.Attempted) +
                     ", \"failed\": " + std::to_string(Report.Failed) +
                     ", \"metrics\": {";
  const std::vector<Metric> &Metrics =
      Trace ? Report.PerLayer : Report.EndToEnd;
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Value[64];
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0;
    std::snprintf(Value, sizeof(Value), "%.17g", V);
    Json += (I ? ", " : "") + telemetry::jsonQuoted(Metrics[I].Name) +
            ": {\"value\": " + Value +
            ", \"unit\": " + telemetry::jsonQuoted(Metrics[I].Unit) + "}";
  }
  return Json + "}}";
}

/// Self-test: each workload serves a few requests untraced and traced;
/// every metric must be printed with its unit, every oracle must flag a
/// corrupted output, and the determinism probe must pass.
int selfTest(const Options &Base) {
  int Problems = 0;
  auto Fail = [&](const std::string &What) {
    std::printf("SELF-TEST FAIL: %s\n", What.c_str());
    ++Problems;
  };
  for (const char *Name : {"tosa_pipeline", "hlo_peephole", "dispatch_serve"}) {
    for (bool Trace : {false, true}) {
      Options O = Base;
      O.Workload = Name;
      O.Trace = Trace;
      O.MaxRequests = 4;
      std::unique_ptr<Workload> W = makeWorkload(Name, O);
      RunReport Report = runWorkload(*W, O);
      const auto &Expected = Trace ? perLayerMetrics() : EndToEndMetrics;
      const std::vector<Metric> &Got =
          Trace ? Report.PerLayer : Report.EndToEnd;
      if (Got.size() != Expected.size())
        Fail(std::string(Name) + ": metric count");
      for (size_t I = 0; I < Got.size() && I < Expected.size(); ++I)
        if (Got[I].Name != Expected[I].first ||
            Got[I].Unit != Expected[I].second || Got[I].Unit.empty() ||
            !std::isfinite(Got[I].Value))
          Fail(std::string(Name) + ": metric " + Expected[I].first);
      if (!Report.Correct)
        Fail(std::string(Name) + ": clean run reported failures");
      std::printf("%s\n", resultJson(Report, Trace).c_str());
      if (!Trace)
        for (const std::string &Missed : W->checkOraclesFlagCorruption())
          Fail("oracle did not flag corrupted output: " + Missed);
    }
  }
  std::printf("self-test: %s\n", Problems ? "FAIL" : "PASS");
  return Problems ? 1 : 0;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        throw std::invalid_argument(Arg + " needs a value");
      return Argv[++I];
    };
    if (Arg == "--workload")
      O.Workload = Next();
    else if (Arg == "--seed")
      O.Seed = std::stoull(Next());
    else if (Arg == "--seconds")
      O.Seconds = std::stod(Next());
    else if (Arg == "--trace")
      O.Trace = std::stoi(Next()) != 0;
    else if (Arg == "--strategy-dir")
      O.StrategyDir = Next();
    else if (Arg == "--out-dir")
      O.OutDir = Next();
    else if (Arg == "--self-test")
      O.SelfTest = true;
    else
      throw std::invalid_argument("unknown argument " + Arg);
  }
  return O.SelfTest || !O.Workload.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  try {
    if (!parseArgs(Argc, Argv, O)) {
      std::fprintf(stderr, "usage: tdl-perfbench --workload <name> --seed <n> "
                           "--seconds <s> --trace <0|1> | --self-test\n");
      return 2;
    }
    if (O.SelfTest)
      return selfTest(O);
    std::unique_ptr<Workload> W = makeWorkload(O.Workload, O);
    if (!W) {
      std::fprintf(stderr, "unknown workload '%s'\n", O.Workload.c_str());
      return 2;
    }
    RunReport Report = runWorkload(*W, O);
    std::fflush(stdout);
    std::printf("%s\n", resultJson(Report, O.Trace).c_str());
    return 0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "tdl-perfbench: %s\n", E.what());
    return 1;
  }
}
