//===- Session.cpp - Reusable driver facade -------------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Session.h"

#include "ad/AutoDiff.h"
#include "core/Analysis.h"
#include "core/Conditions.h"
#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "pass/Pass.h"
#include "support/STLExtras.h"

#include <chrono>
#include <memory>

using namespace tdl;

static int64_t steadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static int64_t wallNowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

namespace {
/// Records one RunReport phase entry for the enclosing scope, on every exit
/// path.
struct PhaseTimer {
  RunReport &Report;
  const char *Name;
  int64_t StartNanos;
  PhaseTimer(RunReport &Report, const char *Name)
      : Report(Report), Name(Name), StartNanos(steadyNanos()) {}
  ~PhaseTimer() {
    Report.Phases.push_back({Name, steadyNanos() - StartNanos});
  }
};
} // namespace

static std::string jsonStringArray(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (size_t I = 0; I < Items.size(); ++I)
    Out += (I ? ", " : "") + telemetry::jsonQuoted(Items[I]);
  return Out + "]";
}

Session::Session(RunOptions Options, raw_ostream &OS, raw_ostream &ES)
    : Options(std::move(Options)), OS(OS), ES(ES), Libraries(Ctx),
      Strategies(Ctx, Libraries) {
  registerAllDialects(Ctx);
  registerTransformDialect(Ctx);
  registerAutoDiffSupport(Ctx);
  registerBuiltinIRDLConstraints();
}

telemetry::MetricsSnapshot Session::snapshotMetrics() const {
  return Window.diff();
}

LogicalResult Session::loadLibraries() {
  // Libraries load before the script: link() resolves the script's imports
  // against them, and the static analyses run against the merged scope.
  // Each file is parsed, verified, and type-checked once and cached in the
  // manager, which owns the library modules for the session's lifetime.
  int64_t Start = steadyNanos();
  for (const std::string &Dir : Options.LibrarySearchDirs)
    Libraries.addSearchDir(Dir);
  for (const std::string &LibraryPath : Options.TransformLibraries)
    if (failed(Libraries.loadLibraryFile(LibraryPath)))
      return failure();
  LibraryLoadNanos = steadyNanos() - Start;
  if (Options.DumpLibrarySymbols)
    Libraries.dumpSymbols(OS);
  return success();
}

LogicalResult Session::scanStrategies() {
  int64_t Start = steadyNanos();
  for (const std::string &Dir : Options.StrategyDirs)
    if (failed(Strategies.addStrategyDir(Dir)))
      return failure();
  StrategyScanNanos = steadyNanos() - Start;
  return success();
}

LogicalResult Session::openTuningDB() {
  if (Options.TuningDBPath.empty())
    return success();
  std::vector<std::string> Diags;
  LogicalResult Result = TuningDB.open(Options.TuningDBPath, &Diags);
  for (const std::string &Diag : Diags)
    ES << "warning: " << Diag << "\n";
  if (failed(Result)) {
    ES << "error: cannot open tuning database '" << Options.TuningDBPath
       << "'\n";
    return failure();
  }
  TuningDB.setReadOnly(Options.TuningDBReadOnly);
  Strategies.setTuningDB(&TuningDB);
  return success();
}

void Session::echoOptionsIntoReport() {
  using telemetry::jsonQuoted;
  auto Add = [&](const char *Key, std::string Value) {
    Report.Options.emplace_back(Key, std::move(Value));
  };
  auto Flag = [](bool B) { return std::string(B ? "true" : "false"); };
  Add("payload", jsonQuoted(Options.PayloadPath));
  Add("pass_pipeline", jsonQuoted(Options.PassPipeline));
  Add("transform", jsonQuoted(Options.TransformScript));
  Add("check_pipeline", jsonQuoted(Options.CheckPipeline));
  Add("transform_libraries", jsonStringArray(Options.TransformLibraries));
  Add("library_paths", jsonStringArray(Options.LibrarySearchDirs));
  Add("strategy_dirs", jsonStringArray(Options.StrategyDirs));
  Add("target", jsonQuoted(Options.Target));
  Add("tune_budget", std::to_string(Options.TuneBudget));
  Add("match_shards", std::to_string(Options.MatchShards));
  Add("commit_shards", std::to_string(Options.CommitShards));
  Add("tuning_db", jsonQuoted(Options.TuningDBPath));
  Add("tuning_db_readonly", Flag(Options.TuningDBReadOnly));
  Add("trace", Flag(Options.Trace));
  Add("trace_json", jsonQuoted(Options.TraceJsonPath));
  Add("profile", Flag(Options.Profile));
  Add("dump_metrics", Flag(Options.DumpMetrics));
  Add("dump_metrics_json", jsonQuoted(Options.DumpMetricsJsonPath));
  Add("report_json", jsonQuoted(Options.ReportJsonPath));
  Add("check_invalidation", Flag(Options.CheckInvalidation));
  Add("check_types", Flag(Options.CheckTypes));
  Add("check_conditions", Flag(Options.CheckConditions));
  Add("verify", Flag(Options.Verify));
  Add("quiet", Flag(Options.Quiet));
}

LogicalResult Session::run() {
  // Re-open the metrics window per run: a second run() on the same Session
  // must not re-report the first run's metrics. The run counter bumps after
  // the window opens so it lands inside its own window.
  Window = telemetry::MetricsWindow();
  telemetry::counter("session.runs").add();

  Report = RunReport();
  Report.StartUnixMs = wallNowUnixMs();
  Report.PayloadPath = Options.PayloadPath;
  echoOptionsIntoReport();
  // The setup steps ran once per Session; every run's report echoes their
  // cost so a warm server session shows what it amortized.
  if (LibraryLoadNanos >= 0)
    Report.Phases.push_back({"setup:load-libraries", LibraryLoadNanos});
  if (StrategyScanNanos >= 0)
    Report.Phases.push_back({"setup:scan-strategies", StrategyScanNanos});

  // Count diagnostics by severity for the report, forwarding each one to
  // whatever handler was installed (the default stderr printer included).
  DiagnosticEngine &DiagEngine = Ctx.getDiagEngine();
  auto Previous = std::make_shared<DiagnosticEngine::HandlerTy>();
  *Previous = DiagEngine.setHandler([this, Previous](const Diagnostic &Diag) {
    switch (Diag.Severity) {
    case DiagnosticSeverity::Error:
      ++Report.Diagnostics.Errors;
      break;
    case DiagnosticSeverity::Warning:
      ++Report.Diagnostics.Warnings;
      break;
    case DiagnosticSeverity::Remark:
      ++Report.Diagnostics.Remarks;
      break;
    case DiagnosticSeverity::Note:
      ++Report.Diagnostics.Notes;
      break;
    }
    if (*Previous)
      (*Previous)(Diag);
  });

  bool WantSpans = !Options.TraceJsonPath.empty() || Options.Profile;
  // Only this run may own the collector; a caller already collecting spans
  // (an embedding service tracing across requests) keeps its session.
  bool OwnSpans =
      WantSpans && !telemetry::SpanCollector::instance().isActive();
  if (OwnSpans)
    telemetry::SpanCollector::instance().start();

  LogicalResult Result = success();
  {
    // The run span/timer close at this scope's end, before the spans are
    // harvested below; every engine worker thread has been joined by then.
    static telemetry::DurationStat &RunStat =
        telemetry::duration("session.run");
    telemetry::ScopedTimer RunTimer(RunStat);
    telemetry::ScopedSpan RunSpan("session:run", "session");
    Result = runPayload();
  }

  DiagEngine.setHandler(std::move(*Previous));
  Report.ExitStatus = succeeded(Result) ? "success" : "failure";
  Report.Metrics = snapshotMetrics();

  // The observability outputs are emitted on every return path — including
  // failed runs, whose partial trace and report are exactly what debugging
  // needs.
  if (OwnSpans) {
    std::vector<telemetry::Span> Spans =
        telemetry::SpanCollector::instance().finish();
    if (!Options.TraceJsonPath.empty()) {
      std::string Json;
      raw_string_ostream JsonOS(Json);
      telemetry::writeChromeTrace(Spans, JsonOS);
      if (!writeFileAtomic(Options.TraceJsonPath, Json))
        ES << "error: cannot write trace JSON to '" << Options.TraceJsonPath
           << "'\n";
    }
    if (Options.Profile) {
      telemetry::renderProfile(Spans, OS);
      telemetry::renderLatencySummary(Report.Metrics, OS);
    }
  }
  if (Options.DumpMetrics)
    telemetry::renderText(Report.Metrics, OS);
  if (!Options.DumpMetricsJsonPath.empty()) {
    std::string Json;
    raw_string_ostream JsonOS(Json);
    telemetry::renderJson(Report.Metrics, JsonOS);
    if (!writeFileAtomic(Options.DumpMetricsJsonPath, Json)) {
      ES << "error: cannot write metrics JSON to '"
         << Options.DumpMetricsJsonPath << "'\n";
      Result = failure();
    }
  }
  if (!Options.ReportJsonPath.empty()) {
    std::string Json;
    raw_string_ostream JsonOS(Json);
    writeRunReportJson(Report, JsonOS);
    if (!writeFileAtomic(Options.ReportJsonPath, Json)) {
      ES << "error: cannot write run report to '" << Options.ReportJsonPath
         << "'\n";
      Result = failure();
    }
  }
  return Result;
}

LogicalResult Session::runPayload() {
  {
    PhaseTimer Phase(Report, "load");
    std::string PayloadText;
    if (!readFileToString(Options.PayloadPath, PayloadText)) {
      ES << "error: cannot read '" << Options.PayloadPath << "'\n";
      return failure();
    }
    Payload = parseSourceString(Ctx, PayloadText, Options.PayloadPath);
    if (!Payload)
      return failure();
  }
  // The structural hash the strategy manager keys selection and the tuning
  // database by, so a report joins to the `.tdb` record its dispatch used.
  uint64_t PayloadFp = hashOperationStructure(Payload.get());
  Report.PayloadFingerprint = hexString(PayloadFp);

  // The dump runs after the tuning database is attached and the payload is
  // parsed, so each strategy can report its per-payload database status.
  if (Options.DumpStrategies)
    Strategies.dumpStrategies(OS, Strategies.getTuningDB()
                                      ? std::optional<uint64_t>(PayloadFp)
                                      : std::nullopt);

  if (!Options.CheckPipeline.empty()) {
    PhaseTimer Phase(Report, "check");
    std::vector<std::string> Passes;
    for (std::string_view Part : split(Options.CheckPipeline, ','))
      Passes.push_back(std::string(Part));
    AbstractOpSet Initial = AbstractOpSet::fromPayload(Payload.get());
    std::vector<PipelineCheckIssue> Issues =
        checkLoweringPipeline(Passes, Initial, {"llvm.*"}, &Ctx);
    for (const PipelineCheckIssue &Issue : Issues)
      OS << "check: [" << Issue.TransformName << "] " << Issue.Message
         << "\n";
    OS << "static check: " << (Issues.empty() ? "OK" : "ISSUES FOUND")
       << "\n";
    if (!Issues.empty())
      return failure();
  }

  if (!Options.PassPipeline.empty()) {
    PhaseTimer Phase(Report, "pass-pipeline");
    PassManager PM(Ctx);
    FailureOr<std::vector<PipelineElement>> Elements =
        parsePassPipeline(Ctx, Options.PassPipeline);
    if (failed(Elements) || failed(buildPassManager(PM, *Elements)))
      return failure();
    if (failed(PM.run(Payload.get())))
      return failure();
  }

  if (!Options.TransformScript.empty()) {
    OwningOpRef Script;
    {
      PhaseTimer Phase(Report, "check");
      std::string ScriptText;
      if (!readFileToString(Options.TransformScript, ScriptText)) {
        ES << "error: cannot read '" << Options.TransformScript << "'\n";
        return failure();
      }
      Script = parseSourceString(Ctx, ScriptText, Options.TransformScript);
      if (!Script)
        return failure();
      // Link the script's imports into its resolution scope before any
      // analysis or interpretation: the type checker validates calls against
      // imported signatures, and the interpreter resolves matchers/includes
      // through the same merged scope.
      if (failed(Libraries.link(Script.get())))
        return failure();
      if (Options.CheckTypes) {
        std::vector<TypeCheckIssue> Issues = analyzeHandleTypes(Script.get());
        for (const TypeCheckIssue &Issue : Issues)
          OS << "type: " << Issue.Message << "\n";
        OS << "static type check: " << (Issues.empty() ? "OK" : "ILL-TYPED")
           << "\n";
        if (!Issues.empty())
          return failure();
      }
      if (Options.CheckInvalidation) {
        std::vector<InvalidationIssue> Issues =
            analyzeHandleInvalidation(Script.get());
        for (const InvalidationIssue &Issue : Issues)
          OS << "invalidation: " << Issue.Message << "\n";
        if (!Issues.empty())
          return failure();
      }
      if (failed(checkIncludeCycles(Script.get())))
        return failure();
    }
    PhaseTimer Phase(Report, "transform");
    TransformOptions TransformOpts;
    TransformOpts.CheckConditions = Options.CheckConditions;
    TransformOpts.MatchShards = Options.MatchShards;
    TransformOpts.CommitShards = Options.CommitShards;
    TransformOpts.Trace = Options.Trace;
    TransformOpts.TraceStream = &ES;
    if (failed(applyTransforms(Payload.get(), Script.get(), TransformOpts)))
      return failure();
  }

  // Strategy dispatch (after any explicit transform script): pick the best
  // applicable strategy for the target and run its entry, autotuning
  // declared parameters when a budget is given.
  if (!Options.Target.empty()) {
    PhaseTimer Phase(Report, "dispatch");
    Report.Strategy.RequestedTarget = Options.Target;
    Report.Strategy.FallbackChain = Strategies.getFallbackChain(Options.Target);
    strategy::DispatchOptions DispatchOpts;
    DispatchOpts.Transform.CheckConditions = Options.CheckConditions;
    DispatchOpts.Transform.MatchShards = Options.MatchShards;
    DispatchOpts.Transform.CommitShards = Options.CommitShards;
    DispatchOpts.Transform.Trace = Options.Trace;
    DispatchOpts.Transform.TraceStream = &ES;
    DispatchOpts.TuneBudget = Options.TuneBudget;
    FailureOr<strategy::DispatchResult> Result =
        Strategies.dispatch(Payload.get(), Options.Target, DispatchOpts);
    if (failed(Result))
      return failure();
    Report.Strategy.Dispatched = true;
    Report.Strategy.MatchedTarget = Result->MatchedTarget;
    Report.Strategy.StrategyLibrary = Result->Strategy->Manifest.LibraryName;
    Report.Strategy.SelectionCacheHit = Result->SelectionCacheHit;
    Report.Strategy.TuneEvaluations = Result->TuneEvaluations;
    if (Strategies.getTuningDB() && !Result->Config.empty())
      Report.Strategy.TuningDB = Result->TuningDBHit     ? "hit"
                                 : Result->TuningDBStale ? "stale"
                                                         : "miss";
    for (size_t I = 0; I < Result->Config.size(); ++I)
      Report.Strategy.Config.emplace_back(
          Result->Strategy->Manifest.Params[I].Name, Result->Config[I]);
    OS << "strategy: selected '@" << Result->Strategy->Manifest.LibraryName
       << "' (target '" << Result->MatchedTarget << "') for target '"
       << Options.Target << "'\n";
    if (Result->TuningDBHit)
      OS << "strategy: tuning-db hit (0 tuning evaluations)\n";
    if (!Result->Config.empty()) {
      OS << "strategy: bound config [";
      for (size_t I = 0; I < Result->Config.size(); ++I) {
        if (I)
          OS << ", ";
        OS << Result->Strategy->Manifest.Params[I].Name << " = "
           << Result->Config[I];
      }
      OS << "]";
      if (Result->TuneEvaluations > 0)
        OS << " after " << Result->TuneEvaluations << " tuning evaluations";
      OS << "\n";
    }
  }

  {
    PhaseTimer Phase(Report, "print");
    if (Options.Verify && failed(verify(Payload.get())))
      return failure();
    if (!Options.Quiet) {
      Payload->print(OS);
      OS << "\n";
    }
  }

  // Persist what this run learned. Read-only mode never reaches the
  // filesystem (save() is a no-op); an unchanged store is not rewritten.
  if (!Options.TuningDBPath.empty() && TuningDB.isDirty()) {
    std::vector<std::string> Diags;
    if (failed(TuningDB.save(&Diags))) {
      for (const std::string &Diag : Diags)
        ES << "error: " << Diag << "\n";
      return failure();
    }
  }
  return success();
}
