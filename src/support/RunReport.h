//===- RunReport.h - Structured per-run observability report ----*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-request observability unit: `Session::run()` assembles one
/// RunReport per invocation — tool identity, echoed options, payload
/// fingerprint, per-phase wall times, a run-scoped metrics diff, the
/// strategy decision record, diagnostic severity counts, and exit status —
/// and `tdl-opt --report-json=<path>` serializes it. The JSON layout is a
/// stable public interface (schema documented in README "Observability");
/// bump SchemaVersion on breaking changes. This is the report the future
/// compile server will emit per client request.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_SUPPORT_RUNREPORT_H
#define TDL_SUPPORT_RUNREPORT_H

#include "support/Stream.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tdl {

/// The tool/library version stamped into run reports and `--version`-style
/// output. Tracks the PR sequence, not semver proper.
inline constexpr const char ToolVersionString[] = "0.10.0";

struct RunReport {
  /// Bumped on any breaking change to the JSON layout.
  int SchemaVersion = 1;
  std::string Tool = "tdl-opt";
  std::string ToolVersion = ToolVersionString;
  /// Wall-clock milliseconds since the Unix epoch at run() entry. The only
  /// non-deterministic scalar in the report (golden tests normalize it).
  int64_t StartUnixMs = 0;

  std::string PayloadPath;
  /// hashOperationStructure() of the parsed payload, 16 hex digits: the
  /// payload key of the tuning-database records the run's dispatch used.
  /// Empty when the payload fails to read or parse.
  std::string PayloadFingerprint;

  /// Echo of the effective run options. Values are pre-rendered JSON
  /// scalars or arrays (the Session knows each field's shape); keys follow
  /// the CLI flag spelling with dashes turned to underscores.
  std::vector<std::pair<std::string, std::string>> Options;

  /// One entry per executed phase, in execution order. Setup phases
  /// (library load, strategy scan) are stamped by the Session steps and
  /// echoed into every subsequent run's report — a warm compile-server
  /// session amortizes them, and the report makes that visible.
  struct Phase {
    std::string Name;
    int64_t WallNanos = 0;
  };
  std::vector<Phase> Phases;

  /// What the strategy layer decided, when `--target` was given.
  struct StrategyDecision {
    bool Dispatched = false;
    std::string RequestedTarget;
    /// The fallback-chain entry that actually matched a strategy.
    std::string MatchedTarget;
    std::string StrategyLibrary;
    /// The full chain walked, most-specific first.
    std::vector<std::string> FallbackChain;
    bool SelectionCacheHit = false;
    /// "none" | "hit" | "stale" | "miss" — tuning-db consultation verdict.
    std::string TuningDB = "none";
    int64_t TuneEvaluations = 0;
    /// The bound parameter config, name -> value.
    std::vector<std::pair<std::string, int64_t>> Config;
  };
  StrategyDecision Strategy;

  /// Diagnostics emitted during the run, by severity.
  struct DiagnosticCounts {
    int64_t Errors = 0;
    int64_t Warnings = 0;
    int64_t Remarks = 0;
    int64_t Notes = 0;
  };
  DiagnosticCounts Diagnostics;

  /// Run-scoped metrics diff (window opens at run() entry).
  telemetry::MetricsSnapshot Metrics;

  /// "success" or "failure". Reports are written on both paths.
  std::string ExitStatus = "success";
};

/// Serializes \p Report as the schema-documented JSON object (trailing
/// newline included).
void writeRunReportJson(const RunReport &Report, raw_ostream &OS);

} // namespace tdl

#endif // TDL_SUPPORT_RUNREPORT_H
