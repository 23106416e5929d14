//===- Session.h - Reusable driver facade -----------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver facade: everything `tdl-opt` does, as a library. A `Session`
/// owns the Context (with every dialect registered), the transform-library
/// manager, the strategy manager, and the optional persistent tuning
/// database, and runs one payload through checks, pass pipelines, transform
/// scripts, and strategy dispatch in four explicit steps:
///
///   Session S(Options);
///   S.loadLibraries();   // --transform-library / --library-path
///   S.scanStrategies();  // --strategy-dir
///   S.openTuningDB();    // --tuning-db / --tuning-db-readonly
///   S.run();             // parse payload, check, transform, dispatch, print
///
/// `tdl-opt` is a thin argv-to-RunOptions parser over this class; a future
/// compile server reuses the same steps per request (load/scan once, run
/// many). It is the top (driver) layer: a facade over everything below.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_DRIVER_SESSION_H
#define TDL_DRIVER_SESSION_H

#include "autotune/TuningDB.h"
#include "core/TransformLibrary.h"
#include "strategy/StrategyManager.h"
#include "support/RunReport.h"
#include "support/Stream.h"
#include "support/Telemetry.h"

#include <string>
#include <vector>

namespace tdl {

/// Everything one driver run needs, parsed from argv (or assembled by an
/// embedding service). Field-per-flag; see `tdl-opt --help` for semantics.
struct RunOptions {
  /// Payload IR file (required for run()).
  std::string PayloadPath;
  /// Textual pass pipeline (`--pass-pipeline=`; empty = none).
  std::string PassPipeline;
  /// Transform script to interpret (`--transform=`; empty = none).
  std::string TransformScript;
  /// Comma-separated lowering passes to statically pre/post-check
  /// (`--check-pipeline=`; empty = none).
  std::string CheckPipeline;
  /// Transform library files to load, in order (`--transform-library=`).
  std::vector<std::string> TransformLibraries;
  /// Library search directories (`--library-path=`).
  std::vector<std::string> LibrarySearchDirs;
  /// Strategy library directories (`--strategy-dir=`).
  std::vector<std::string> StrategyDirs;
  /// Dispatch target (`--target=`; empty = no dispatch).
  std::string Target;
  /// Autotuning budget for dispatch (`--tune-budget=`).
  int TuneBudget = 0;
  /// Matcher-engine walk shards (`--match-shards=`).
  unsigned MatchShards = 1;
  /// Matcher-engine commit shards (`--commit-shards=`).
  unsigned CommitShards = 1;
  /// Persistent tuning database (`--tuning-db=`; empty = none).
  std::string TuningDBPath;
  /// Never rewrite the tuning database (`--tuning-db-readonly`).
  bool TuningDBReadOnly = false;
  /// Print each transform op as it executes (`--trace`). Deterministic at
  /// any shard count: the engine buffers worker trace lines and replays
  /// them in serial walk order.
  bool Trace = false;
  /// Write a Chrome `trace_event` JSON file of the run's spans
  /// (`--trace-json=`; empty = off). Load in chrome://tracing or Perfetto.
  std::string TraceJsonPath;
  /// Print the post-run attribution table (`--profile`), followed by the
  /// per-duration latency percentile summary.
  bool Profile = false;
  /// Print the end-of-run metrics snapshot as text (`--dump-metrics`).
  bool DumpMetrics = false;
  /// Write the end-of-run metrics snapshot as JSON (`--dump-metrics-json=`;
  /// empty = off) — the machine-readable twin of --dump-metrics.
  std::string DumpMetricsJsonPath;
  /// Write the structured run report as JSON (`--report-json=`; empty =
  /// off). Written on success and failure alike.
  std::string ReportJsonPath;
  bool CheckInvalidation = false; // --check-invalidation
  bool CheckTypes = false;        // --check-types
  bool CheckConditions = false;   // --check-conditions
  bool DumpLibrarySymbols = false; // --dump-library-symbols
  bool DumpStrategies = false;     // --dump-strategies
  bool Verify = true;              // negated by --no-verify
  bool Quiet = false;              // --quiet
};

/// One driver run over one payload. Single-threaded; owns its Context and
/// every manager, so two Sessions are fully independent.
class Session {
public:
  /// \p OS receives the tool's regular output (dumps, dispatch reports,
  /// final IR), \p ES its errors and warnings.
  explicit Session(RunOptions Options, raw_ostream &OS = outs(),
                   raw_ostream &ES = errs());

  /// Step 1: loads every Options.TransformLibraries file through the
  /// parse-once cache (search dirs from Options.LibrarySearchDirs) and, on
  /// request, dumps the loaded symbols.
  LogicalResult loadLibraries();

  /// Step 2: scans every Options.StrategyDirs directory and registers its
  /// strategy libraries.
  LogicalResult scanStrategies();

  /// Step 3: opens the tuning database at Options.TuningDBPath (no-op
  /// when empty) and attaches it to the strategy manager. Load-time
  /// diagnostics (skipped records, version mismatch) are reported as
  /// warnings on the error stream; a missing file is an empty store.
  LogicalResult openTuningDB();

  /// Step 4: parses the payload and drives it through --dump-strategies,
  /// --check-pipeline, --pass-pipeline, --transform, and --target dispatch,
  /// then verifies and prints the result and saves the tuning database when
  /// it changed. Steps 1-3 must have run (successfully) first.
  LogicalResult run();

  Context &getContext() { return Ctx; }
  TransformLibraryManager &getLibraries() { return Libraries; }
  strategy::StrategyManager &getStrategyManager() { return Strategies; }
  autotune::TuningDB &getTuningDB() { return TuningDB; }
  const RunOptions &getOptions() const { return Options; }
  /// The payload module of the last run() (null before).
  Operation *getPayload() const { return Payload.get(); }

  /// Everything the process-wide metrics registry recorded since the
  /// current (or last finished) run() began — before the first run, since
  /// construction. The per-request observability seam: a compile server
  /// snapshots per request what the CLI reports per run, and a second run
  /// on the same Session never re-reports the first run's metrics.
  telemetry::MetricsSnapshot snapshotMetrics() const;

  /// The report assembled by the last run() (default-constructed before).
  const RunReport &getLastRunReport() const { return Report; }

private:
  /// The payload pipeline proper (parse through tuning-db save); run()
  /// wraps it with the per-run observability bookkeeping.
  LogicalResult runPayload();
  void echoOptionsIntoReport();

  RunOptions Options;
  raw_ostream &OS;
  raw_ostream &ES;
  Context Ctx;
  TransformLibraryManager Libraries;
  strategy::StrategyManager Strategies;
  autotune::TuningDB TuningDB;
  OwningOpRef Payload;
  /// Metrics window for snapshotMetrics(): construction time until the
  /// first run(), then re-opened at each run() entry.
  telemetry::MetricsWindow Window;
  RunReport Report;
  /// Wall time of the setup steps, echoed into every run's report
  /// (negative = step not executed yet).
  int64_t LibraryLoadNanos = -1;
  int64_t StrategyScanNanos = -1;
};

} // namespace tdl

#endif // TDL_DRIVER_SESSION_H
