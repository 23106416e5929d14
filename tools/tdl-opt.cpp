//===- tdl-opt.cpp - Optimizer driver (mlir-opt analogue) ------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver: a thin argv-to-RunOptions parser over the Session
/// facade (driver/Session.h), which owns the context, library manager,
/// strategy manager, and tuning database. The two compilation-control
/// styles the paper compares, in one tool:
///
///   tdl-opt payload.mlir --pass-pipeline='builtin.module(canonicalize)'
///   tdl-opt payload.mlir --transform=script.mlir
///   tdl-opt payload.mlir --transform=script.mlir --check-invalidation
///   tdl-opt payload.mlir --check-pipeline='convert-scf-to-cf,...'
///   tdl-opt payload.mlir --strategy-dir=... --target=avx2
///       --tune-budget=32 --tuning-db=tuned.tdb
///
//===----------------------------------------------------------------------===//

#include "driver/Session.h"

#include <cstdlib>
#include <string>
#include <thread>

using namespace tdl;

namespace {

int usage(const char *Argv0) {
  errs() << "usage: " << Argv0 << " <payload.mlir> [options]\n"
         << "  --pass-pipeline=<pipeline>   run a textual pass pipeline\n"
         << "  --transform=<script.mlir>    interpret a transform script\n"
         << "  --transform-library=<path>   load a transform library file\n"
         << "                               (repeatable); its public symbols\n"
         << "                               become importable/resolvable from\n"
         << "                               the script\n"
         << "  --library-path=<dir>         add a library search directory\n"
         << "                               (repeatable; searched for\n"
         << "                               --transform-library paths and\n"
         << "                               import 'file' attributes)\n"
         << "  --dump-library-symbols       print each loaded library's\n"
         << "                               public symbols with their\n"
         << "                               handle-type signatures\n"
         << "  --strategy-dir=<dir>         load every *.mlir strategy\n"
         << "                               library in <dir> (repeatable);\n"
         << "                               see --target\n"
         << "  --target=<name>              dispatch the payload to the best\n"
         << "                               applicable strategy for <name>\n"
         << "                               (fallback chain e.g. avx2 ->\n"
         << "                               generic) and run its @strategy\n"
         << "                               entry\n"
         << "  --tune-budget=<N>            autotune declared strategy\n"
         << "                               parameters with N objective\n"
         << "                               evaluations before the final run\n"
         << "                               (default 0: first candidates)\n"
         << "  --tuning-db=<path>           persist best-known tuned\n"
         << "                               configurations at <path>: exact\n"
         << "                               hits skip tuning, stale entries\n"
         << "                               (edited library) seed the\n"
         << "                               re-tune, winners are recorded\n"
         << "  --tuning-db-readonly         consult the tuning database but\n"
         << "                               never rewrite it\n"
         << "  --merge-tuning-db=<a>,<b>    standalone mode: union the two\n"
         << "                               stores keeping the lower-cost\n"
         << "                               entry per key, write the result\n"
         << "                               to --tuning-db=<path>, and exit\n"
         << "  --dump-strategies            print every registered strategy\n"
         << "                               (target, priority, entry\n"
         << "                               signature, params, tuning-db\n"
         << "                               status)\n"
         << "  --check-invalidation         statically analyze the script\n"
         << "  --check-types                statically type-check the script\n"
         << "                               handles (also run before any\n"
         << "                               interpretation)\n"
         << "  --check-pipeline=<p1,p2,..>  static pre/post-condition check\n"
         << "  --check-conditions           dynamic contract checks while\n"
         << "                               interpreting lowering transforms\n"
         << "  --match-shards=<N|auto>      shard the matcher-engine payload\n"
         << "                               walk (foreach_match,\n"
         << "                               collect_matching) across N worker\n"
         << "                               threads ('auto' = hardware\n"
         << "                               concurrency); output is identical\n"
         << "                               to the serial walk (default 1)\n"
         << "  --commit-shards=<N|auto>     commit conflict-free matcher-\n"
         << "                               engine partitions (grouped per\n"
         << "                               top-level payload child) on N\n"
         << "                               worker threads ('auto' = hardware\n"
         << "                               concurrency); payload and\n"
         << "                               diagnostics stay byte-identical\n"
         << "                               to the serial commit (default 1)\n"
         << "  --trace                      print each transform op to stderr\n"
         << "                               as it executes (deterministic at\n"
         << "                               any shard count)\n"
         << "  --trace-json=<path>          write the run's spans as Chrome\n"
         << "                               trace_event JSON; load in\n"
         << "                               chrome://tracing or Perfetto\n"
         << "  --profile                    print a post-run attribution\n"
         << "                               table (time per transform op\n"
         << "                               kind, hottest matchers,\n"
         << "                               match-vs-commit split)\n"
         << "  --dump-metrics               print the end-of-run metrics\n"
         << "                               snapshot (counters + durations\n"
         << "                               with p50/p90/p99)\n"
         << "  --dump-metrics-json=<path>   write the end-of-run metrics\n"
         << "                               snapshot as JSON (lossless\n"
         << "                               *_nanos fields included)\n"
         << "  --report-json=<path>         write the structured run report\n"
         << "                               (options echo, payload\n"
         << "                               fingerprint, phase wall times,\n"
         << "                               run-scoped metrics, strategy\n"
         << "                               decision, diagnostics, exit\n"
         << "                               status); written on failures too\n"
         << "  --no-verify                  skip the final verifier run\n"
         << "  --quiet                      do not print the final IR\n";
  return 2;
}

/// `--merge-tuning-db=<a>,<b>`: offline union into the --tuning-db path,
/// no payload involved.
int runMergeMode(const std::string &MergeSpec, const std::string &OutPath,
                 const char *Argv0) {
  size_t Comma = MergeSpec.find(',');
  if (Comma == std::string::npos || Comma == 0 ||
      Comma + 1 == MergeSpec.size()) {
    errs() << "error: --merge-tuning-db expects two comma-separated store "
              "paths, got '"
           << MergeSpec << "'\n";
    return usage(Argv0);
  }
  if (OutPath.empty()) {
    errs() << "error: --merge-tuning-db requires --tuning-db=<path> as the "
              "merge destination\n";
    return usage(Argv0);
  }
  std::string PathA = MergeSpec.substr(0, Comma);
  std::string PathB = MergeSpec.substr(Comma + 1);
  std::vector<std::string> Diags;
  size_t MergedSize = 0;
  LogicalResult Result =
      autotune::TuningDB::merge(PathA, PathB, OutPath, &Diags, &MergedSize);
  for (const std::string &Diag : Diags)
    errs() << "warning: " << Diag << "\n";
  if (failed(Result)) {
    errs() << "error: cannot merge tuning databases '" << PathA << "' and '"
           << PathB << "' into '" << OutPath << "'\n";
    return 1;
  }
  outs() << "tuning-db: merged " << MergedSize << " record"
         << (MergedSize == 1 ? "" : "s") << " into '" << OutPath << "'\n";
  return 0;
}

/// Parses a shard-count option value: a plain integer or 'auto', which
/// resolves to the hardware concurrency (clamped to the accepted range, and
/// to 1 when the runtime cannot tell). Returns false on malformed or
/// out-of-range input.
bool parseShardCount(const std::string &Text, unsigned &Out) {
  constexpr unsigned MaxShards = 256;
  if (Text == "auto") {
    unsigned Detected = std::thread::hardware_concurrency();
    Out = std::min(std::max(Detected, 1u), MaxShards);
    return true;
  }
  char *End = nullptr;
  unsigned long Parsed = std::strtoul(Text.c_str(), &End, 10);
  if (Text.empty() || *End != '\0' || Parsed == 0 || Parsed > MaxShards)
    return false;
  Out = static_cast<unsigned>(Parsed);
  return true;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage(argv[0]);

  RunOptions Options;
  std::string MergeSpec;
  std::string TuneBudgetText;
  std::string MatchShardsText;
  std::string CommitShardsText;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Consume = [&](std::string_view Prefix, std::string &Out) {
      if (Arg.substr(0, Prefix.size()) != Prefix)
        return false;
      Out = Arg.substr(Prefix.size());
      return true;
    };
    if (Consume("--pass-pipeline=", Options.PassPipeline) ||
        Consume("--transform=", Options.TransformScript) ||
        Consume("--check-pipeline=", Options.CheckPipeline) ||
        Consume("--target=", Options.Target) ||
        Consume("--tuning-db=", Options.TuningDBPath) ||
        Consume("--trace-json=", Options.TraceJsonPath) ||
        Consume("--dump-metrics-json=", Options.DumpMetricsJsonPath) ||
        Consume("--report-json=", Options.ReportJsonPath) ||
        Consume("--merge-tuning-db=", MergeSpec))
      continue;
    std::string Repeatable;
    if (Consume("--transform-library=", Repeatable)) {
      Options.TransformLibraries.push_back(std::move(Repeatable));
      continue;
    }
    if (Consume("--library-path=", Repeatable)) {
      Options.LibrarySearchDirs.push_back(std::move(Repeatable));
      continue;
    }
    if (Consume("--strategy-dir=", Repeatable)) {
      Options.StrategyDirs.push_back(std::move(Repeatable));
      continue;
    }
    if (Consume("--tune-budget=", TuneBudgetText)) {
      char *End = nullptr;
      unsigned long Parsed = std::strtoul(TuneBudgetText.c_str(), &End, 10);
      if (TuneBudgetText.empty() || *End != '\0' || Parsed > 1000000) {
        errs() << "error: --tune-budget expects an integer in [0, 1000000], "
                  "got '"
               << TuneBudgetText << "'\n";
        return usage(argv[0]);
      }
      Options.TuneBudget = static_cast<int>(Parsed);
      continue;
    }
    if (Consume("--match-shards=", MatchShardsText)) {
      if (!parseShardCount(MatchShardsText, Options.MatchShards)) {
        errs() << "error: --match-shards expects an integer in [1, 256] or "
                  "'auto', got '"
               << MatchShardsText << "'\n";
        return usage(argv[0]);
      }
      continue;
    }
    if (Consume("--commit-shards=", CommitShardsText)) {
      if (!parseShardCount(CommitShardsText, Options.CommitShards)) {
        errs() << "error: --commit-shards expects an integer in [1, 256] or "
                  "'auto', got '"
               << CommitShardsText << "'\n";
        return usage(argv[0]);
      }
      continue;
    }
    if (Arg == "--dump-library-symbols")
      Options.DumpLibrarySymbols = true;
    else if (Arg == "--dump-strategies")
      Options.DumpStrategies = true;
    else if (Arg == "--check-invalidation")
      Options.CheckInvalidation = true;
    else if (Arg == "--check-types")
      Options.CheckTypes = true;
    else if (Arg == "--check-conditions")
      Options.CheckConditions = true;
    else if (Arg == "--tuning-db-readonly")
      Options.TuningDBReadOnly = true;
    else if (Arg == "--trace")
      Options.Trace = true;
    else if (Arg == "--profile")
      Options.Profile = true;
    else if (Arg == "--dump-metrics")
      Options.DumpMetrics = true;
    else if (Arg == "--no-verify")
      Options.Verify = false;
    else if (Arg == "--quiet")
      Options.Quiet = true;
    else if (Arg.empty() || Arg[0] == '-') {
      errs() << "error: unknown option '" << Arg << "'\n";
      return usage(argv[0]);
    } else if (!Options.PayloadPath.empty()) {
      errs() << "error: duplicate payload file '" << Arg << "' ('"
             << Options.PayloadPath << "' was already given)\n";
      return usage(argv[0]);
    } else
      Options.PayloadPath = Arg;
  }

  if (!MergeSpec.empty())
    return runMergeMode(MergeSpec, Options.TuningDBPath, argv[0]);

  if (Options.PayloadPath.empty())
    return usage(argv[0]);
  if (!Options.Target.empty() && Options.StrategyDirs.empty()) {
    errs() << "error: --target requires at least one --strategy-dir\n";
    return usage(argv[0]);
  }

  Session S(std::move(Options));
  if (failed(S.loadLibraries()) || failed(S.scanStrategies()) ||
      failed(S.openTuningDB()) || failed(S.run()))
    return 1;
  return 0;
}
