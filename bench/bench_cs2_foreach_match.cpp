//===- bench_cs2_foreach_match.cpp - One walk vs. N match sweeps -----------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pattern-level control (the paper's Case Study 2 flavor): dispatching K
/// rewrite categories over a large payload. Compares
///
///   (a) K sequential `transform.match.op` sweeps, each walking the whole
///       payload to collect one op kind before acting on it, against
///   (b) one `transform.foreach_match` with K (matcher, action) pairs,
///       which visits every payload op exactly once.
///
/// Reports wall-clock time and the interpreter's executed-op / matcher-
/// invocation counters for payloads of growing size.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "core/Transform.h"
#include "core/TransformLibrary.h"
#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "support/Telemetry.h"

#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <utility>

using namespace tdl;
using namespace tdl::benchutil;

/// A module with \p NumFuncs functions, each holding a loop nest with
/// loads, adds, and stores — several op kinds for the matchers to sort.
static std::string payloadText(int NumFuncs) {
  std::string Funcs;
  for (int F = 0; F < NumFuncs; ++F) {
    Funcs += R"(
      "func.func"() ({
      ^bb0(%m: memref<16x16xf64>):
        %lb = "arith.constant"() {value = 0 : index} : () -> (index)
        %ub = "arith.constant"() {value = 16 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        "scf.for"(%lb, %ub, %one) ({
        ^outer(%i: index):
          "scf.for"(%lb, %ub, %one) ({
          ^inner(%j: index):
            %v = "memref.load"(%m, %i, %j)
              : (memref<16x16xf64>, index, index) -> (f64)
            %w = "arith.addf"(%v, %v) : (f64, f64) -> (f64)
            %x = "arith.mulf"(%w, %v) : (f64, f64) -> (f64)
            "memref.store"(%x, %m, %i, %j)
              : (f64, memref<16x16xf64>, index, index) -> ()
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "f)" +
             std::to_string(F) + R"(",
          function_type = (memref<16x16xf64>) -> ()} : () -> ()
    )";
  }
  return "\"builtin.module\"() ({" + Funcs + "}) : () -> ()";
}

namespace {
struct Category {
  std::string Tag;
  std::string OpName;
};
} // namespace

/// Five "hot" categories that all occur in every function.
static std::vector<Category> hotCategories() {
  return {{"cat_loop", "scf.for"},
          {"cat_load", "memref.load"},
          {"cat_add", "arith.addf"},
          {"cat_mul", "arith.mulf"},
          {"cat_store", "memref.store"}};
}

/// The hot categories plus \p NumCold categories whose op kind never occurs
/// in the payload — the "library of rewrite rules" shape where most rules
/// do not apply to most code.
static std::vector<Category> withColdCategories(int NumCold) {
  std::vector<Category> Result = hotCategories();
  for (int I = 0; I < NumCold; ++I)
    Result.push_back(
        {"cold" + std::to_string(I), "mylib.rule" + std::to_string(I)});
  return Result;
}

/// (a) One full-payload match.op sweep per category.
static std::string sequentialScript(const std::vector<Category> &Categories) {
  std::string Body;
  for (const Category &C : Categories) {
    Body += "  %" + C.Tag + R"( = "transform.match.op"(%root) {op_name = ")" +
            C.OpName + R"("} : (!transform.any_op) -> (!transform.any_op)
  "transform.annotate"(%)" +
            C.Tag + R"() {name = ")" + C.Tag +
            R"("} : (!transform.any_op) -> ()
)";
  }
  return R"("transform.named_sequence"() ({
^bb0(%root: !transform.any_op):
)" + Body +
         R"(  "transform.yield"() : () -> ()
}) {sym_name = "__transform_main"} : () -> ()
)";
}

/// (b) One foreach_match with one (matcher, action) pair per category.
static std::string
foreachMatchScript(const std::vector<Category> &Categories) {
  std::string Sequences;
  std::string Matchers, Actions;
  for (const Category &C : Categories) {
    const std::string &Tag = C.Tag;
    Sequences += R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = [")" +
                 std::string(C.OpName) + R"("]}
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
    if (!Matchers.empty()) {
      Matchers += ", ";
      Actions += ", ";
    }
    Matchers += "@is_" + Tag;
    Actions += "@mark_" + Tag;
  }
  return R"("builtin.module"() ({)" + Sequences + R"(
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root) {matchers = [)" +
         Matchers + R"(], actions = [)" + Actions + R"(]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
)";
}

/// A foreach_match script whose matchers do NOT start with
/// `match.operation_name`, so the name prefilter cannot short-circuit the
/// dispatch: every candidate op enters the interpreter for every pair until
/// one claims it. This is the worst-case walk the sharded match phase is
/// built for (deep structural matchers over a large many-function module).
static std::string
deepForeachMatchScript(const std::vector<Category> &Categories) {
  std::string Sequences;
  std::string Matchers, Actions;
  for (const Category &C : Categories) {
    const std::string &Tag = C.Tag;
    Sequences += R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operands"(%op) {min = 0 : index}
      : (!transform.any_op) -> (!transform.any_op)
    %1 = "transform.match.operation_name"(%0) {op_names = [")" +
                 std::string(C.OpName) + R"("]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "deep_is_)" +
                 Tag + R"("} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    "transform.annotate"(%op) {name = ")" +
                 Tag + R"("} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "deep_mark_)" +
                 Tag + R"("} : () -> ()
)";
    if (!Matchers.empty()) {
      Matchers += ", ";
      Actions += ", ";
    }
    Matchers += "@deep_is_" + Tag;
    Actions += "@deep_mark_" + Tag;
  }
  return R"("builtin.module"() ({)" + Sequences + R"(
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root) {matchers = [)" +
         Matchers + R"(], actions = [)" + Actions + R"(]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
)";
}

/// A match-only control for the commit sweep: the same matchers run through
/// `transform.collect_matching`, which has no commit phase at all. The gap
/// between this and a full foreach_match run is (roughly) the commit cost
/// the commit shards attack.
static std::string
collectMatchingScript(const std::vector<Category> &Categories) {
  std::string Sequences, Collects;
  for (const Category &C : Categories) {
    const std::string &Tag = C.Tag;
    Sequences += R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = [")" +
                 std::string(C.OpName) + R"("]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_)" +
                 Tag + R"("} : () -> ()
)";
    Collects += R"(    %)" + Tag +
                R"( = "transform.collect_matching"(%root) {matcher = @is_)" +
                Tag + R"(}
      : (!transform.any_op) -> (!transform.any_op)
)";
  }
  return R"("builtin.module"() ({)" + Sequences + R"(
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
)" + Collects +
         R"(    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
)";
}

/// A foreach_match whose actions reach *outside* their own match via
/// `transform.get_parent_op` — the conflict analysis cannot bound the
/// escaping handle, so every partition falls back to the serial commit
/// path. The forced-conflict control of the commit sweep.
static std::string
conflictForeachMatchScript(const std::vector<Category> &Categories) {
  std::string Sequences;
  std::string Matchers, Actions;
  for (const Category &C : Categories) {
    const std::string &Tag = C.Tag;
    Sequences += R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = [")" +
                 std::string(C.OpName) + R"("]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "conflict_is_)" +
                 Tag + R"("} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %parent = "transform.get_parent_op"(%op)
      : (!transform.any_op) -> (!transform.any_op)
    "transform.annotate"(%parent) {name = "parent_)" +
                 Tag + R"("} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "conflict_mark_)" +
                 Tag + R"("} : () -> ()
)";
    if (!Matchers.empty()) {
      Matchers += ", ";
      Actions += ", ";
    }
    Matchers += "@conflict_is_" + Tag;
    Actions += "@conflict_mark_" + Tag;
  }
  return R"("builtin.module"() ({)" + Sequences + R"(
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root) {matchers = [)" +
         Matchers + R"(], actions = [)" + Actions + R"(]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
)";
}

/// A foreach_match whose one action is a structured transform: every
/// `scf.for` is unrolled by 2. The action consumes its loop and may fail,
/// so a partition committed while an earlier one is still running takes a
/// snapshot it can be rolled back to; the unroll stays inside its function,
/// so the partitions still commit in parallel.
static std::string unrollForeachMatchScript() {
  return R"("builtin.module"() ({
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "unroll_is_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    "transform.loop.unroll"(%loop) {factor = 2 : index}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "unroll_by_two"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root)
      {matchers = [@unroll_is_loop], actions = [@unroll_by_two]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
)";
}

namespace {
/// One configuration of the shard sweep: a payload module, a script, and
/// engine options. Every arm runs once untimed, recording its per-run
/// counters, and then once per round; the rounds interleave all arms, so a
/// slow phase of a shared host slows every arm alike instead of skewing
/// one configuration.
struct SweepArm {
  OwningOpRef Mod;
  Operation *Script = nullptr;
  TransformOptions Options;
  /// Set when the script rewrites the payload: every run then starts from
  /// a freshly parsed module (parsed outside the timed region).
  const std::string *FreshPayload = nullptr;
  telemetry::MetricsSnapshot Counts;
  std::vector<double> Samples;

  void prepare(Context &Ctx) {
    if (FreshPayload)
      Mod = parseSourceString(Ctx, *FreshPayload);
  }
  void run() {
    TransformInterpreter Interp(Mod.get(), Script, Options);
    if (failed(Interp.run()))
      std::printf("shard-sweep script failed\n");
  }
  int64_t count(const std::string &Name) const {
    auto It = Counts.Counters.find(Name);
    return It == Counts.Counters.end() ? 0 : It->second;
  }
};
} // namespace

/// Shard sweep: the match side (deep-matcher foreach_match at 1/2/4(/...)
/// match shards) followed by the commit side (foreach_match at 1/2/4(/...)
/// commit shards: annotate actions on a conflict-free and on a
/// forced-conflict payload/script pairing, and unroll actions, against a
/// match-only collect_matching control). Both phases merge worker results
/// back into serial walk order, so the printed IR is byte-identical at
/// every shard count; only the wall-clock and the conflict counters
/// change. Each
/// configuration is timed \p Repeats times (see SweepArm); the tables show
/// the fastest and the median run, and speedups and the JSON report use the
/// median.
static void runShardSweep(int NumFuncs, const std::vector<unsigned> &Shards,
                          int Repeats) {
  Context Ctx;
  registerAllDialects(Ctx);
  registerTransformDialect(Ctx);
  std::vector<Category> Categories = hotCategories();
  std::string Payload = payloadText(NumFuncs);
  // The commit side's prefiltered (non-deep) matchers keep its match phase
  // small so the commit phase is a visible fraction of the total.
  OwningOpRef DeepScript =
      parseSourceString(Ctx, deepForeachMatchScript(Categories));
  OwningOpRef FreeScript =
      parseSourceString(Ctx, foreachMatchScript(Categories));
  OwningOpRef ConflictScript =
      parseSourceString(Ctx, conflictForeachMatchScript(Categories));
  OwningOpRef CollectScript =
      parseSourceString(Ctx, collectMatchingScript(Categories));
  OwningOpRef UnrollScript = parseSourceString(Ctx, unrollForeachMatchScript());
  if (!DeepScript || !FreeScript || !ConflictScript || !CollectScript ||
      !UnrollScript) {
    std::printf("script parse error\n");
    return;
  }

  // Arms: the match side per shard count, the match-only control, then the
  // conflict-free, forced-conflict and unroll commit sides per shard count.
  // The annotate arms parse their module once; re-running on it is
  // deterministic (the actions only annotate). The unroll arms start every
  // run from a fresh module.
  std::vector<SweepArm> Arms;
  auto AddArm = [&](Operation *Script, unsigned MatchShards,
                    unsigned CommitShards) {
    SweepArm Arm;
    Arm.Mod = parseSourceString(Ctx, Payload);
    Arm.Script = Script;
    Arm.Options.MatchShards = MatchShards;
    Arm.Options.CommitShards = CommitShards;
    Arms.push_back(std::move(Arm));
  };
  for (unsigned NumShards : Shards)
    AddArm(DeepScript.get(), NumShards, 1);
  AddArm(CollectScript.get(), 1, 1);
  for (Operation *Script :
       {FreeScript.get(), ConflictScript.get(), UnrollScript.get()})
    for (unsigned NumShards : Shards)
      AddArm(Script, 1, NumShards);
  for (SweepArm &Arm : Arms)
    if (Arm.Script == UnrollScript.get())
      Arm.FreshPayload = &Payload;

  for (SweepArm &Arm : Arms) {
    Arm.prepare(Ctx);
    telemetry::MetricsWindow Window;
    Arm.run();
    Arm.Counts = Window.diff();
  }
  for (int Round = 0; Round < Repeats; ++Round)
    for (SweepArm &Arm : Arms) {
      Arm.prepare(Ctx);
      Arm.Samples.push_back(timeSeconds([&] { Arm.run(); }));
    }

  JsonReport Report("cs2_foreach_match");
  Report.metric("funcs", NumFuncs);
  Report.metric("hardware_threads",
                static_cast<long long>(std::thread::hardware_concurrency()));

  std::string Title = "Shard sweep: deep-matcher foreach_match dispatch, " +
                      std::to_string(NumFuncs) + "-function payload";
  printHeader(Title.c_str());
  // Sharding buys wall-clock only when the hardware has cores to give;
  // record what this machine offers so the artifact is interpretable.
  std::printf("hardware threads available: %u\n",
              std::thread::hardware_concurrency());
  std::printf("%d interleaved repeats per configuration\n", Repeats);
  std::printf("%8s | %12s | %12s | %9s | %12s\n", "shards", "min (s)",
              "median (s)", "speedup", "matcher runs");
  size_t ArmIdx = 0;
  double Baseline = 0.0;
  for (unsigned NumShards : Shards) {
    const SweepArm &Arm = Arms[ArmIdx++];
    Spread Seconds = spreadOf(Arm.Samples);
    if (Baseline == 0.0)
      Baseline = Seconds.Median;
    std::printf("%8u | %12.6f | %12.6f | %8.2fx | %12lld\n", NumShards,
                Seconds.Min, Seconds.Median, Baseline / Seconds.Median,
                static_cast<long long>(
                    Arm.count("interp.matcher_invocations")));
    Report.metric("match_shards_" + std::to_string(NumShards) + "_seconds",
                  Seconds.Median);
  }

  Title = "Commit sweep: foreach_match commit, " +
          std::to_string(NumFuncs) + "-function payload";
  printHeader(Title.c_str());
  Spread MatchOnly = spreadOf(Arms[ArmIdx++].Samples);
  std::printf("match-only control (collect_matching): min %.6f s, "
              "median %.6f s\n",
              MatchOnly.Min, MatchOnly.Median);
  Report.metric("match_only_seconds", MatchOnly.Median);
  std::printf("match+commit seconds per run\n");
  // Snapshots vary with thread timing: they count the partitions claimed
  // while an earlier may-fail partition was still running (per untimed run).
  std::printf("%-15s | %8s | %12s | %12s | %9s | %9s | %8s | %9s\n",
              "actions", "shards", "min (s)", "median (s)", "speedup",
              "parallel", "serial", "snapshots");
  static const std::pair<const char *, const char *> CommitSides[] = {
      {"conflict-free", "commit_free"},
      {"forced-conflict", "commit_conflict"},
      {"unroll", "commit_unroll"}};
  for (auto [Label, Key] : CommitSides) {
    double CommitBaseline = 0.0;
    for (unsigned NumShards : Shards) {
      const SweepArm &Arm = Arms[ArmIdx++];
      Spread Seconds = spreadOf(Arm.Samples);
      int64_t Parallel = Arm.count("engine.commit.parallel_partitions");
      int64_t Serial = Arm.count("engine.commit.serial_partitions");
      if (CommitBaseline == 0.0)
        CommitBaseline = Seconds.Median;
      std::printf(
          "%-15s | %8u | %12.6f | %12.6f | %8.2fx | %9lld | %8lld | %9lld\n",
          Label, NumShards, Seconds.Min, Seconds.Median,
          CommitBaseline / Seconds.Median, static_cast<long long>(Parallel),
          static_cast<long long>(Serial),
          static_cast<long long>(Arm.count("engine.commit.snapshots")));
      std::string Prefix =
          std::string(Key) + "_shards_" + std::to_string(NumShards);
      Report.metric(Prefix + "_seconds", Seconds.Median);
      Report.metric(Prefix + "_parallel_partitions",
                    static_cast<long long>(Parallel));
      Report.metric(Prefix + "_serial_partitions",
                    static_cast<long long>(Serial));
    }
  }

  // Process-wide registry totals across the whole sweep (one untimed and
  // Repeats timed runs per configuration), alongside the per-run
  // configuration counters above.
  Report.addMetricsSnapshot();
}

/// The hot-category matchers alone, packaged as a transform library the
/// script imports instead of carrying inline.
static std::string libraryText(const std::vector<Category> &Categories) {
  std::string Sequences;
  for (const Category &C : Categories)
    Sequences += R"(
    "transform.named_sequence"() ({
    ^bb0(%op: !transform.any_op):
      %0 = "transform.match.operation_name"(%op) {op_names = [")" +
                 std::string(C.OpName) + R"("]}
        : (!transform.any_op) -> (!transform.any_op)
      "transform.yield"() : () -> ()
    }) {sym_name = "is_)" +
                 C.Tag + R"("} : () -> ()
)";
  return R"("builtin.module"() ({
  "transform.library"() ({)" +
         Sequences + R"(
  }) {sym_name = "bench_lib"} : () -> ()
}) : () -> ()
)";
}

/// The actions + foreach_match dispatch, importing every matcher from
/// @bench_lib instead of defining it locally.
static std::string
importingScript(const std::vector<Category> &Categories) {
  std::string Sequences;
  std::string Matchers, Actions;
  for (const Category &C : Categories) {
    Sequences += R"(
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    "transform.annotate"(%op) {name = ")" +
                 C.Tag + R"("} : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_)" +
                 C.Tag + R"("} : () -> ()
)";
    if (!Matchers.empty()) {
      Matchers += ", ";
      Actions += ", ";
    }
    Matchers += "@is_" + C.Tag;
    Actions += "@mark_" + C.Tag;
  }
  return R"("builtin.module"() ({
  "transform.import"() {from = @bench_lib} : () -> ()
)" + Sequences +
         R"(
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root) {matchers = [)" +
         Matchers + R"(], actions = [)" + Actions + R"(]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
)";
}

/// Library-reuse arm (--library): a rule-library-sized matcher set (the
/// hot categories plus \p NumCold rarely-matching ones) resolved from a
/// preloaded transform library vs the textual-pasting baseline that
/// re-parses every matcher with every script. \p Runs scripted
/// interpretations amortize one library load; the baseline pays the
/// matcher parse every time — exactly the cost the library cache removes.
static void runLibraryBench(int NumFuncs, int NumCold, int Runs) {
  Context Ctx;
  registerAllDialects(Ctx);
  registerTransformDialect(Ctx);
  std::vector<Category> Categories = withColdCategories(NumCold);
  std::string Payload = payloadText(NumFuncs);

  // The baseline script carries its own matcher copies (textual pasting).
  std::string InlineText = foreachMatchScript(Categories);
  std::string LibText = libraryText(Categories);
  std::string ImportText = importingScript(Categories);

  // The library must be a real file: the manager's cache key is canonical
  // path + content hash, and the load path is what is being measured.
  std::string LibPath = "/tmp/tdl_bench_cs2_lib_" +
                        std::to_string(::getpid()) + ".mlir";
  {
    std::ofstream Stream(LibPath, std::ios::trunc);
    Stream << LibText;
  }

  printHeader("Library reuse: load-once vs re-parse-per-run");
  std::printf("%d runs, %d-function payload, %zu matcher categories\n", Runs,
              NumFuncs, Categories.size());

  // Fresh payload modules per run for both arms, parsed outside the timed
  // regions: the payload parse is identical in both and would only dilute
  // the script/library cost being compared.
  auto MakePayloads = [&] {
    std::vector<OwningOpRef> Mods;
    for (int Run = 0; Run < Runs; ++Run)
      Mods.push_back(parseSourceString(Ctx, Payload));
    return Mods;
  };

  // Baseline: every run re-parses the full script, matchers included —
  // what every script carrying its own copy pays before interpretation
  // can even start.
  std::vector<OwningOpRef> ReparseMods = MakePayloads();
  double ReparseSetup = 0.0, ReparseInterp = 0.0;
  for (int Run = 0; Run < Runs; ++Run) {
    OwningOpRef Script;
    ReparseSetup += timeSeconds(
        [&] { Script = parseSourceString(Ctx, InlineText); });
    ReparseInterp += timeSeconds([&] {
      TransformInterpreter Interp(ReparseMods[Run].get(), Script.get());
      if (failed(Interp.run()))
        std::printf("inline script failed\n");
    });
  }

  // Library arm: the matchers are parsed and type-checked once by the
  // manager; every run re-parses only the (small) importing script, links
  // it, and resolves the matchers through the linked scope.
  TransformLibraryManager Manager(Ctx);
  double LoadOnce = timeSeconds([&] {
    if (failed(Manager.loadLibraryFile(LibPath)))
      std::printf("library load failed\n");
  });
  std::vector<OwningOpRef> LibraryMods = MakePayloads();
  double LibrarySetup = 0.0, LibraryInterp = 0.0;
  for (int Run = 0; Run < Runs; ++Run) {
    OwningOpRef Script;
    LibrarySetup += timeSeconds([&] {
      Script = parseSourceString(Ctx, ImportText);
      if (failed(Manager.link(Script.get())))
        std::printf("library link failed\n");
    });
    LibraryInterp += timeSeconds([&] {
      TransformInterpreter Interp(LibraryMods[Run].get(), Script.get());
      if (failed(Interp.run()))
        std::printf("import script failed\n");
    });
    Manager.unlink(Script.get());
  }

  // The interpretation columns must agree (same matchers either way); the
  // setup column is where textual pasting pays per run and the library
  // pays once.
  std::printf("%-28s | %13s | %13s | %s\n", "arm", "setup (s)",
              "interpret (s)", "library parses");
  std::printf("%-28s | %13.6f | %13.6f | %s\n", "re-parse matchers per run",
              ReparseSetup, ReparseInterp, "n/a (inline copies)");
  std::printf("%-28s | %13.6f | %13.6f | %lld (load %.6fs, %lld requests)\n",
              "preloaded library", LoadOnce + LibrarySetup, LibraryInterp,
              static_cast<long long>(Manager.getNumParses()), LoadOnce,
              static_cast<long long>(Manager.getNumLoadRequests()));
  std::printf("script-setup speedup (incl. one-time load): %.2fx\n",
              ReparseSetup / (LoadOnce + LibrarySetup));
  std::printf("end-to-end speedup: %.2fx\n",
              (ReparseSetup + ReparseInterp) /
                  (LoadOnce + LibrarySetup + LibraryInterp));
  std::remove(LibPath.c_str());
}

/// One measurement row: \p NumFuncs payload functions, the hot categories
/// plus \p NumCold rarely-matching ones. \p Repeats controls the min-of-N
/// timing (CI smoke runs use 1 to bound wall-clock).
static void runRow(int NumFuncs, int NumCold, int Repeats = 5) {
  Context Ctx;
  registerAllDialects(Ctx);
  registerTransformDialect(Ctx);
  // The cold op kinds occur once each, in a dedicated footer function.
  Ctx.setAllowUnregisteredOps(true);
  std::vector<Category> Categories = withColdCategories(NumCold);
  std::string Payload = payloadText(NumFuncs);
  if (NumCold > 0) {
    std::string Footer;
    for (int I = 0; I < NumCold; ++I)
      Footer += "  \"mylib.rule" + std::to_string(I) +
                "\"() : () -> ()\n";
    size_t End = Payload.rfind("})");
    Payload.insert(End, Footer);
  }

  OwningOpRef SeqScript =
      parseSourceString(Ctx, sequentialScript(Categories));
  OwningOpRef ForeachScript =
      parseSourceString(Ctx, foreachMatchScript(Categories));
  if (!SeqScript || !ForeachScript) {
    std::printf("script parse error\n");
    return;
  }

  double Sequential = minSeconds(Repeats, [&] {
    OwningOpRef Mod = parseSourceString(Ctx, Payload);
    TransformInterpreter Interp(Mod.get(), SeqScript.get());
    if (failed(Interp.run()))
      std::printf("sequential script failed\n");
  });
  double Foreach = minSeconds(Repeats, [&] {
    OwningOpRef Mod = parseSourceString(Ctx, Payload);
    TransformInterpreter Interp(Mod.get(), ForeachScript.get());
    if (failed(Interp.run()))
      std::printf("foreach_match script failed\n");
  });

  // Counter run (not timed): how much transform-IR work each style does.
  OwningOpRef Mod = parseSourceString(Ctx, Payload);
  telemetry::MetricsWindow Window;
  TransformInterpreter Interp(Mod.get(), ForeachScript.get());
  (void)Interp.run();

  std::printf("%8d %6zu | %14.6f %14.6f | %8.2fx | %12lld %12lld\n",
              NumFuncs, Categories.size(), Sequential, Foreach,
              Sequential / Foreach,
              static_cast<long long>(Window.counter("interp.executed_ops")),
              static_cast<long long>(
                  Window.counter("interp.matcher_invocations")));
}

int main(int argc, char **argv) {
  // --smoke: one tiny row of each shape. CI uses this to keep the bench
  // targets compiling and running without paying the full sweep.
  // --shard-sweep: the sharded-walk variant alone (CI also runs this; its
  // timings land in the bench artifact).
  // --library: matchers resolved from a preloaded transform library vs
  // re-parsed with every script (CI runs this too).
  bool Smoke = false;
  bool ShardSweep = false;
  bool Library = false;
  for (int I = 1; I < argc; ++I) {
    Smoke |= std::string_view(argv[I]) == "--smoke";
    ShardSweep |= std::string_view(argv[I]) == "--shard-sweep";
    Library |= std::string_view(argv[I]) == "--library";
  }

  if (ShardSweep) {
    runShardSweep(/*NumFuncs=*/200, /*Shards=*/{1, 2, 4}, /*Repeats=*/7);
    return 0;
  }
  if (Library) {
    runLibraryBench(/*NumFuncs=*/12, /*NumCold=*/35, /*Runs=*/50);
    return 0;
  }

  printHeader("Case study: one-walk foreach_match dispatch vs. K sequential "
              "match.op sweeps");
  std::printf("%8s %6s | %14s %14s | %9s | %12s %12s\n", "funcs", "K",
              "sequential (s)", "foreach (s)", "speedup", "exec'd ops",
              "matcher runs");

  if (Smoke) {
    // The smoke rows double as the observability check: collect spans
    // across both rows and print the --profile-style attribution table
    // (CI greps the transform-op rows and the attribution percentage).
    telemetry::SpanCollector::instance().start();
    runRow(/*NumFuncs=*/2, /*NumCold=*/0, /*Repeats=*/1);
    runRow(/*NumFuncs=*/2, /*NumCold=*/5, /*Repeats=*/1);
    std::vector<telemetry::Span> Spans =
        telemetry::SpanCollector::instance().finish();
    telemetry::renderProfile(Spans, outs());
    return 0;
  }

  // Dense: every category matches many ops; the per-match action execution
  // dominates foreach_match.
  for (int NumFuncs : {8, 32, 128})
    runRow(NumFuncs, /*NumCold=*/0);

  // Rule library: most categories match almost nothing. Sequential still
  // pays one full payload sweep per category; the single walk pays only a
  // cheap name prefilter.
  for (int NumCold : {15, 45, 95})
    runRow(/*NumFuncs=*/32, NumCold);
  return 0;
}
