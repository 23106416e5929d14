//===- SessionTest.cpp - Driver facade tests ------------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Session is the library form of tdl-opt; these tests drive the same
/// argv-shaped RunOptions through string streams instead of a process, and
/// cover the round-trip serialization helpers the tuning database's
/// on-disk format is built from.
///
//===----------------------------------------------------------------------===//

#include "driver/Session.h"

#include "support/Stream.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace tdl;

namespace {

//===----------------------------------------------------------------------===//
// Stream serialization helpers (the tuning database's building blocks)
//===----------------------------------------------------------------------===//

TEST(StreamSerializationTest, HexStringRoundTrips) {
  EXPECT_EQ(hexString(0), "0000000000000000");
  EXPECT_EQ(hexString(0xdeadbeefull), "00000000deadbeef");
  for (uint64_t Value : {uint64_t(0), uint64_t(1), uint64_t(0xffffffffffffffffull),
                         uint64_t(0x123456789abcdef0ull)}) {
    uint64_t Out = 42;
    ASSERT_TRUE(parseHexString(hexString(Value), Out));
    EXPECT_EQ(Out, Value);
  }
}

TEST(StreamSerializationTest, ParseHexStringRejectsGarbage) {
  uint64_t Out = 42;
  EXPECT_FALSE(parseHexString("", Out));
  EXPECT_FALSE(parseHexString("0x12", Out));
  EXPECT_FALSE(parseHexString("12g4", Out));
  EXPECT_FALSE(parseHexString("00000000000000001", Out)); // 17 digits
  EXPECT_EQ(Out, 42u) << "failed parses must not clobber the out-param";
  ASSERT_TRUE(parseHexString("FF", Out)); // uppercase accepted
  EXPECT_EQ(Out, 255u);
}

TEST(StreamSerializationTest, DoubleStringRoundTrips) {
  for (double Value : {0.0, 0.1, 1.0 / 3.0, 1e-300, 1e300, 0.03125,
                       123456.789012345678}) {
    double Out = -1;
    ASSERT_TRUE(parseDoubleString(doubleToString(Value), Out));
    EXPECT_EQ(Out, Value) << "round trip must be exact, not approximate";
  }
  double Out = -1;
  EXPECT_FALSE(parseDoubleString("", Out));
  EXPECT_FALSE(parseDoubleString("1.5x", Out));
  EXPECT_EQ(Out, -1.0);
}

TEST(StreamSerializationTest, WriteFileAtomicReplacesContent) {
  char Template[] = "/tmp/tdl_session_test_XXXXXX";
  std::string Dir = mkdtemp(Template);
  std::string Path = Dir + "/file.txt";
  EXPECT_TRUE(writeFileAtomic(Path, "first\n"));
  EXPECT_TRUE(writeFileAtomic(Path, "second\n"));
  std::ifstream IS(Path);
  std::ostringstream SS;
  SS << IS.rdbuf();
  EXPECT_EQ(SS.str(), "second\n");
  ::unlink(Path.c_str());
  ::rmdir(Dir.c_str());
}

//===----------------------------------------------------------------------===//
// Session fixtures
//===----------------------------------------------------------------------===//

const char *const PayloadText = R"("builtin.module"() ({
  "func.func"() ({
  ^bb0(%m: memref<8x8xf64>):
    %lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %ub = "arith.constant"() {value = 8 : index} : () -> (index)
    %step = "arith.constant"() {value = 1 : index} : () -> (index)
    "scf.for"(%lb, %ub, %step) ({
    ^bb1(%i: index):
      "scf.for"(%lb, %ub, %step) ({
      ^bb2(%j: index):
        %v = "memref.load"(%m, %i, %j) : (memref<8x8xf64>, index, index) -> (f64)
        "memref.store"(%v, %m, %i, %j) : (f64, memref<8x8xf64>, index, index) -> ()
        "scf.yield"() : () -> ()
      }) : (index, index, index) -> ()
      "scf.yield"() : () -> ()
    }) : (index, index, index) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "square_all", function_type = (memref<8x8xf64>) -> ()} : () -> ()
}) : () -> ()
)";

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

/// Scratch workspace: payload, strategy dir, tuning-db path.
struct SessionWorkspace {
  std::string Path;
  std::vector<std::string> Written;

  SessionWorkspace() {
    char Template[] = "/tmp/tdl_session_ws_XXXXXX";
    Path = mkdtemp(Template);
    ::mkdir((Path + "/strategies").c_str(), 0755);
    write("payload.mlir", PayloadText);
    write("strategies/tuned.mlir", TunedStrategyText);
  }
  ~SessionWorkspace() {
    for (const std::string &File : Written)
      ::unlink(File.c_str());
    ::unlink((Path + "/tuned.tdb").c_str());
    ::rmdir((Path + "/strategies").c_str());
    ::rmdir(Path.c_str());
  }

  void write(const std::string &Name, const std::string &Text) {
    std::string Full = Path + "/" + Name;
    std::ofstream OS(Full);
    OS << Text;
    Written.push_back(Full);
  }

  bool exists(const std::string &Name) const {
    struct stat SB;
    return ::stat((Path + "/" + Name).c_str(), &SB) == 0;
  }

  RunOptions dispatchOptions() const {
    RunOptions Options;
    Options.PayloadPath = Path + "/payload.mlir";
    Options.StrategyDirs = {Path + "/strategies"};
    Options.Target = "generic";
    Options.TuneBudget = 4;
    Options.TuningDBPath = Path + "/tuned.tdb";
    return Options;
  }
};

/// Runs all four Session steps, returning the captured regular output.
LogicalResult runSession(Session &S) {
  if (failed(S.loadLibraries()) || failed(S.scanStrategies()) ||
      failed(S.openTuningDB()))
    return failure();
  return S.run();
}

std::string printPayload(Session &S) {
  std::string Text;
  raw_string_ostream OS(Text);
  S.getPayload()->print(OS);
  return Text;
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

TEST(SessionTest, ColdThenWarmDispatchThroughTheTuningDB) {
  SessionWorkspace WS;

  // Cold: no store on disk yet — the dispatch tunes, and the session
  // persists the winner.
  std::string ColdOut, ColdErr;
  raw_string_ostream ColdOS(ColdOut), ColdES(ColdErr);
  Session Cold(WS.dispatchOptions(), ColdOS, ColdES);
  ASSERT_TRUE(succeeded(runSession(Cold)));
  EXPECT_NE(ColdOut.find("strategy: selected '@tuned_tiling'"),
            std::string::npos)
      << ColdOut;
  EXPECT_EQ(ColdOut.find("tuning-db hit"), std::string::npos);
  EXPECT_NE(ColdOut.find("tuning evaluations"), std::string::npos);
  EXPECT_TRUE(WS.exists("tuned.tdb"));
  EXPECT_EQ(Cold.getStrategyManager().getNumTuningDBMisses(), 1);

  // Warm: a second, fully independent session against the same store must
  // skip tuning entirely and transform the payload identically.
  std::string WarmOut, WarmErr;
  raw_string_ostream WarmOS(WarmOut), WarmES(WarmErr);
  Session Warm(WS.dispatchOptions(), WarmOS, WarmES);
  ASSERT_TRUE(succeeded(runSession(Warm)));
  EXPECT_NE(WarmOut.find("strategy: tuning-db hit (0 tuning evaluations)"),
            std::string::npos)
      << WarmOut;
  EXPECT_EQ(WarmOut.find(" after "), std::string::npos)
      << "a warm hit spends no evaluations";
  EXPECT_EQ(Warm.getStrategyManager().getNumTuningDBHits(), 1);
  EXPECT_EQ(printPayload(Warm), printPayload(Cold))
      << "warm start must reproduce the cold schedule byte for byte";
  EXPECT_TRUE(ColdErr.empty()) << ColdErr;
  EXPECT_TRUE(WarmErr.empty()) << WarmErr;
}

TEST(SessionTest, ReadOnlySessionNeverCreatesTheStore) {
  SessionWorkspace WS;
  RunOptions Options = WS.dispatchOptions();
  Options.TuningDBReadOnly = true;
  Options.Quiet = true;
  std::string Out, Err;
  raw_string_ostream OS(Out), ES(Err);
  Session S(std::move(Options), OS, ES);
  ASSERT_TRUE(succeeded(runSession(S)));
  EXPECT_FALSE(WS.exists("tuned.tdb"));
  EXPECT_TRUE(S.getTuningDB().isReadOnly());
}

TEST(SessionTest, OpenTuningDBReportsSkippedRecordsAsWarnings) {
  SessionWorkspace WS;
  WS.write("tuned.tdb", "tdl-tuning-db 2\nnot a valid record line at all\n");
  std::string Out, Err;
  raw_string_ostream OS(Out), ES(Err);
  RunOptions Options = WS.dispatchOptions();
  Options.Quiet = true;
  Session S(std::move(Options), OS, ES);
  ASSERT_TRUE(succeeded(runSession(S)));
  EXPECT_NE(Err.find("warning: tuning-db: skipping record"),
            std::string::npos)
      << Err;
}

TEST(SessionTest, DumpStrategiesIncludesTuningDBStatus) {
  SessionWorkspace WS;
  // Prime the store, then ask a dump-enabled session for the status view.
  {
    std::string Out, Err;
    raw_string_ostream OS(Out), ES(Err);
    Session Prime(WS.dispatchOptions(), OS, ES);
    ASSERT_TRUE(succeeded(runSession(Prime)));
  }
  RunOptions Options = WS.dispatchOptions();
  Options.DumpStrategies = true;
  Options.Quiet = true;
  std::string Out, Err;
  raw_string_ostream OS(Out), ES(Err);
  Session S(std::move(Options), OS, ES);
  ASSERT_TRUE(succeeded(runSession(S)));
  EXPECT_NE(Out.find("tuning-db: hit"), std::string::npos) << Out;
}

TEST(SessionTest, MissingPayloadFails) {
  SessionWorkspace WS;
  RunOptions Options = WS.dispatchOptions();
  Options.PayloadPath = WS.Path + "/no_such_payload.mlir";
  std::string Out, Err;
  raw_string_ostream OS(Out), ES(Err);
  Session S(std::move(Options), OS, ES);
  EXPECT_TRUE(failed(runSession(S)));
  EXPECT_NE(Err.find("error: cannot read"), std::string::npos) << Err;
  // The report is assembled on failures too.
  EXPECT_EQ(S.getLastRunReport().ExitStatus, "failure");
  EXPECT_GE(S.getLastRunReport().Diagnostics.Errors, 0);
}

//===----------------------------------------------------------------------===//
// Run reports and the per-run metrics window
//===----------------------------------------------------------------------===//

TEST(SessionTest, SecondRunOnOneSessionReportsOnlyItsOwnMetrics) {
  // Regression: the metrics baseline used to be captured at construction,
  // so a second run() reported the first run's metrics too.
  SessionWorkspace WS;
  RunOptions Options = WS.dispatchOptions();
  Options.Quiet = true;
  std::string Out, Err;
  raw_string_ostream OS(Out), ES(Err);
  Session S(std::move(Options), OS, ES);
  ASSERT_TRUE(succeeded(runSession(S)));
  ASSERT_TRUE(succeeded(S.run())); // steps 1-3 are already done
  telemetry::MetricsSnapshot Window = S.snapshotMetrics();
  EXPECT_EQ(Window.Counters.at("session.runs"), 1)
      << "the window must cover the last run only, not the session lifetime";
  EXPECT_EQ(Window.Durations.at("session.run").Count, 1);
  EXPECT_EQ(S.getLastRunReport().Metrics.Counters.at("session.runs"), 1);
}

TEST(SessionTest, RunReportRecordsPhasesStrategyAndFingerprint) {
  SessionWorkspace WS;
  RunOptions Options = WS.dispatchOptions();
  Options.Quiet = true;
  std::string Out, Err;
  raw_string_ostream OS(Out), ES(Err);
  Session S(std::move(Options), OS, ES);
  ASSERT_TRUE(succeeded(runSession(S)));
  const RunReport &Report = S.getLastRunReport();

  EXPECT_EQ(Report.ExitStatus, "success");
  EXPECT_EQ(Report.SchemaVersion, 1);
  EXPECT_GT(Report.StartUnixMs, 0);
  EXPECT_EQ(Report.PayloadFingerprint.size(), 16u);

  std::vector<std::string> Names;
  for (const RunReport::Phase &Phase : Report.Phases)
    Names.push_back(Phase.Name);
  EXPECT_NE(std::find(Names.begin(), Names.end(), "setup:scan-strategies"),
            Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "load"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "dispatch"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "print"), Names.end());

  // Cold dispatch against an empty store: a miss that tunes.
  EXPECT_TRUE(Report.Strategy.Dispatched);
  EXPECT_EQ(Report.Strategy.RequestedTarget, "generic");
  EXPECT_EQ(Report.Strategy.MatchedTarget, "generic");
  EXPECT_EQ(Report.Strategy.StrategyLibrary, "tuned_tiling");
  EXPECT_EQ(Report.Strategy.TuningDB, "miss");
  EXPECT_GT(Report.Strategy.TuneEvaluations, 0);
  ASSERT_EQ(Report.Strategy.Config.size(), 1u);
  EXPECT_EQ(Report.Strategy.Config[0].first, "tile_i");
  ASSERT_FALSE(Report.Strategy.FallbackChain.empty());
  EXPECT_EQ(Report.Strategy.FallbackChain.back(), "generic");

  // Warm session: the decision record flips to a hit.
  std::string WarmOut, WarmErr;
  raw_string_ostream WarmOS(WarmOut), WarmES(WarmErr);
  RunOptions WarmOptions = WS.dispatchOptions();
  WarmOptions.Quiet = true;
  Session Warm(std::move(WarmOptions), WarmOS, WarmES);
  ASSERT_TRUE(succeeded(runSession(Warm)));
  EXPECT_EQ(Warm.getLastRunReport().Strategy.TuningDB, "hit");
  EXPECT_EQ(Warm.getLastRunReport().Strategy.TuneEvaluations, 0);
}

TEST(SessionTest, RunReportJsonSerializationIsStable) {
  // A handcrafted report pins the serialized schema: if this test needs
  // updating, README's schema section (and SchemaVersion on breaking
  // changes) must move in lockstep.
  RunReport Report;
  Report.StartUnixMs = 1700000000000;
  Report.PayloadPath = "payload.mlir";
  Report.PayloadFingerprint = "00000000deadbeef";
  Report.Options.emplace_back("target", "\"avx2\"");
  Report.Options.emplace_back("tune_budget", "4");
  Report.Phases.push_back({"load", 1500000});
  Report.Strategy.Dispatched = true;
  Report.Strategy.RequestedTarget = "avx2";
  Report.Strategy.MatchedTarget = "generic";
  Report.Strategy.StrategyLibrary = "tuned_tiling";
  Report.Strategy.FallbackChain = {"avx2", "generic"};
  Report.Strategy.TuningDB = "hit";
  Report.Strategy.Config.emplace_back("tile_i", 8);
  Report.Diagnostics.Warnings = 2;
  Report.Metrics.Counters["interp.executed_ops"] = 12;
  std::string Json;
  raw_string_ostream OS(Json);
  writeRunReportJson(Report, OS);
  EXPECT_EQ(Json,
            "{\n"
            "  \"schema_version\": 1,\n"
            "  \"tool\": \"tdl-opt\",\n"
            "  \"tool_version\": \"0.10.0\",\n"
            "  \"start_unix_ms\": 1700000000000,\n"
            "  \"payload\": {\n"
            "    \"path\": \"payload.mlir\",\n"
            "    \"fingerprint\": \"00000000deadbeef\"\n"
            "  },\n"
            "  \"options\": {\n"
            "    \"target\": \"avx2\",\n"
            "    \"tune_budget\": 4\n"
            "  },\n"
            "  \"phases\": [\n"
            "    {\"name\": \"load\", \"wall_ms\": 1.500, "
            "\"wall_nanos\": 1500000}\n"
            "  ],\n"
            "  \"strategy\": {\n"
            "    \"dispatched\": true,\n"
            "    \"requested_target\": \"avx2\",\n"
            "    \"matched_target\": \"generic\",\n"
            "    \"strategy_library\": \"tuned_tiling\",\n"
            "    \"fallback_chain\": [\"avx2\", \"generic\"],\n"
            "    \"selection_cache_hit\": false,\n"
            "    \"tuning_db\": \"hit\",\n"
            "    \"tune_evaluations\": 0,\n"
            "    \"config\": {\"tile_i\": 8}\n"
            "  },\n"
            "  \"diagnostics\": {\"errors\": 0, \"warnings\": 2, "
            "\"remarks\": 0, \"notes\": 0},\n"
            "  \"metrics\": {\n"
            "    \"counters\": {\n"
            "      \"interp.executed_ops\": 12\n"
            "    },\n"
            "    \"durations\": {}\n"
            "  },\n"
            "  \"exit\": \"success\"\n"
            "}\n");
}

} // namespace
