//===- TelemetryTest.cpp - Metrics registry and span tracing tests --------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the unified observability layer: the process-wide metrics
/// registry (counters, duration stats, snapshot/diff/reset, text and JSON
/// rendering), the span collector (per-thread buffers, collector-assigned
/// thread ids, the inactive no-op path), the Chrome trace_event writer and
/// the --profile attribution table (both against handcrafted span lists
/// with exact expected output), and the end-to-end regression that --trace
/// output stays byte-identical between the serial and the sharded
/// match/commit paths.
///
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "support/Stream.h"

#include <gtest/gtest.h>
#include <set>
#include <thread>

using namespace tdl;
using namespace tdl::telemetry;

namespace {

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, CounterAccumulatesAndHandleIsStable) {
  Counter &C = counter("test.registry.basic_counter");
  int64_t Before = C.get();
  C.add();
  C.add(41);
  EXPECT_EQ(C.get(), Before + 42);
  // Same name resolves to the same handle.
  EXPECT_EQ(&C, &counter("test.registry.basic_counter"));
  EXPECT_EQ(&C,
            &MetricsRegistry::instance().getCounter("test.registry.basic_counter"));
}

TEST(MetricsRegistryTest, DurationStatTracksCountTotalMinMax) {
  DurationStat &D = duration("test.registry.basic_duration");
  int64_t CountBefore = D.getCount();
  D.recordNanos(2000000);
  D.recordNanos(500000);
  D.recordNanos(7000000);
  EXPECT_EQ(D.getCount(), CountBefore + 3);
  MetricsSnapshot Snap = MetricsRegistry::instance().snapshot();
  const MetricsSnapshot::DurationValue &V =
      Snap.Durations.at("test.registry.basic_duration");
  EXPECT_GE(V.TotalNanos, 9500000);
  EXPECT_LE(V.MinNanos, 500000);
  EXPECT_GE(V.MaxNanos, 7000000);
}

TEST(MetricsRegistryTest, SnapshotDiffIsolatesAWindow) {
  Counter &C = counter("test.registry.diff_counter");
  DurationStat &D = duration("test.registry.diff_duration");
  MetricsSnapshot Before = MetricsRegistry::instance().snapshot();
  C.add(5);
  D.recordNanos(1000000);
  MetricsSnapshot After = MetricsRegistry::instance().snapshot();
  MetricsSnapshot Diff = diffSnapshots(After, Before);
  EXPECT_EQ(Diff.Counters.at("test.registry.diff_counter"), 5);
  EXPECT_EQ(Diff.Durations.at("test.registry.diff_duration").Count, 1);
  EXPECT_GE(Diff.Durations.at("test.registry.diff_duration").TotalNanos,
            1000000);
}

TEST(MetricsRegistryTest, DiffKeepsEntriesRegisteredMidWindow) {
  MetricsSnapshot Before;
  Before.Counters["test.diff.shrunk"] = 10;
  MetricsSnapshot After;
  After.Counters["test.diff.shrunk"] = 4;   // "went backwards" (a reset)
  After.Counters["test.diff.fresh"] = 7;    // registered mid-window
  MetricsSnapshot Diff = diffSnapshots(After, Before);
  EXPECT_EQ(Diff.Counters.at("test.diff.shrunk"), 0); // clamped, not -6
  EXPECT_EQ(Diff.Counters.at("test.diff.fresh"), 7);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandles) {
  Counter &C = counter("test.registry.reset_counter");
  C.add(3);
  MetricsRegistry::instance().reset();
  EXPECT_EQ(C.get(), 0);
  C.add(2); // the pre-reset handle still works
  EXPECT_EQ(counter("test.registry.reset_counter").get(), 2);
}

TEST(MetricsRegistryTest, RenderTextIsStable) {
  MetricsSnapshot Snap;
  Snap.Counters["engine.commit.parallel_partitions"] = 8;
  MetricsSnapshot::DurationValue V;
  V.Count = 2;
  V.TotalNanos = 3500000; // 3.5 ms
  V.MinNanos = 1000000;
  V.MaxNanos = 2500000;
  V.Buckets[histogramBucketIndex(1000000)] = 1; // bucket 20, upper 1.048 ms
  V.Buckets[histogramBucketIndex(2500000)] = 1; // bucket 22, clamped to max
  Snap.Durations["engine.match"] = V;
  std::string Text;
  raw_string_ostream OS(Text);
  renderText(Snap, OS);
  EXPECT_EQ(Text, "counters:\n"
                  "  engine.commit.parallel_partitions: 8\n"
                  "durations:\n"
                  "  engine.match: count 2, total 3.500 ms, min 1.000 ms, "
                  "max 2.500 ms, p50 1.048 ms, p90 2.500 ms, p99 2.500 ms\n");
}

TEST(MetricsRegistryTest, RenderJsonIsStable) {
  MetricsSnapshot Snap;
  Snap.Counters["interp.executed_ops"] = 12;
  MetricsSnapshot::DurationValue V;
  V.Count = 1;
  V.TotalNanos = 250000; // 0.25 ms
  V.MinNanos = 250000;
  V.MaxNanos = 250000;
  V.Buckets[histogramBucketIndex(250000)] = 1;
  Snap.Durations["interp.run"] = V;
  std::string Text;
  raw_string_ostream OS(Text);
  renderJson(Snap, OS);
  EXPECT_EQ(Text,
            "{\n"
            "  \"interp.executed_ops\": 12,\n"
            "  \"interp.run\": {\"count\": 1, \"total_ms\": 0.250, "
            "\"total_nanos\": 250000, \"min_ms\": 0.250, "
            "\"min_nanos\": 250000, \"max_ms\": 0.250, "
            "\"max_nanos\": 250000, \"p50_ms\": 0.250, "
            "\"p50_nanos\": 250000, \"p90_ms\": 0.250, "
            "\"p90_nanos\": 250000, \"p99_ms\": 0.250, "
            "\"p99_nanos\": 250000}\n"
            "}\n");
}

//===----------------------------------------------------------------------===//
// Latency histograms
//===----------------------------------------------------------------------===//

TEST(LatencyHistogramTest, BucketIndexAndUpperBoundsAreConsistent) {
  EXPECT_EQ(histogramBucketIndex(0), 0);
  EXPECT_EQ(histogramBucketIndex(-5), 0);
  EXPECT_EQ(histogramBucketIndex(1), 1);
  EXPECT_EQ(histogramBucketIndex(1023), 10);
  EXPECT_EQ(histogramBucketIndex(1024), 11);
  EXPECT_EQ(histogramBucketIndex(INT64_MAX), 63);
  EXPECT_EQ(histogramBucketUpperNanos(0), 0);
  EXPECT_EQ(histogramBucketUpperNanos(10), 1023);
  EXPECT_EQ(histogramBucketUpperNanos(63), INT64_MAX);
  // Every sample lands in the bucket whose range covers it.
  for (int64_t Nanos : {int64_t(1), int64_t(999), int64_t(1000000),
                        int64_t(123456789), INT64_MAX}) {
    int B = histogramBucketIndex(Nanos);
    EXPECT_LE(Nanos, histogramBucketUpperNanos(B));
    if (B > 1) {
      EXPECT_GT(Nanos, histogramBucketUpperNanos(B - 1));
    }
  }
}

TEST(LatencyHistogramTest, PercentilesSeparateFastAndSlowSamples) {
  DurationStat &D = duration("test.histogram.bimodal");
  for (int I = 0; I < 95; ++I)
    D.recordNanos(1000000); // 1 ms
  for (int I = 0; I < 5; ++I)
    D.recordNanos(1000000000); // 1 s
  MetricsSnapshot::DurationValue V =
      MetricsRegistry::instance().snapshot().Durations.at(
          "test.histogram.bimodal");
  // p50/p90 sit in the 1 ms bucket (upper bound 2^20-1 ns), p99 reaches the
  // slow mode and clamps to the observed max.
  EXPECT_EQ(percentileNanos(V, 50), 1048575);
  EXPECT_EQ(percentileNanos(V, 90), 1048575);
  EXPECT_EQ(percentileNanos(V, 99), 1000000000);
}

TEST(LatencyHistogramTest, PercentileOfEmptyBucketsIsZero) {
  MetricsSnapshot::DurationValue V;
  V.Count = 3; // a hand-built snapshot without bucket data
  V.TotalNanos = 3000;
  EXPECT_EQ(percentileNanos(V, 50), 0);
  EXPECT_EQ(percentileNanos(V, 99), 0);
}

TEST(LatencyHistogramTest, SingleSampleIsExactViaClamping) {
  DurationStat &D = duration("test.histogram.single");
  D.recordNanos(1500);
  MetricsSnapshot::DurationValue V =
      MetricsRegistry::instance().snapshot().Durations.at(
          "test.histogram.single");
  EXPECT_EQ(percentileNanos(V, 50), 1500);
  EXPECT_EQ(percentileNanos(V, 99), 1500);
}

TEST(LatencyHistogramTest, DiffSubtractsBuckets) {
  DurationStat &D = duration("test.histogram.diff");
  D.recordNanos(1000); // bucket 10
  D.recordNanos(1000);
  MetricsSnapshot Before = MetricsRegistry::instance().snapshot();
  D.recordNanos(1000000); // bucket 20
  D.recordNanos(1000000);
  D.recordNanos(1000000);
  MetricsSnapshot After = MetricsRegistry::instance().snapshot();
  MetricsSnapshot Diff = diffSnapshots(After, Before);
  const MetricsSnapshot::DurationValue &V =
      Diff.Durations.at("test.histogram.diff");
  EXPECT_EQ(V.Count, 3);
  EXPECT_EQ(V.Buckets[histogramBucketIndex(1000)], 0);
  EXPECT_EQ(V.Buckets[histogramBucketIndex(1000000)], 3);
  // Window percentiles come from the diffed buckets: every in-window
  // sample was 1 ms, and the bucket upper bound (2^20-1 ns) clamps to the
  // observed process-lifetime max, making the estimate exact here.
  EXPECT_EQ(percentileNanos(V, 50), 1000000);
}

TEST(LatencyHistogramTest, ResetBetweenSnapshotsClampsAtZero) {
  Counter &C = counter("test.histogram.reset_counter");
  DurationStat &D = duration("test.histogram.reset_duration");
  C.add(4);
  D.recordNanos(2000);
  MetricsSnapshot Before = MetricsRegistry::instance().snapshot();
  MetricsRegistry::instance().reset();
  MetricsSnapshot After = MetricsRegistry::instance().snapshot();
  MetricsSnapshot Diff = diffSnapshots(After, Before);
  EXPECT_EQ(Diff.Counters.at("test.histogram.reset_counter"), 0);
  const MetricsSnapshot::DurationValue &V =
      Diff.Durations.at("test.histogram.reset_duration");
  EXPECT_EQ(V.Count, 0);
  int64_t BucketSum = 0;
  for (int64_t B : V.Buckets)
    BucketSum += B;
  EXPECT_EQ(BucketSum, 0); // clamped, not negative
}

TEST(LatencyHistogramTest, DiffKeepsDurationRegisteredMidWindow) {
  MetricsSnapshot Before; // the duration does not exist yet
  MetricsSnapshot After;
  MetricsSnapshot::DurationValue V;
  V.Count = 2;
  V.TotalNanos = 2000;
  V.MinNanos = 1000;
  V.MaxNanos = 1000;
  V.Buckets[histogramBucketIndex(1000)] = 2;
  After.Durations["test.histogram.fresh"] = V;
  MetricsSnapshot Diff = diffSnapshots(After, Before);
  EXPECT_EQ(Diff.Durations.at("test.histogram.fresh").Count, 2);
  EXPECT_EQ(Diff.Durations.at("test.histogram.fresh")
                .Buckets[histogramBucketIndex(1000)],
            2);
}

TEST(LatencyHistogramTest, RenderLatencySummarySkipsZeroCountDurations) {
  MetricsSnapshot Snap;
  MetricsSnapshot::DurationValue Hot;
  Hot.Count = 2;
  Hot.TotalNanos = 3500000;
  Hot.MinNanos = 1000000;
  Hot.MaxNanos = 2500000;
  Hot.Buckets[histogramBucketIndex(1000000)] = 1;
  Hot.Buckets[histogramBucketIndex(2500000)] = 1;
  Snap.Durations["engine.match"] = Hot;
  Snap.Durations["engine.commit"] = MetricsSnapshot::DurationValue();
  std::string Text;
  raw_string_ostream OS(Text);
  renderLatencySummary(Snap, OS);
  EXPECT_EQ(Text,
            "latency percentiles:\n"
            "  engine.match: count 2, p50 1.048 ms, p90 2.500 ms, "
            "p99 2.500 ms\n");
}

//===----------------------------------------------------------------------===//
// SpanCollector
//===----------------------------------------------------------------------===//

TEST(SpanCollectorTest, InactiveScopedSpanIsANoop) {
  ASSERT_FALSE(SpanCollector::instance().isActive());
  ScopedSpan S("never:recorded", "test");
  EXPECT_FALSE(S.isActive());
  S.arg("ignored", int64_t(1));
}

TEST(SpanCollectorTest, MergesPerThreadBuffersWithDistinctThreadIds) {
  SpanCollector &C = SpanCollector::instance();
  C.start();
  {
    // The driver thread registers first and gets tid 1.
    ScopedSpan Driver("driver:span", "test");
  }
  constexpr int NumWorkers = 3;
  std::vector<std::thread> Workers;
  for (int W = 0; W < NumWorkers; ++W)
    Workers.emplace_back([W] {
      ScopedSpan S("worker:span", "test");
      S.arg("worker", static_cast<int64_t>(W));
    });
  for (std::thread &T : Workers)
    T.join();
  std::vector<Span> Spans = C.finish();
  ASSERT_EQ(Spans.size(), 1u + NumWorkers);

  std::set<uint32_t> Tids;
  int DriverSpans = 0;
  for (const Span &S : Spans) {
    Tids.insert(S.ThreadId);
    if (S.Name == "driver:span") {
      ++DriverSpans;
      EXPECT_EQ(S.ThreadId, 1u);
    }
  }
  EXPECT_EQ(DriverSpans, 1);
  // Every worker registered its own buffer: 1 (driver) + 3 worker tids.
  EXPECT_EQ(Tids.size(), 1u + NumWorkers);
  EXPECT_GE(Tids.size(), 2u); // the acceptance bar: spans from >= 2 threads

  // Disarmed again: appends drop, a second finish() is empty.
  EXPECT_FALSE(C.isActive());
  C.append(Span{});
  C.start();
  EXPECT_TRUE(C.finish().empty());
}

TEST(SpanCollectorTest, FinishSortsByStartTime) {
  SpanCollector &C = SpanCollector::instance();
  C.start();
  Span Late;
  Late.Name = "late";
  Late.StartNanos = 2000;
  C.append(Late);
  Span Early;
  Early.Name = "early";
  Early.StartNanos = 1000;
  C.append(Early);
  std::vector<Span> Spans = C.finish();
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(Spans[0].Name, "early");
  EXPECT_EQ(Spans[1].Name, "late");
}

//===----------------------------------------------------------------------===//
// Chrome trace writer
//===----------------------------------------------------------------------===//

TEST(ChromeTraceTest, EmptyTraceIsWellFormed) {
  std::string Text;
  raw_string_ostream OS(Text);
  writeChromeTrace({}, OS);
  EXPECT_EQ(Text, "{ \"displayTimeUnit\": \"ms\", \"traceEvents\": [\n]}\n");
}

TEST(ChromeTraceTest, EmitsStableFieldsEscapedStringsAndBareIntegers) {
  Span A;
  A.Name = "session:run";
  A.Category = "session";
  A.StartNanos = 0;
  A.DurNanos = 5000000; // 5000 us
  A.ThreadId = 1;
  A.Args.emplace_back("path", "a\"b\\c");
  A.Args.emplace_back("n", "42");
  Span B;
  B.Name = "engine:match";
  B.Category = "engine";
  B.StartNanos = 1000; // 1 us
  B.DurNanos = 2500;   // 2.5 us
  B.ThreadId = 2;
  std::string Text;
  raw_string_ostream OS(Text);
  writeChromeTrace({A, B}, OS);
  EXPECT_EQ(
      Text,
      "{ \"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"name\": \"session:run\", \"cat\": \"session\", \"ph\": \"X\", "
      "\"pid\": 1, \"tid\": 1, \"ts\": 0.000, \"dur\": 5000.000, "
      "\"args\": {\"path\": \"a\\\"b\\\\c\", \"n\": 42}},\n"
      "{\"name\": \"engine:match\", \"cat\": \"engine\", \"ph\": \"X\", "
      "\"pid\": 1, \"tid\": 2, \"ts\": 1.000, \"dur\": 2.500}\n"
      "]}\n");
}

//===----------------------------------------------------------------------===//
// Profile renderer
//===----------------------------------------------------------------------===//

TEST(ProfileTest, AttributesMaximalTransformOpSpansToInterpTime) {
  // interp:run (10 ms) containing one maximal transform op (9.5 ms) which
  // itself contains a nested transform op (1 ms, NOT double-counted) and a
  // matcher span. Input order matches the finish() sort contract:
  // (start, tid, dur desc).
  auto Make = [](std::string_view Name, std::string_view Cat, int64_t Start,
                 int64_t Dur) {
    Span S;
    S.Name = std::string(Name);
    S.Category = std::string(Cat);
    S.StartNanos = Start;
    S.DurNanos = Dur;
    S.ThreadId = 1;
    return S;
  };
  std::vector<Span> Spans;
  Spans.push_back(Make("interp:run", "interp", 0, 10000000));
  Spans.push_back(
      Make("transform.foreach_match", "transform-op", 0, 9500000));
  Spans.push_back(Make("matcher:@is_loop", "matcher", 100000, 2000000));
  Spans.push_back(Make("transform.annotate", "transform-op", 2200000, 1000000));

  std::string Text;
  raw_string_ostream OS(Text);
  renderProfile(Spans, OS);

  EXPECT_NE(Text.find("=== profile ==="), std::string::npos);
  // 9.5 / 10 ms: only the maximal foreach_match span counts.
  EXPECT_NE(Text.find("interpretation: total 10.000 ms; 95.0% attributed to "
                      "transform-op spans"),
            std::string::npos);
  EXPECT_NE(Text.find("transform ops (by kind):"), std::string::npos);
  EXPECT_NE(Text.find("transform.foreach_match"), std::string::npos);
  EXPECT_NE(Text.find("hottest matchers:"), std::string::npos);
  EXPECT_NE(Text.find("matcher:@is_loop"), std::string::npos);
  // Self time: foreach_match 9.5 - 2 (matcher) - 1 (annotate) = 6.5 ms.
  EXPECT_NE(Text.find("6.500"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// --trace determinism across shard counts (regression: tracing used to
// force the serial commit path and was silently dropped in scratch
// interpreters)
//===----------------------------------------------------------------------===//

class TraceDeterminismTest : public ::testing::Test {
protected:
  TraceDeterminismTest() {
    registerAllDialects(Ctx);
    registerTransformDialect(Ctx);
  }

  OwningOpRef makeManyFuncPayload(int NumFuncs) {
    std::string Funcs;
    for (int F = 0; F < NumFuncs; ++F) {
      Funcs += R"(
        "func.func"() ({
        ^bb0(%m: memref<8x8xf64>):
          %lb = "arith.constant"() {value = 0 : index} : () -> (index)
          %ub = "arith.constant"() {value = 8 : index} : () -> (index)
          %one = "arith.constant"() {value = 1 : index} : () -> (index)
          "scf.for"(%lb, %ub, %one) ({
          ^body(%i: index):
            %v = "memref.load"(%m, %i, %lb)
              : (memref<8x8xf64>, index, index) -> (f64)
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "func.return"() : () -> ()
        }) {sym_name = "f)" +
               std::to_string(F) + R"(",
            function_type = (memref<8x8xf64>) -> ()} : () -> ()
      )";
    }
    return parseSourceString(
        Ctx, "\"builtin.module\"() ({" + Funcs + "}) : () -> ()");
  }

  Context Ctx;
};

static const char *const TracedPairsScript = R"("builtin.module"() ({
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    "transform.annotate"(%loop) {name = "marked_loop"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["memref.load"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_load"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%load: !transform.any_op):
    "transform.annotate"(%load) {name = "marked_load"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_load"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %u = "transform.foreach_match"(%root)
      {matchers = [@is_loop, @is_load], actions = [@mark_loop, @mark_load]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
)";

/// The same pairs walked from nested roots: every scf.for root also lies
/// inside a func.func root, so two walk units can reach each loop and its
/// body. The trace must still show each matcher run once.
static const char *const NestedRootsTracedScript = R"("builtin.module"() ({
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["scf.for"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%loop: !transform.any_op):
    "transform.annotate"(%loop) {name = "marked_loop"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_loop"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%op: !transform.any_op):
    %0 = "transform.match.operation_name"(%op) {op_names = ["memref.load"]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "is_load"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%load: !transform.any_op):
    "transform.annotate"(%load) {name = "marked_load"}
      : (!transform.any_op) -> ()
    "transform.yield"() : () -> ()
  }) {sym_name = "mark_load"} : () -> ()
  "transform.named_sequence"() ({
  ^bb0(%root: !transform.any_op):
    %funcs = "transform.match.op"(%root) {op_name = "func.func"}
      : (!transform.any_op) -> (!transform.any_op)
    %loops = "transform.match.op"(%root) {op_name = "scf.for"}
      : (!transform.any_op) -> (!transform.any_op)
    %roots = "transform.merge_handles"(%funcs, %loops)
      : (!transform.any_op, !transform.any_op) -> (!transform.any_op)
    %u = "transform.foreach_match"(%roots)
      {matchers = [@is_loop, @is_load], actions = [@mark_loop, @mark_load]}
      : (!transform.any_op) -> (!transform.any_op)
    "transform.yield"() : () -> ()
  }) {sym_name = "__transform_main"} : () -> ()
}) : () -> ()
)";

TEST_F(TraceDeterminismTest, TraceIsByteIdenticalAtAnyShardCount) {
  for (const char *ScriptText : {TracedPairsScript, NestedRootsTracedScript}) {
    OwningOpRef Script = parseSourceString(Ctx, ScriptText, "script");
    ASSERT_TRUE(Script);

    auto RunTraced = [&](unsigned MatchShards, unsigned CommitShards,
                         std::string &TraceOut, std::string &PayloadOut) {
      OwningOpRef Payload = makeManyFuncPayload(6);
      ASSERT_TRUE(Payload);
      raw_string_ostream TraceOS(TraceOut);
      TransformOptions Options;
      Options.Trace = true;
      Options.TraceStream = &TraceOS;
      Options.MatchShards = MatchShards;
      Options.CommitShards = CommitShards;
      TransformInterpreter Interp(Payload.get(), Script.get(), Options);
      ASSERT_TRUE(succeeded(Interp.run()));
      raw_string_ostream PayloadOS(PayloadOut);
      Payload->print(PayloadOS);
    };

    std::string SerialTrace, SerialPayload;
    RunTraced(1, 1, SerialTrace, SerialPayload);
    std::string ShardedTrace, ShardedPayload;
    RunTraced(4, 4, ShardedTrace, ShardedPayload);

    // Tracing used to silently disable the matcher scratch interpreter's
    // trace and force the serial commit; now both shard counts produce the
    // same non-trivial trace and the same payload, byte for byte.
    EXPECT_FALSE(SerialTrace.empty());
    EXPECT_NE(SerialTrace.find("[transform] transform.annotate"),
              std::string::npos);
    EXPECT_NE(SerialTrace.find("[transform] transform.match.operation_name"),
              std::string::npos);
    EXPECT_EQ(SerialTrace, ShardedTrace);
    EXPECT_EQ(SerialPayload, ShardedPayload);
    EXPECT_NE(SerialPayload.find("marked_loop"), std::string::npos);
  }
}

} // namespace
