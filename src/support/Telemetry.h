//===- Telemetry.h - Metrics registry and span tracing ----------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified observability layer, two halves:
///
/// **MetricsRegistry** — process-wide named monotonic counters and
/// histogram-style duration accumulators. The hot path is one relaxed
/// atomic op on a handle resolved once (cache it in a function-local
/// static); registration is mutex-guarded and handles stay valid for the
/// process lifetime. Snapshots are plain value maps that can be diffed
/// (per-request metrics: snapshot before and after, subtract) and rendered
/// to text or JSON.
///
/// **SpanCollector** — a Chrome `trace_event` span recorder. Every thread
/// appends finished spans to its own buffer (lock-free after a one-time
/// mutex-guarded registration), and `finish()` merges all buffers after the
/// producing threads have been joined — the same per-worker-buffer shape as
/// ThreadDiagnosticCapture, so the sharded match walk and the parallel
/// commit waves record spans with real thread ids without a shared lock on
/// the hot path. `ScopedSpan` is a no-op (one relaxed atomic load) while
/// the collector is inactive, so instrumentation can stay in release
/// builds. `writeChromeTrace` emits JSON loadable in chrome://tracing or
/// Perfetto; `renderProfile` turns the same spans into the `--profile`
/// post-run attribution table.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_SUPPORT_TELEMETRY_H
#define TDL_SUPPORT_TELEMETRY_H

#include "support/Stream.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tdl {
namespace telemetry {

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

/// Named monotonic counter. Thread-safe; the increment is one relaxed
/// fetch_add.
class Counter {
public:
  void add(int64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  int64_t get() const { return V.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  std::atomic<int64_t> V{0};
};

/// Number of fixed log2-scale latency buckets per DurationStat. Bucket 0
/// holds samples of <= 0 ns; bucket k (k >= 1) holds samples in
/// [2^(k-1), 2^k) ns, with the last bucket open-ended — 64 buckets span
/// every representable int64 nanosecond value.
inline constexpr int NumHistogramBuckets = 64;

/// The bucket a sample of \p Nanos lands in (see NumHistogramBuckets).
inline int histogramBucketIndex(int64_t Nanos) {
  if (Nanos <= 0)
    return 0;
  return 64 - __builtin_clzll(static_cast<uint64_t>(Nanos));
}

/// Inclusive upper bound of bucket \p Index in nanoseconds (INT64_MAX for
/// the open-ended last bucket).
inline int64_t histogramBucketUpperNanos(int Index) {
  if (Index <= 0)
    return 0;
  if (Index >= 63)
    return INT64_MAX;
  return (int64_t(1) << Index) - 1;
}

/// Histogram-style duration accumulator: count, total, min, max plus fixed
/// log-scale latency buckets, all in nanoseconds. Thread-safe; min/max are
/// CAS loops, everything else relaxed adds — the hot path stays three
/// relaxed atomics plus the two extrema CAS ops.
class DurationStat {
public:
  void recordNanos(int64_t Nanos);

  int64_t getCount() const { return Count.load(std::memory_order_relaxed); }
  int64_t getTotalNanos() const {
    return TotalNanos.load(std::memory_order_relaxed);
  }

private:
  friend class MetricsRegistry;
  std::atomic<int64_t> Count{0};
  std::atomic<int64_t> TotalNanos{0};
  std::atomic<int64_t> MinNanos{INT64_MAX};
  std::atomic<int64_t> MaxNanos{0};
  std::atomic<int64_t> Buckets[NumHistogramBuckets]{};
};

/// A point-in-time copy of every registered metric. Plain values: diffable,
/// renderable, storable.
struct MetricsSnapshot {
  struct DurationValue {
    int64_t Count = 0;
    int64_t TotalNanos = 0;
    int64_t MinNanos = 0;
    int64_t MaxNanos = 0;
    std::array<int64_t, NumHistogramBuckets> Buckets{};
  };
  std::map<std::string, int64_t> Counters;
  std::map<std::string, DurationValue> Durations;
};

/// Estimates the \p Pct-th percentile (0 < Pct <= 100) from the log-scale
/// buckets: the inclusive upper bound of the bucket holding the target
/// rank, clamped into [MinNanos, MaxNanos] so single-sample and
/// extremum-adjacent estimates are exact. Returns 0 when the buckets are
/// empty (e.g. a snapshot populated by hand).
int64_t percentileNanos(const MetricsSnapshot::DurationValue &V, double Pct);

/// The process-wide metric store. Metric handles are created on first use
/// of a name and never move or die, so call sites can cache the reference
/// in a function-local static and pay only the atomic op per event.
class MetricsRegistry {
public:
  static MetricsRegistry &instance();

  Counter &getCounter(std::string_view Name);
  DurationStat &getDuration(std::string_view Name);

  MetricsSnapshot snapshot() const;
  /// Zeroes every metric's value. Registered handles stay valid.
  void reset();

private:
  struct Impl;
  Impl &impl() const;
};

/// Shorthands for `MetricsRegistry::instance().get*(Name)`.
Counter &counter(std::string_view Name);
DurationStat &duration(std::string_view Name);

/// `After - Before`, entry-wise. Entries only present in \p After are kept
/// as-is (registered mid-window); counters, duration counts, and histogram
/// buckets never go negative (a reset() between snapshots clamps to zero).
/// Duration min and max are taken from \p After — extrema are not
/// subtractable — so window percentiles come from the diffed buckets while
/// the clamp range stays process-lifetime.
MetricsSnapshot diffSnapshots(const MetricsSnapshot &After,
                              const MetricsSnapshot &Before);

/// The metrics recorded since construction: the one way to scope registry
/// counters to a run, a request, or a test.
class MetricsWindow {
public:
  MetricsWindow() : Before(MetricsRegistry::instance().snapshot()) {}
  MetricsSnapshot diff() const {
    return diffSnapshots(MetricsRegistry::instance().snapshot(), Before);
  }
  /// The counter's increase over the window (0 when it was never bumped).
  int64_t counter(const std::string &Name) const {
    std::map<std::string, int64_t> Counters = diff().Counters;
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }

private:
  MetricsSnapshot Before;
};

/// Human-readable rendering: `counters:` / `durations:` sections with one
/// `  <name>: <value>` line each (durations as count/total/min/max plus
/// p50/p90/p99 ms).
void renderText(const MetricsSnapshot &Snapshot, raw_ostream &OS);
/// One flat JSON object: counters as integers, durations as objects with
/// rounded `*_ms` floats and lossless `*_nanos` integers for
/// total/min/max/p50/p90/p99.
void renderJson(const MetricsSnapshot &Snapshot, raw_ostream &OS);
/// The duration-object half of renderJson, reusable by other JSON
/// emitters (run reports, bench reports).
void renderDurationValueJson(const MetricsSnapshot::DurationValue &V,
                             raw_ostream &OS);
/// Compact per-duration percentile table (`latency percentiles:` header,
/// one `  <name>: count N, p50/p90/p99 ms` line per nonzero duration).
/// Printed after the `--profile` attribution table.
void renderLatencySummary(const MetricsSnapshot &Snapshot, raw_ostream &OS);

/// \p S JSON-escaped and double-quoted.
std::string jsonQuoted(std::string_view S);

/// RAII wall-clock timer recording into a DurationStat on destruction.
class ScopedTimer {
public:
  explicit ScopedTimer(DurationStat &Stat);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  DurationStat &Stat;
  int64_t StartNanos;
};

//===----------------------------------------------------------------------===//
// Span tracing
//===----------------------------------------------------------------------===//

/// One finished interval: what ran, on which (collector-assigned) thread,
/// when, for how long, with free-form string args for the trace viewer.
struct Span {
  std::string Name;
  std::string Category;
  int64_t StartNanos = 0; ///< Relative to the collector's start().
  int64_t DurNanos = 0;
  uint32_t ThreadId = 0; ///< 1 = first registering thread (the driver).
  std::vector<std::pair<std::string, std::string>> Args;
};

/// The process-wide span sink. start() arms it; every thread that appends
/// registers a private buffer once (mutex-guarded) and then appends
/// lock-free; finish() disarms it and merges all buffers, sorted by start
/// time. The producing threads must be joined (or otherwise quiescent)
/// before finish() — the same contract the engine's diagnostic merge
/// already maintains, so both merges happen at the same points.
class SpanCollector {
public:
  static SpanCollector &instance();

  /// Arms the collector and drops spans from any earlier session. Thread
  /// ids restart at 1.
  void start();
  bool isActive() const { return Active.load(std::memory_order_acquire); }
  /// Disarms the collector and returns every recorded span, sorted by
  /// (start, thread id). Callable once per start(); spans append to the
  /// calling thread's buffer only while armed.
  std::vector<Span> finish();

  /// Nanoseconds since start(). Only meaningful while armed.
  int64_t nowNanos() const;
  /// Appends \p S to the calling thread's buffer (registering it first if
  /// needed). No-op while disarmed.
  void append(Span S);

private:
  SpanCollector() = default;
  struct Impl;
  Impl &impl() const;
  std::atomic<bool> Active{false};
};

/// Whether spans are being collected right now — gate any span-only work
/// (building a composed span name, counting payload ops) behind this.
inline bool spansActive() { return SpanCollector::instance().isActive(); }

/// RAII span: records [construction, destruction) into the collector.
/// While the collector is inactive the constructor is one atomic load and
/// everything else is a no-op, so this is safe on interpreter hot paths.
/// Destruction on error paths closes the span — no dangling intervals.
class ScopedSpan {
public:
  ScopedSpan(std::string_view Name, std::string_view Category);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  bool isActive() const { return Active; }
  void arg(std::string_view Key, std::string_view Value);
  void arg(std::string_view Key, int64_t Value);

private:
  bool Active;
  Span S;
};

/// Renders \p Spans as Chrome `trace_event` JSON ("X" complete events with
/// stable pid/tid/ts/dur fields, microsecond timestamps). Load the file in
/// chrome://tracing or https://ui.perfetto.dev. The last line is always
/// `]}`, so even a trace cut short by an error is well-formed.
void writeChromeTrace(const std::vector<Span> &Spans, raw_ostream &OS);

/// The `--profile` post-run attribution table: time per transform op kind
/// (total and self), the fraction of interpretation wall time attributed
/// to named transform-op spans, the hottest matchers, the match-vs-commit
/// split, and tuning/library-load time.
void renderProfile(const std::vector<Span> &Spans, raw_ostream &OS);

} // namespace telemetry
} // namespace tdl

#endif // TDL_SUPPORT_TELEMETRY_H
