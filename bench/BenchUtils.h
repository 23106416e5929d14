//===- BenchUtils.h - Shared benchmark helpers -------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef TDL_BENCH_BENCHUTILS_H
#define TDL_BENCH_BENCHUTILS_H

#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace tdl {
namespace benchutil {

/// Wall-clock seconds of one invocation.
inline double timeSeconds(const std::function<void()> &Fn) {
  auto Start = std::chrono::steady_clock::now();
  Fn();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

/// The spread of repeated samples: smallest and median.
struct Spread {
  double Min = 0.0;
  double Median = 0.0;
};

/// Min and median of a non-empty set of samples.
inline Spread spreadOf(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  return {Samples.front(), Samples[Samples.size() / 2]};
}

/// Minimum of \p Repeats timed invocations (standard for noisy hosts).
inline double minSeconds(int Repeats, const std::function<void()> &Fn) {
  double Best = 1e300;
  for (int I = 0; I < Repeats; ++I)
    Best = std::min(Best, timeSeconds(Fn));
  return Best;
}

inline void printHeader(const char *Title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", Title);
  std::printf("================================================================\n");
}

/// Machine-readable companion to the textual bench output. When the
/// `TDL_BENCH_JSON_DIR` environment variable names a directory, the report
/// is written there as `BENCH_<name>.json` (one flat object of numeric
/// metrics) on destruction; when unset, every call is a no-op, so benches
/// can emit unconditionally. Keys appear in insertion order.
class JsonReport {
public:
  explicit JsonReport(std::string Name) : Name(std::move(Name)) {
    const char *Dir = std::getenv("TDL_BENCH_JSON_DIR");
    if (Dir && *Dir)
      this->Dir = Dir;
  }

  JsonReport(const JsonReport &) = delete;
  JsonReport &operator=(const JsonReport &) = delete;

  void metric(const std::string &Key, double Value) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
    Metrics.emplace_back(Key, Buf);
  }

  void metric(const std::string &Key, long long Value) {
    Metrics.emplace_back(Key, std::to_string(Value));
  }

  void metric(const std::string &Key, int Value) {
    metric(Key, (long long)Value);
  }

  /// Folds a metrics snapshot into the report: every counter under its
  /// registry name, every duration as `<name>.count` / `<name>.total_ms`
  /// plus lossless `<name>.total_nanos` and histogram-derived
  /// `<name>.p50/p90/p99_nanos` (so tdl-bench-diff never compares through
  /// float rounding). The shared path for bench counter emission — benches
  /// stop hand-copying probe fields one by one.
  void addMetricsSnapshot(const telemetry::MetricsSnapshot &Snapshot) {
    for (const auto &[Key, Value] : Snapshot.Counters)
      metric(Key, (long long)Value);
    for (const auto &[Key, Value] : Snapshot.Durations) {
      metric(Key + ".count", (long long)Value.Count);
      metric(Key + ".total_ms", (double)Value.TotalNanos / 1e6);
      metric(Key + ".total_nanos", (long long)Value.TotalNanos);
      metric(Key + ".p50_nanos", (long long)telemetry::percentileNanos(Value, 50));
      metric(Key + ".p90_nanos", (long long)telemetry::percentileNanos(Value, 90));
      metric(Key + ".p99_nanos", (long long)telemetry::percentileNanos(Value, 99));
    }
  }

  /// Convenience: snapshot the process-wide registry right now.
  void addMetricsSnapshot() {
    addMetricsSnapshot(telemetry::MetricsRegistry::instance().snapshot());
  }

  ~JsonReport() {
    if (Dir.empty())
      return;
    std::string Path = Dir + "/BENCH_" + Name + ".json";
    std::ofstream Out(Path, std::ios::trunc);
    if (!Out)
      return;
    Out << "{\n  \"bench\": \"" << Name << "\"";
    for (const auto &[Key, Value] : Metrics)
      Out << ",\n  \"" << Key << "\": " << Value;
    Out << "\n}\n";
  }

private:
  std::string Name;
  std::string Dir;
  std::vector<std::pair<std::string, std::string>> Metrics;
};

} // namespace benchutil
} // namespace tdl

#endif // TDL_BENCH_BENCHUTILS_H
