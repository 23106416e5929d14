//===- Bench.h - Shared types of the repository benchmark -----*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload of `tdl-perfbench` shares: the seeded PRNG,
/// order statistics, per-layer samples, the layer-call timer that doubles
/// as a trace span, the shared oracles, and the interface a workload
/// implements. main.cpp owns the closed request loop, the set-up
/// repeats, the determinism probe and all reporting; a workload only knows
/// how to set itself up and serve one request.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_PERFBENCH_BENCH_H
#define TDL_PERFBENCH_BENCH_H

#include "support/Telemetry.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace tdl {
class Context;
class Operation;
class OwningOpRef;
} // namespace tdl

namespace perfbench {

/// Seconds on the steady clock.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: small, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform integer in [0, N).
  int64_t uniform(int64_t N) { return static_cast<int64_t>(next() % N); }
  /// Uniform double in [0, 1).
  double unit() { return (next() >> 11) * (1.0 / 9007199254740992.0); }

private:
  uint64_t State;
};

/// Derives an independent stream seed from a run seed and a stream tag.
inline uint64_t mixSeed(uint64_t Seed, uint64_t Tag) {
  return Rng(Seed * 0x9E3779B97F4A7C15ull + Tag).next();
}

/// A seeded permutation of [0, N): the order of one balanced block of
/// request classes.
std::vector<int64_t> blockPermutation(uint64_t Seed, int64_t N);

/// FNV-1a over \p Text: the benchmark's own payload identity.
uint64_t hashText(const std::string &Text);

/// Nearest-rank percentile (0 <= Pct <= 100, 0 giving the minimum); 0 for
/// an empty sample.
double percentile(std::vector<double> Values, double Pct);
inline double median(std::vector<double> Values) {
  return percentile(std::move(Values), 50);
}

/// Runs the calibration kernel once and returns its wall seconds. The
/// kernel is fixed, hand-written C++ that calls no repository code but does
/// what a compiler does most: it allocates small nodes, names them with
/// short strings, looks them up in a hash map and chases pointers between
/// them.
double timeCalibrationKernel();

/// Tracks how fast a shared host runs during a run, so that wall times can
/// be compared across runs. Host speed drifts by tens of percent over
/// seconds to minutes, for all code alike; the calibration kernel, timed
/// every SampleInterval seconds, drifts with it but does not change when
/// the repository does. A wall time divided by the kernel time of the
/// moment and multiplied by ReferenceKernelSeconds is the time the same
/// work would take on the reference host.
class HostSpeed {
public:
  /// Kernel time on the reference host, a 4-vCPU Intel Xeon virtual
  /// machine, whose run medians ranged over 0.77-0.89 ms.
  static constexpr double ReferenceKernelSeconds = 0.9e-3;
  static constexpr double SampleInterval = 0.02;
  /// Samples whose median is the kernel time of the moment.
  static constexpr size_t Window = 7;

  /// Times the kernel if the last sample is older than SampleInterval, or
  /// always with \p Force.
  void sample(bool Force = false);
  /// \p Time, a wall time on this host now, as reference-host time in
  /// the same unit.
  double toReference(double Time) const;
  double medianKernelSeconds() const { return median(All); }
  size_t numSamples() const { return All.size(); }

private:
  std::vector<double> Recent, All;
  double LastSample = 0;
};

/// One end-to-end or per-layer number with its unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Per-request samples of the layer metrics. A request adds into
/// per-metric accumulators (a layer called twice in one request sums);
/// endRequest() turns each accumulator into one sample.
class LayerSamples {
public:
  void add(const std::string &Name, double Value) { Current[Name] += Value; }
  void endRequest(bool Keep);
  /// What the current request has recorded under \p Name so far.
  double current(const std::string &Name) const;
  /// Median over the kept requests that recorded \p Name; 0 when none did.
  double median(const std::string &Name) const;

private:
  std::map<std::string, double> Current;
  std::map<std::string, std::vector<double>> Samples;
};

/// Times one call into a module's public function. Records the elapsed
/// milliseconds (or microseconds with \p Micros) under \p Name, and is a
/// `telemetry::ScopedSpan` named \p SpanName while the span collector is
/// armed, so the same boundary yields both the layer table and the trace.
class LayerCall {
public:
  LayerCall(LayerSamples &Samples, std::string Name, const char *SpanName,
            const char *Category, bool Micros = false)
      : Samples(Samples), Name(std::move(Name)), Micros(Micros),
        Span(SpanName, Category), Start(nowSeconds()) {}
  ~LayerCall() {
    Samples.add(Name, (nowSeconds() - Start) * (Micros ? 1e6 : 1e3));
  }
  LayerCall(const LayerCall &) = delete;
  LayerCall &operator=(const LayerCall &) = delete;

private:
  LayerSamples &Samples;
  std::string Name;
  bool Micros;
  tdl::telemetry::ScopedSpan Span;
  double Start;
};

/// Everything one request reports back to the request loop.
struct RequestResult {
  /// Compile latency of the measured (script / dispatch) arm.
  double CompileMs = 0;
  /// Latency of the paired native arm on the same payload.
  double NativeMs = 0;
  /// Payload ops of the request's input.
  int64_t PayloadOps = 0;
  /// Request class for the property record (size bucket, hit/miss, ...).
  std::string Class;
  /// Identity of the request's input, for the measured repeat share.
  uint64_t PayloadKey = 0;
  /// Oracle verdicts: empty when every check passed, else one line each.
  std::vector<std::string> Failures;
  /// Final output text (captured only when RequestMode asks for it).
  std::string Output;
  /// Workload-side deterministic work counts (e.g. `exec.ops`).
  std::map<std::string, int64_t> Counts;
};

/// How the request loop wants one request served.
struct RequestMode {
  /// The span collector is armed: wrap layer calls in spans and keep the
  /// per-layer samples.
  bool Traced = false;
  /// Capture the final payload text into RequestResult::Output.
  bool CaptureOutput = false;
  /// Matcher-engine shard override (0: the workload's own setting).
  unsigned Shards = 0;
};

/// A benchmark workload. set-up builds every long-lived object (context,
/// scripts, strategies, pools) and may be called again to start over;
/// serve() handles request \p Index of the seed's stream.
class Workload {
public:
  virtual ~Workload() = default;
  virtual const char *name() const = 0;
  /// Rebuilds all state for \p Seed and warms it up.
  virtual void setUp(uint64_t Seed) = 0;
  virtual RequestResult serve(int64_t Index, const RequestMode &Mode,
                              LayerSamples &Layers) = 0;
  /// Requests replayed by the determinism probe.
  virtual int probeRequests() const = 0;
  /// Engine match/commit shard counts used by serve() (0 when unused).
  virtual unsigned shards() const { return 0; }
  /// Feeds one deliberately corrupted output to each oracle; returns the
  /// names of the oracles that failed to flag it (empty = all flagged).
  virtual std::vector<std::string> checkOraclesFlagCorruption() = 0;
};

std::unique_ptr<Workload> makeTosaPipeline();
std::unique_ptr<Workload> makeHloPeephole();
std::unique_ptr<Workload> makeDispatchServe(std::string StrategyDir);

/// Number of ops nested in \p Module, the module op itself excluded: the
/// payload size every workload reports.
int64_t countPayloadOps(tdl::Operation *Module);

/// `parseSourceString`, timed as `ir.parse_ms`.
tdl::OwningOpRef parseTimed(tdl::Context &Ctx, const std::string &Text,
                            LayerSamples &Layers);
/// `printOperationToString`, timed as `ir.print_ms`.
std::string printTimed(tdl::Operation *Module, LayerSamples &Layers);
/// The IR verifier, timed as `ir.verify_ms`; true when \p Module verifies.
bool verifyTimed(tdl::Operation *Module, LayerSamples &Layers);

/// Oracle: empty when \p Actual equals \p Expected byte for byte, else a
/// one-line description of the first difference, prefixed by \p What.
std::string compareTexts(const std::string &What, const std::string &Actual,
                         const std::string &Expected);

/// Self-test corruption for the verifier oracle: moves the terminator of
/// the first function's entry block to the front of that block.
void corruptForVerifier(tdl::Operation *Module);

/// The `func.func` ops directly in \p Module's body, in order.
std::vector<tdl::Operation *> getFunctions(tdl::Operation *Module);

} // namespace perfbench

#endif // TDL_PERFBENCH_BENCH_H
