//===- DispatchServe.cpp - Compile-server strategy dispatch workload ------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `dispatch_serve`: the compile-server scenario of Sections 4.4/4.5. One
/// long-lived `StrategyManager` with an in-memory `TuningDB` serves modules
/// of several batch-matmul functions, sent as text. About nine requests in
/// ten repeat an earlier payload: those hit the selection cache and the
/// tuning database. First-sight payloads run every applicability matcher
/// and tune the `cfg` strategy (tile by two tuned parameters, then lower to
/// cf branches). The tuning objective is the executor's op count, so tuned
/// configurations repeat exactly. A request is parse, `dispatch`, verify.
/// The native arm does the same lowering with direct C++ calls. After the
/// request, the generated code runs in `exec::Executor` and must match a
/// hand-written triple loop.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "autotune/TuningDB.h"
#include "dialect/Dialects.h"
#include "exec/Executor.h"
#include "exec/Workloads.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "loops/LoopUtils.h"
#include "pass/Pass.h"
#include "strategy/StrategyManager.h"

#include <array>
#include <stdexcept>

using namespace tdl;
using namespace perfbench;

namespace {

/// (B, M, N, K) of one batch matmul.
using Shape = std::array<int64_t, 4>;

/// The shape pool payloads draw from. Every B is a multiple of 4, so at
/// least two `tile_i` candidates divide it.
const Shape ShapePool[] = {{4, 4, 4, 4}, {4, 4, 8, 4}, {4, 8, 4, 8},
                           {4, 8, 8, 8}, {8, 4, 4, 4}, {8, 4, 8, 8},
                           {8, 8, 4, 4}, {8, 8, 8, 8}, {4, 4, 4, 8},
                           {4, 8, 8, 4}, {8, 4, 4, 8}, {8, 8, 8, 4}};

/// One request in RepeatBlock sends a payload never seen before.
constexpr int64_t RepeatBlock = 10;
constexpr int TuneBudget = 6;
constexpr int64_t PoolSize = 32;

/// One payload: the shapes of its functions `bmm_0`, `bmm_1`, ...
struct Variant {
  std::vector<Shape> Shapes;
  std::string Text;
};

/// Row-major buffer of \p Dims filled with small integers from \p R, so
/// every product and sum is exact in double precision.
exec::Buffer seededBuffer(const std::vector<int64_t> &Dims, Rng &R) {
  exec::Buffer Buf = exec::Buffer::alloc(Dims);
  for (double &V : *Buf.Data)
    V = static_cast<double>(R.uniform(7) - 3);
  return Buf;
}

/// The reference: C += A * B, as a hand-written loop nest.
void referenceBmm(const Shape &S, const std::vector<double> &A,
                  const std::vector<double> &B, std::vector<double> &C) {
  auto [NB, M, N, K] = S;
  for (int64_t Bi = 0; Bi < NB; ++Bi)
    for (int64_t I = 0; I < M; ++I)
      for (int64_t J = 0; J < N; ++J)
        for (int64_t Kk = 0; Kk < K; ++Kk)
          C[(Bi * M + I) * N + J] +=
              A[(Bi * M + I) * K + Kk] * B[(Bi * K + Kk) * N + J];
}

/// Oracle: no structured control flow survives the lowering.
std::string checkNoScf(Operation *Module) {
  int64_t Scf = 0;
  Module->walk([&](Operation *Op) { Scf += Op->getDialectName() == "scf"; });
  return Scf ? "lowered payload still holds " + std::to_string(Scf) +
                   " scf.* ops"
             : "";
}

class DispatchServe final : public Workload {
public:
  explicit DispatchServe(std::string StrategyDir)
      : StrategyDir(std::move(StrategyDir)) {}

  const char *name() const override { return "dispatch_serve"; }

  void setUp(uint64_t NewSeed) override {
    Strategies.reset();
    Libraries.reset();
    DB.reset();
    Ctx = std::make_unique<Context>();
    Seed = NewSeed;
    Pool.clear();
    Seen.clear();
    Configs.clear();
    StreamRng = Rng(mixSeed(Seed, 0x5EED));
    NewAt = 0;
    registerAllDialects(*Ctx);
    registerTransformDialect(*Ctx);
    Libraries = std::make_unique<TransformLibraryManager>(*Ctx);
    Strategies = std::make_unique<strategy::StrategyManager>(*Ctx, *Libraries);
    DB = std::make_unique<autotune::TuningDB>();
    Strategies->setTuningDB(DB.get());
    if (failed(Strategies->addStrategyDir(StrategyDir)))
      throw std::runtime_error("dispatch_serve: cannot load strategies from " +
                               StrategyDir);
    // Pool generation: the first payloads of the stream, as text.
    for (int64_t V = 0; V < PoolSize; ++V)
      Pool.push_back(makeVariant(V));
    // Warm-up: a miss and a hit on a payload outside the pool.
    LayerSamples Discard;
    Variant Warm = buildVariant({{4, 2, 2, 2}});
    for (int I = 0; I < 2; ++I) {
      Arm Result = runDispatch(Warm, Discard);
      if (!Result.Error.empty())
        throw std::runtime_error("dispatch_serve: warm-up " + Result.Error);
      if (I == 1)
        (void)execute(Warm, Result.Module.get(), Discard);
    }
  }

  RequestResult serve(int64_t Index, const RequestMode &Mode,
                      LayerSamples &Layers) override {
    // The stream, in blocks of RepeatBlock requests: one request at a
    // seeded position of each block sends the next unseen variant, the
    // others repeat a seen one, drawn with a skew towards early variants.
    int64_t V;
    if (Index % RepeatBlock == 0)
      NewAt = StreamRng.uniform(RepeatBlock);
    if (Seen.empty() || Index % RepeatBlock == NewAt) {
      V = static_cast<int64_t>(Seen.size());
      Seen.push_back(V);
    } else {
      double U = StreamRng.unit();
      V = Seen[static_cast<size_t>(U * U * Seen.size())];
    }
    Variant Payload = V < PoolSize ? Pool[V] : makeVariant(V);
    RequestResult Result;
    Result.PayloadKey = hashText(Payload.Text);
    bool FirstSight = !Configs.count(Result.PayloadKey);

    Arm Dispatched, Native;
    auto RunDispatch = [&] {
      double Start = nowSeconds();
      Dispatched = runDispatch(Payload, Layers);
      Result.CompileMs = (nowSeconds() - Start) * 1e3;
      if (Dispatched.Error.empty())
        Configs[Result.PayloadKey] = Dispatched.Config;
    };
    auto RunNative = [&] {
      double Start = nowSeconds();
      Native = runNative(Payload, Configs[Result.PayloadKey], Mode.Traced,
                         Layers);
      Result.NativeMs = (nowSeconds() - Start) * 1e3;
    };
    // The native arm needs the tuned configuration, so on first sight it
    // runs second; repeats alternate the order.
    if (FirstSight || Index % 2 == 1) {
      RunDispatch();
      if (Dispatched.Error.empty())
        RunNative();
    } else {
      RunNative();
      RunDispatch();
    }
    Layers.add("core.overhead_ms", Result.CompileMs - Result.NativeMs);
    Result.Class = Dispatched.CacheHit ? "hit" : "miss";
    Result.PayloadOps = Dispatched.PayloadOps;
    if (!Dispatched.Error.empty()) {
      Result.Failures.push_back("dispatch: " + Dispatched.Error);
      return Result;
    }
    if (FirstSight == Dispatched.CacheHit)
      Result.Failures.push_back("selection cache hit/miss disagrees with the "
                                "payload's first sight");
    if (!Native.Error.empty())
      Result.Failures.push_back("native arm: " + Native.Error);

    std::string Text = printTimed(Dispatched.Module.get(), Layers);
    std::string Diff = compareTexts(
        "dispatch vs native lowering", Text,
        Native.Module ? printOperationToString(Native.Module.get()) : "");
    if (!Diff.empty())
      Result.Failures.push_back(Diff);
    std::string Scf = checkNoScf(Dispatched.Module.get());
    if (!Scf.empty())
      Result.Failures.push_back(Scf);
    std::string Exec = execute(Payload, Dispatched.Module.get(), Layers,
                               &Result.Counts["exec.ops"]);
    if (!Exec.empty())
      Result.Failures.push_back(Exec);
    if (Mode.CaptureOutput)
      Result.Output = std::move(Text);
    return Result;
  }

  int probeRequests() const override { return 150; }

  std::vector<std::string> checkOraclesFlagCorruption() override {
    std::vector<std::string> Missed;
    LayerSamples Discard;
    const Variant &Payload = Pool[0];
    Arm Result = runDispatch(Payload, Discard);
    if (!Result.Error.empty() || !checkNoScf(Result.Module.get()).empty() ||
        !execute(Payload, Result.Module.get(), Discard).empty()) {
      Missed.push_back("dispatch_serve: clean output was rejected");
      return Missed;
    }
    // A wrong result element.
    if (execute(Payload, Result.Module.get(), Discard, nullptr,
                /*Corrupt=*/true)
            .empty())
      Missed.push_back("dispatch_serve: executed result vs reference");
    // A structured loop left behind: splice in an unlowered function.
    OwningOpRef Structured = parseSourceString(*Ctx, Payload.Text, "corrupt");
    Operation *Func = getFunctions(Structured.get())[0];
    Func->setAttr("sym_name", StringAttr::get(*Ctx, "leftover"));
    Func->removeFromParent();
    builtin::getModuleBody(Result.Module.get())->push_back(Func);
    if (checkNoScf(Result.Module.get()).empty())
      Missed.push_back("dispatch_serve: no scf.* after lowering");
    corruptForVerifier(Result.Module.get());
    if (verifyTimed(Result.Module.get(), Discard))
      Missed.push_back("dispatch_serve: verifier");
    return Missed;
  }

private:
  struct Arm {
    OwningOpRef Module;
    std::string Error;
    std::vector<int64_t> Config;
    bool CacheHit = false;
    int64_t PayloadOps = 0;
  };

  Variant buildVariant(std::vector<Shape> Shapes) {
    Variant Result;
    Result.Shapes = std::move(Shapes);
    OwningOpRef Combined(
        builtin::buildModule(*Ctx, Location::name("bmm-request")));
    Block *Body = builtin::getModuleBody(Combined.get());
    for (size_t F = 0; F < Result.Shapes.size(); ++F) {
      auto [B, M, N, K] = Result.Shapes[F];
      OwningOpRef One = workloads::buildBatchMatmulModule(*Ctx, B, M, N, K);
      Operation *Func = getFunctions(One.get())[0];
      Func->setAttr("sym_name",
                    StringAttr::get(*Ctx, "bmm_" + std::to_string(F)));
      Func->removeFromParent();
      Body->push_back(Func);
    }
    Result.Text = printOperationToString(Combined.get());
    return Result;
  }

  /// Variant \p V of this seed's payload space: 2, 3 or 4 functions (by
  /// V mod 3) with shapes drawn from ShapePool. Shapes come in seeded
  /// blocks that hold each pool entry once, numbered over the functions of
  /// all variants in order, so the cost mix of the early variants, which
  /// the skewed draw repeats most, varies little with the seed. The first
  /// PoolSize variants are built at set-up and kept; later ones are rebuilt
  /// on every use, so the client's memory does not grow with the run.
  Variant makeVariant(int64_t V) {
    constexpr int64_t PoolShapes = std::size(ShapePool);
    // Variants 3k, 3k+1 and 3k+2 hold functions 9k..9k+1, 9k+2..9k+4 and
    // 9k+5..9k+8.
    int64_t First = 9 * (V / 3) + (V % 3) * (V % 3 + 3) / 2;
    std::vector<Shape> Shapes;
    for (int64_t F = First; F < First + 2 + V % 3; ++F)
      Shapes.push_back(ShapePool[blockPermutation(
          mixSeed(Seed, 0x7A11 + static_cast<uint64_t>(F / PoolShapes)),
          PoolShapes)[F % PoolShapes]]);
    return buildVariant(std::move(Shapes));
  }

  Arm parse(const Variant &Payload, LayerSamples &Layers) {
    Arm Result;
    Result.Module = parseTimed(*Ctx, Payload.Text, Layers);
    if (!Result.Module)
      Result.Error = "payload does not parse";
    else
      Result.PayloadOps = countPayloadOps(Result.Module.get());
    return Result;
  }

  /// parse, then StrategyManager::dispatch, then verify.
  Arm runDispatch(const Variant &Payload, LayerSamples &Layers) {
    Arm Result = parse(Payload, Layers);
    if (!Result.Module)
      return Result;
    strategy::DispatchOptions Options;
    Options.TuneBudget = TuneBudget;
    Options.Objective = [&Payload](Operation *Candidate) -> FailureOr<double> {
      int64_t Ops = 0;
      if (!runAll(Payload, Candidate, Ops).empty())
        return failure();
      return static_cast<double>(Ops);
    };
    FailureOr<strategy::DispatchResult> Dispatched = failure();
    {
      double Start = nowSeconds();
      telemetry::ScopedSpan Span("strategy.dispatch", "strategy");
      Dispatched = Strategies->dispatch(Result.Module.get(), "cfg", Options);
      bool Hit = succeeded(Dispatched) && Dispatched->SelectionCacheHit;
      Layers.add(Hit ? "strategy.dispatch.hit_ms" : "strategy.dispatch.miss_ms",
                 (nowSeconds() - Start) * 1e3);
    }
    if (failed(Dispatched)) {
      Result.Error = "StrategyManager::dispatch failed";
      return Result;
    }
    Result.Config = Dispatched->Config;
    Result.CacheHit = Dispatched->SelectionCacheHit;
    if (Dispatched->Strategy->Manifest.LibraryName != "deep_lowering")
      Result.Error = "dispatch selected '" +
                     Dispatched->Strategy->Manifest.LibraryName + "'";
    else if (!verifyTimed(Result.Module.get(), Layers))
      Result.Error = "output fails the verifier";
    return Result;
  }

  /// The same lowering as direct C++ calls: tile every outermost loop with
  /// \p Config, then convert-scf-to-cf through a PassManager, then verify.
  Arm runNative(const Variant &Payload, const std::vector<int64_t> &Config,
                bool Traced, LayerSamples &Layers) {
    Arm Result = parse(Payload, Layers);
    if (!Result.Module)
      return Result;
    for (Operation *Func : getFunctions(Result.Module.get())) {
      std::vector<Operation *> Loops;
      for (Operation *Op : Func->getRegion(0).front())
        if (Op->getName() == "scf.for")
          Loops.push_back(Op);
      for (Operation *Loop : Loops)
        if (failed(loops::tileLoopNest(Loop, Config)))
          Result.Error = "tiling failed";
    }
    PassManager PM(*Ctx);
    if (failed(PM.addPass("convert-scf-to-cf")))
      Result.Error = "convert-scf-to-cf is not registered";
    PM.enableTiming(Traced);
    bool Lowered;
    {
      LayerCall Call(Layers, "pass.run_ms", "pass.run", "pass");
      Lowered = succeeded(PM.run(Result.Module.get()));
    }
    for (const PassTiming &Timing : PM.getTimings())
      Layers.add("pass." + Timing.PassName + "_ms", Timing.Milliseconds);
    if (!Lowered)
      Result.Error = "convert-scf-to-cf failed";
    else if (Result.Error.empty() && !verifyTimed(Result.Module.get(), Layers))
      Result.Error = "output fails the verifier";
    return Result;
  }

  /// Runs every `bmm_<i>` of \p Module on zero inputs (the tuning
  /// objective), adding the executed op count to \p Ops.
  static std::string runAll(const Variant &Payload, Operation *Module,
                            int64_t &Ops) {
    exec::Executor Exec(Module);
    for (size_t F = 0; F < Payload.Shapes.size(); ++F) {
      auto [B, M, N, K] = Payload.Shapes[F];
      std::vector<exec::RuntimeValue> Args = {
          exec::RuntimeValue::makeBuffer(exec::Buffer::alloc({B, M, K})),
          exec::RuntimeValue::makeBuffer(exec::Buffer::alloc({B, K, N})),
          exec::RuntimeValue::makeBuffer(exec::Buffer::alloc({B, M, N}))};
      if (failed(Exec.run("bmm_" + std::to_string(F), std::move(Args))))
        return "execution failed";
      Ops += Exec.getLastOpCount();
    }
    return "";
  }

  /// Executes the lowered \p Module on seeded inputs and compares every
  /// function's result with referenceBmm. The first run of each function
  /// compiles it (`exec.first_run_us`); a second run on fresh inputs is
  /// the steady state (`exec.run_us`). With \p Corrupt one reference
  /// element is perturbed, which the comparison must flag.
  std::string execute(const Variant &Payload, Operation *Module,
                      LayerSamples &Layers, int64_t *Ops = nullptr,
                      bool Corrupt = false) {
    exec::Executor Exec(Module);
    Rng R(mixSeed(Seed, hashText(Payload.Text)));
    for (size_t F = 0; F < Payload.Shapes.size(); ++F) {
      const Shape &S = Payload.Shapes[F];
      auto [B, M, N, K] = S;
      std::string Name = "bmm_" + std::to_string(F);
      for (const char *Metric : {"exec.first_run_us", "exec.run_us"}) {
        exec::Buffer A = seededBuffer({B, M, K}, R);
        exec::Buffer Bm = seededBuffer({B, K, N}, R);
        exec::Buffer C = seededBuffer({B, M, N}, R);
        std::vector<double> Expected = *C.Data;
        referenceBmm(S, *A.Data, *Bm.Data, Expected);
        if (Corrupt)
          Expected[Expected.size() / 2] += 1;
        {
          LayerCall Call(Layers, Metric, "exec.run", "exec", /*Micros=*/true);
          if (failed(Exec.run(Name, {exec::RuntimeValue::makeBuffer(A),
                                     exec::RuntimeValue::makeBuffer(Bm),
                                     exec::RuntimeValue::makeBuffer(C)})))
            return "executing @" + Name + " failed";
        }
        if (Ops)
          *Ops += Exec.getLastOpCount();
        for (size_t I = 0; I < Expected.size(); ++I)
          if ((*C.Data)[I] != Expected[I])
            return "@" + Name + " result differs from the reference at " +
                   "element " + std::to_string(I);
      }
    }
    return "";
  }

  std::string StrategyDir;
  std::unique_ptr<Context> Ctx;
  std::unique_ptr<autotune::TuningDB> DB;
  std::unique_ptr<TransformLibraryManager> Libraries;
  std::unique_ptr<strategy::StrategyManager> Strategies;
  uint64_t Seed = 0;
  Rng StreamRng{0};
  /// Position of the first-sight request in the current block.
  int64_t NewAt = 0;
  /// The first PoolSize variants.
  std::vector<Variant> Pool;
  /// Variant indices in first-sight order.
  std::vector<int64_t> Seen;
  /// Tuned configuration per payload, from the first dispatch.
  std::map<uint64_t, std::vector<int64_t>> Configs;
};

} // namespace

std::unique_ptr<Workload>
perfbench::makeDispatchServe(std::string StrategyDir) {
  return std::make_unique<DispatchServe>(std::move(StrategyDir));
}
