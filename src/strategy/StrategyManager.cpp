//===- StrategyManager.cpp - Per-target strategy dispatch -----------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "strategy/StrategyManager.h"

#include "core/MatcherEngine.h"
#include "exec/Executor.h"
#include "loops/LoopUtils.h"
#include "support/STLExtras.h"
#include "support/Stream.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <dirent.h>
#include <optional>

using namespace tdl;
using namespace tdl::strategy;

using DSF = DiagnosedSilenceableFailure;

//===----------------------------------------------------------------------===//
// Registration
//===----------------------------------------------------------------------===//

LogicalResult StrategyManager::addStrategyDir(std::string_view Dir) {
  std::string DirStr(Dir);
  DIR *Handle = ::opendir(DirStr.c_str());
  if (!Handle)
    return Ctx.emitError(Location::name(Dir))
           << "strategy-dispatch: cannot open strategy directory '" << Dir
           << "'";
  std::vector<std::string> Files;
  while (struct dirent *Entry = ::readdir(Handle)) {
    std::string_view Name = Entry->d_name;
    if (Name.size() > 5 && Name.substr(Name.size() - 5) == ".mlir")
      Files.push_back(DirStr + "/" + std::string(Name));
  }
  ::closedir(Handle);
  if (Files.empty())
    return Ctx.emitError(Location::name(Dir))
           << "strategy-dispatch: strategy directory '" << Dir
           << "' contains no .mlir strategy library files";
  // Sorted scan: registration order (and with it every tie-break and dump)
  // must not depend on readdir()'s directory-entry order.
  std::sort(Files.begin(), Files.end());
  for (const std::string &File : Files)
    if (failed(Libraries.loadLibraryFile(File)))
      return failure(); // load diagnostics already emitted
  return refreshRegistrations();
}

LogicalResult StrategyManager::refreshRegistrations() {
  for (const TransformLibraryManager::LibraryInfo &Info :
       Libraries.getLibraries()) {
    if (!isStrategyLibrary(Info.Op) || RegisteredOps.count(Info.Op))
      continue;
    // The load path already rejected ill-formed manifests statically
    // (analyzeHandleTypes runs the manifest rules at library load); this
    // re-parse materializes the validated manifest for dispatch.
    std::vector<std::string> Errors;
    FailureOr<StrategyManifest> Manifest =
        parseStrategyManifest(Info.Op, &Errors);
    if (failed(Manifest)) {
      for (const std::string &Error : Errors)
        Info.Op->emitError() << "strategy-dispatch: " << Error;
      return failure();
    }
    // Link the library op itself so `transform.import` members (shared
    // matcher libraries) resolve when the entry runs in this scope.
    if (failed(Libraries.link(Info.Op)))
      return failure();
    auto Registered = std::make_unique<RegisteredStrategy>();
    Registered->Manifest = *Manifest;
    Registered->File = Info.File;
    Registered->LibraryHash = Info.ContentHash;
    TargetIndex[Registered->Manifest.Target].push_back(Strategies.size());
    RegisteredOps.insert(Info.Op);
    Strategies.push_back(std::move(Registered));
    // Registered strategies change what any target can select; conservatively
    // restart selection caching.
    SelectionCache.clear();
  }
  return success();
}

const RegisteredStrategy *
StrategyManager::lookupStrategy(std::string_view LibraryName) const {
  for (const std::unique_ptr<RegisteredStrategy> &S : Strategies)
    if (S->Manifest.LibraryName == LibraryName)
      return S.get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Fallback chain
//===----------------------------------------------------------------------===//

void StrategyManager::setFallback(std::string Target, std::string Next) {
  FallbackLinks[std::move(Target)] = std::move(Next);
  // Cached selections were computed under the old chain; a re-select of the
  // same (payload, target) must walk the new one.
  SelectionCache.clear();
}

std::vector<std::string>
StrategyManager::getFallbackChain(std::string_view Target) const {
  std::vector<std::string> Chain;
  std::string Current(Target);
  while (!Current.empty() && !is_contained(Chain, Current)) {
    Chain.push_back(Current);
    auto It = FallbackLinks.find(Current);
    if (It != FallbackLinks.end())
      Current = It->second;
    else if (Current != "generic")
      Current = "generic";
    else
      break;
  }
  return Chain;
}

//===----------------------------------------------------------------------===//
// Selection
//===----------------------------------------------------------------------===//

uint64_t StrategyManager::hashPayload(Operation *Payload) {
  static telemetry::Counter &Computations =
      telemetry::counter("strategy.fingerprint.computations");
  Computations.add();
  return hashOperationStructure(Payload);
}

FailureOr<std::vector<const RegisteredStrategy *>>
StrategyManager::rankApplicable(Operation *Payload, std::string_view Target,
                                const TransformOptions &Options) {
  std::vector<const RegisteredStrategy *> Survivors;
  auto It = TargetIndex.find(Target);
  if (It == TargetIndex.end())
    return Survivors;
  for (size_t Idx : It->second) {
    const RegisteredStrategy *S = Strategies[Idx].get();
    if (S->Manifest.Applies) {
      static telemetry::Counter &ApplicabilityQueries =
          telemetry::counter("strategy.applicability_queries");
      ApplicabilityQueries.add();
      FailureOr<bool> Applicable = MatcherEngine::evaluateApplicability(
          Payload, S->Manifest.Library, "applies", Options,
          "strategy-dispatch");
      if (failed(Applicable))
        return failure();
      if (!*Applicable)
        continue;
    }
    Survivors.push_back(S);
  }
  // Best first: priority descending, library name ascending. The name
  // tie-break keeps selection deterministic across directory scans and
  // registration orders.
  std::stable_sort(Survivors.begin(), Survivors.end(),
                   [](const RegisteredStrategy *A,
                      const RegisteredStrategy *B) {
                     if (A->Manifest.Priority != B->Manifest.Priority)
                       return A->Manifest.Priority > B->Manifest.Priority;
                     return A->Manifest.LibraryName < B->Manifest.LibraryName;
                   });
  return Survivors;
}

FailureOr<StrategyManager::Selection>
StrategyManager::select(Operation *Payload, std::string_view Target,
                        const TransformOptions &Options) {
  return select(Payload, hashPayload(Payload), Target, Options);
}

FailureOr<StrategyManager::Selection>
StrategyManager::select(Operation *Payload, uint64_t PayloadFingerprint,
                        std::string_view Target,
                        const TransformOptions &Options) {
  ++NumSelectQueries;
  static telemetry::Counter &SelectQueries =
      telemetry::counter("strategy.select_queries");
  SelectQueries.add();
  std::pair<uint64_t, std::string> Key{PayloadFingerprint,
                                       std::string(Target)};
  auto Cached = SelectionCache.find(Key);
  if (Cached != SelectionCache.end()) {
    Selection Result = Cached->second;
    Result.CacheHit = true;
    return Result;
  }
  ++NumSelectComputations;
  static telemetry::Counter &SelectComputations =
      telemetry::counter("strategy.select_computations");
  SelectComputations.add();

  std::vector<std::string> Chain = getFallbackChain(Target);
  for (const std::string &ChainTarget : Chain) {
    FailureOr<std::vector<const RegisteredStrategy *>> Ranked =
        rankApplicable(Payload, ChainTarget, Options);
    if (failed(Ranked))
      return failure();
    if (Ranked->empty())
      continue;
    if (Ranked->size() >= 2 &&
        (*Ranked)[0]->Manifest.Priority == (*Ranked)[1]->Manifest.Priority)
      (*Ranked)[0]->Manifest.Library->emitWarning()
          << "strategy-dispatch: ambiguous strategy priority tie for target '"
          << ChainTarget << "': '@" << (*Ranked)[0]->Manifest.LibraryName
          << "' and '@" << (*Ranked)[1]->Manifest.LibraryName
          << "' both have priority " << (*Ranked)[0]->Manifest.Priority
          << "; selecting '@" << (*Ranked)[0]->Manifest.LibraryName
          << "' (library name order) — disambiguate with strategy.priority";
    Selection Result;
    Result.Strategy = (*Ranked)[0];
    Result.MatchedTarget = ChainTarget;
    SelectionCache[Key] = Result;
    return Result;
  }

  std::string ChainText;
  for (const std::string &ChainTarget : Chain) {
    if (!ChainText.empty())
      ChainText += " -> ";
    ChainText += ChainTarget;
  }
  return Ctx.emitError(Location::name("strategy-dispatch"))
         << "strategy-dispatch: no applicable strategy for target '" << Target
         << "' (tried " << ChainText << "; " << Strategies.size()
         << " strateg" << (Strategies.size() == 1 ? "y" : "ies")
         << " registered)";
}

//===----------------------------------------------------------------------===//
// Running and tuning
//===----------------------------------------------------------------------===//

DSF StrategyManager::executeEntry(const RegisteredStrategy &S,
                                  Operation *Payload,
                                  const TransformOptions &Options,
                                  const std::vector<int64_t> &Config) {
  Operation *Entry = S.Manifest.Entry;
  Block &Body = Entry->getRegion(0).front();
  // Binding the payload root to a typed entry argument is a narrowing;
  // enforce it exactly like TransformInterpreter::run() does for scripts.
  Type RootTy = Body.getArgument(0).getType();
  if (TransformOpType Typed = RootTy.dyn_cast<TransformOpType>())
    if (Payload->getName() != Typed.getOpName())
      return DSF::definite("strategy '@" + S.Manifest.LibraryName +
                           "' entry argument type '" + RootTy.str() +
                           "' does not match the payload root op '" +
                           std::string(Payload->getName()) + "'");
  if (Config.size() + 1 != Body.getNumArguments())
    return DSF::definite("strategy '@" + S.Manifest.LibraryName +
                         "' expects " +
                         std::to_string(Body.getNumArguments() - 1) +
                         " parameters but " + std::to_string(Config.size()) +
                         " were bound");

  // The library op is the script root: members resolve first, then the
  // library's linked scope (its imports and the search-path tier).
  TransformInterpreter Interp(Payload, S.Manifest.Library, Options);
  Interp.getState().setPayload(Body.getArgument(0), {Payload});
  for (size_t I = 0; I < Config.size(); ++I)
    Interp.getState().setParams(
        Body.getArgument(I + 1),
        {IntegerAttr::getIndex(Ctx, Config[I])});
  DSF Result = DSF::success();
  {
    telemetry::ScopedSpan EntrySpan("strategy:entry", "strategy");
    EntrySpan.arg("strategy", S.Manifest.LibraryName);
    Result = Interp.executeBlock(Body);
  }
  // This interpreter never reaches run()'s end-of-interpretation flush.
  Interp.flushTraceLog();
  return Result;
}

LogicalResult StrategyManager::runStrategy(const RegisteredStrategy &S,
                                           Operation *Payload,
                                           const TransformOptions &Options,
                                           const std::vector<int64_t> &Config) {
  DSF Result = executeEntry(S, Payload, Options, Config);
  if (Result.succeeded())
    return success();
  return S.Manifest.Library->emitError()
         << "strategy-dispatch: strategy '@" << S.Manifest.LibraryName
         << "' failed: " << Result.getMessage();
}

/// The static trip counts of the payload's outermost loop nest, outermost
/// first: the dimensions `divisors_of_dim` specs index into.
static std::vector<int64_t> payloadLoopExtents(Operation *Payload) {
  Operation *Loop = nullptr;
  Payload->walkPre([&](Operation *Op) {
    if (Op->getName() == "scf.for") {
      Loop = Op;
      return WalkResult::Interrupt;
    }
    return WalkResult::Advance;
  });
  std::vector<int64_t> Extents;
  while (Loop) {
    std::optional<int64_t> Trip = loops::getStaticTripCount(Loop);
    if (!Trip)
      break;
    Extents.push_back(*Trip);
    Operation *Next = nullptr;
    if (Loop->getNumRegions() >= 1 && !Loop->getRegion(0).empty())
      for (Operation *Child : Loop->getRegion(0).front())
        if (Child->getName() == "scf.for") {
          Next = Child;
          break;
        }
    Loop = Next;
  }
  return Extents;
}

FailureOr<autotune::TuningSpace>
StrategyManager::buildTuningSpace(const RegisteredStrategy &S,
                                  Operation *Payload) {
  autotune::TuningSpace Space;
  std::vector<int64_t> Extents; // resolved lazily: explicit lists need none
  bool ExtentsResolved = false;
  for (const StrategyParamSpec &Spec : S.Manifest.Params) {
    autotune::TuningParam Param;
    Param.Name = Spec.Name;
    if (Spec.DivisorsOfDim < 0) {
      Param.Candidates = Spec.Candidates;
    } else {
      if (!ExtentsResolved) {
        Extents = payloadLoopExtents(Payload);
        ExtentsResolved = true;
      }
      if (static_cast<size_t>(Spec.DivisorsOfDim) >= Extents.size())
        return S.Manifest.Library->emitError()
               << "strategy-dispatch: parameter '" << Spec.Name
               << "' of strategy '@" << S.Manifest.LibraryName
               << "' asks for divisors_of_dim(" << Spec.DivisorsOfDim
               << ") but the payload's outermost loop nest has only "
               << Extents.size() << " statically sized dimension"
               << (Extents.size() == 1 ? "" : "s");
      Param.Candidates =
          autotune::TuningSpace::divisorsOf(Extents[Spec.DivisorsOfDim]);
    }
    Space.Params.push_back(std::move(Param));
  }
  return Space;
}

FailureOr<DispatchResult>
StrategyManager::dispatch(Operation *Payload, std::string_view Target,
                          const DispatchOptions &Options) {
  static telemetry::DurationStat &DispatchStat =
      telemetry::duration("strategy.dispatch");
  telemetry::ScopedTimer DispatchTimer(DispatchStat);
  telemetry::ScopedSpan DispatchSpan("strategy:dispatch", "strategy");
  DispatchSpan.arg("target", Target);
  // The one payload identity of this dispatch: selection, the tuning-DB key
  // and the caller (through the result) all use it. Computed before the
  // strategy runs, so it names the payload as it arrived.
  uint64_t PayloadFp = hashPayload(Payload);
  FailureOr<Selection> Selected =
      select(Payload, PayloadFp, Target, Options.Transform);
  if (failed(Selected))
    return failure();
  const RegisteredStrategy &S = *Selected->Strategy;

  DispatchResult Result;
  Result.PayloadFingerprint = PayloadFp;
  Result.Strategy = &S;
  Result.MatchedTarget = Selected->MatchedTarget;
  Result.SelectionCacheHit = Selected->CacheHit;

  if (!S.Manifest.Params.empty()) {
    FailureOr<autotune::TuningSpace> Space = buildTuningSpace(S, Payload);
    if (failed(Space))
      return failure();
    if (Options.TuneBudget > 0) {
      // Consult the persistent store before searching. An exact key match
      // (same payload, target, library edition, hardware) is trusted
      // outright: the stored configuration binds with zero objective
      // evaluations. A stale match (library edited since) is reported and
      // demoted to a warm-start seed for the re-tune below.
      autotune::TuningRequest Request;
      autotune::TuningKey DBKey;
      if (TuningDB) {
        DBKey = makeTuningKey(S, PayloadFp);
        if (const autotune::TuningRecord *Hit = TuningDB->lookup(DBKey)) {
          if (Space->containsConfig(Hit->Config) &&
              Space->isFeasible(Hit->Config)) {
            ++NumTuningDBHits;
            telemetry::counter("strategy.tuning_db.hits").add();
            Result.Config = Hit->Config;
            Result.BestCost = Hit->Cost;
            Result.TuneEvaluations = 0;
            Result.TuningDBHit = true;
          }
        }
        if (!Result.TuningDBHit) {
          if (const autotune::TuningRecord *Stale =
                  TuningDB->lookupStale(DBKey)) {
            ++NumTuningDBStale;
            telemetry::counter("strategy.tuning_db.stale").add();
            Result.TuningDBStale = true;
            Request.SeedConfigs.push_back(Stale->Config);
            S.Manifest.Library->emitWarning()
                << "strategy-dispatch: tuning-db entry for strategy '@"
                << S.Manifest.LibraryName << "' (target '"
                << S.Manifest.Target
                << "') is stale: the library was edited since it was "
                   "tuned; re-tuning with the stale configuration as a "
                   "seed";
          } else {
            ++NumTuningDBMisses;
            telemetry::counter("strategy.tuning_db.misses").add();
          }
        }
      }
      if (!Result.TuningDBHit) {
        // Tuning runs against clones: every evaluation deep-copies the
        // payload, applies the entry with the proposed configuration, and
        // measures the transformed copy — the real payload is only touched
        // by the final, winning configuration.
        std::function<FailureOr<double>(Operation *)> Objective =
            Options.Objective;
        if (!Objective)
          Objective = [](Operation *Transformed) {
            return exec::measureExecutionSeconds(Transformed);
          };
        TransformOptions EvalOptions = Options.Transform;
        EvalOptions.Trace = false;
        autotune::TunerOptions TunerOpts;
        TunerOpts.Seed = Options.TuneSeed;
        autotune::AutoTuner Tuner(TunerOpts);
        Request.Space = *Space;
        Request.Budget = Options.TuneBudget;
        Request.Objective =
            [&](const std::vector<int64_t> &Config) -> double {
          OwningOpRef Clone(Payload->clone());
          // A config the strategy rejects (e.g. a tile that does not
          // divide) is infeasible, not an error: cost it out of the
          // search instead of aborting the dispatch.
          if (!executeEntry(S, Clone.get(), EvalOptions, Config)
                   .succeeded())
            return 1e9;
          FailureOr<double> Cost = Objective(Clone.get());
          return failed(Cost) ? 1e9 : *Cost;
        };
        FailureOr<std::vector<autotune::Evaluation>> History = [&] {
          static telemetry::DurationStat &TuneStat =
              telemetry::duration("strategy.tune");
          telemetry::ScopedTimer TuneTimer(TuneStat);
          telemetry::ScopedSpan TuneSpan("strategy:tune", "strategy");
          TuneSpan.arg("strategy", S.Manifest.LibraryName);
          TuneSpan.arg("budget", static_cast<int64_t>(Options.TuneBudget));
          return Tuner.optimize(Request);
        }();
        if (failed(History))
          return S.Manifest.Library->emitError()
                 << "strategy-dispatch: tuning space of strategy '@"
                 << S.Manifest.LibraryName
                 << "' is degenerate or infeasible";
        if (Tuner.getBest().Cost >= 1e9)
          return S.Manifest.Library->emitError()
                 << "strategy-dispatch: every tuning configuration of "
                    "strategy '@"
                 << S.Manifest.LibraryName << "' failed on this payload";
        Result.Config = Tuner.getBest().Config;
        Result.BestCost = Tuner.getBest().Cost;
        Result.TuneEvaluations = static_cast<int64_t>(History->size());
        if (TuningDB) {
          // Record the re-tuned winner. record() also erases this key's
          // superseded editions, so a stale entry is invalidated exactly
          // when its replacement exists.
          autotune::TuningRecord Winner;
          Winner.Key = DBKey;
          Winner.StrategyName = S.Manifest.LibraryName;
          Winner.Config = Result.Config;
          Winner.Cost = Result.BestCost;
          Winner.Evaluations = Result.TuneEvaluations;
          TuningDB->record(std::move(Winner));
        }
      }
    } else {
      // No budget: the deterministic default configuration is the first
      // declared candidate of every parameter.
      for (const autotune::TuningParam &Param : Space->Params)
        Result.Config.push_back(Param.Candidates.front());
    }
  }

  if (failed(runStrategy(S, Payload, Options.Transform, Result.Config)))
    return failure();
  return Result;
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

autotune::TuningKey
StrategyManager::makeTuningKey(const RegisteredStrategy &S,
                               uint64_t PayloadFingerprint) const {
  autotune::TuningKey Key;
  Key.PayloadFingerprint = PayloadFingerprint;
  // The strategy's own manifest target, not the requested alias: a payload
  // dispatched to 'avx2' that falls back to a 'generic' strategy must share
  // its entry with a direct 'generic' dispatch.
  Key.Target = S.Manifest.Target;
  Key.LibraryHash = S.LibraryHash;
  Key.HardwareId = TuningDB ? TuningDB->getHardwareId()
                            : autotune::TuningDB::detectHardwareId();
  return Key;
}

void StrategyManager::dumpStrategies(
    raw_ostream &OS, std::optional<uint64_t> PayloadFingerprint) const {
  for (const std::unique_ptr<RegisteredStrategy> &S : Strategies) {
    const StrategyManifest &M = S->Manifest;
    OS << "strategy '@" << M.LibraryName << "' (target '" << M.Target
       << "', priority " << M.Priority << ", from " << S->File << "):\n";
    OS << "  entry @strategy : "
       << TransformLibraryManager::signatureOf(M.Entry) << "\n";
    OS << "  applies: " << (M.Applies ? "@applies" : "always") << "\n";
    if (PayloadFingerprint && TuningDB) {
      autotune::TuningKey Key = makeTuningKey(*S, *PayloadFingerprint);
      if (const autotune::TuningRecord *Hit = TuningDB->lookup(Key)) {
        OS << "  tuning-db: hit (cost " << doubleToString(Hit->Cost)
           << ", " << Hit->Evaluations << " evaluations recorded)\n";
      } else if (TuningDB->lookupStale(Key)) {
        OS << "  tuning-db: stale (library edited since tuning)\n";
      } else {
        OS << "  tuning-db: absent\n";
      }
    }
    for (const StrategyParamSpec &Spec : M.Params) {
      OS << "  param " << Spec.Name;
      if (Spec.DivisorsOfDim >= 0) {
        OS << " = divisors_of_dim(" << Spec.DivisorsOfDim << ")";
      } else {
        OS << " in [";
        for (size_t I = 0; I < Spec.Candidates.size(); ++I) {
          if (I)
            OS << ", ";
          OS << Spec.Candidates[I];
        }
        OS << "]";
      }
      OS << "\n";
    }
  }
}
