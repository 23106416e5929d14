//===- StrategyManager.h - Per-target strategy dispatch ---------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strategy dispatch subsystem: schedules as *first-class, reusable,
/// retargetable artifacts* (Sections 4.4/4.5 of the paper). A **strategy**
/// is a `transform.library` carrying a manifest (`strategy.target`,
/// `strategy.priority`, optional `strategy.params`) plus a public
/// `@strategy` entry sequence and an optional pure `@applies` matcher (see
/// StrategyManifest in core/TransformLibrary.h). The `StrategyManager`
/// layers on the two subsystems below it:
///
///  * `TransformLibraryManager` loads each strategy file once (parse /
///    verify / type-check cached by path + content hash) from the
///    `--strategy-dir` directories and owns the long-lived modules;
///  * `MatcherEngine::evaluateApplicability` answers, side-effect-free,
///    whether a candidate strategy's `@applies` matcher accepts the
///    payload.
///
/// **Dispatch** takes a payload module and a target name, walks the
/// fallback chain (e.g. avx2 -> generic), keeps the strategies whose
/// `@applies` matches (no matcher = always applicable), ranks survivors by
/// priority (higher wins; ties break deterministically by library name,
/// with a warning on ambiguous ties), and runs the winner's `@strategy`
/// through the interpreter in the library's linked scope. Selection is
/// cached by (payload fingerprint, target), so re-dispatching the same
/// payload shape skips every applicability query. The fingerprint is
/// `hashOperationStructure` (ir/IR.h), computed once per dispatch; the same
/// value keys the tuning database and is returned to the caller.
///
/// **Tuning**: when the winning manifest declares `strategy.params`, the
/// manager builds an `autotune::TuningSpace` from the candidate lists /
/// `divisors_of_dim` specs and — given a budget — drives `AutoTuner`,
/// binding each proposed configuration as `!transform.param` operands of
/// the entry sequence (the same readIntParams path every parametric
/// transform uses) against a deep copy of the payload, and measuring cost with
/// the objective hook (`exec::measureExecutionSeconds` by default). The
/// best configuration is then bound for the real run. Without a budget the
/// first candidate of every parameter is bound, deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_STRATEGY_STRATEGYMANAGER_H
#define TDL_STRATEGY_STRATEGYMANAGER_H

#include "autotune/AutoTuner.h"
#include "autotune/TuningDB.h"
#include "core/Transform.h"
#include "core/TransformLibrary.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace tdl {
namespace strategy {

/// One registered strategy: the parsed manifest plus its provenance.
struct RegisteredStrategy {
  StrategyManifest Manifest;
  /// Canonical path of the defining file (diagnostics and dumps).
  std::string File;
  /// Content hash of the defining file at load time — the library-edition
  /// component of the tuning-database key. Editing the file changes this
  /// hash and thereby marks the library's stored configurations stale.
  uint64_t LibraryHash = 0;
};

/// Options for one dispatch.
struct DispatchOptions {
  /// Interpreter options for the strategy run (shards, tracing, dynamic
  /// condition checks).
  TransformOptions Transform;
  /// Autotuning budget (number of objective evaluations). 0 disables
  /// tuning: parameters bind their first declared candidate.
  int TuneBudget = 0;
  uint64_t TuneSeed = 42;
  /// Cost of a transformed payload clone (lower is better; seconds by
  /// convention). Defaults to exec::measureExecutionSeconds on the clone's
  /// first function.
  std::function<FailureOr<double>(Operation *TransformedPayload)> Objective;
};

/// What one successful dispatch did.
struct DispatchResult {
  /// hashOperationStructure() of the payload as it arrived: the selection
  /// cache key and the tuning-database payload key of this dispatch.
  uint64_t PayloadFingerprint = 0;
  const RegisteredStrategy *Strategy = nullptr;
  /// The fallback-chain entry that produced the winner (equals the
  /// requested target unless the chain fell back).
  std::string MatchedTarget;
  /// Whether selection was answered from the dispatch cache.
  bool SelectionCacheHit = false;
  /// The bound parameter configuration, in manifest declaration order
  /// (empty when the strategy declares no parameters).
  std::vector<int64_t> Config;
  /// Objective value of Config (only meaningful after a tuned dispatch).
  double BestCost = 0;
  /// Objective evaluations actually spent (<= TuneBudget; memoization
  /// returns unused budget on small spaces).
  int64_t TuneEvaluations = 0;
  /// Whether the configuration came from an exact tuning-database hit
  /// (zero objective evaluations this run).
  bool TuningDBHit = false;
  /// Whether a stale tuning-database entry (earlier library edition)
  /// seeded the search.
  bool TuningDBStale = false;
};

/// Loads, selects, parameterizes, and runs per-target strategy libraries.
/// Single-threaded, like the library manager it layers on; the manager
/// must outlive nothing (it owns no modules — the TransformLibraryManager
/// does) but must not outlive its library manager.
class StrategyManager {
public:
  StrategyManager(Context &Ctx, TransformLibraryManager &Libraries)
      : Ctx(Ctx), Libraries(Libraries) {}
  StrategyManager(const StrategyManager &) = delete;
  StrategyManager &operator=(const StrategyManager &) = delete;

  /// Scans \p Dir for `*.mlir` strategy library files (sorted by name for
  /// a deterministic registration order), loads each through the library
  /// manager's parse-once cache, and registers every library carrying a
  /// strategy manifest. Repeatable; already-registered libraries are
  /// skipped. Fails on an unreadable or empty directory, a file that fails
  /// to load, or an ill-formed manifest.
  LogicalResult addStrategyDir(std::string_view Dir);

  /// Overrides the fallback of \p Target (default: every target falls back
  /// to "generic").
  void setFallback(std::string Target, std::string Next);

  /// The targets tried for \p Target, in order: the target itself, then
  /// its fallback links, ending at "generic" (cycle-guarded).
  std::vector<std::string> getFallbackChain(std::string_view Target) const;

  /// Selects the strategy for (\p Payload, \p Target): first fallback-chain
  /// entry with at least one applicable strategy wins; within a target,
  /// higher `strategy.priority` wins and ties break by library name (with
  /// an ambiguity warning). Cached by (payload fingerprint, target) — the
  /// cache hit skips every `@applies` query. Emits a diagnostic and fails
  /// when no strategy in the chain applies. Computes the payload
  /// fingerprint (one `strategy.fingerprint.computations`).
  struct Selection {
    const RegisteredStrategy *Strategy = nullptr;
    std::string MatchedTarget;
    bool CacheHit = false;
  };
  FailureOr<Selection> select(Operation *Payload, std::string_view Target,
                              const TransformOptions &Options);

  /// Full dispatch: fingerprint \p Payload once, select, resolve/tune the
  /// parameter configuration, and run the winner's `@strategy` on it.
  FailureOr<DispatchResult> dispatch(Operation *Payload,
                                     std::string_view Target,
                                     const DispatchOptions &Options = {});

  /// Builds the tuning space \p S declares against \p Payload (explicit
  /// candidate lists pass through; divisors_of_dim specs resolve against
  /// the static trip counts of the payload's outermost loop nest). Fails
  /// when a spec names a dimension the payload does not have.
  FailureOr<autotune::TuningSpace>
  buildTuningSpace(const RegisteredStrategy &S, Operation *Payload);

  /// Runs \p S's entry on \p Payload with \p Config bound as
  /// `!transform.param` arguments (Config size must match the declared
  /// parameter count). Exposed for tests asserting dispatch output is
  /// byte-identical to an inline run of the same entry.
  LogicalResult runStrategy(const RegisteredStrategy &S, Operation *Payload,
                            const TransformOptions &Options,
                            const std::vector<int64_t> &Config);

  const std::vector<std::unique_ptr<RegisteredStrategy>> &
  getStrategies() const {
    return Strategies;
  }
  const RegisteredStrategy *lookupStrategy(std::string_view LibraryName) const;
  size_t getNumStrategies() const { return Strategies.size(); }

  /// Probes for tests and the dispatch micro-benchmark: every select()
  /// (also via dispatch) counts as a query; only cache misses count as
  /// computations (applicability queries + ranking).
  int64_t getNumSelectQueries() const { return NumSelectQueries; }
  int64_t getNumSelectComputations() const { return NumSelectComputations; }

  /// Attaches (or detaches, with null) the persistent tuning database.
  /// Tuned dispatches consult it before searching: an exact-key hit binds
  /// the stored configuration with zero objective evaluations, a stale hit
  /// (library edited since the entry was tuned) is reported and seeds the
  /// re-tune, and the re-tuned winner is recorded back. Not owned; must
  /// outlive the manager's use of it.
  void setTuningDB(autotune::TuningDB *DB) { TuningDB = DB; }
  autotune::TuningDB *getTuningDB() const { return TuningDB; }

  /// Tuning-database probes: one of the three counters moves per tuned
  /// dispatch that consulted the database (exact hit / stale hit / miss).
  /// They flow into the BENCH_*.json artifacts via bench_strategy_dispatch.
  int64_t getNumTuningDBHits() const { return NumTuningDBHits; }
  int64_t getNumTuningDBStale() const { return NumTuningDBStale; }
  int64_t getNumTuningDBMisses() const { return NumTuningDBMisses; }

  /// The tuning-database key of strategy \p S for the payload fingerprint
  /// \p PayloadFingerprint: the strategy's own manifest target (not the
  /// requested alias — fallback dispatches share entries) plus its library
  /// content hash and the database's hardware id.
  autotune::TuningKey makeTuningKey(const RegisteredStrategy &S,
                                    uint64_t PayloadFingerprint) const;

  /// Prints every registered strategy with target, priority, entry
  /// signature, applicability gate, and declared parameters
  /// (`tdl-opt --dump-strategies`). With a payload fingerprint
  /// (hashOperationStructure) and an attached tuning database, each
  /// strategy also reports its database status for that payload: hit
  /// (trusted stored configuration), stale (entry from an earlier library
  /// edition), or absent.
  void dumpStrategies(
      raw_ostream &OS,
      std::optional<uint64_t> PayloadFingerprint = std::nullopt) const;

private:
  /// hashOperationStructure(\p Payload), counted as one
  /// `strategy.fingerprint.computations`.
  static uint64_t hashPayload(Operation *Payload);

  /// select() with the fingerprint already computed (dispatch reuses its
  /// own for the tuning-database key).
  FailureOr<Selection> select(Operation *Payload, uint64_t PayloadFingerprint,
                              std::string_view Target,
                              const TransformOptions &Options);

  /// Registers every not-yet-registered strategy library the library
  /// manager currently holds.
  LogicalResult refreshRegistrations();

  /// Executes \p S's entry block with payload + config bound; returns the
  /// interpreter's raw result (no diagnostics emitted — tuning evaluations
  /// treat failures as infeasible configs).
  DiagnosedSilenceableFailure
  executeEntry(const RegisteredStrategy &S, Operation *Payload,
               const TransformOptions &Options,
               const std::vector<int64_t> &Config);

  /// Applicable strategies of one exact target, ranked best-first.
  FailureOr<std::vector<const RegisteredStrategy *>>
  rankApplicable(Operation *Payload, std::string_view Target,
                 const TransformOptions &Options);

  Context &Ctx;
  TransformLibraryManager &Libraries;
  /// Registration order (unique_ptr: stable addresses for cache entries
  /// and DispatchResult::Strategy).
  std::vector<std::unique_ptr<RegisteredStrategy>> Strategies;
  /// Target -> indices into Strategies, in registration order.
  std::map<std::string, std::vector<size_t>, std::less<>> TargetIndex;
  /// Library ops already registered (addStrategyDir is repeatable).
  std::set<Operation *> RegisteredOps;
  /// Custom fallback links (absent: fall back to "generic").
  std::map<std::string, std::string, std::less<>> FallbackLinks;
  /// (payload fingerprint, target) -> selection.
  std::map<std::pair<uint64_t, std::string>, Selection> SelectionCache;
  int64_t NumSelectQueries = 0;
  int64_t NumSelectComputations = 0;
  /// Persistent best-known-configuration store (optional, not owned).
  autotune::TuningDB *TuningDB = nullptr;
  int64_t NumTuningDBHits = 0;
  int64_t NumTuningDBStale = 0;
  int64_t NumTuningDBMisses = 0;
};

} // namespace strategy
} // namespace tdl

#endif // TDL_STRATEGY_STRATEGYMANAGER_H
