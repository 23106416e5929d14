//===- TransformLibrary.h - Shared transform script libraries ---*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transform library subsystem: because transform scripts are ordinary
/// IR (the paper's central claim), common matchers and named sequences can
/// be shared as *libraries* instead of being textually pasted into every
/// script. This layer sits between "parse one script" and "run one script":
///
///  * A **library file** is a module holding `transform.library` container
///    ops. Each library owns a flat namespace of named sequences whose
///    `visibility` is `public` (the default, importable) or `private`
///    (intra-library helpers only).
///  * `TransformLibraryManager` loads library files, parses, verifies, and
///    `analyzeHandleTypes`-checks each one exactly **once**, and caches the
///    loaded module keyed by canonical path + content hash — repeated
///    interpretations (and all match shards) reuse the same checked library
///    instead of re-parsing. The manager owns the long-lived library
///    modules; it must outlive every interpreter that resolves into them.
///  * `transform.import` links library symbols into a script's resolution
///    scope (`{from = @lib, symbol = @m}`, or import-all with `symbol`
///    omitted; an optional `file` attribute loads the library through the
///    search directories first). `link()` records the merged scope in a
///    process-wide side table consulted by the one shared resolver
///    (`resolveTransformSequence`), so the interpreter, the MatcherEngine's
///    symbol resolution and name prefilters, the include-cycle check, and
///    the static type analysis all see the same merged symbol scope.
///
/// Resolution order for a reference in a linked script: script-local
/// definitions shadow everything; then explicitly imported symbols (plus
/// the imported libraries' private helpers, so a public sequence may
/// include its private helper across the file boundary); then the public
/// symbols of every other loaded library, in load order (the "search path"
/// tier). Importing a private symbol, importing the same public name from
/// two libraries, and cross-file import cycles are link/load-time errors.
///
/// Not to be confused with `transform.to_library`, which substitutes
/// payload loop nests with *microkernel* library calls (see the comment at
/// its registration in TransformOps.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef TDL_CORE_TRANSFORMLIBRARY_H
#define TDL_CORE_TRANSFORMLIBRARY_H

#include "ir/IR.h"
#include "support/LogicalResult.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tdl {

class raw_ostream;

//===----------------------------------------------------------------------===//
// Linked-scope lookup (consulted by resolveTransformSequence)
//===----------------------------------------------------------------------===//

/// FNV-1a over \p Content: cheap, deterministic content hashing for the
/// library manager's reload detection and the library-edition component of
/// tuning-database keys. (Payloads are fingerprinted structurally, by
/// hashOperationStructure in ir/IR.h.)
uint64_t hashContent(std::string_view Content);

/// Resolves \p Name among the library symbols linked into \p ScriptRoot's
/// scope by a TransformLibraryManager: explicitly imported symbols first,
/// then the imported libraries' private helpers, then the public symbols of
/// the other loaded libraries in load order. Returns null when \p ScriptRoot
/// has no linked scope or the scope has no such symbol. Thread-safe.
Operation *lookupLinkedLibrarySymbol(Operation *ScriptRoot,
                                     std::string_view Name);

//===----------------------------------------------------------------------===//
// Strategy manifests
//===----------------------------------------------------------------------===//

/// One tunable parameter declared by a strategy manifest: either an explicit
/// candidate list, or a `divisors_of_dim` spec resolved against the payload's
/// loop-nest extents at dispatch time (Fig. 10's "tile divides its dimension"
/// constraint, encoded in the candidate set instead of a reject predicate).
struct StrategyParamSpec {
  std::string Name;
  /// Explicit candidates (empty for a divisors_of_dim spec).
  std::vector<int64_t> Candidates;
  /// When >= 0, the candidates are the divisors of the payload loop nest's
  /// trip count at this depth; mutually exclusive with Candidates.
  int64_t DivisorsOfDim = -1;
};

/// The parsed manifest of a *strategy library*: a `transform.library` that
/// additionally describes when and how it lowers a payload for one target.
/// Manifest attributes on the library op:
///
///   strategy.target   = "avx2"        (string, required; dispatch key)
///   strategy.priority = 10 : index    (integer, optional; higher wins)
///   strategy.params   = [["tile_i", 1, 2, 4],
///                        ["tile_j", "divisors_of_dim", 1]]   (optional)
///
/// Required members: a public named sequence `@strategy` (the entry; first
/// argument is the payload root handle, then one `!transform.param` argument
/// per declared parameter, in declaration order). Optional: a pure matcher
/// `@applies` (one op-handle argument, side-effect-free body) gating
/// applicability — the strategy is a dispatch candidate only when `@applies`
/// matches some op of the payload.
struct StrategyManifest {
  Operation *Library = nullptr;
  std::string LibraryName;
  std::string Target;
  int64_t Priority = 0;
  /// The public `@strategy` entry sequence.
  Operation *Entry = nullptr;
  /// The optional `@applies` matcher (null when always applicable).
  Operation *Applies = nullptr;
  std::vector<StrategyParamSpec> Params;
};

/// Whether \p LibraryOp carries any `strategy.*` manifest attribute (and must
/// therefore satisfy the full manifest rules).
bool isStrategyLibrary(Operation *LibraryOp);

/// Parses and validates the strategy manifest of \p LibraryOp. On failure
/// every problem found is appended to \p Errors (when non-null); no
/// diagnostics are emitted — the static analysis (`analyzeHandleTypes`) and
/// the StrategyManager both report through their own channels. The checks
/// here are the single statement of manifest well-formedness: attribute
/// kinds, the `@strategy` entry's existence/visibility/signature (params
/// bind as trailing `!transform.param` arguments), `@applies` shape and
/// purity (only MatcherOk, non-consuming transform ops), and the
/// `strategy.params` encoding (named, non-empty, unique candidate lists or
/// well-formed divisors_of_dim specs).
FailureOr<StrategyManifest>
parseStrategyManifest(Operation *LibraryOp,
                      std::vector<std::string> *Errors = nullptr);

//===----------------------------------------------------------------------===//
// TransformLibraryManager
//===----------------------------------------------------------------------===//

/// Loads, caches, and links transform libraries. Setup (loading, linking)
/// is single-threaded; the linked scopes it registers are read thread-safely
/// by the resolver. The manager owns every loaded library module and keeps
/// superseded modules alive until destruction, so handles resolved through a
/// previously linked scope never dangle after a reload.
class TransformLibraryManager {
public:
  explicit TransformLibraryManager(Context &Ctx) : Ctx(Ctx) {}
  /// Unregisters every scope this manager linked and destroys the loaded
  /// library modules. No interpreter may resolve into them afterwards.
  ~TransformLibraryManager();
  TransformLibraryManager(const TransformLibraryManager &) = delete;
  TransformLibraryManager &operator=(const TransformLibraryManager &) = delete;

  /// Appends a directory to the library search path (used to resolve
  /// non-absolute paths of loadLibraryFile and `file` import attributes).
  void addSearchDir(std::string Dir);

  /// Loads the library file at \p Path (searched through the search
  /// directories when not found as given): parses, verifies, and
  /// type-checks it once, registers every top-level `transform.library` in
  /// it, and recursively loads `file`-bearing imports. A repeated load of
  /// the same canonical path with unchanged content is a cache hit; changed
  /// content re-parses (the superseded module stays alive). Emits
  /// diagnostics and fails on a missing file, parse/verify/type errors,
  /// duplicate library names, or a cross-file import cycle.
  LogicalResult loadLibraryFile(std::string_view Path);

  /// Builds the linked scope of \p ScriptRoot from its `transform.import`
  /// ops (loading `file` imports on demand) and registers it for
  /// resolveTransformSequence. Re-linking an already linked root rebuilds
  /// its scope. Emits diagnostics and fails on an unknown library or
  /// symbol, an import of a private symbol, or the same public name
  /// imported from two different libraries.
  LogicalResult link(Operation *ScriptRoot);

  /// Removes \p ScriptRoot's linked scope (idempotent).
  void unlink(Operation *ScriptRoot);

  /// The loaded library op named \p Name, or null.
  Operation *lookupLibrary(std::string_view Name) const;

  /// Number of distinct loaded library ops.
  size_t getNumLibraries() const { return Libraries.size(); }

  /// One loaded library surfaced for clients that scan the manager (the
  /// StrategyManager walks this to find strategy manifests).
  struct LibraryInfo {
    std::string Name;
    Operation *Op = nullptr;
    /// Canonical path of the defining file.
    std::string File;
    /// hashContent() of the defining file's bytes at load time — the
    /// edition identity the tuning database keys on: editing the file
    /// changes the hash, which invalidates (marks stale) its stored
    /// configurations.
    uint64_t ContentHash = 0;
  };

  /// Every loaded library in load order (the deterministic order dispatch
  /// tie-breaks and dumps rely on).
  std::vector<LibraryInfo> getLibraries() const;

  /// Load-count probes: every loadLibraryFile call counts as a request;
  /// only cache misses count as parses. The acceptance guarantee that a
  /// library is parsed/type-checked exactly once across repeated
  /// interpretations is asserted against getNumParses().
  int64_t getNumLoadRequests() const { return NumLoadRequests; }
  int64_t getNumParses() const { return NumParses; }

  /// Prints every loaded library's exported (public) symbols with their
  /// handle-type signatures, for debugging library mismatches
  /// (`tdl-opt --dump-library-symbols`).
  void dumpSymbols(raw_ostream &OS) const;

  /// Whether a library member is importable (`visibility` is absent or
  /// "public").
  static bool isPublicSymbol(Operation *SymbolOp);

  /// Renders a named sequence's handle-type signature, e.g.
  /// "(!transform.any_op) -> (!transform.op<\"scf.for\">)".
  static std::string signatureOf(Operation *SequenceOp);

private:
  struct LoadedFile {
    std::string CanonicalPath;
    uint64_t ContentHash = 0;
    OwningOpRef Module;
    /// Library names this file registered (re-registered on reload).
    std::vector<std::string> LibraryNames;
  };

  struct LibraryEntry {
    Operation *Op = nullptr;
    /// Canonical path of the defining file (for diagnostics and dumps).
    std::string File;
  };

  /// Resolves \p Path against the search directories; empty when no
  /// readable candidate exists. \p Content receives the file bytes.
  std::string findAndRead(std::string_view Path, std::string &Content) const;

  LogicalResult loadLibraryFileImpl(std::string_view Path,
                                    std::vector<std::string> &LoadStack);

  /// Removes \p File's library registrations (reload and failed-load paths).
  void unregisterLibraries(LoadedFile &File);

  /// Registers the `transform.library` ops of \p File's module, then links
  /// and eagerly type-checks the module itself (its imports may reference
  /// libraries from other files, loaded recursively beforehand).
  LogicalResult registerAndCheck(LoadedFile &File,
                                 std::vector<std::string> &LoadStack);

  Context &Ctx;
  std::vector<std::string> SearchDirs;
  /// Keyed by canonical path.
  std::map<std::string, LoadedFile, std::less<>> Files;
  /// Superseded modules of reloaded files, kept alive for old scopes.
  std::vector<OwningOpRef> Retired;
  /// Library name -> definition; names form a flat cross-file namespace.
  std::map<std::string, LibraryEntry, std::less<>> Libraries;
  /// Library names in load order (the search-path tier's priority).
  std::vector<std::string> LibraryLoadOrder;
  /// Script roots this manager linked (unregistered on destruction).
  std::vector<Operation *> LinkedRoots;
  int64_t NumLoadRequests = 0;
  int64_t NumParses = 0;
};

} // namespace tdl

#endif // TDL_CORE_TRANSFORMLIBRARY_H
