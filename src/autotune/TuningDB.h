//===- TuningDB.h - Persistent best-known-configuration store ----*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent tuning database: the paper's Fig. 11 autotuning loop
/// turned into infrastructure a fleet shares. Every tuned dispatch ends in
/// a best-known configuration; this store keeps those configurations on
/// disk, keyed by
///
///   (payload structural fingerprint, target, strategy-library content
///    hash, hardware id)
///
/// so a later process — on this machine or, after a merge, on another —
/// warm-starts instead of re-searching. The strategy-library content hash
/// in the key is the staleness rule: editing a strategy library changes
/// its hash, so its stored configurations stop matching exactly and are
/// reported as *stale* (same payload/target/hardware, different hash)
/// rather than silently trusted; the stale configuration still seeds the
/// re-tune.
///
/// On-disk format: versioned, line-oriented text. Line 1 is the header
/// `tdl-tuning-db <version>`; every further non-comment line is one record
/// of whitespace-separated tokens:
///
///   <fingerprint> <target> <library-hash> <hardware-id> <strategy>
///       <cost> <evaluations> <n> <c1> ... <cn>
///
/// with hashes in fixed-width hex and the cost in round-trip decimal.
/// Loading is tolerant: malformed records are skipped with a named
/// diagnostic, and a version-mismatched file loads as empty (forcing a
/// full re-tune) instead of failing. Saving is atomic
/// (write-temp-then-rename), so concurrent readers never observe a
/// truncated store; concurrent *writers* on distinct paths are reconciled
/// offline with merge(), which unions two stores keeping the lower-cost
/// entry per key.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_AUTOTUNE_TUNINGDB_H
#define TDL_AUTOTUNE_TUNINGDB_H

#include "support/LogicalResult.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tdl {
namespace autotune {

/// Identity of one best-known configuration. All four components must
/// match for an exact (trusted) hit; a record agreeing on everything but
/// LibraryHash is a stale hit (the strategy library was edited since the
/// configuration was tuned).
struct TuningKey {
  uint64_t PayloadFingerprint = 0;
  std::string Target;
  uint64_t LibraryHash = 0;
  std::string HardwareId;

  bool operator<(const TuningKey &Other) const;
  bool operator==(const TuningKey &Other) const;
};

/// One stored best-known configuration.
struct TuningRecord {
  TuningKey Key;
  /// Library name of the strategy that produced the configuration
  /// (informational: dumps and diagnostics, not part of the key).
  std::string StrategyName;
  std::vector<int64_t> Config;
  /// Objective value of Config (lower is better; seconds by convention).
  double Cost = 0;
  /// Objective evaluations the producing search spent (informational).
  int64_t Evaluations = 0;
};

/// On-disk store of best-known configurations. Single-threaded like the
/// managers it serves; cross-process sharing goes through atomic save()
/// snapshots and offline merge(), not through locking.
class TuningDB {
public:
  /// Version 2: the payload fingerprint is hashOperationStructure() (a
  /// structural hash) instead of FNV-1a over the printed payload; version-1
  /// keys can never match, so a version-1 file loads as empty.
  static constexpr uint64_t FormatVersion = 2;

  /// The machine identity baked into every key: `TDL_HARDWARE_ID` when set
  /// (tests and fleet configuration), else `<arch>-<ncores>c` from uname
  /// and hardware_concurrency. A tuned configuration is only trusted on
  /// hardware that reports the same id.
  static std::string detectHardwareId();

  TuningDB() : HardwareId(detectHardwareId()) {}

  /// Loads the store at \p Path and remembers the path for save(). A
  /// missing file is an empty store, not an error. Malformed or
  /// version-mismatched content degrades to diagnostics appended to
  /// \p Diags (when non-null): bad records are skipped one by one, a bad
  /// header drops the whole file (full re-tune). Only an unreadable-but-
  /// existing file fails.
  LogicalResult open(std::string Path,
                     std::vector<std::string> *Diags = nullptr);

  /// The record stored under exactly \p Key, or null.
  const TuningRecord *lookup(const TuningKey &Key) const;

  /// The best (lowest-cost) record agreeing with \p Key on everything but
  /// the library hash, or null: a configuration tuned against an earlier
  /// edition of the strategy library. Not to be trusted as-is — it seeds
  /// the re-tune.
  const TuningRecord *lookupStale(const TuningKey &Key) const;

  /// Inserts \p Record, keeping the lower-cost entry when the key already
  /// exists, and drops superseded editions: entries sharing the record's
  /// (fingerprint, target, hardware) under a *different* library hash are
  /// erased, so a re-tune after a library edit invalidates exactly its own
  /// stale entries. Marks the store dirty. Allowed in read-only mode (the
  /// in-memory view updates; save() is what read-only blocks).
  void record(TuningRecord Record);

  /// Atomically rewrites the opened path with the current records (sorted
  /// by key, so equal stores are byte-identical). In read-only mode this
  /// is a success no-op that never touches the filesystem. Fails when no
  /// path was opened or the write/rename fails.
  LogicalResult save(std::vector<std::string> *Diags = nullptr) const;

  /// Offline union of the stores at \p PathA and \p PathB into \p OutPath,
  /// keeping the lower-cost record per key (ties keep A's record). Both
  /// inputs are loaded tolerantly; \p OutPath may equal either input. On
  /// success \p MergedSize (when non-null) receives the merged record
  /// count.
  static LogicalResult merge(const std::string &PathA,
                             const std::string &PathB,
                             const std::string &OutPath,
                             std::vector<std::string> *Diags = nullptr,
                             size_t *MergedSize = nullptr);

  /// Read-only mode: save() becomes a no-op (a fleet worker may consult a
  /// shared store it must not rewrite).
  void setReadOnly(bool Value) { ReadOnly = Value; }
  bool isReadOnly() const { return ReadOnly; }

  /// Whether record() changed the store since open()/save().
  bool isDirty() const { return Dirty; }

  size_t size() const { return Records.size(); }
  const std::map<TuningKey, TuningRecord> &getRecords() const {
    return Records;
  }
  const std::string &getPath() const { return Path; }

  const std::string &getHardwareId() const { return HardwareId; }
  void setHardwareId(std::string Id) { HardwareId = std::move(Id); }

  /// Serializes \p Record as one store line (no trailing newline).
  /// Whitespace inside string fields would corrupt the line orientation,
  /// so it is replaced with '_'.
  static std::string formatRecord(const TuningRecord &Record);

  /// Parses one store line into \p Out. On failure \p Error (when
  /// non-null) receives the reason.
  static bool parseRecord(std::string_view Line, TuningRecord &Out,
                          std::string *Error = nullptr);

private:
  /// Shared loader of open() and merge(): reads \p FromPath into \p Into.
  static LogicalResult loadInto(const std::string &FromPath,
                                std::map<TuningKey, TuningRecord> &Into,
                                std::vector<std::string> *Diags);

  /// Renders \p Entries in the on-disk format.
  static std::string
  render(const std::map<TuningKey, TuningRecord> &Entries);

  /// Union-keeping-cheaper insert shared by record() and merge().
  static void mergeRecord(std::map<TuningKey, TuningRecord> &Into,
                          TuningRecord Record);

  std::string Path;
  std::string HardwareId;
  std::map<TuningKey, TuningRecord> Records;
  bool ReadOnly = false;
  bool Dirty = false;
};

} // namespace autotune
} // namespace tdl

#endif // TDL_AUTOTUNE_TUNINGDB_H
