//===- TuningDBTest.cpp - Persistent tuning database tests ----------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "autotune/TuningDB.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace tdl;
using namespace tdl::autotune;

namespace {

/// Scratch directory removed on destruction; every test writes its stores
/// under a fresh one so runs cannot interfere.
struct TempDBDir {
  std::string Path;

  TempDBDir() {
    char Template[] = "/tmp/tdl_tuningdb_test_XXXXXX";
    Path = mkdtemp(Template);
  }
  ~TempDBDir() {
    for (const std::string &File : Written)
      ::unlink(File.c_str());
    ::rmdir(Path.c_str());
  }

  std::string file(const std::string &Name) {
    std::string Full = Path + "/" + Name;
    Written.push_back(Full);
    return Full;
  }

  void write(const std::string &Name, const std::string &Text) {
    std::ofstream OS(file(Name));
    OS << Text;
  }

  std::string read(const std::string &Name) {
    std::ifstream IS(Path + "/" + Name);
    std::ostringstream SS;
    SS << IS.rdbuf();
    return SS.str();
  }

  bool exists(const std::string &Name) {
    struct stat SB;
    return ::stat((Path + "/" + Name).c_str(), &SB) == 0;
  }

  std::vector<std::string> Written;
};

TuningRecord makeRecord(uint64_t Fp, const std::string &Target,
                        uint64_t LibHash, const std::string &Hw,
                        std::vector<int64_t> Config, double Cost,
                        int64_t Evals = 8) {
  TuningRecord R;
  R.Key = {Fp, Target, LibHash, Hw};
  R.StrategyName = "tuned_tiling";
  R.Config = std::move(Config);
  R.Cost = Cost;
  R.Evaluations = Evals;
  return R;
}

//===----------------------------------------------------------------------===//
// Record line format
//===----------------------------------------------------------------------===//

TEST(TuningDBTest, RecordLineRoundTrips) {
  TuningRecord In =
      makeRecord(0xdeadbeef12345678ull, "avx2", 0x0123456789abcdefull,
                 "x86_64-8c", {4, 16, 1}, 0.03125, 12);
  std::string Line = TuningDB::formatRecord(In);
  TuningRecord Out;
  std::string Error;
  ASSERT_TRUE(TuningDB::parseRecord(Line, Out, &Error)) << Error;
  EXPECT_TRUE(Out.Key == In.Key);
  EXPECT_EQ(Out.StrategyName, In.StrategyName);
  EXPECT_EQ(Out.Config, In.Config);
  EXPECT_DOUBLE_EQ(Out.Cost, In.Cost);
  EXPECT_EQ(Out.Evaluations, In.Evaluations);
}

TEST(TuningDBTest, RecordLineRoundTripsAwkwardValues) {
  // Empty config, an irrational cost that needs all 17 significant digits,
  // and string fields containing whitespace (sanitized to '_', which keeps
  // the line orientation at the cost of the exact name).
  TuningRecord In = makeRecord(0, "my target", 0, "odd hw id", {}, 1.0 / 3.0);
  std::string Line = TuningDB::formatRecord(In);
  EXPECT_EQ(Line.find('\n'), std::string::npos);
  TuningRecord Out;
  ASSERT_TRUE(TuningDB::parseRecord(Line, Out));
  EXPECT_EQ(Out.Key.Target, "my_target");
  EXPECT_EQ(Out.Key.HardwareId, "odd_hw_id");
  EXPECT_TRUE(Out.Config.empty());
  EXPECT_DOUBLE_EQ(Out.Cost, 1.0 / 3.0);
}

TEST(TuningDBTest, ParseRecordNamesEachFailure) {
  TuningRecord Out;
  std::string Error;
  EXPECT_FALSE(TuningDB::parseRecord("0123 avx2 0456", Out, &Error));
  EXPECT_EQ(Error, "truncated record (expected at least 8 fields)");
  EXPECT_FALSE(TuningDB::parseRecord(
      "nothex avx2 0456 hw lib 0.5 8 1 4", Out, &Error));
  EXPECT_EQ(Error, "malformed payload fingerprint (not a hex hash)");
  EXPECT_FALSE(TuningDB::parseRecord(
      "0123 avx2 nothex hw lib 0.5 8 1 4", Out, &Error));
  EXPECT_EQ(Error, "malformed library hash (not a hex hash)");
  EXPECT_FALSE(TuningDB::parseRecord(
      "0123 avx2 0456 hw lib notacost 8 1 4", Out, &Error));
  EXPECT_EQ(Error, "malformed cost (not a decimal number)");
  EXPECT_FALSE(TuningDB::parseRecord(
      "0123 avx2 0456 hw lib 0.5 8 2 4", Out, &Error));
  EXPECT_EQ(Error, "configuration arity does not match the value count");
  EXPECT_FALSE(TuningDB::parseRecord(
      "0123 avx2 0456 hw lib 0.5 8 1 notanint", Out, &Error));
  EXPECT_EQ(Error, "malformed configuration value");
}

//===----------------------------------------------------------------------===//
// Store round trip, tolerant load, versioning
//===----------------------------------------------------------------------===//

TEST(TuningDBTest, SaveThenOpenRoundTrips) {
  TempDBDir Dir;
  std::string Path = Dir.file("store.tdb");
  {
    TuningDB DB;
    ASSERT_TRUE(succeeded(DB.open(Path))); // missing file = empty store
    EXPECT_EQ(DB.size(), 0u);
    EXPECT_FALSE(DB.isDirty());
    DB.record(makeRecord(1, "avx2", 10, "hw", {4}, 0.5));
    DB.record(makeRecord(2, "generic", 10, "hw", {8, 2}, 0.25));
    EXPECT_TRUE(DB.isDirty());
    ASSERT_TRUE(succeeded(DB.save()));
  }
  TuningDB Reloaded;
  std::vector<std::string> Diags;
  ASSERT_TRUE(succeeded(Reloaded.open(Path, &Diags)));
  EXPECT_TRUE(Diags.empty());
  ASSERT_EQ(Reloaded.size(), 2u);
  const TuningRecord *Hit = Reloaded.lookup({1, "avx2", 10, "hw"});
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Config, (std::vector<int64_t>{4}));
  EXPECT_DOUBLE_EQ(Hit->Cost, 0.5);
}

TEST(TuningDBTest, EqualStoresSaveByteIdentical) {
  TempDBDir Dir;
  // The same records inserted in a different order render identically:
  // rendering is sorted by key, so diffs between fleet snapshots are real
  // content changes.
  TuningDB A, B;
  ASSERT_TRUE(succeeded(A.open(Dir.file("a.tdb"))));
  ASSERT_TRUE(succeeded(B.open(Dir.file("b.tdb"))));
  TuningRecord R1 = makeRecord(1, "avx2", 10, "hw", {4}, 0.5);
  TuningRecord R2 = makeRecord(2, "generic", 11, "hw", {8}, 0.25);
  A.record(R1);
  A.record(R2);
  B.record(R2);
  B.record(R1);
  ASSERT_TRUE(succeeded(A.save()));
  ASSERT_TRUE(succeeded(B.save()));
  EXPECT_EQ(Dir.read("a.tdb"), Dir.read("b.tdb"));
}

TEST(TuningDBTest, CorruptRecordSkippedWithNamedDiagnostic) {
  TempDBDir Dir;
  TuningRecord Good = makeRecord(1, "avx2", 10, "hw", {4}, 0.5);
  Dir.write("store.tdb", "tdl-tuning-db 2\n" +
                             TuningDB::formatRecord(Good) + "\n" +
                             "0123 avx2 truncated\n" + "# a comment\n" +
                             "0123 avx2 0456 hw lib 0.5 8 1 notanint\n");
  TuningDB DB;
  std::vector<std::string> Diags;
  ASSERT_TRUE(succeeded(DB.open(Dir.Path + "/store.tdb", &Diags)));
  // The good record survives; each bad line gets its own located message.
  EXPECT_EQ(DB.size(), 1u);
  EXPECT_NE(DB.lookup(Good.Key), nullptr);
  ASSERT_EQ(Diags.size(), 2u);
  EXPECT_NE(Diags[0].find("skipping record at"), std::string::npos);
  EXPECT_NE(Diags[0].find(":3:"), std::string::npos) << Diags[0];
  EXPECT_NE(Diags[0].find("truncated record"), std::string::npos);
  EXPECT_NE(Diags[1].find(":5:"), std::string::npos) << Diags[1];
  EXPECT_NE(Diags[1].find("malformed configuration value"),
            std::string::npos);
}

TEST(TuningDBTest, VersionMismatchLoadsEmptyWithDiagnostic) {
  TempDBDir Dir;
  TuningRecord Good = makeRecord(1, "avx2", 10, "hw", {4}, 0.5);
  Dir.write("store.tdb",
            "tdl-tuning-db 999\n" + TuningDB::formatRecord(Good) + "\n");
  TuningDB DB;
  std::vector<std::string> Diags;
  ASSERT_TRUE(succeeded(DB.open(Dir.Path + "/store.tdb", &Diags)));
  // Unknown format: nothing is trusted — a full re-tune, not a crash.
  EXPECT_EQ(DB.size(), 0u);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].find("unsupported header"), std::string::npos);
  EXPECT_NE(Diags[0].find("full re-tune"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Lookup, staleness, and supersession
//===----------------------------------------------------------------------===//

TEST(TuningDBTest, LookupStaleMatchesEditedLibraryOnly) {
  TuningDB DB;
  DB.record(makeRecord(1, "avx2", /*LibHash=*/10, "hw", {4}, 0.5));

  // Exact hash: an exact hit, not a stale one.
  EXPECT_NE(DB.lookup({1, "avx2", 10, "hw"}), nullptr);
  EXPECT_EQ(DB.lookupStale({1, "avx2", 10, "hw"}), nullptr);

  // Edited library (different hash): stale hit.
  const TuningRecord *Stale = DB.lookupStale({1, "avx2", 11, "hw"});
  ASSERT_NE(Stale, nullptr);
  EXPECT_EQ(Stale->Config, (std::vector<int64_t>{4}));

  // Different payload, target, or hardware: no hit of any kind.
  EXPECT_EQ(DB.lookupStale({2, "avx2", 11, "hw"}), nullptr);
  EXPECT_EQ(DB.lookupStale({1, "generic", 11, "hw"}), nullptr);
  EXPECT_EQ(DB.lookupStale({1, "avx2", 11, "other-hw"}), nullptr);
}

TEST(TuningDBTest, LookupStalePrefersCheapestEdition) {
  TuningDB DB;
  DB.record(makeRecord(1, "avx2", 10, "hw", {2}, 0.9));
  // record() supersedes other editions, so build the multi-edition state
  // the way it arises in practice: merge-loaded stores. Simulate by
  // inserting under distinct hardware... no — distinct hashes via a fresh
  // map is private. Use two records with different hashes directly: the
  // second record() call erases the first edition, so assert that instead.
  DB.record(makeRecord(1, "avx2", 11, "hw", {4}, 0.5));
  EXPECT_EQ(DB.lookup({1, "avx2", 10, "hw"}), nullptr)
      << "re-tune must supersede the stale edition";
  const TuningRecord *Stale = DB.lookupStale({1, "avx2", 12, "hw"});
  ASSERT_NE(Stale, nullptr);
  EXPECT_EQ(Stale->Key.LibraryHash, 11u);
}

TEST(TuningDBTest, RecordSupersedesOnlyItsOwnStaleEntries) {
  TuningDB DB;
  DB.record(makeRecord(1, "avx2", 10, "hw", {2}, 0.9));
  DB.record(makeRecord(1, "generic", 10, "hw", {8}, 0.7)); // other target
  DB.record(makeRecord(2, "avx2", 10, "hw", {16}, 0.6));   // other payload
  DB.record(makeRecord(1, "avx2", 10, "other-hw", {32}, 0.4)); // other hw

  // Re-tune of (1, avx2, hw) against an edited library.
  DB.record(makeRecord(1, "avx2", 11, "hw", {4}, 0.5));

  EXPECT_EQ(DB.size(), 4u);
  EXPECT_EQ(DB.lookup({1, "avx2", 10, "hw"}), nullptr);
  EXPECT_NE(DB.lookup({1, "avx2", 11, "hw"}), nullptr);
  // Unrelated entries survive, stale or not.
  EXPECT_NE(DB.lookup({1, "generic", 10, "hw"}), nullptr);
  EXPECT_NE(DB.lookup({2, "avx2", 10, "hw"}), nullptr);
  EXPECT_NE(DB.lookup({1, "avx2", 10, "other-hw"}), nullptr);
}

TEST(TuningDBTest, RecordKeepsCheaperOnSameKey) {
  TuningDB DB;
  DB.record(makeRecord(1, "avx2", 10, "hw", {4}, 0.5));
  DB.record(makeRecord(1, "avx2", 10, "hw", {8}, 0.9)); // worse: ignored
  EXPECT_EQ(DB.lookup({1, "avx2", 10, "hw"})->Config,
            (std::vector<int64_t>{4}));
  DB.record(makeRecord(1, "avx2", 10, "hw", {2}, 0.25)); // better: replaces
  EXPECT_EQ(DB.lookup({1, "avx2", 10, "hw"})->Config,
            (std::vector<int64_t>{2}));
}

//===----------------------------------------------------------------------===//
// Read-only mode and atomic saves
//===----------------------------------------------------------------------===//

TEST(TuningDBTest, ReadOnlyNeverTouchesTheFile) {
  TempDBDir Dir;
  std::string Path = Dir.file("store.tdb");
  {
    TuningDB DB;
    ASSERT_TRUE(succeeded(DB.open(Path)));
    DB.record(makeRecord(1, "avx2", 10, "hw", {4}, 0.5));
    ASSERT_TRUE(succeeded(DB.save()));
  }
  std::string Before = Dir.read("store.tdb");

  TuningDB RO;
  ASSERT_TRUE(succeeded(RO.open(Path)));
  RO.setReadOnly(true);
  RO.record(makeRecord(2, "generic", 10, "hw", {8}, 0.25));
  // The in-memory view serves the new record; the disk file is untouched
  // even through an explicit save().
  EXPECT_NE(RO.lookup({2, "generic", 10, "hw"}), nullptr);
  EXPECT_TRUE(succeeded(RO.save()));
  EXPECT_EQ(Dir.read("store.tdb"), Before);
}

TEST(TuningDBTest, SaveWithoutOpenFails) {
  TuningDB DB;
  DB.record(makeRecord(1, "avx2", 10, "hw", {4}, 0.5));
  std::vector<std::string> Diags;
  EXPECT_TRUE(failed(DB.save(&Diags)));
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].find("never opened"), std::string::npos);
}

TEST(TuningDBTest, SaveLeavesNoTempFilesBehind) {
  TempDBDir Dir;
  TuningDB DB;
  ASSERT_TRUE(succeeded(DB.open(Dir.file("store.tdb"))));
  DB.record(makeRecord(1, "avx2", 10, "hw", {4}, 0.5));
  ASSERT_TRUE(succeeded(DB.save()));
  // The write-temp-then-rename dance must clean up: exactly the store
  // remains in the directory.
  int Entries = 0;
  std::string Cmd = "ls -A " + Dir.Path;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  ASSERT_NE(Pipe, nullptr);
  char Buf[256];
  std::string Listing;
  while (fgets(Buf, sizeof(Buf), Pipe)) {
    Listing += Buf;
    ++Entries;
  }
  pclose(Pipe);
  EXPECT_EQ(Entries, 1) << "directory holds: " << Listing;
  EXPECT_NE(Listing.find("store.tdb"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Offline merge
//===----------------------------------------------------------------------===//

TEST(TuningDBTest, MergeKeepsCheaperPerKeyAndTiesKeepA) {
  TempDBDir Dir;
  {
    TuningDB A;
    ASSERT_TRUE(succeeded(A.open(Dir.file("a.tdb"))));
    A.record(makeRecord(1, "avx2", 10, "hw", {4}, 0.5));   // beaten by B
    A.record(makeRecord(2, "avx2", 10, "hw", {2}, 0.25));  // beats B
    A.record(makeRecord(3, "avx2", 10, "hw", {1}, 0.75));  // tie: A wins
    A.record(makeRecord(4, "avx2", 10, "hw", {16}, 0.1));  // only in A
    ASSERT_TRUE(succeeded(A.save()));
    TuningDB B;
    ASSERT_TRUE(succeeded(B.open(Dir.file("b.tdb"))));
    B.record(makeRecord(1, "avx2", 10, "hw", {8}, 0.4));
    B.record(makeRecord(2, "avx2", 10, "hw", {32}, 0.5));
    B.record(makeRecord(3, "avx2", 10, "hw", {64}, 0.75, /*Evals=*/99));
    B.record(makeRecord(5, "avx2", 10, "hw", {128}, 0.2)); // only in B
    ASSERT_TRUE(succeeded(B.save()));
  }
  size_t MergedSize = 0;
  ASSERT_TRUE(succeeded(TuningDB::merge(Dir.Path + "/a.tdb",
                                        Dir.Path + "/b.tdb",
                                        Dir.file("out.tdb"), nullptr,
                                        &MergedSize)));
  EXPECT_EQ(MergedSize, 5u);
  TuningDB Out;
  ASSERT_TRUE(succeeded(Out.open(Dir.Path + "/out.tdb")));
  ASSERT_EQ(Out.size(), 5u);
  EXPECT_EQ(Out.lookup({1, "avx2", 10, "hw"})->Config,
            (std::vector<int64_t>{8})); // B's cheaper record won
  EXPECT_EQ(Out.lookup({2, "avx2", 10, "hw"})->Config,
            (std::vector<int64_t>{2})); // A's cheaper record won
  EXPECT_EQ(Out.lookup({3, "avx2", 10, "hw"})->Config,
            (std::vector<int64_t>{1})); // equal cost: A's record kept
  EXPECT_NE(Out.lookup({4, "avx2", 10, "hw"}), nullptr);
  EXPECT_NE(Out.lookup({5, "avx2", 10, "hw"}), nullptr);
}

TEST(TuningDBTest, TwoProcessAppendThenMergeRoundTrips) {
  // The documented fleet workflow: two workers tune disjoint payloads
  // against private stores, then an offline merge reconciles them into the
  // shared store — and a third worker warm-starts from the union.
  TempDBDir Dir;
  {
    TuningDB Worker1;
    ASSERT_TRUE(succeeded(Worker1.open(Dir.file("w1.tdb"))));
    Worker1.record(makeRecord(1, "avx2", 10, "hw", {4}, 0.5));
    ASSERT_TRUE(succeeded(Worker1.save()));
    TuningDB Worker2;
    ASSERT_TRUE(succeeded(Worker2.open(Dir.file("w2.tdb"))));
    Worker2.record(makeRecord(2, "generic", 10, "hw", {8}, 0.25));
    ASSERT_TRUE(succeeded(Worker2.save()));
  }
  // Merge in place: OutPath may equal an input.
  ASSERT_TRUE(succeeded(TuningDB::merge(
      Dir.Path + "/w1.tdb", Dir.Path + "/w2.tdb", Dir.Path + "/w1.tdb")));
  TuningDB Shared;
  ASSERT_TRUE(succeeded(Shared.open(Dir.Path + "/w1.tdb")));
  EXPECT_EQ(Shared.size(), 2u);
  EXPECT_NE(Shared.lookup({1, "avx2", 10, "hw"}), nullptr);
  EXPECT_NE(Shared.lookup({2, "generic", 10, "hw"}), nullptr);
}

TEST(TuningDBTest, MergeWithMissingInputIsTheOtherStore) {
  TempDBDir Dir;
  {
    TuningDB A;
    ASSERT_TRUE(succeeded(A.open(Dir.file("a.tdb"))));
    A.record(makeRecord(1, "avx2", 10, "hw", {4}, 0.5));
    ASSERT_TRUE(succeeded(A.save()));
  }
  size_t MergedSize = 0;
  ASSERT_TRUE(succeeded(TuningDB::merge(Dir.Path + "/a.tdb",
                                        Dir.Path + "/missing.tdb",
                                        Dir.file("out.tdb"), nullptr,
                                        &MergedSize)));
  EXPECT_EQ(MergedSize, 1u);
}

//===----------------------------------------------------------------------===//
// Hardware identity
//===----------------------------------------------------------------------===//

TEST(TuningDBTest, HardwareIdHonorsEnvironmentOverride) {
  char *Saved = getenv("TDL_HARDWARE_ID");
  std::string SavedValue = Saved ? Saved : "";
  setenv("TDL_HARDWARE_ID", "test-fleet-node", 1);
  EXPECT_EQ(TuningDB::detectHardwareId(), "test-fleet-node");
  unsetenv("TDL_HARDWARE_ID");
  std::string Detected = TuningDB::detectHardwareId();
  EXPECT_FALSE(Detected.empty());
  EXPECT_NE(Detected, "test-fleet-node");
  if (Saved)
    setenv("TDL_HARDWARE_ID", SavedValue.c_str(), 1);
}

} // namespace
