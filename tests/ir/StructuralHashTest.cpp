//===- StructuralHashTest.cpp - Stable storage and payload hashes ---------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "dialect/Dialects.h"
#include "ir/IR.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>
#include <set>

using namespace tdl;

namespace {

const char *const BasePayload = R"(
"builtin.module"() ({
  "func.func"() ({
  ^bb0(%arg: memref<8xf32>, %step: index):
    %c0 = "arith.constant"() {value = 0 : index} : () -> (index)
    %c8 = "arith.constant"() {value = 8 : index} : () -> (index)
    %f = "arith.constant"() {value = 1.5 : f32} : () -> (f32)
    %n = "arith.subi"(%c8, %c0) : (index, index) -> (index)
    "scf.for"(%c0, %n, %step) ({
    ^body(%i: index):
      "memref.store"(%f, %arg, %i) : (f32, memref<8xf32>, index) -> ()
      "scf.yield"() : () -> ()
    }) {tags = [1 : index, 2 : index, 3 : index]} : (index, index, index) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "f", function_type = (memref<8xf32>, index) -> ()} : () -> ()
}) : () -> ()
)";

/// \p Text with the first occurrence of \p From replaced by \p To.
std::string replaced(std::string Text, std::string_view From,
                     std::string_view To) {
  size_t Pos = Text.find(From);
  EXPECT_NE(Pos, std::string::npos) << From;
  if (Pos != std::string::npos)
    Text.replace(Pos, From.size(), To);
  return Text;
}

class StructuralHashTest : public ::testing::Test {
protected:
  StructuralHashTest() { registerAllDialects(Ctx); }

  uint64_t hashOf(std::string_view Text, std::string_view Buffer = "a.mlir") {
    OwningOpRef Op = parseSourceString(Ctx, Text, Buffer);
    EXPECT_TRUE(Op) << Text;
    return Op ? hashOperationStructure(Op.get()) : 0;
  }

  Context Ctx;
};

TEST_F(StructuralHashTest, StorageHashesAgreeAcrossContexts) {
  Context Other;
  registerAllDialects(Other);
  auto Storages = [](Context &C) {
    AffineMap Map = AffineMap::get(
        C, 2, 1,
        {getAffineDimExpr(C, 0) * 4 + getAffineSymbolExpr(C, 0),
         getAffineDimExpr(C, 1).floorDiv(2)});
    Type MemRef = MemRefType::getStrided(C, {4, kDynamic},
                                         FloatType::getF32(C), 3, {8, 1});
    return std::vector<uint64_t>{
        IntegerAttr::get(C, 5, IntegerType::get(C, 32)).getHash(),
        FloatAttr::get(C, -0.0, FloatType::getF64(C)).getHash(),
        ArrayAttr::getIndexArray(C, {1, 2, 3}).getHash(),
        AffineMapAttr::get(C, Map).getHash(),
        TypeAttr::get(C, MemRef).getHash(),
        FunctionType::get(C, {MemRef}, {IndexType::get(C)}).getHash(),
        TransformOpType::get(C, "scf.for").getHash(),
    };
  };
  // The ArrayAttr and AffineMapAttr uniquer keys hold addresses; the hashes
  // must not.
  std::vector<uint64_t> Here = Storages(Ctx), There = Storages(Other);
  EXPECT_EQ(Here, There);
  std::set<uint64_t> Distinct(Here.begin(), Here.end());
  EXPECT_EQ(Distinct.size(), Here.size());
  EXPECT_NE(FloatAttr::get(Ctx, -0.0, FloatType::getF64(Ctx)).getHash(),
            FloatAttr::get(Ctx, 0.0, FloatType::getF64(Ctx)).getHash());
  EXPECT_NE(IntegerType::get(Ctx, 32).getHash(),
            FloatType::get(Ctx, 32).getHash());
}

TEST_F(StructuralHashTest, SameTextInTwoContextsHashesEqual) {
  Context Other;
  registerAllDialects(Other);
  OwningOpRef There = parseSourceString(Other, BasePayload);
  ASSERT_TRUE(There);
  EXPECT_EQ(hashOf(BasePayload), hashOperationStructure(There.get()));
}

TEST_F(StructuralHashTest, IgnoresSpacingCommentsLocationsAndNames) {
  uint64_t Base = hashOf(BasePayload);

  std::string Respaced = replaced(BasePayload, "%n = \"arith.subi\"(%c8, %c0)",
                                  "// the trip bound\n    %n   =\n"
                                  "  \"arith.subi\"(  %c8 ,%c0 )  ");
  Respaced = replaced(Respaced, "\"func.return\"()",
                      "// done\n\n    \"func.return\"( )");
  EXPECT_EQ(hashOf(Respaced), Base);

  std::string Renamed = BasePayload;
  for (auto [From, To] : {std::pair{"%c0", "%zero"}, {"%c8", "%eight"},
                          {"%n", "%bound"}, {"%i", "%iv"}, {"^body", "^bb7"}})
    for (size_t Pos = Renamed.find(From); Pos != std::string::npos;
         Pos = Renamed.find(From, Pos + std::string_view(To).size()))
      Renamed.replace(Pos, std::string_view(From).size(), To);
  EXPECT_EQ(hashOf(Renamed), Base);

  // Other buffer name and other line/column positions.
  EXPECT_EQ(hashOf("\n\n  " + std::string(BasePayload), "elsewhere.mlir"),
            Base);
  OwningOpRef Relocated = parseSourceString(Ctx, BasePayload);
  ASSERT_TRUE(Relocated);
  Relocated->walk([](Operation *Op) { Op->setLoc(Location::name("moved")); });
  EXPECT_EQ(hashOperationStructure(Relocated.get()), Base);

  // Printing and re-parsing is the equivalence the hash follows.
  EXPECT_EQ(hashOf(printOperationToString(Relocated.get())), Base);
}

TEST_F(StructuralHashTest, EveryStructuralChangeChangesTheHash) {
  uint64_t Base = hashOf(BasePayload);
  std::vector<std::pair<const char *, std::string>> Variants = {
      {"integer attribute",
       replaced(BasePayload, "value = 8 : index", "value = 9 : index")},
      {"float attribute",
       replaced(BasePayload, "value = 1.5 : f32", "value = 2.5 : f32")},
      {"array element", replaced(BasePayload, "3 : index]", "4 : index]")},
      {"result type",
       replaced(replaced(BasePayload, "(index, index) -> (index)",
                         "(index, index) -> (i64)"),
                "(index, index, index) -> ()", "(index, i64, index) -> ()")},
      {"op name", replaced(BasePayload, "arith.subi", "arith.addi")},
      {"swapped operand edge",
       replaced(BasePayload, "(%c8, %c0)", "(%c0, %c8)")},
      {"extra block argument", replaced(BasePayload, "^body(%i: index)",
                                        "^body(%i: index, %j: index)")},
  };
  std::set<uint64_t> Seen = {Base};
  for (const auto &[What, Text] : Variants) {
    uint64_t Hash = hashOf(Text);
    EXPECT_NE(Hash, Base) << What;
    EXPECT_TRUE(Seen.insert(Hash).second) << What << " collides";
  }
}

// Pinned: the hash keys tuning-database records that persist across builds,
// so a change to the hashing scheme must show up here (and bump
// TuningDB::FormatVersion) instead of silently orphaning stored entries.
TEST_F(StructuralHashTest, GoldenValueIsStable) {
  EXPECT_EQ(hashOf(R"(
    "builtin.module"() ({
      %0 = "arith.constant"() {value = 42 : index} : () -> (index)
      %1 = "arith.addi"(%0, %0) : (index, index) -> (index)
    }) : () -> ()
  )"),
            0x9dea9c58e1137245ull);
}

} // namespace
