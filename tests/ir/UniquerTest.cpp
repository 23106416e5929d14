//===- UniquerTest.cpp - Structural storage uniquing tests ----------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Affine.h"
#include "ir/Attributes.h"
#include "ir/Context.h"
#include "ir/TypeSystem.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

using namespace tdl;

namespace {

int64_t uniquerCreates() {
  return telemetry::counter("ir.uniquer.creates").get();
}

/// Storages a thread asks for: \p Shared keys every thread requests, then
/// keys only thread \p Tid requests.
std::vector<const void *> requestStorages(Context &Ctx, int Tid) {
  std::vector<const void *> Got;
  for (int Round = 0; Round < 20; ++Round) {
    for (int K = 0; K < 16; ++K) {
      Type Elt = K % 2 ? Type(FloatType::getF32(Ctx))
                       : Type(IntegerType::get(Ctx, 8 + K));
      TensorType Tensor = TensorType::get(Ctx, {K + 1, 4}, Elt);
      Attribute Int = IntegerAttr::getIndex(Ctx, K);
      Attribute Str = StringAttr::get(Ctx, "shared" + std::to_string(K));
      Attribute Arr = ArrayAttr::get(Ctx, {Int, Str, TypeAttr::get(Ctx, Tensor)});
      for (const void *P : {static_cast<const void *>(Elt.getImpl()),
                            static_cast<const void *>(Tensor.getImpl()),
                            static_cast<const void *>(Int.getImpl()),
                            static_cast<const void *>(Str.getImpl()),
                            static_cast<const void *>(Arr.getImpl())})
        Got.push_back(P);
    }
    Attribute Own = StringAttr::get(Ctx, "thread" + std::to_string(Tid));
    Type OwnTy = IntegerType::get(Ctx, 100 + Tid);
    Got.push_back(Own.getImpl());
    Got.push_back(OwnTy.getImpl());
  }
  return Got;
}

TEST(UniquerTest, EightThreadsSeeOnePointerPerKey) {
  Context Ctx;
  int64_t CreatesBefore = uniquerCreates();
  constexpr int NumThreads = 8;
  std::vector<std::vector<const void *>> Seen(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] { Seen[T] = requestStorages(Ctx, T); });
  for (std::thread &Thread : Threads)
    Thread.join();

  // Within a thread, every round returns the same pointers.
  size_t PerRound = Seen[0].size() / 20;
  for (int T = 0; T < NumThreads; ++T)
    for (size_t I = PerRound; I < Seen[T].size(); ++I)
      EXPECT_EQ(Seen[T][I], Seen[T][I % PerRound]);
  // Shared keys agree across threads; thread-private keys differ.
  for (int T = 1; T < NumThreads; ++T) {
    for (size_t I = 0; I + 2 < PerRound; ++I)
      EXPECT_EQ(Seen[T][I], Seen[0][I]);
    EXPECT_NE(Seen[T][PerRound - 2], Seen[0][PerRound - 2]);
    EXPECT_NE(Seen[T][PerRound - 1], Seen[0][PerRound - 1]);
  }
  // The counter records insert winners only, so it counts distinct keys:
  // 8 integer widths, f32, 16 tensors, index, 16 index constants, 16
  // strings, 16 type attrs, 16 arrays, and two private keys per thread.
  EXPECT_EQ(uniquerCreates() - CreatesBefore,
            8 + 1 + 16 + 1 + 16 + 16 + 16 + 16 + 2 * NumThreads);
}

TEST(UniquerTest, SignedZerosAreDistinctFloats) {
  Context Ctx;
  Type F32 = FloatType::getF32(Ctx);
  FloatAttr Pos = FloatAttr::get(Ctx, 0.0, F32);
  FloatAttr Neg = FloatAttr::get(Ctx, -0.0, F32);
  EXPECT_NE(Pos, Neg);
  EXPECT_NE(Pos.getHash(), Neg.getHash());
  EXPECT_TRUE(std::signbit(Neg.getValue()));
  EXPECT_EQ(Neg, FloatAttr::get(Ctx, -0.0, F32));
  EXPECT_NE(Pos, FloatAttr::get(Ctx, 0.0, FloatType::getF64(Ctx)));
}

TEST(UniquerTest, SplatAndDenseAreDistinct) {
  Context Ctx;
  TensorType One = TensorType::get(Ctx, {1}, FloatType::getF32(Ctx));
  DenseElementsAttr Splat = DenseElementsAttr::getSplat(Ctx, One, 2.0);
  DenseElementsAttr Dense = DenseElementsAttr::get(Ctx, One, {2.0});
  EXPECT_NE(Splat, Dense);
  EXPECT_TRUE(Splat.isSplat());
  EXPECT_FALSE(Dense.isSplat());
  EXPECT_EQ(Dense, DenseElementsAttr::get(Ctx, One, {2.0}));
  EXPECT_NE(Dense, DenseElementsAttr::get(Ctx, One, {-2.0}));
}

TEST(UniquerTest, StridedAndIdentityMemRefsAreDistinct) {
  Context Ctx;
  Type F32 = FloatType::getF32(Ctx);
  MemRefType Identity = MemRefType::get(Ctx, {4, 4}, F32);
  MemRefType Strided = MemRefType::getStrided(Ctx, {4, 4}, F32, 0, {4, 1});
  EXPECT_NE(Identity, Strided);
  EXPECT_FALSE(Identity.hasExplicitLayout());
  EXPECT_TRUE(Strided.hasExplicitLayout());
  EXPECT_EQ(Strided, MemRefType::getStrided(Ctx, {4, 4}, F32, 0, {4, 1}));
  EXPECT_NE(Strided, MemRefType::getStrided(Ctx, {4, 4}, F32, 1, {4, 1}));
  EXPECT_NE(Type(Identity), Type(TensorType::get(Ctx, {4, 4}, F32)));
}

TEST(UniquerTest, FunctionTypesKeepTheInputResultSplit) {
  Context Ctx;
  Type I32 = IntegerType::get(Ctx, 32);
  FunctionType TwoToNone = FunctionType::get(Ctx, {I32, I32}, {});
  FunctionType OneToOne = FunctionType::get(Ctx, {I32}, {I32});
  FunctionType NoneToTwo = FunctionType::get(Ctx, {}, {I32, I32});
  EXPECT_NE(TwoToNone, OneToOne);
  EXPECT_NE(OneToOne, NoneToTwo);
  EXPECT_NE(TwoToNone, NoneToTwo);
  EXPECT_EQ(OneToOne, FunctionType::get(Ctx, {I32}, {I32}));
}

TEST(UniquerTest, SameKindTagDifferentClasses) {
  Context Ctx;
  // String and symbol-reference attributes share a storage class, integer
  // and float types share another; the kind keeps them apart.
  EXPECT_NE(Attribute(StringAttr::get(Ctx, "f")),
            Attribute(SymbolRefAttr::get(Ctx, "f")));
  EXPECT_NE(Type(IntegerType::get(Ctx, 32)), Type(FloatType::get(Ctx, 32)));
  AffineExpr D0 = getAffineDimExpr(Ctx, 0);
  EXPECT_NE(D0, getAffineSymbolExpr(Ctx, 0));
  EXPECT_EQ(D0 + 1, D0 + 1);
  EXPECT_EQ(AffineMap::get(Ctx, 1, 0, {D0}), AffineMap::getIdentity(Ctx, 1));
  EXPECT_NE(AffineMap::get(Ctx, 1, 0, {D0}), AffineMap::get(Ctx, 1, 1, {D0}));
}

} // namespace
