//===- ExecutorTest.cpp - Execution engine tests --------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/Executor.h"

#include "dialect/Dialects.h"
#include "exec/Workloads.h"
#include "ir/Builder.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "loops/LoopUtils.h"
#include "lowering/Passes.h"

#include <cmath>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>

using namespace tdl;
using exec::Buffer;
using exec::RuntimeValue;

// Counts `operator new` calls on this thread while an AllocationCounter is
// alive. Every replaceable unaligned form routes to one malloc/free pair, so
// the sanitizers still see matching allocations; the aligned forms keep
// their own matching pair. The pair stays out of line, so the optimizer
// does not pair a new-expression with free() or a different delete form.
static thread_local int64_t *ThreadAllocations = nullptr;

__attribute__((noinline)) static void *countedAlloc(std::size_t Size) {
  if (ThreadAllocations)
    ++*ThreadAllocations;
  return std::malloc(Size ? Size : 1);
}
__attribute__((noinline)) static void countedFree(void *P) { std::free(P); }

void *operator new(std::size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
void operator delete(void *P) noexcept { countedFree(P); }
void operator delete[](void *P) noexcept { countedFree(P); }
void operator delete(void *P, std::size_t) noexcept { countedFree(P); }
void operator delete[](void *P, std::size_t) noexcept { countedFree(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  countedFree(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  countedFree(P);
}

namespace {

class AllocationCounter {
public:
  AllocationCounter() { ThreadAllocations = &Count; }
  ~AllocationCounter() { ThreadAllocations = nullptr; }
  int64_t count() const { return Count; }

private:
  int64_t Count = 0;
};

class ExecutorTest : public ::testing::Test {
protected:
  ExecutorTest() {
    registerAllDialects(Ctx);
    registerXsmmDialect(Ctx);
    registerAllPasses();
  }

  Context Ctx;
  Location Loc = Location::unknown();
};

TEST_F(ExecutorTest, BufferLayout) {
  Buffer B = Buffer::alloc({2, 3, 4});
  EXPECT_EQ(B.Data->size(), 24u);
  EXPECT_EQ(B.Strides, (std::vector<int64_t>{12, 4, 1}));
  EXPECT_EQ(B.linearIndex({1, 2, 3}), 23);
  B.at({1, 0, 2}) = 7.5;
  EXPECT_EQ((*B.Data)[14], 7.5);
  EXPECT_EQ(B.getNumElements(), 24);
}

TEST_F(ExecutorTest, ScalarArithmetic) {
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: f64, %y: f64):
        %p = "arith.mulf"(%x, %y) : (f64, f64) -> (f64)
        %s = "arith.addf"(%p, %x) : (f64, f64) -> (f64)
        "func.return"(%s) : (f64) -> ()
      }) {sym_name = "f", function_type = (f64, f64) -> f64} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  exec::Executor Exec(Module.get());
  auto Result = Exec.run("f", {RuntimeValue::makeFloat(3.0),
                               RuntimeValue::makeFloat(4.0)});
  ASSERT_TRUE(succeeded(Result));
  ASSERT_EQ(Result->size(), 1u);
  EXPECT_DOUBLE_EQ((*Result)[0].F, 15.0); // 3*4 + 3
}

TEST_F(ExecutorTest, IntegerOpsAndSelect) {
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%a: index, %b: index):
        %q = "arith.floordivsi"(%a, %b) : (index, index) -> (index)
        %r = "arith.remsi"(%a, %b) : (index, index) -> (index)
        %c = "arith.cmpi"(%q, %r) {predicate = "sgt"} : (index, index) -> (i1)
        %m = "arith.select"(%c, %q, %r) : (i1, index, index) -> (index)
        "func.return"(%m) : (index) -> ()
      }) {sym_name = "f", function_type = (index, index) -> index} : () -> ()
    }) : () -> ()
  )");
  exec::Executor Exec(Module.get());
  auto Result =
      Exec.run("f", {RuntimeValue::makeInt(17), RuntimeValue::makeInt(5)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ((*Result)[0].I, 3); // max(17/5=3, 17%5=2) via select
}

/// A module whose @f compares its two index arguments with \p Predicate.
static std::string cmpiModule(std::string_view Predicate) {
  return R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%a: index, %b: index):
        %c = "arith.cmpi"(%a, %b) {predicate = ")" +
         std::string(Predicate) + R"("} : (index, index) -> (i1)
        "func.return"(%c) : (i1) -> ()
      }) {sym_name = "f", function_type = (index, index) -> i1} : () -> ()
    }) : () -> ()
  )";
}

TEST_F(ExecutorTest, CmpiUnsignedPredicatesCompareBitPatterns) {
  // -1 is all ones: the largest unsigned value, the smallest signed one.
  auto Compare = [&](std::string_view Predicate, int64_t A, int64_t B) {
    OwningOpRef Module = parseSourceString(Ctx, cmpiModule(Predicate));
    EXPECT_TRUE(Module);
    exec::Executor Exec(Module.get());
    auto Result =
        Exec.run("f", {RuntimeValue::makeInt(A), RuntimeValue::makeInt(B)});
    EXPECT_TRUE(succeeded(Result)) << Predicate;
    return succeeded(Result) && (*Result)[0].I != 0;
  };
  EXPECT_FALSE(Compare("ult", -1, 0));
  EXPECT_TRUE(Compare("ugt", -1, 0));
  EXPECT_FALSE(Compare("ule", -1, 0));
  EXPECT_TRUE(Compare("uge", -1, 0));
  EXPECT_TRUE(Compare("ule", 7, 7));
  EXPECT_TRUE(Compare("uge", 7, 7));
  EXPECT_TRUE(Compare("slt", -1, 0));
  EXPECT_FALSE(Compare("sgt", -1, 0));
}

TEST_F(ExecutorTest, CmpiUnknownPredicateFailsToCompile) {
  OwningOpRef Module = parseSourceString(Ctx, cmpiModule("ulq"));
  ASSERT_TRUE(Module);
  exec::Executor Exec(Module.get());
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Exec.run(
      "f", {RuntimeValue::makeInt(1), RuntimeValue::makeInt(2)})));
  EXPECT_TRUE(Capture.contains("unknown cmpi predicate 'ulq'"));
}

TEST_F(ExecutorTest, LoopAccumulation) {
  // Sum m[i] over i in [0, 8) into m[0] using loads/stores.
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%m: memref<8xf64>, %out: memref<1xf64>):
        %lb = "arith.constant"() {value = 0 : index} : () -> (index)
        %ub = "arith.constant"() {value = 8 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        "scf.for"(%lb, %ub, %one) ({
        ^body(%i: index):
          %v = "memref.load"(%m, %i) : (memref<8xf64>, index) -> (f64)
          %acc = "memref.load"(%out, %lb) : (memref<1xf64>, index) -> (f64)
          %s = "arith.addf"(%acc, %v) : (f64, f64) -> (f64)
          "memref.store"(%s, %out, %lb) : (f64, memref<1xf64>, index) -> ()
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "sum",
          function_type = (memref<8xf64>, memref<1xf64>) -> ()} : () -> ()
    }) : () -> ()
  )");
  exec::Executor Exec(Module.get());
  Buffer M = Buffer::alloc({8});
  for (int I = 0; I < 8; ++I)
    M.at({I}) = I + 1;
  Buffer Out = Buffer::alloc({1});
  ASSERT_TRUE(succeeded(Exec.run("sum", {RuntimeValue::makeBuffer(M),
                                         RuntimeValue::makeBuffer(Out)})));
  EXPECT_DOUBLE_EQ(Out.at({0}), 36.0);
  EXPECT_GT(Exec.getLastOpCount(), 8 * 4);
}

TEST_F(ExecutorTest, SubViewSemantics) {
  // Write 42 into a 2x2 view at offset (1,1) of a 4x4 buffer.
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%m: memref<4x4xf64>):
        %sv = "memref.subview"(%m) {static_offsets = [1 : index, 1 : index],
          static_sizes = [2 : index, 2 : index],
          static_strides = [1 : index, 1 : index]}
          : (memref<4x4xf64>) -> (memref<2x2xf64, strided<[4, 1], offset: 5>>)
        %c = "arith.constant"() {value = 42.0 : f64} : () -> (f64)
        "scf.forall"() ({
        ^body(%i: index, %j: index):
          "memref.store"(%c, %sv, %i, %j)
            : (f64, memref<2x2xf64, strided<[4, 1], offset: 5>>, index, index) -> ()
          "scf.yield"() : () -> ()
        }) {lowerBound = [0 : index, 0 : index],
            upperBound = [2 : index, 2 : index]} : () -> ()
        "func.return"() : () -> ()
      }) {sym_name = "f", function_type = (memref<4x4xf64>) -> ()} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  exec::Executor Exec(Module.get());
  Buffer M = Buffer::alloc({4, 4});
  ASSERT_TRUE(succeeded(Exec.run("f", {RuntimeValue::makeBuffer(M)})));
  double Expected[4][4] = {{0, 0, 0, 0},
                           {0, 42, 42, 0},
                           {0, 42, 42, 0},
                           {0, 0, 0, 0}};
  for (int I = 0; I < 4; ++I)
    for (int J = 0; J < 4; ++J)
      EXPECT_EQ(M.at({I, J}), Expected[I][J]) << I << "," << J;
}

TEST_F(ExecutorTest, ScfIfBranches) {
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%a: index, %out: memref<1xf64>):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %cmp = "arith.cmpi"(%a, %zero) {predicate = "sgt"}
          : (index, index) -> (i1)
        %pos = "arith.constant"() {value = 1.0 : f64} : () -> (f64)
        %neg = "arith.constant"() {value = -1.0 : f64} : () -> (f64)
        "scf.if"(%cmp) ({
          "memref.store"(%pos, %out, %zero) : (f64, memref<1xf64>, index) -> ()
          "scf.yield"() : () -> ()
        }, {
          "memref.store"(%neg, %out, %zero) : (f64, memref<1xf64>, index) -> ()
          "scf.yield"() : () -> ()
        }) : (i1) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "sign",
          function_type = (index, memref<1xf64>) -> ()} : () -> ()
    }) : () -> ()
  )");
  exec::Executor Exec(Module.get());
  Buffer Out = Buffer::alloc({1});
  ASSERT_TRUE(succeeded(Exec.run("sign", {RuntimeValue::makeInt(5),
                                          RuntimeValue::makeBuffer(Out)})));
  EXPECT_EQ(Out.at({0}), 1.0);
  ASSERT_TRUE(succeeded(Exec.run("sign", {RuntimeValue::makeInt(-5),
                                          RuntimeValue::makeBuffer(Out)})));
  EXPECT_EQ(Out.at({0}), -1.0);
}

TEST_F(ExecutorTest, FunctionCalls) {
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: f64):
        %two = "arith.constant"() {value = 2.0 : f64} : () -> (f64)
        %d = "arith.mulf"(%x, %two) : (f64, f64) -> (f64)
        "func.return"(%d) : (f64) -> ()
      }) {sym_name = "double", function_type = (f64) -> f64} : () -> ()
      "func.func"() ({
      ^bb0(%x: f64):
        %a = "func.call"(%x) {callee = @double} : (f64) -> (f64)
        %b = "func.call"(%a) {callee = @double} : (f64) -> (f64)
        "func.return"(%b) : (f64) -> ()
      }) {sym_name = "quad", function_type = (f64) -> f64} : () -> ()
    }) : () -> ()
  )");
  exec::Executor Exec(Module.get());
  auto Result = Exec.run("quad", {RuntimeValue::makeFloat(3.0)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_DOUBLE_EQ((*Result)[0].F, 12.0);
}

TEST_F(ExecutorTest, UnsupportedOpIsAnError) {
  Ctx.setAllowUnregisteredOps(true);
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
        "weird.op"() : () -> ()
        "func.return"() : () -> ()
      }) {sym_name = "f", function_type = () -> ()} : () -> ()
    }) : () -> ()
  )");
  exec::Executor Exec(Module.get());
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Exec.run("f", {})));
  EXPECT_TRUE(Capture.contains("unsupported operation"));
  EXPECT_TRUE(failed(Exec.run("no_such_function", {})));
}

TEST_F(ExecutorTest, CallToUncompilableCalleeFails) {
  // A call whose callee cannot compile fails the whole run; a self-recursive
  // callee still runs.
  Ctx.setAllowUnregisteredOps(true);
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
        "weird.op"() : () -> ()
        "func.return"() : () -> ()
      }) {sym_name = "bad", function_type = () -> ()} : () -> ()
      "func.func"() ({
        %x = "arith.constant"() {value = 2.0 : f64} : () -> (f64)
        "func.call"() {callee = @bad} : () -> ()
        "func.return"(%x) : (f64) -> ()
      }) {sym_name = "calls_bad", function_type = () -> f64} : () -> ()
      "func.func"() ({
      ^bb0(%n: index):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        %c = "arith.cmpi"(%n, %zero) {predicate = "sgt"}
          : (index, index) -> (i1)
        "cf.cond_br"(%c)[^rec, ^base] {true_count = 0 : i64} : (i1) -> ()
      ^rec:
        %m = "arith.subi"(%n, %one) : (index, index) -> (index)
        %r = "func.call"(%m) {callee = @count} : (index) -> (index)
        %s = "arith.addi"(%r, %one) : (index, index) -> (index)
        "cf.br"(%s)[^exit] : (index) -> ()
      ^base:
        "cf.br"(%zero)[^exit] : (index) -> ()
      ^exit(%v: index):
        "func.return"(%v) : (index) -> ()
      }) {sym_name = "count", function_type = (index) -> index} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  exec::Executor Exec(Module.get());
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  EXPECT_TRUE(failed(Exec.run("calls_bad", {})));
  EXPECT_TRUE(Capture.contains("unsupported operation"));
  auto Result = Exec.run("count", {RuntimeValue::makeInt(5)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ((*Result)[0].I, 5);
}

TEST_F(ExecutorTest, EmptyForallRunsNoIterations) {
  // An empty dimension anywhere makes the whole iteration space empty.
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%m: memref<2xf64>):
        %c = "arith.constant"() {value = 7.0 : f64} : () -> (f64)
        "scf.forall"() ({
        ^body(%i: index):
          %v = "memref.load"(%m, %i) : (memref<2xf64>, index) -> (f64)
          %s = "arith.addf"(%v, %c) : (f64, f64) -> (f64)
          "memref.store"(%s, %m, %i) : (f64, memref<2xf64>, index) -> ()
          "scf.yield"() : () -> ()
        }) {lowerBound = [1 : index], upperBound = [1 : index]} : () -> ()
        "func.return"() : () -> ()
      }) {sym_name = "empty1d", function_type = (memref<2xf64>) -> ()}
        : () -> ()
      "func.func"() ({
      ^bb0(%m: memref<2xf64>):
        %c = "arith.constant"() {value = 7.0 : f64} : () -> (f64)
        "scf.forall"() ({
        ^body(%i: index, %j: index):
          "memref.store"(%c, %m, %i) : (f64, memref<2xf64>, index) -> ()
          "scf.yield"() : () -> ()
        }) {lowerBound = [0 : index, 0 : index],
            upperBound = [2 : index, 0 : index]} : () -> ()
        "func.return"() : () -> ()
      }) {sym_name = "empty_inner", function_type = (memref<2xf64>) -> ()}
        : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  exec::Executor Exec(Module.get());
  for (const char *Name : {"empty1d", "empty_inner"}) {
    Buffer M = Buffer::alloc({2});
    ASSERT_TRUE(succeeded(Exec.run(Name, {RuntimeValue::makeBuffer(M)})));
    EXPECT_EQ(M.at({0}), 0.0) << Name;
    EXPECT_EQ(M.at({1}), 0.0) << Name;
    EXPECT_EQ(Exec.getLastOpCount(), 1) << Name; // just the constant
  }
}

TEST_F(ExecutorTest, CopyHonoursViewLayout) {
  // memref.copy moves the source view's elements into the destination view;
  // neither base storage changes shape.
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%big: memref<4x4xf64>, %small: memref<2x2xf64>):
        %sv = "memref.subview"(%big) {static_offsets = [1 : index, 1 : index],
          static_sizes = [2 : index, 2 : index],
          static_strides = [1 : index, 1 : index]}
          : (memref<4x4xf64>) -> (memref<2x2xf64, strided<[4, 1], offset: 5>>)
        "memref.copy"(%sv, %small)
          : (memref<2x2xf64, strided<[4, 1], offset: 5>>, memref<2x2xf64>) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "from_view",
          function_type = (memref<4x4xf64>, memref<2x2xf64>) -> ()} : () -> ()
      "func.func"() ({
      ^bb0(%big: memref<4x4xf64>, %small: memref<2x2xf64>):
        %sv = "memref.subview"(%big) {static_offsets = [1 : index, 1 : index],
          static_sizes = [2 : index, 2 : index],
          static_strides = [1 : index, 1 : index]}
          : (memref<4x4xf64>) -> (memref<2x2xf64, strided<[4, 1], offset: 5>>)
        "memref.copy"(%small, %sv)
          : (memref<2x2xf64>, memref<2x2xf64, strided<[4, 1], offset: 5>>) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "into_view",
          function_type = (memref<4x4xf64>, memref<2x2xf64>) -> ()} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  exec::Executor Exec(Module.get());

  Buffer Big = Buffer::alloc({4, 4}), Small = Buffer::alloc({2, 2});
  std::vector<RuntimeValue> Args = {RuntimeValue::makeBuffer(Big),
                                    RuntimeValue::makeBuffer(Small)};
  for (int I = 0; I < 16; ++I)
    (*Big.Data)[I] = I;
  ASSERT_TRUE(succeeded(Exec.run("from_view", Args)));
  EXPECT_EQ(*Small.Data, (std::vector<double>{5, 6, 9, 10}));

  *Big.Data = std::vector<double>(16, 0.0);
  *Small.Data = {1, 2, 3, 4};
  ASSERT_TRUE(succeeded(Exec.run("into_view", Args)));
  EXPECT_EQ(*Big.Data, (std::vector<double>{0, 0, 0, 0, //
                                            0, 1, 2, 0, //
                                            0, 3, 4, 0, //
                                            0, 0, 0, 0}));
}

TEST_F(ExecutorTest, ExecutedOpCountsArePinned) {
  // getLastOpCount() is an autotuning objective, so its accounting is part
  // of the interface: every payload op counts 1, a structured-loop iteration
  // counts 1, scf.if counts 1, and every cf.* terminator and multi-block
  // func.return counts 1. A single-block func.return counts 0.
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%m: memref<8xf64>):
        %lb = "arith.constant"() {value = 0 : index} : () -> (index)
        %ub = "arith.constant"() {value = 5 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        "scf.for"(%lb, %ub, %one) ({
        ^body(%i: index):
          %v = "memref.load"(%m, %i) : (memref<8xf64>, index) -> (f64)
          "memref.store"(%v, %m, %i) : (f64, memref<8xf64>, index) -> ()
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "for", function_type = (memref<8xf64>) -> ()} : () -> ()
      "func.func"() ({
      ^bb0(%m: memref<4x4xf64>):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %three = "arith.constant"() {value = 3 : index} : () -> (index)
        %four = "arith.constant"() {value = 4 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        "scf.for"(%zero, %three, %one) ({
        ^bi(%i: index):
          "scf.for"(%zero, %four, %one) ({
          ^bj(%j: index):
            %v = "memref.load"(%m, %i, %j) : (memref<4x4xf64>, index, index) -> (f64)
            "memref.store"(%v, %m, %i, %j) : (f64, memref<4x4xf64>, index, index) -> ()
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "nested_for", function_type = (memref<4x4xf64>) -> ()}
        : () -> ()
      "func.func"() ({
      ^bb0(%a: index, %out: memref<1xf64>):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %cmp = "arith.cmpi"(%a, %zero) {predicate = "sgt"}
          : (index, index) -> (i1)
        %pos = "arith.constant"() {value = 1.0 : f64} : () -> (f64)
        "scf.if"(%cmp) ({
          "memref.store"(%pos, %out, %zero) : (f64, memref<1xf64>, index) -> ()
          "scf.yield"() : () -> ()
        }, {
          %neg = "arith.subf"(%pos, %pos) : (f64, f64) -> (f64)
          "memref.store"(%neg, %out, %zero) : (f64, memref<1xf64>, index) -> ()
          "scf.yield"() : () -> ()
        }) : (i1) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "if", function_type = (index, memref<1xf64>) -> ()}
        : () -> ()
      "func.func"() ({
      ^bb0(%m: memref<2x3xf64>):
        %c = "arith.constant"() {value = 1.0 : f64} : () -> (f64)
        "scf.forall"() ({
        ^body(%i: index, %j: index):
          "memref.store"(%c, %m, %i, %j) : (f64, memref<2x3xf64>, index, index) -> ()
          "scf.yield"() : () -> ()
        }) {lowerBound = [0 : index, 0 : index],
            upperBound = [2 : index, 3 : index]} : () -> ()
        "func.return"() : () -> ()
      }) {sym_name = "forall", function_type = (memref<2x3xf64>) -> ()}
        : () -> ()
      "func.func"() ({
      ^bb0(%x: f64):
        %p = "arith.mulf"(%x, %x) : (f64, f64) -> (f64)
        %s = "arith.addf"(%p, %x) : (f64, f64) -> (f64)
        "func.return"(%s) : (f64) -> ()
      }) {sym_name = "straight", function_type = (f64) -> f64} : () -> ()
      "func.func"() ({
      ^bb0(%n: index):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        "cf.br"(%zero)[^loop] : (index) -> ()
      ^loop(%i: index):
        %c = "arith.cmpi"(%i, %n) {predicate = "slt"} : (index, index) -> (i1)
        %next = "arith.addi"(%i, %one) : (index, index) -> (index)
        "cf.cond_br"(%c, %next, %i)[^loop, ^exit] {true_count = 1 : i64}
          : (i1, index, index) -> ()
      ^exit(%r: index):
        "func.return"(%r) : (index) -> ()
      }) {sym_name = "cfg", function_type = (index) -> index} : () -> ()
      "func.func"() ({
      ^bb0(%x: f64):
        %two = "arith.constant"() {value = 2.0 : f64} : () -> (f64)
        %d = "arith.mulf"(%x, %two) : (f64, f64) -> (f64)
        "func.return"(%d) : (f64) -> ()
      }) {sym_name = "double", function_type = (f64) -> f64} : () -> ()
      "func.func"() ({
      ^bb0(%x: f64):
        %a = "func.call"(%x) {callee = @double} : (f64) -> (f64)
        %b = "func.call"(%a) {callee = @double} : (f64) -> (f64)
        "func.return"(%b) : (f64) -> ()
      }) {sym_name = "call", function_type = (f64) -> f64} : () -> ()
      "func.func"() ({
      ^bb0(%m: memref<8xf64>):
        %lb = "arith.constant"() {value = 0 : index} : () -> (index)
        %ub = "arith.constant"() {value = 4 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        "scf.for"(%lb, %ub, %one) ({
        ^body(%i: index):
          %v = "memref.load"(%m, %i) : (memref<8xf64>, index) -> (f64)
          "memref.store"(%v, %m, %i) : (f64, memref<8xf64>, index) -> ()
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "cf.br"()[^exit] : () -> ()
      ^exit:
        "func.return"() : () -> ()
      }) {sym_name = "for_in_cfg", function_type = (memref<8xf64>) -> ()}
        : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  ASSERT_TRUE(succeeded(verify(Module.get())));
  exec::Executor Exec(Module.get());
  auto Mem = [](std::vector<int64_t> Shape) {
    return RuntimeValue::makeBuffer(Buffer::alloc(Shape));
  };
  struct Case {
    const char *Name;
    std::vector<RuntimeValue> Args;
    int64_t Expected;
  };
  const Case Cases[] = {
      {"for", {Mem({8})}, 18},
      {"nested_for", {Mem({4, 4})}, 43},
      {"if", {RuntimeValue::makeInt(1), Mem({1})}, 5},
      {"if", {RuntimeValue::makeInt(-1), Mem({1})}, 6},
      {"forall", {Mem({2, 3})}, 13},
      {"straight", {RuntimeValue::makeFloat(2.0)}, 2},
      {"cfg", {RuntimeValue::makeInt(3)}, 16},
      {"call", {RuntimeValue::makeFloat(1.0)}, 6},
      {"for_in_cfg", {Mem({8})}, 17},
  };
  for (const Case &C : Cases) {
    ASSERT_TRUE(succeeded(Exec.run(C.Name, C.Args))) << C.Name;
    EXPECT_EQ(Exec.getLastOpCount(), C.Expected) << C.Name;
  }
}

//===----------------------------------------------------------------------===//
// CFG form: cf.br / cf.cond_br with block arguments
//===----------------------------------------------------------------------===//

TEST_F(ExecutorTest, CfgConditionalBranches) {
  // abs(x) as a hand-written CFG: the false edge carries x directly to the
  // exit block argument, the true edge negates first.
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: index):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %neg = "arith.cmpi"(%x, %zero) {predicate = "slt"}
          : (index, index) -> (i1)
        "cf.cond_br"(%neg, %x)[^negate, ^exit] {true_count = 0 : i64}
          : (i1, index) -> ()
      ^negate:
        %m = "arith.subi"(%zero, %x) : (index, index) -> (index)
        "cf.br"(%m)[^exit] : (index) -> ()
      ^exit(%r: index):
        "func.return"(%r) : (index) -> ()
      }) {sym_name = "abs", function_type = (index) -> index} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  ASSERT_TRUE(succeeded(verify(Module.get())));
  exec::Executor Exec(Module.get());
  auto Result = Exec.run("abs", {RuntimeValue::makeInt(-9)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ((*Result)[0].I, 9);
  Result = Exec.run("abs", {RuntimeValue::makeInt(4)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ((*Result)[0].I, 4);
}

TEST_F(ExecutorTest, CfgBlockArgSwapUsesParallelCopies) {
  // The loop back-edge swaps its two block arguments every iteration.
  // Sequential copies (x <- y, then y <- x) would return (20, 20) for one
  // iteration; the required parallel semantics returns (20, 10).
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%n: index):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        %a = "arith.constant"() {value = 10 : index} : () -> (index)
        %b = "arith.constant"() {value = 20 : index} : () -> (index)
        "cf.br"(%a, %b, %zero)[^loop] : (index, index, index) -> ()
      ^loop(%x: index, %y: index, %i: index):
        %c = "arith.cmpi"(%i, %n) {predicate = "slt"}
          : (index, index) -> (i1)
        %next = "arith.addi"(%i, %one) : (index, index) -> (index)
        "cf.cond_br"(%c, %y, %x, %next, %x, %y)[^loop, ^exit]
          {true_count = 3 : i64}
          : (i1, index, index, index, index, index) -> ()
      ^exit(%rx: index, %ry: index):
        "func.return"(%rx, %ry) : (index, index) -> ()
      }) {sym_name = "swap",
          function_type = (index) -> (index, index)} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  ASSERT_TRUE(succeeded(verify(Module.get())));
  exec::Executor Exec(Module.get());
  auto Result = Exec.run("swap", {RuntimeValue::makeInt(1)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ((*Result)[0].I, 20);
  EXPECT_EQ((*Result)[1].I, 10);
  // Even number of swaps restores the original order.
  Result = Exec.run("swap", {RuntimeValue::makeInt(4)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ((*Result)[0].I, 10);
  EXPECT_EQ((*Result)[1].I, 20);
}

TEST_F(ExecutorTest, StructuredAndLoweredFormsAgree) {
  // The same payload in structured (scf) and lowered (cf) form must produce
  // identical numbers: the lowered form executes the same arithmetic in the
  // same order, only the control flow is rewritten.
  const char *Source = R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%m: memref<4x4xf64>, %out: memref<1xf64>):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %ub = "arith.constant"() {value = 4 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        "scf.forall"() ({
        ^body(%i: index, %j: index):
          %v = "memref.load"(%m, %i, %j) : (memref<4x4xf64>, index, index) -> (f64)
          %w = "arith.mulf"(%v, %v) : (f64, f64) -> (f64)
          "memref.store"(%w, %m, %i, %j) : (f64, memref<4x4xf64>, index, index) -> ()
          "scf.yield"() : () -> ()
        }) {lowerBound = [0 : index, 0 : index],
            upperBound = [4 : index, 4 : index]} : () -> ()
        "scf.for"(%zero, %ub, %one) ({
        ^bi(%i: index):
          "scf.for"(%zero, %ub, %one) ({
          ^bj(%j: index):
            %v = "memref.load"(%m, %i, %j) : (memref<4x4xf64>, index, index) -> (f64)
            %acc = "memref.load"(%out, %zero) : (memref<1xf64>, index) -> (f64)
            %s = "arith.addf"(%acc, %v) : (f64, f64) -> (f64)
            "memref.store"(%s, %out, %zero) : (f64, memref<1xf64>, index) -> ()
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "square_sum",
          function_type = (memref<4x4xf64>, memref<1xf64>) -> ()} : () -> ()
    }) : () -> ()
  )";

  auto Run = [&](bool Lower, Buffer &M, Buffer &Out) {
    OwningOpRef Module = parseSourceString(Ctx, Source);
    ASSERT_TRUE(Module);
    if (Lower) {
      ASSERT_TRUE(succeeded(convertScfToCf(Module.get())));
      ASSERT_TRUE(succeeded(verify(Module.get())));
      bool SawCondBr = false, SawScf = false;
      Module->walk([&](Operation *Op) {
        SawCondBr |= Op->getName() == "cf.cond_br";
        SawScf |= Op->getDialectName() == "scf";
      });
      EXPECT_TRUE(SawCondBr);
      EXPECT_FALSE(SawScf);
    }
    exec::Executor Exec(Module.get());
    ASSERT_TRUE(succeeded(Exec.run("square_sum",
                                   {RuntimeValue::makeBuffer(M),
                                    RuntimeValue::makeBuffer(Out)})));
  };

  Buffer M1 = Buffer::alloc({4, 4}), M2 = Buffer::alloc({4, 4});
  for (int I = 0; I < 16; ++I)
    (*M1.Data)[I] = (*M2.Data)[I] = 0.25 * I - 1.5;
  Buffer Out1 = Buffer::alloc({1}), Out2 = Buffer::alloc({1});
  Run(false, M1, Out1);
  Run(true, M2, Out2);
  EXPECT_DOUBLE_EQ(Out1.at({0}), Out2.at({0}));
  for (int I = 0; I < 16; ++I)
    EXPECT_DOUBLE_EQ((*M1.Data)[I], (*M2.Data)[I]) << "element " << I;
}

//===----------------------------------------------------------------------===//
// Fused compare-and-branch, edge moves and rank-specialized memory access
//===----------------------------------------------------------------------===//

TEST_F(ExecutorTest, FusedCompareBranchEveryPredicate) {
  // Each predicate tests a cf.cond_br right after it, so the two compile to
  // one instruction. Both edges carry block arguments into a join with two
  // incoming edges: true gives a - b, false b - a.
  struct Pred {
    const char *Name;
    bool (*Holds)(int64_t, int64_t);
  };
  const Pred Preds[] = {
      {"eq", [](int64_t A, int64_t B) { return A == B; }},
      {"ne", [](int64_t A, int64_t B) { return A != B; }},
      {"slt", [](int64_t A, int64_t B) { return A < B; }},
      {"sle", [](int64_t A, int64_t B) { return A <= B; }},
      {"sgt", [](int64_t A, int64_t B) { return A > B; }},
      {"sge", [](int64_t A, int64_t B) { return A >= B; }},
      {"ult", [](int64_t A, int64_t B) { return uint64_t(A) < uint64_t(B); }},
      {"ule", [](int64_t A, int64_t B) { return uint64_t(A) <= uint64_t(B); }},
      {"ugt", [](int64_t A, int64_t B) { return uint64_t(A) > uint64_t(B); }},
      {"uge", [](int64_t A, int64_t B) { return uint64_t(A) >= uint64_t(B); }},
  };
  for (const Pred &P : Preds) {
    OwningOpRef Module = parseSourceString(Ctx, std::string(R"(
      "builtin.module"() ({
        "func.func"() ({
        ^bb0(%a: index, %b: index):
          %c = "arith.cmpi"(%a, %b) {predicate = ")") + P.Name + R"("}
            : (index, index) -> (i1)
          "cf.cond_br"(%c, %a, %b, %b, %a)[^join, ^join]
            {true_count = 2 : i64} : (i1, index, index, index, index) -> ()
        ^join(%x: index, %y: index):
          %d = "arith.subi"(%x, %y) : (index, index) -> (index)
          "func.return"(%d) : (index) -> ()
        }) {sym_name = "f", function_type = (index, index) -> index}
          : () -> ()
      }) : () -> ()
    )");
    ASSERT_TRUE(Module) << P.Name;
    ASSERT_TRUE(succeeded(verify(Module.get()))) << P.Name;
    exec::Executor Exec(Module.get());
    for (auto [A, B] : {std::pair<int64_t, int64_t>{1, 2}, {2, 2}, {3, 2},
                        {-1, 2}, {2, -1}}) {
      auto Result = Exec.run("f", {RuntimeValue::makeInt(A),
                                   RuntimeValue::makeInt(B)});
      ASSERT_TRUE(succeeded(Result)) << P.Name;
      EXPECT_EQ((*Result)[0].I, P.Holds(A, B) ? A - B : B - A)
          << P.Name << "(" << A << ", " << B << ")";
      // cmpi, cond_br, subi and the multi-block return.
      EXPECT_EQ(Exec.getLastOpCount(), 4) << P.Name;
    }
  }
}

TEST_F(ExecutorTest, FusedCompareResultIsReadAfterTheBranch) {
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%a: index, %b: index):
        %c = "arith.cmpi"(%a, %b) {predicate = "slt"} : (index, index) -> (i1)
        "cf.cond_br"(%c, %a, %b)[^join, ^join] {true_count = 1 : i64}
          : (i1, index, index) -> ()
      ^join(%r: index):
        %hundred = "arith.constant"() {value = 100 : index} : () -> (index)
        %s = "arith.select"(%c, %r, %hundred) : (i1, index, index) -> (index)
        %bit = "arith.index_cast"(%c) : (i1) -> (index)
        %t = "arith.addi"(%s, %bit) : (index, index) -> (index)
        "func.return"(%t) : (index) -> ()
      }) {sym_name = "f", function_type = (index, index) -> index} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  ASSERT_TRUE(succeeded(verify(Module.get())));
  exec::Executor Exec(Module.get());
  auto Result = Exec.run("f", {RuntimeValue::makeInt(3),
                               RuntimeValue::makeInt(7)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ((*Result)[0].I, 3 + 1);
  EXPECT_EQ(Exec.getLastOpCount(), 7);
  Result = Exec.run("f", {RuntimeValue::makeInt(9), RuntimeValue::makeInt(7)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ((*Result)[0].I, 100);
  EXPECT_EQ(Exec.getLastOpCount(), 7);
}

TEST_F(ExecutorTest, CfgSwapEdgeAndOneValueIntoTwoArguments) {
  // The back edge swaps (a, b) and steps i; the exit edge copies a into
  // both of its arguments. A negative n takes the entry's swapped exit.
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%x: index, %y: index, %n: index):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        %neg = "arith.cmpi"(%n, %zero) {predicate = "slt"}
          : (index, index) -> (i1)
        "cf.cond_br"(%neg, %y, %x, %x, %y, %zero)[^exit, ^loop]
          {true_count = 2 : i64}
          : (i1, index, index, index, index, index) -> ()
      ^loop(%a: index, %b: index, %i: index):
        %next = "arith.addi"(%i, %one) : (index, index) -> (index)
        %c = "arith.cmpi"(%i, %n) {predicate = "slt"} : (index, index) -> (i1)
        "cf.cond_br"(%c, %b, %a, %next, %a, %a)[^loop, ^exit]
          {true_count = 3 : i64}
          : (i1, index, index, index, index, index) -> ()
      ^exit(%p: index, %q: index):
        "func.return"(%p, %q) : (index, index) -> ()
      }) {sym_name = "f",
          function_type = (index, index, index) -> (index, index)}
        : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  ASSERT_TRUE(succeeded(verify(Module.get())));
  exec::Executor Exec(Module.get());
  struct Case {
    int64_t N, P, Q, Ops;
  };
  // Entry: two constants and a fused compare-branch (4); each loop visit:
  // addi and a fused compare-branch (3); the return (1).
  for (Case C : {Case{-1, 20, 10, 5}, Case{0, 10, 10, 8}, Case{2, 10, 10, 14},
                 Case{3, 20, 20, 17}}) {
    auto Result =
        Exec.run("f", {RuntimeValue::makeInt(10), RuntimeValue::makeInt(20),
                       RuntimeValue::makeInt(C.N)});
    ASSERT_TRUE(succeeded(Result)) << C.N;
    EXPECT_EQ((*Result)[0].I, C.P) << C.N;
    EXPECT_EQ((*Result)[1].I, C.Q) << C.N;
    EXPECT_EQ(Exec.getLastOpCount(), C.Ops) << C.N;
  }
}

TEST_F(ExecutorTest, CfgBranchOperandComputedRightBeforeTheBranch) {
  // %next is computed right before the back edge and could go straight
  // into %i's slot, but the same edge still reads the old %i into %prev.
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%n: index):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        "cf.br"(%zero, %zero)[^loop] : (index, index) -> ()
      ^loop(%i: index, %prev: index):
        %c = "arith.cmpi"(%i, %n) {predicate = "slt"} : (index, index) -> (i1)
        "cf.cond_br"(%c)[^body, ^exit] {true_count = 0 : i64} : (i1) -> ()
      ^body:
        %next = "arith.addi"(%i, %one) : (index, index) -> (index)
        "cf.br"(%next, %i)[^loop] : (index, index) -> ()
      ^exit:
        "func.return"(%i, %prev) : (index, index) -> ()
      }) {sym_name = "f", function_type = (index) -> (index, index)}
        : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  ASSERT_TRUE(succeeded(verify(Module.get())));
  exec::Executor Exec(Module.get());
  auto Result = Exec.run("f", {RuntimeValue::makeInt(3)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_EQ((*Result)[0].I, 3);
  EXPECT_EQ((*Result)[1].I, 2);
  // Entry 3, four header visits 8, three bodies 6, the return 1.
  EXPECT_EQ(Exec.getLastOpCount(), 18);
}

TEST_F(ExecutorTest, CfgFloatAndMemrefBlockArguments) {
  // The loop carries a buffer and a float accumulator; the back edge swaps
  // in the second buffer, so iterations after the first read %w.
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%m: memref<4xf64>, %w: memref<4xf64>, %f: f64, %n: index):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        "cf.br"(%m, %f, %zero)[^loop] : (memref<4xf64>, f64, index) -> ()
      ^loop(%buf: memref<4xf64>, %acc: f64, %i: index):
        %c = "arith.cmpi"(%i, %n) {predicate = "slt"} : (index, index) -> (i1)
        "cf.cond_br"(%c, %acc, %buf)[^body, ^exit] {true_count = 0 : i64}
          : (i1, f64, memref<4xf64>) -> ()
      ^body:
        %v = "memref.load"(%buf, %i) : (memref<4xf64>, index) -> (f64)
        %sum = "arith.addf"(%acc, %v) : (f64, f64) -> (f64)
        %next = "arith.addi"(%i, %one) : (index, index) -> (index)
        "cf.br"(%w, %sum, %next)[^loop] : (memref<4xf64>, f64, index) -> ()
      ^exit(%r: f64, %out: memref<4xf64>):
        "memref.store"(%r, %out, %zero) : (f64, memref<4xf64>, index) -> ()
        "func.return"(%r) : (f64) -> ()
      }) {sym_name = "f",
          function_type = (memref<4xf64>, memref<4xf64>, f64, index) -> f64}
        : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  ASSERT_TRUE(succeeded(verify(Module.get())));
  exec::Executor Exec(Module.get());
  Buffer M = Buffer::alloc({4}), W = Buffer::alloc({4});
  *M.Data = {1, 2, 3, 4};
  *W.Data = {10, 20, 30, 40};
  auto Result = Exec.run("f", {RuntimeValue::makeBuffer(M),
                               RuntimeValue::makeBuffer(W),
                               RuntimeValue::makeFloat(0.5),
                               RuntimeValue::makeInt(3)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_DOUBLE_EQ((*Result)[0].F, 0.5 + 1 + 20 + 30);
  EXPECT_DOUBLE_EQ(W.at({0}), 51.5);
  EXPECT_DOUBLE_EQ(M.at({0}), 1);
  // Entry 3, four header visits 8, three bodies 12, exit 2.
  EXPECT_EQ(Exec.getLastOpCount(), 25);
  Result = Exec.run("f", {RuntimeValue::makeBuffer(M),
                          RuntimeValue::makeBuffer(W),
                          RuntimeValue::makeFloat(0.5),
                          RuntimeValue::makeInt(0)});
  ASSERT_TRUE(succeeded(Result));
  EXPECT_DOUBLE_EQ((*Result)[0].F, 0.5);
  EXPECT_DOUBLE_EQ(M.at({0}), 0.5);
  EXPECT_EQ(Exec.getLastOpCount(), 7);
}

TEST_F(ExecutorTest, LoadsAndStoresAtEveryRankThroughAStridedView) {
  // A 6^r buffer viewed at offset 1 and stride 2 in every dimension: view
  // element (k, ..) is base element (1 + 2k, ..).
  for (int Rank = 1; Rank <= 4; ++Rank) {
    std::vector<int64_t> Shape(Rank, 6), BaseStrides(Rank, 1);
    for (int D = Rank - 2; D >= 0; --D)
      BaseStrides[D] = BaseStrides[D + 1] * 6;
    std::string BaseTy = "memref<", ViewTy = "memref<", Ones, Twos, Strides,
                Idx1, Idx0, IdxTy;
    int64_t Offset = 0;
    for (int D = 0; D < Rank; ++D) {
      std::string Sep = D ? ", " : "";
      BaseTy += "6x";
      ViewTy += "2x";
      Ones += Sep + "1 : index";
      Twos += Sep + "2 : index";
      Strides += Sep + std::to_string(2 * BaseStrides[D]);
      Idx1 += ", %one";
      Idx0 += ", %zero";
      IdxTy += ", index";
      Offset += BaseStrides[D];
    }
    BaseTy += "f64>";
    ViewTy += "f64, strided<[" + Strides +
              "], offset: " + std::to_string(Offset) + ">>";
    OwningOpRef Module = parseSourceString(Ctx, R"(
      "builtin.module"() ({
        "func.func"() ({
        ^bb0(%m: )" + BaseTy + R"():
          %zero = "arith.constant"() {value = 0 : index} : () -> (index)
          %one = "arith.constant"() {value = 1 : index} : () -> (index)
          %sv = "memref.subview"(%m) {static_offsets = [)" + Ones + R"(],
            static_sizes = [)" + Twos + R"(], static_strides = [)" + Twos +
                                                    R"(]}
            : ()" + BaseTy + ") -> (" + ViewTy + R"()
          %v = "memref.load"(%sv)" + Idx1 + R"() : ()" + ViewTy + IdxTy +
                                                    R"() -> (f64)
          %d = "arith.addf"(%v, %v) : (f64, f64) -> (f64)
          "memref.store"(%d, %sv)" + Idx0 + R"() : (f64, )" + ViewTy +
                                                    IdxTy + R"() -> ()
          "func.return"(%v) : (f64) -> ()
        }) {sym_name = "f", function_type = ()" + BaseTy + R"() -> f64}
          : () -> ()
      }) : () -> ()
    )");
    ASSERT_TRUE(Module) << "rank " << Rank;
    ASSERT_TRUE(succeeded(verify(Module.get()))) << "rank " << Rank;
    Buffer M = Buffer::alloc(Shape);
    for (size_t I = 0; I < M.Data->size(); ++I)
      (*M.Data)[I] = static_cast<double>(I);
    exec::Executor Exec(Module.get());
    auto Result = Exec.run("f", {RuntimeValue::makeBuffer(M)});
    ASSERT_TRUE(succeeded(Result)) << "rank " << Rank;
    // View (1, ..) is base (3, ..); view (0, ..) is base (1, ..).
    std::vector<int64_t> Threes(Rank, 3), Ones1(Rank, 1);
    double Loaded = static_cast<double>(M.linearIndex(Threes));
    EXPECT_DOUBLE_EQ((*Result)[0].F, Loaded) << "rank " << Rank;
    EXPECT_DOUBLE_EQ(M.at(Ones1), 2 * Loaded) << "rank " << Rank;
    EXPECT_EQ(Exec.getLastOpCount(), 6) << "rank " << Rank;
  }
}

TEST_F(ExecutorTest, RecursiveCallsGetTheirOwnFrames) {
  // Every activation of @fact runs in its own frame of the executor's
  // reused stack; a shared frame would clobber %n before the multiply.
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%n: index):
        %one = "arith.constant"() {value = 1 : index} : () -> (index)
        %c = "arith.cmpi"(%n, %one) {predicate = "sle"} : (index, index) -> (i1)
        "cf.cond_br"(%c)[^base, ^rec] {true_count = 0 : i64} : (i1) -> ()
      ^base:
        "func.return"(%one) : (index) -> ()
      ^rec:
        %m = "arith.subi"(%n, %one) : (index, index) -> (index)
        %r = "func.call"(%m) {callee = @fact} : (index) -> (index)
        %p = "arith.muli"(%n, %r) : (index, index) -> (index)
        "func.return"(%p) : (index) -> ()
      }) {sym_name = "fact", function_type = (index) -> index} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  ASSERT_TRUE(succeeded(verify(Module.get())));
  exec::Executor Exec(Module.get());
  for (int Run = 0; Run < 2; ++Run) {
    auto Result = Exec.run("fact", {RuntimeValue::makeInt(5)});
    ASSERT_TRUE(succeeded(Result));
    EXPECT_EQ((*Result)[0].I, 120);
    // Four recursive levels of 7 ops (the call counting 1) and a base of 4.
    EXPECT_EQ(Exec.getLastOpCount(), 4 * 7 + 4);
  }
}

//===----------------------------------------------------------------------===//
// Steady-state allocation
//===----------------------------------------------------------------------===//

TEST_F(ExecutorTest, SecondRunMakesNoHeapAllocation) {
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%v: memref<2x2xf64, strided<[4, 1], offset: 5>>, %x: f64):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        "memref.store"(%x, %v, %zero, %zero)
          : (f64, memref<2x2xf64, strided<[4, 1], offset: 5>>, index, index)
          -> ()
        "func.return"() : () -> ()
      }) {sym_name = "fill", visibility = "private",
          function_type = (memref<2x2xf64, strided<[4, 1], offset: 5>>, f64)
                          -> ()} : () -> ()
      "func.func"() ({
      ^bb0(%a: memref<4x4xf64>, %b: memref<4x4xf64>, %c: memref<4x4xf64>):
        %zero = "arith.constant"() {value = 0 : index} : () -> (index)
        %two = "arith.constant"() {value = 2 : index} : () -> (index)
        %four = "arith.constant"() {value = 4 : index} : () -> (index)
        %n = "affine.min"(%two) {map = affine_map<(d0) -> (d0 + 2, 8)>}
          : (index) -> (index)
        "xsmm.matmul"(%a, %b, %c, %zero, %n, %zero, %four, %zero, %four)
          {prefix_counts = [0 : index, 0 : index, 0 : index],
           library = "xsmm"}
          : (memref<4x4xf64>, memref<4x4xf64>, memref<4x4xf64>, index, index,
             index, index, index, index) -> ()
        %sv = "memref.subview"(%c) {static_offsets = [1 : index, 1 : index],
          static_sizes = [2 : index, 2 : index],
          static_strides = [1 : index, 1 : index]}
          : (memref<4x4xf64>) -> (memref<2x2xf64, strided<[4, 1], offset: 5>>)
        %x = "arith.constant"() {value = 7.0 : f64} : () -> (f64)
        "func.call"(%sv, %x) {callee = @fill}
          : (memref<2x2xf64, strided<[4, 1], offset: 5>>, f64) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "main",
          function_type = (memref<4x4xf64>, memref<4x4xf64>, memref<4x4xf64>)
                          -> ()} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  ASSERT_TRUE(succeeded(verify(Module.get())));
  exec::Executor Exec(Module.get());
  Buffer A = Buffer::alloc({4, 4}), B = Buffer::alloc({4, 4}),
         C = Buffer::alloc({4, 4});
  for (int I = 0; I < 16; ++I)
    (*A.Data)[I] = (*B.Data)[I] = 1;
  auto Args = [&] {
    return std::vector<RuntimeValue>{RuntimeValue::makeBuffer(A),
                                     RuntimeValue::makeBuffer(B),
                                     RuntimeValue::makeBuffer(C)};
  };
  // The first run compiles both functions and sizes the frames, so the
  // counter sees it allocate; the second must not.
  int64_t Allocations[2];
  bool Ran[2];
  for (int Run = 0; Run < 2; ++Run) {
    std::vector<RuntimeValue> RunArgs = Args();
    AllocationCounter Counter;
    Ran[Run] = succeeded(Exec.run("main", std::move(RunArgs)));
    Allocations[Run] = Counter.count();
  }
  ASSERT_TRUE(Ran[0] && Ran[1]);
  EXPECT_GT(Allocations[0], 0);
  EXPECT_EQ(Allocations[1], 0);
  // affine.min, xsmm.matmul, subview, a constant and the call, the callee's
  // constant and store, plus the three constants of main.
  EXPECT_EQ(Exec.getLastOpCount(), 10);
  // Two matmuls of ones accumulated 8 into every C element; then fill
  // wrote 7 at view (0, 0), C (1, 1).
  EXPECT_DOUBLE_EQ(C.at({0, 0}), 8);
  EXPECT_DOUBLE_EQ(C.at({1, 1}), 7);
}

//===----------------------------------------------------------------------===//
// Microkernel correctness
//===----------------------------------------------------------------------===//

TEST_F(ExecutorTest, XsmmKernelMatchesReference) {
  const int64_t M = 7, N = 8, K = 5;
  Buffer A = Buffer::alloc({M, K});
  Buffer B = Buffer::alloc({K, N});
  Buffer C = Buffer::alloc({M, N});
  for (int64_t I = 0; I < M * K; ++I)
    (*A.Data)[I] = 0.1 * I - 1.0;
  for (int64_t I = 0; I < K * N; ++I)
    (*B.Data)[I] = 0.05 * I + 0.3;
  exec::xsmmMatmulKernel(A, B, C, 0, M, 0, N, 0, K, {}, {}, {});
  for (int64_t I = 0; I < M; ++I) {
    for (int64_t J = 0; J < N; ++J) {
      double Expected = 0;
      for (int64_t L = 0; L < K; ++L)
        Expected += A.at({I, L}) * B.at({L, J});
      EXPECT_NEAR(C.at({I, J}), Expected, 1e-12);
    }
  }
}

TEST_F(ExecutorTest, XsmmKernelSubrangeAndPrefix) {
  // Batch prefix and partial ranges: compute only C[1, 2..4, 1..3].
  Buffer A = Buffer::alloc({2, 5, 3});
  Buffer B = Buffer::alloc({2, 3, 4});
  Buffer C = Buffer::alloc({2, 5, 4});
  for (size_t I = 0; I < A.Data->size(); ++I)
    (*A.Data)[I] = 0.01 * I;
  for (size_t I = 0; I < B.Data->size(); ++I)
    (*B.Data)[I] = 0.02 * I - 0.1;
  exec::xsmmMatmulKernel(A, B, C, 2, 4, 1, 3, 0, 3, {1}, {1}, {1});
  for (int64_t I = 0; I < 5; ++I) {
    for (int64_t J = 0; J < 4; ++J) {
      double Expected = 0;
      if (I >= 2 && I < 4 && J >= 1 && J < 3)
        for (int64_t L = 0; L < 3; ++L)
          Expected += A.at({1, I, L}) * B.at({1, L, J});
      EXPECT_NEAR(C.at({1, I, J}), Expected, 1e-12) << I << "," << J;
      EXPECT_EQ(C.at({0, I, J}), 0.0);
    }
  }
}

//===----------------------------------------------------------------------===//
// Property tests: loop transformations preserve semantics (parameterized)
//===----------------------------------------------------------------------===//

struct TileCase {
  int64_t M, N, K, TileI, TileJ;
};

class TilePreservesSemantics : public ::testing::TestWithParam<TileCase> {
protected:
  TilePreservesSemantics() {
    registerAllDialects(Ctx);
    registerXsmmDialect(Ctx);
    registerAllPasses();
  }
  Context Ctx;
};

TEST_P(TilePreservesSemantics, MatmulChecksum) {
  TileCase P = GetParam();
  auto RunMatmul = [&](bool Tile) {
    OwningOpRef Module =
        workloads::buildBatchMatmulModule(Ctx, 1, P.M, P.N, P.K);
    if (Tile) {
      Operation *ILoop = nullptr;
      int Seen = 0;
      Module->walkPre([&](Operation *Op) {
        if (Op->getName() == "scf.for" && ++Seen == 2) {
          ILoop = Op;
          return WalkResult::Interrupt;
        }
        return WalkResult::Advance;
      });
      EXPECT_TRUE(
          succeeded(loops::tileLoopNest(ILoop, {P.TileI, P.TileJ})));
    }
    exec::Executor Exec(Module.get());
    Buffer A = Buffer::alloc({1, P.M, P.K});
    Buffer B = Buffer::alloc({1, P.K, P.N});
    Buffer C = Buffer::alloc({1, P.M, P.N});
    for (size_t I = 0; I < A.Data->size(); ++I)
      (*A.Data)[I] = (I % 13) * 0.25 - 1;
    for (size_t I = 0; I < B.Data->size(); ++I)
      (*B.Data)[I] = (I % 7) * 0.5 - 1.5;
    EXPECT_TRUE(succeeded(Exec.run("bmm", {RuntimeValue::makeBuffer(A),
                                           RuntimeValue::makeBuffer(B),
                                           RuntimeValue::makeBuffer(C)})));
    double Sum = 0;
    int64_t Idx = 0;
    for (double V : *C.Data)
      Sum += V * ((Idx++ % 5) + 1);
    return Sum;
  };
  double Reference = RunMatmul(false);
  double Tiled = RunMatmul(true);
  EXPECT_NEAR(Tiled, Reference, 1e-9 * std::max(1.0, std::fabs(Reference)));
}

INSTANTIATE_TEST_SUITE_P(
    TileSweep, TilePreservesSemantics,
    ::testing::Values(TileCase{8, 8, 4, 2, 2},   // divisible
                      TileCase{8, 8, 4, 4, 8},   // full-dim tile
                      TileCase{9, 7, 3, 2, 3},   // non-divisible (min bounds)
                      TileCase{16, 4, 8, 16, 0}, // untiled dim
                      TileCase{5, 5, 5, 3, 4},   // odd everything
                      TileCase{12, 12, 2, 0, 6} // outer untiled
                      ));

struct SplitCase {
  int64_t Trip, Divisor;
};

class SplitPreservesSemantics : public ::testing::TestWithParam<SplitCase> {
protected:
  SplitPreservesSemantics() {
    registerAllDialects(Ctx);
    registerAllPasses();
  }
  Context Ctx;
};

TEST_P(SplitPreservesSemantics, ElementwiseChecksum) {
  SplitCase P = GetParam();
  auto Run = [&](bool Split, bool Unroll) {
    Location Loc = Location::unknown();
    OwningOpRef Module(builtin::buildModule(Ctx, Loc));
    OpBuilder B(Ctx);
    B.setInsertionPointToStart(builtin::getModuleBody(Module.get()));
    MemRefType MTy =
        MemRefType::get(Ctx, {P.Trip}, FloatType::getF64(Ctx));
    Operation *Func = func::buildFunc(
        B, Loc, "f", FunctionType::get(Ctx, {MTy}, {}));
    Block *Body = func::getBody(Func);
    B.setInsertionPointToStart(Body);
    Value M = Body->getArgument(0);
    Value Zero = arith::buildConstantIndex(B, Loc, 0);
    Value Ub = arith::buildConstantIndex(B, Loc, P.Trip);
    Value One = arith::buildConstantIndex(B, Loc, 1);
    Operation *Loop = scf::buildFor(
        B, Loc, Zero, Ub, One, [&](OpBuilder &NB, Location L, Value Iv) {
          Value V = memref::buildLoad(NB, L, M, {Iv});
          Value W = arith::buildBinary(NB, L, "arith.mulf", V, V);
          memref::buildStore(NB, L, W, M, {Iv});
        });
    func::buildReturn(B, Loc);
    if (Split) {
      auto Parts = loops::splitLoopByDivisibility(Loop, P.Divisor);
      EXPECT_TRUE(succeeded(Parts));
      if (Unroll && succeeded(Parts)) {
        EXPECT_TRUE(succeeded(loops::unrollLoopFull(Parts->second)));
      }
    }
    exec::Executor Exec(Module.get());
    Buffer Buf = Buffer::alloc({P.Trip});
    for (int64_t I = 0; I < P.Trip; ++I)
      Buf.at({I}) = 0.5 * I - 2;
    EXPECT_TRUE(succeeded(Exec.run("f", {RuntimeValue::makeBuffer(Buf)})));
    double Sum = 0;
    for (double V : *Buf.Data)
      Sum += V;
    return Sum;
  };
  double Reference = Run(false, false);
  EXPECT_NEAR(Run(true, false), Reference, 1e-9);
  EXPECT_NEAR(Run(true, true), Reference, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SplitSweep, SplitPreservesSemantics,
                         ::testing::Values(SplitCase{17, 8}, SplitCase{16, 8},
                                           SplitCase{7, 8}, SplitCase{1, 2},
                                           SplitCase{100, 7},
                                           SplitCase{33, 32}));

} // namespace
