//===- ParserPrinterTest.cpp - Round-trip tests -----------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace tdl;

namespace {

class ParserPrinterTest : public ::testing::Test {
protected:
  ParserPrinterTest() { registerAllDialects(Ctx); }

  /// Parses, reprints, reparses, and checks the two prints agree.
  void expectRoundTrip(std::string_view Source) {
    OwningOpRef First = parseSourceString(Ctx, Source);
    ASSERT_TRUE(First) << "initial parse failed for: " << Source;
    std::string Printed = printOperationToString(First.get());
    OwningOpRef Second = parseSourceString(Ctx, Printed);
    ASSERT_TRUE(Second) << "reparse failed for: " << Printed;
    EXPECT_EQ(Printed, printOperationToString(Second.get()));
  }

  Context Ctx;
};

TEST_F(ParserPrinterTest, SimpleOp) {
  expectRoundTrip(R"(
    "builtin.module"() ({
      %0 = "arith.constant"() {value = 42 : index} : () -> (index)
    }) : () -> ()
  )");
}

TEST_F(ParserPrinterTest, FunctionWithLoop) {
  expectRoundTrip(R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%arg: memref<8xf64>):
        %lb = "arith.constant"() {value = 0 : index} : () -> (index)
        %ub = "arith.constant"() {value = 8 : index} : () -> (index)
        %step = "arith.constant"() {value = 1 : index} : () -> (index)
        "scf.for"(%lb, %ub, %step) ({
        ^body(%i: index):
          %v = "memref.load"(%arg, %i) : (memref<8xf64>, index) -> (f64)
          "memref.store"(%v, %arg, %i) : (f64, memref<8xf64>, index) -> ()
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "touch", function_type = (memref<8xf64>) -> ()} : () -> ()
    }) : () -> ()
  )");
}

TEST_F(ParserPrinterTest, ParsedOpsVerify) {
  OwningOpRef Module = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      "func.func"() ({
        %c = "arith.constant"() {value = 3 : index} : () -> (index)
        "func.return"() : () -> ()
      }) {sym_name = "f", function_type = () -> ()} : () -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(Module);
  EXPECT_TRUE(succeeded(verify(Module.get())));
}

TEST_F(ParserPrinterTest, MultiBlockCfg) {
  expectRoundTrip(R"(
    "func.func"() ({
    ^entry:
      %c = "arith.constant"() {value = 1 : i1} : () -> (i1)
      %a = "arith.constant"() {value = 7 : index} : () -> (index)
      "cf.cond_br"(%c, %a)[^t, ^f] {true_count = 1 : i64} : (i1, index) -> ()
    ^t(%x: index):
      "func.return"() : () -> ()
    ^f:
      "func.return"() : () -> ()
    }) {sym_name = "g", function_type = () -> ()} : () -> ()
  )");
}

TEST_F(ParserPrinterTest, AttributeKinds) {
  Ctx.setAllowUnregisteredOps(true); // test.* ops are not registered
  expectRoundTrip(R"(
    "builtin.module"() ({
      %0 = "tosa.const"() {value = dense<[1, 2, 3, 4]> : tensor<4xf32>} : () -> (tensor<4xf32>)
      %1 = "tosa.const"() {value = dense<0.5> : tensor<2x2xf32>} : () -> (tensor<2x2xf32>)
      "test.misc"() {arr = [1 : index, "s", @sym], flag, b = false} : () -> ()
      "test.map"() {map = affine_map<(d0)[s0] -> (d0 * 8 + s0)>} : () -> ()
    }) : () -> ()
  )");
}

TEST_F(ParserPrinterTest, StridedMemRefTypes) {
  expectRoundTrip(R"(
    "func.func"() ({
    ^bb0(%m: memref<64x64xf64>):
      %v = "memref.subview"(%m) {static_offsets = [0 : index, 0 : index],
        static_sizes = [4 : index, 4 : index],
        static_strides = [1 : index, 1 : index]}
        : (memref<64x64xf64>) -> (memref<4x4xf64, strided<[64, 1], offset: 0>>)
      "func.return"() : () -> ()
    }) {sym_name = "sv", function_type = (memref<64x64xf64>) -> ()} : () -> ()
  )");
}

TEST_F(ParserPrinterTest, TransformTypesParse) {
  // The transform dialect proper is registered by the core library; this
  // test only exercises the parser, so allow unregistered ops.
  Ctx.setAllowUnregisteredOps(true);
  expectRoundTrip(R"(
    "transform.named_sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match.op"(%root) {op_name = "scf.for"}
        : (!transform.any_op) -> (!transform.op<"scf.for">)
      %casted = "transform.cast"(%loops)
        : (!transform.op<"scf.for">) -> (!transform.any_op)
      %v = "transform.get_value"(%casted)
        : (!transform.any_op) -> (!transform.any_value)
      %p = "transform.param.constant"() {value = 4 : index}
        : () -> (!transform.param)
      "transform.yield"() : () -> ()
    }) {sym_name = "main"} : () -> ()
  )");
}

TEST_F(ParserPrinterTest, ErrorsAreReported) {
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  OwningOpRef Bad1 = parseSourceString(Ctx, R"("arith.addi"(%x, %y) : )");
  EXPECT_FALSE(Bad1);
  EXPECT_TRUE(Capture.contains("undefined value"));

  OwningOpRef Bad2 = parseSourceString(Ctx, R"(
    "builtin.module"() ({
      %0 = "arith.constant"() {value = 1 : index} : () -> (index, index)
    }) : () -> ()
  )");
  EXPECT_FALSE(Bad2);
}

TEST_F(ParserPrinterTest, UnknownOpRejected) {
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  OwningOpRef Bad = parseSourceString(Ctx, R"("nope.op"() : () -> ())");
  EXPECT_FALSE(Bad);
  EXPECT_TRUE(Capture.contains("unregistered"));
}

TEST_F(ParserPrinterTest, OuterValuesAreVisibleInNestedRegions) {
  expectRoundTrip(R"(
    "builtin.module"() ({
      "func.func"() ({
      ^bb0(%arg: index):
        %c = "arith.constant"() {value = 1 : index} : () -> (index)
        "scf.for"(%c, %arg, %c) ({
        ^bb1(%i: index):
          %s = "arith.addi"(%i, %c) : (index, index) -> (index)
          "scf.for"(%c, %s, %arg) ({
          ^bb2(%j: index):
            %t = "arith.addi"(%j, %s) : (index, index) -> (index)
            "scf.yield"() : () -> ()
          }) : (index, index, index) -> ()
          "scf.yield"() : () -> ()
        }) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }) {sym_name = "f", function_type = (index) -> ()} : () -> ()
    }) : () -> ()
  )");
}

TEST_F(ParserPrinterTest, RegionValuesEndWithTheRegion) {
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  // %inner is defined in the loop body and used after the loop.
  OwningOpRef After = parseSourceString(Ctx, R"("func.func"() ({
  %c = "arith.constant"() {value = 1 : index} : () -> (index)
  "scf.for"(%c, %c, %c) ({
  ^bb0(%i: index):
    %inner = "arith.addi"(%i, %i) : (index, index) -> (index)
    "scf.yield"() : () -> ()
  }) : (index, index, index) -> ()
  %bad = "arith.addi"(%inner, %c) : (index, index) -> (index)
}) : () -> ())",
                                          "scope.mlir");
  EXPECT_FALSE(After);
  ASSERT_EQ(Capture.getDiagnostics().size(), 1u);
  EXPECT_EQ(Capture.getDiagnostics()[0].str(),
            "scope.mlir:8:29: error: use of undefined value '%inner'");
}

TEST_F(ParserPrinterTest, SiblingRegionsDoNotShareValues) {
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  OwningOpRef Sibling = parseSourceString(Ctx, R"("func.func"() ({
^bb0(%cond: i1):
  "scf.if"(%cond) ({
    %then = "arith.constant"() {value = 1 : index} : () -> (index)
    "scf.yield"() : () -> ()
  }, {
    %else = "arith.addi"(%then, %then) : (index, index) -> (index)
    "scf.yield"() : () -> ()
  }) : (i1) -> ()
}) : () -> ())",
                                            "sibling.mlir");
  EXPECT_FALSE(Sibling);
  ASSERT_EQ(Capture.getDiagnostics().size(), 1u);
  EXPECT_EQ(Capture.getDiagnostics()[0].str(),
            "sibling.mlir:7:31: error: use of undefined value '%then'");
}

TEST_F(ParserPrinterTest, UndefinedBlockLabelKeepsItsDiagnostic) {
  ScopedDiagnosticCapture Capture(Ctx.getDiagEngine());
  OwningOpRef Bad = parseSourceString(Ctx, R"("func.func"() ({
^entry:
  "cf.br"() [^zeta] : () -> ()
^mid:
  "cf.br"() [^alpha] : () -> ()
}) : () -> ())",
                                        "labels.mlir");
  EXPECT_FALSE(Bad);
  ASSERT_EQ(Capture.getDiagnostics().size(), 1u);
  // The first undefined label in sorted order, reported after the region.
  EXPECT_EQ(Capture.getDiagnostics()[0].str(),
            "labels.mlir:6:2: error: use of undefined block label '^alpha'");
}

TEST_F(ParserPrinterTest, BufferNameIsInternedOnce) {
  size_t NamesBefore = Location::getNumInternedNames();
  for (int I = 0; I < 1000; ++I) {
    std::string Text = "\"func.return\"() {value = " + std::to_string(I) +
                       " : index} : () -> ()";
    OwningOpRef Op = parseSourceString(Ctx, Text, "one-buffer-name.mlir");
    ASSERT_TRUE(Op);
    EXPECT_EQ(Op->getLoc().str(), "one-buffer-name.mlir:1:1");
  }
  EXPECT_EQ(Location::getNumInternedNames(), NamesBefore + 1);
}

TEST_F(ParserPrinterTest, TypeStringParsing) {
  EXPECT_EQ(parseTypeString(Ctx, "memref<4x?xf32>").str(), "memref<4x?xf32>");
  EXPECT_EQ(parseTypeString(Ctx, "(index) -> (f32, f64)").str(),
            "(index) -> (f32, f64)");
  EXPECT_FALSE(static_cast<bool>(parseTypeString(Ctx, "wat<3>")));
}

} // namespace
