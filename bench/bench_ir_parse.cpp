//===- bench_ir_parse.cpp - Parser cost per operation ---------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the printed text of a 12-function Case Study 3 StableHLO module
/// (the request shape of perfbench's hlo_peephole workload) and reports the
/// cost per parsed operation: warm (the Context already holds every type
/// and attribute, as in a long-lived compile server) and cold (a fresh
/// Context per parse). With TDL_BENCH_JSON_DIR set it drops
/// BENCH_ir_parse.json, whose registry counters `ir.parse.ops` and
/// `ir.uniquer.creates` are deterministic and gated in CI.
///
///   ./build/bench_ir_parse
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include "dialect/Dialects.h"
#include "exec/Workloads.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

using namespace tdl;
using namespace tdl::benchutil;

namespace {

constexpr int64_t NumFuncs = 12;
constexpr int Rounds = 7;
constexpr int ParsesPerRound = 20;

/// Models with 2..6 layers, one seed each, renamed model_0..model_11 and
/// printed as one module.
std::string buildPayloadText(Context &Ctx) {
  OwningOpRef Combined(builtin::buildModule(Ctx, Location::name("hlo-parse")));
  Block *Body = builtin::getModuleBody(Combined.get());
  for (int64_t F = 0; F < NumFuncs; ++F) {
    OwningOpRef Model = workloads::buildStableHloModel(Ctx, 2 + F % 5, F + 1);
    Operation *Func = nullptr;
    for (Operation *Op : *builtin::getModuleBody(Model.get()))
      if (!Func && Op->getName() == "func.func")
        Func = Op;
    Func->setAttr("sym_name",
                  StringAttr::get(Ctx, "model_" + std::to_string(F)));
    Func->removeFromParent();
    Body->push_back(Func);
  }
  return printOperationToString(Combined.get());
}

void parseOrDie(Context &Ctx, const std::string &Text) {
  if (!parseSourceString(Ctx, Text, "request")) {
    std::fprintf(stderr, "bench_ir_parse: payload does not parse\n");
    std::exit(1);
  }
}

} // namespace

int main() {
  printHeader("IR parser: cost per operation on the hlo_peephole payload");
  JsonReport Json("ir_parse");

  Context Ctx;
  registerAllDialects(Ctx);
  std::string Text = buildPayloadText(Ctx);
  int64_t Ops;
  {
    OwningOpRef Module = parseSourceString(Ctx, Text, "request");
    if (!Module || printOperationToString(Module.get()) != Text) {
      std::fprintf(stderr, "bench_ir_parse: parse/print round trip differs\n");
      return 1;
    }
    Ops = Module->getNumNestedOps() - 1;
  }

  std::vector<double> Warm, Cold;
  for (int R = 0; R < Rounds; ++R) {
    Warm.push_back(timeSeconds([&] {
      for (int I = 0; I < ParsesPerRound; ++I)
        parseOrDie(Ctx, Text);
    }) / ParsesPerRound);
    Context Fresh;
    registerAllDialects(Fresh);
    Cold.push_back(timeSeconds([&] { parseOrDie(Fresh, Text); }));
  }
  Spread WarmUs = spreadOf(Warm), ColdUs = spreadOf(Cold);
  auto PerOp = [&](double Seconds) { return Seconds * 1e6 / Ops; };

  std::printf("payload: %lld funcs, %zu bytes, %lld ops\n",
              (long long)NumFuncs, Text.size(), (long long)Ops);
  std::printf("%-6s %14s %14s %14s\n", "", "min us/op", "median us/op",
              "median ms");
  std::printf("%-6s %14.3f %14.3f %14.3f\n", "warm", PerOp(WarmUs.Min),
              PerOp(WarmUs.Median), WarmUs.Median * 1e3);
  std::printf("%-6s %14.3f %14.3f %14.3f\n", "cold", PerOp(ColdUs.Min),
              PerOp(ColdUs.Median), ColdUs.Median * 1e3);
  std::printf("warm median %s the 3 us/op target\n",
              PerOp(WarmUs.Median) <= 3.0 ? "meets" : "misses");

  Json.metric("funcs", (long long)NumFuncs);
  Json.metric("bytes", (long long)Text.size());
  Json.metric("ops", (long long)Ops);
  Json.metric("warm_us_per_op_min", PerOp(WarmUs.Min));
  Json.metric("warm_us_per_op_median", PerOp(WarmUs.Median));
  Json.metric("cold_us_per_op_min", PerOp(ColdUs.Min));
  Json.metric("cold_us_per_op_median", PerOp(ColdUs.Median));
  Json.addMetricsSnapshot();
  return 0;
}
