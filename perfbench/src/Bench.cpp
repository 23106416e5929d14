//===- Bench.cpp - Shared types of the repository benchmark ---------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "dialect/Dialects.h"
#include "ir/IR.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

using namespace perfbench;

uint64_t perfbench::hashText(const std::string &Text) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (unsigned char C : Text) {
    Hash ^= C;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

namespace {
struct CalibrationNode {
  std::string Name;
  std::vector<CalibrationNode *> Operands;
  uint64_t Value = 0;
};
} // namespace

double perfbench::timeCalibrationKernel() {
  constexpr int NumNodes = 1000;
  double Start = nowSeconds();
  Rng R(0xCA11B);
  std::vector<std::unique_ptr<CalibrationNode>> Nodes;
  std::unordered_map<std::string, CalibrationNode *> ByName;
  for (int I = 0; I < NumNodes; ++I) {
    auto Node = std::make_unique<CalibrationNode>();
    Node->Name = "%v" + std::to_string(I);
    Node->Value = R.next();
    for (int K = 0; K < 2 && I > 0; ++K)
      Node->Operands.push_back(Nodes[R.uniform(I)].get());
    ByName.emplace(Node->Name, Node.get());
    Nodes.push_back(std::move(Node));
  }
  uint64_t Sum = 0;
  for (int Round = 0; Round < 4; ++Round)
    for (int I = 0; I < NumNodes; ++I) {
      CalibrationNode *Node =
          ByName.at("%v" + std::to_string(R.uniform(NumNodes)));
      for (CalibrationNode *Operand : Node->Operands)
        Sum += Operand->Value;
    }
  double Elapsed = nowSeconds() - Start;
  // Keeps the walk from being optimized away; never true in practice.
  return Sum == 0x5EED ? Elapsed * 2 : Elapsed;
}

void HostSpeed::sample(bool Force) {
  double Now = nowSeconds();
  if (!Force && Now - LastSample < SampleInterval)
    return;
  Recent.push_back(timeCalibrationKernel());
  All.push_back(Recent.back());
  if (Recent.size() > Window)
    Recent.erase(Recent.begin());
  LastSample = nowSeconds();
}

double HostSpeed::toReference(double Time) const {
  return Time * ReferenceKernelSeconds / perfbench::median(Recent);
}

std::vector<int64_t> perfbench::blockPermutation(uint64_t Seed, int64_t N) {
  std::vector<int64_t> Order(N);
  for (int64_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng R(Seed);
  for (int64_t I = N - 1; I > 0; --I)
    std::swap(Order[I], Order[R.uniform(I + 1)]);
  return Order;
}

double perfbench::percentile(std::vector<double> Values, double Pct) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(Pct / 100.0 * Values.size()));
  return Values[std::min(Values.size(), std::max<size_t>(Rank, 1)) - 1];
}

void LayerSamples::endRequest(bool Keep) {
  if (Keep)
    for (const auto &[Name, Value] : Current)
      Samples[Name].push_back(Value);
  Current.clear();
}

double LayerSamples::current(const std::string &Name) const {
  auto It = Current.find(Name);
  return It == Current.end() ? 0 : It->second;
}

double LayerSamples::median(const std::string &Name) const {
  auto It = Samples.find(Name);
  return It == Samples.end() ? 0 : perfbench::median(It->second);
}

int64_t perfbench::countPayloadOps(tdl::Operation *Module) {
  return Module->getNumNestedOps() - 1;
}

tdl::OwningOpRef perfbench::parseTimed(tdl::Context &Ctx,
                                      const std::string &Text,
                                      LayerSamples &Layers) {
  LayerCall Call(Layers, "ir.parse_ms", "ir.parse", "ir");
  return tdl::parseSourceString(Ctx, Text, "request");
}

std::string perfbench::printTimed(tdl::Operation *Module,
                                  LayerSamples &Layers) {
  LayerCall Call(Layers, "ir.print_ms", "ir.print", "ir");
  return tdl::printOperationToString(Module);
}

bool perfbench::verifyTimed(tdl::Operation *Module, LayerSamples &Layers) {
  LayerCall Call(Layers, "ir.verify_ms", "ir.verify", "ir");
  return tdl::succeeded(tdl::verify(Module));
}

std::string perfbench::compareTexts(const std::string &What,
                                    const std::string &Actual,
                                    const std::string &Expected) {
  if (Actual == Expected)
    return "";
  size_t At = 0;
  while (At < Actual.size() && At < Expected.size() &&
         Actual[At] == Expected[At])
    ++At;
  return What + ": outputs differ at byte " + std::to_string(At) + " (" +
         std::to_string(Actual.size()) + " vs " +
         std::to_string(Expected.size()) + " bytes)";
}

void perfbench::corruptForVerifier(tdl::Operation *Module) {
  for (tdl::Operation *Func : getFunctions(Module)) {
    tdl::Block &Entry = Func->getRegion(0).front();
    if (Entry.size() < 2)
      continue;
    Entry.back()->moveBefore(Entry.front());
    return;
  }
}

std::vector<tdl::Operation *> perfbench::getFunctions(tdl::Operation *Module) {
  std::vector<tdl::Operation *> Funcs;
  for (tdl::Operation *Op : *tdl::builtin::getModuleBody(Module))
    if (Op->getName() == "func.func")
      Funcs.push_back(Op);
  return Funcs;
}
