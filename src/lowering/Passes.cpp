//===- Passes.cpp - Pass registration glue -------------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lowering/Passes.h"

#include "pass/Pass.h"

using namespace tdl;

namespace tdl {
void registerConversionPasses(); // ConvertToLlvm.cpp
void registerTosaPasses();       // TosaPasses.cpp
} // namespace tdl

ContractRegistry &ContractRegistry::instance() {
  static ContractRegistry Registry;
  return Registry;
}

void ContractRegistry::registerContract(std::string PassName,
                                        LoweringContract Contract) {
  Contracts[std::move(PassName)] = std::move(Contract);
}

const LoweringContract *
ContractRegistry::lookup(std::string_view PassName) const {
  auto It = Contracts.find(PassName);
  return It == Contracts.end() ? nullptr : &It->second;
}

std::vector<std::string> ContractRegistry::getContractedPasses() const {
  std::vector<std::string> Names;
  for (const auto &[Name, Contract] : Contracts)
    Names.push_back(Name);
  return Names;
}

void tdl::registerAllPasses() {
  static bool Registered = false;
  if (Registered)
    return;
  Registered = true;
  registerConversionPasses();
  registerTosaPasses();
}

LogicalResult tdl::runRegisteredPass(std::string_view Name, Operation *Target,
                                     std::string_view Options,
                                     std::string_view Anchor) {
  const PassRegistration *Reg = PassRegistry::instance().lookup(Name);
  if (!Reg)
    return Target->emitError() << "unknown pass '" << Name << "'";
  std::unique_ptr<Pass> P = Reg->Factory();
  P->setOptions(std::string(Options));
  if (Anchor.empty())
    Anchor = P->getAnchorOpName();
  if (Anchor.empty() || Anchor == Target->getName())
    return P->run(Target);
  // Run on each matching op nested under the target.
  std::vector<Operation *> Nested;
  Target->walk([&](Operation *Op) {
    if (Op->getName() == Anchor)
      Nested.push_back(Op);
  });
  for (Operation *Op : Nested)
    if (failed(P->run(Op)))
      return failure();
  return success();
}
