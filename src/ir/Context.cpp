//===- Context.cpp - IR context: uniquing and registration ------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Context.h"

#include <mutex>

using namespace tdl;

Context::Context() : Uniquer(this) {}
Context::~Context() = default;

Dialect *Context::registerDialect(std::string_view Name,
                                  bool AllowsUnknownOps) {
  std::unique_lock<std::shared_mutex> Lock(OpsMutex);
  auto [It, Inserted] = Dialects.try_emplace(std::string(Name));
  if (Inserted) {
    It->second.Name = std::string(Name);
    It->second.AllowsUnknownOps = AllowsUnknownOps;
  } else if (AllowsUnknownOps) {
    It->second.AllowsUnknownOps = true;
  }
  return &It->second;
}

Dialect *Context::getDialect(std::string_view Name) {
  std::shared_lock<std::shared_mutex> Lock(OpsMutex);
  auto It = Dialects.find(std::string(Name));
  return It == Dialects.end() ? nullptr : &It->second;
}

const OpInfo *Context::registerOp(OpInfo Info) {
  assert(Info.Name.find('.') != std::string::npos &&
         "op name must be dialect-qualified");
  registerDialect(Info.getDialectName());
  std::string Name = Info.Name;
  std::unique_lock<std::shared_mutex> Lock(OpsMutex);
  OpInfo &Slot = Ops[Name];
  Slot = std::move(Info);
  return &Slot;
}

const OpInfo *Context::lookupOpInfo(std::string_view Name) const {
  std::shared_lock<std::shared_mutex> Lock(OpsMutex);
  auto It = Ops.find(Name);
  return It == Ops.end() ? nullptr : &It->second;
}

const OpInfo *Context::getOrCreateOpInfo(std::string_view Name) {
  if (const OpInfo *Info = lookupOpInfo(Name))
    return Info;

  auto DotPos = Name.find('.');
  if (DotPos == std::string_view::npos)
    return nullptr;
  Dialect *OwningDialect = getDialect(Name.substr(0, DotPos));
  bool Permissive =
      AllowUnregisteredOps || (OwningDialect && OwningDialect->AllowsUnknownOps);
  if (!Permissive)
    return nullptr;

  OpInfo Synth;
  Synth.Name = std::string(Name);
  Synth.IsUnregistered = true;
  // try_emplace resolves the synthesize race: a concurrent thread that also
  // failed the lookup above inserts first and we return its record.
  std::unique_lock<std::shared_mutex> Lock(OpsMutex);
  auto [It, Inserted] = Ops.try_emplace(Synth.Name, std::move(Synth));
  (void)Inserted;
  return &It->second;
}

std::vector<std::string> Context::getRegisteredOpNames() const {
  std::shared_lock<std::shared_mutex> Lock(OpsMutex);
  std::vector<std::string> Names;
  for (const auto &[Name, Info] : Ops)
    if (!Info.IsUnregistered)
      Names.push_back(Name);
  return Names;
}
