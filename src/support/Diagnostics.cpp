//===- Diagnostics.cpp - Locations and diagnostic reporting ---------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

#include <mutex>
#include <set>
#include <tuple>

using namespace tdl;

//===----------------------------------------------------------------------===//
// Location
//===----------------------------------------------------------------------===//

/// An interned name: a file name, or the text of a named location.
struct Location::Storage {
  bool IsFile;
  std::string Text;

  bool operator<(const Storage &Other) const {
    return std::tie(IsFile, Text) < std::tie(Other.IsFile, Other.Text);
  }
};

namespace {
/// Process-wide name pool, created lazily via a function-local static (no
/// global constructor). Set nodes never move and are never modified after
/// insertion, so a Location reads its name without the lock.
struct NamePool {
  std::set<Location::Storage> Names;
  std::mutex Lock;

  const Location::Storage *intern(bool IsFile, std::string_view Text) {
    std::lock_guard<std::mutex> Guard(Lock);
    return &*Names.insert({IsFile, std::string(Text)}).first;
  }

  static NamePool &instance() {
    static NamePool Pool;
    return Pool;
  }
};
} // namespace

Location Location::get(std::string_view File, unsigned Line, unsigned Col) {
  return Location(NamePool::instance().intern(true, File), Line, Col);
}

Location Location::name(std::string_view Name) {
  return Location(NamePool::instance().intern(false, Name), 0, 0);
}

size_t Location::getNumInternedNames() {
  NamePool &Pool = NamePool::instance();
  std::lock_guard<std::mutex> Guard(Pool.Lock);
  return Pool.Names.size();
}

std::string Location::str() const {
  if (!Name)
    return "loc(unknown)";
  if (!Name->IsFile)
    return "loc(\"" + Name->Text + "\")";
  std::string Result = Name->Text;
  Result += ":" + std::to_string(Line);
  if (Col)
    Result += ":" + std::to_string(Col);
  return Result;
}

//===----------------------------------------------------------------------===//
// Diagnostic / DiagnosticEngine
//===----------------------------------------------------------------------===//

static std::string_view severityText(DiagnosticSeverity Severity) {
  switch (Severity) {
  case DiagnosticSeverity::Error:
    return "error";
  case DiagnosticSeverity::Warning:
    return "warning";
  case DiagnosticSeverity::Remark:
    return "remark";
  case DiagnosticSeverity::Note:
    return "note";
  }
  return "error";
}

std::string Diagnostic::str() const {
  std::string Result;
  if (!Loc.isUnknown())
    Result += Loc.str() + ": ";
  Result += severityText(Severity);
  Result += ": ";
  Result += Message;
  return Result;
}

DiagnosticEngine::DiagnosticEngine() {
  Handler = [](const Diagnostic &Diag) { errs() << Diag.str() << '\n'; };
}

DiagnosticEngine::HandlerTy DiagnosticEngine::setHandler(HandlerTy NewHandler) {
  HandlerTy Old = std::move(Handler);
  Handler = std::move(NewHandler);
  return Old;
}

DiagnosticEngine::HandlerTy *&DiagnosticEngine::threadHandlerSlot() {
  static thread_local HandlerTy *Slot = nullptr;
  return Slot;
}

DiagnosticEngine::HandlerTy *
DiagnosticEngine::swapThreadHandler(HandlerTy *NewHandler) {
  HandlerTy *&Slot = threadHandlerSlot();
  HandlerTy *Old = Slot;
  Slot = NewHandler;
  return Old;
}

void DiagnosticEngine::report(Diagnostic Diag) {
  if (Diag.Severity == DiagnosticSeverity::Error)
    NumErrors.fetch_add(1, std::memory_order_relaxed);
  // The per-thread sink outranks the engine-wide handler: a worker thread
  // capturing its own matcher diagnostics must not leak them into (or race
  // on) whatever handler the main thread installed.
  if (HandlerTy *Thread = threadHandlerSlot()) {
    (*Thread)(Diag);
    return;
  }
  if (Handler)
    Handler(Diag);
}

std::string ScopedDiagnosticCapture::allMessages() const {
  std::string Result;
  for (const Diagnostic &Diag : Captured) {
    if (!Result.empty())
      Result += '\n';
    Result += Diag.str();
  }
  return Result;
}

bool ScopedDiagnosticCapture::contains(std::string_view Needle) const {
  for (const Diagnostic &Diag : Captured)
    if (Diag.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}
