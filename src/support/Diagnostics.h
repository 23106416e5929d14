//===- Diagnostics.h - Locations and diagnostic reporting -------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source locations and the diagnostic engine. Diagnostics are routed to a
/// configurable handler (tests install capturing handlers; tools print to
/// stderr). `InFlightDiagnostic` supports the MLIR idiom
/// `return emitError(loc) << "message";`.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_SUPPORT_DIAGNOSTICS_H
#define TDL_SUPPORT_DIAGNOSTICS_H

#include "support/LogicalResult.h"
#include "support/Stream.h"

#include <atomic>
#include <functional>
#include <string>
#include <vector>

namespace tdl {

/// An immutable, cheaply copyable source location: an interned file (or
/// construct) name plus a line and column. Only the name is interned, in a
/// process-wide pool, so the pool grows with the number of distinct names
/// and never with the number of positions; equality compares all three.
class Location {
public:
  /// Returns the unknown location.
  static Location unknown() { return Location(); }
  /// Returns a file:line:col location (interns \p File).
  static Location get(std::string_view File, unsigned Line, unsigned Col = 0);
  /// Returns a named location (e.g. the name of a generated construct).
  static Location name(std::string_view Name);

  /// Returns the location at \p Line:\p Col in this location's file without
  /// interning anything; the parser interns its buffer name once and calls
  /// this per operation.
  Location withPosition(unsigned NewLine, unsigned NewCol) const {
    Location Result = *this;
    Result.Line = NewLine;
    Result.Col = NewCol;
    return Result;
  }

  bool isUnknown() const { return Name == nullptr; }
  /// Renders the location as text, e.g. "file.mlir:3:7" or "loc(\"name\")".
  std::string str() const;

  /// Number of distinct names interned so far, process-wide.
  static size_t getNumInternedNames();

  bool operator==(const Location &Other) const {
    return Name == Other.Name && Line == Other.Line && Col == Other.Col;
  }
  bool operator!=(const Location &Other) const { return !(*this == Other); }

  struct Storage;

private:
  Location() = default;
  Location(const Storage *Name, unsigned Line, unsigned Col)
      : Name(Name), Line(Line), Col(Col) {}

  const Storage *Name = nullptr;
  unsigned Line = 0;
  unsigned Col = 0;
};

/// The severity of a diagnostic.
enum class DiagnosticSeverity { Error, Warning, Remark, Note };

/// A rendered diagnostic: severity + location + message.
struct Diagnostic {
  DiagnosticSeverity Severity = DiagnosticSeverity::Error;
  Location Loc = Location::unknown();
  std::string Message;

  /// Renders "error: message" style text including the location when known.
  std::string str() const;
};

/// Dispatches diagnostics to a handler. One engine per IR context.
///
/// Threading: `report` may be called from worker threads (the sharded
/// matcher walk). The error counter is atomic, and a per-thread handler —
/// installed via `swapThreadHandler`, typically through
/// `ThreadDiagnosticCapture` — takes precedence over the engine-wide
/// handler, so each worker can capture its own diagnostics without racing.
/// Installing or replacing the engine-wide handler itself remains a
/// single-threaded (setup/teardown) operation.
class DiagnosticEngine {
public:
  using HandlerTy = std::function<void(const Diagnostic &)>;

  DiagnosticEngine();

  /// Replaces the current handler, returning the previous one.
  HandlerTy setHandler(HandlerTy Handler);

  /// Installs \p Handler as the calling thread's diagnostic sink (null to
  /// uninstall), returning the previously installed one. The slot is
  /// per-thread and process-wide, not per-engine: while installed, every
  /// diagnostic the thread reports is routed to it.
  static HandlerTy *swapThreadHandler(HandlerTy *Handler);

  void report(Diagnostic Diag);

  /// Number of error-severity diagnostics reported so far.
  unsigned getNumErrors() const {
    return NumErrors.load(std::memory_order_relaxed);
  }

private:
  static HandlerTy *&threadHandlerSlot();

  HandlerTy Handler;
  std::atomic<unsigned> NumErrors{0};
};

/// A diagnostic under construction. Streams text via operator<< and reports
/// the finished diagnostic to the engine on destruction. Converts to a failed
/// LogicalResult so `return emitError(...) << "msg";` works.
class InFlightDiagnostic {
public:
  InFlightDiagnostic(DiagnosticEngine *Engine, DiagnosticSeverity Severity,
                     Location Loc)
      : Engine(Engine) {
    Diag.Severity = Severity;
    Diag.Loc = Loc;
  }
  InFlightDiagnostic(InFlightDiagnostic &&Other)
      : Engine(Other.Engine), Diag(std::move(Other.Diag)) {
    Other.Engine = nullptr;
  }
  InFlightDiagnostic(const InFlightDiagnostic &) = delete;
  InFlightDiagnostic &operator=(const InFlightDiagnostic &) = delete;

  ~InFlightDiagnostic() { report(); }

  template <typename T> InFlightDiagnostic &operator<<(T &&Value) {
    raw_string_ostream Stream(Diag.Message);
    Stream << std::forward<T>(Value);
    return *this;
  }

  /// Reports the diagnostic now (idempotent).
  void report() {
    if (!Engine)
      return;
    Engine->report(std::move(Diag));
    Engine = nullptr;
  }

  operator LogicalResult() { return failure(); }

  /// Allows `return emitError(...) << "msg";` from FailureOr-returning
  /// functions (a single user-defined conversion).
  template <typename T> operator FailureOr<T>() {
    report();
    return FailureOr<T>(failure());
  }

private:
  DiagnosticEngine *Engine;
  Diagnostic Diag;
};

/// Captures diagnostics into a vector for the duration of its lifetime;
/// intended for tests and for tools that postprocess diagnostics.
class ScopedDiagnosticCapture {
public:
  explicit ScopedDiagnosticCapture(DiagnosticEngine &Engine) : Engine(Engine) {
    Previous = Engine.setHandler(
        [this](const Diagnostic &Diag) { Captured.push_back(Diag); });
  }
  ~ScopedDiagnosticCapture() { Engine.setHandler(std::move(Previous)); }

  const std::vector<Diagnostic> &getDiagnostics() const { return Captured; }

  /// Returns all captured messages joined with newlines.
  std::string allMessages() const;

  /// Returns true if any captured diagnostic message contains \p Needle.
  bool contains(std::string_view Needle) const;

private:
  DiagnosticEngine &Engine;
  DiagnosticEngine::HandlerTy Previous;
  std::vector<Diagnostic> Captured;
};

/// Captures diagnostics reported from the *current thread* into a vector,
/// leaving diagnostics from other threads routed as before. The matcher
/// engine installs one per walk or commit worker so the expected
/// "not this op" failures stay silenced and everything else is replayed in
/// serial order even when the work is sharded across worker threads (a
/// ScopedDiagnosticCapture would race on the engine-wide handler).
class ThreadDiagnosticCapture {
public:
  ThreadDiagnosticCapture() {
    Handler = [this](const Diagnostic &Diag) { Captured.push_back(Diag); };
    Previous = DiagnosticEngine::swapThreadHandler(&Handler);
  }
  ~ThreadDiagnosticCapture() { DiagnosticEngine::swapThreadHandler(Previous); }
  ThreadDiagnosticCapture(const ThreadDiagnosticCapture &) = delete;
  ThreadDiagnosticCapture &operator=(const ThreadDiagnosticCapture &) = delete;

  const std::vector<Diagnostic> &getDiagnostics() const { return Captured; }
  /// Moves the captured diagnostics out (for replay after the capture ends).
  std::vector<Diagnostic> takeDiagnostics() { return std::move(Captured); }
  /// Returns all captured messages joined with newlines (mirrors
  /// ScopedDiagnosticCapture::allMessages for call sites that fold captured
  /// text into a composed failure message).
  std::string allMessages() const {
    std::string Result;
    for (const Diagnostic &Diag : Captured) {
      if (!Result.empty())
        Result += '\n';
      Result += Diag.str();
    }
    return Result;
  }
  /// Drops everything captured after the first \p Size (<= the current
  /// count) diagnostics; a long-lived capture (one per walk worker) discards
  /// a silenced matcher invocation's output this way.
  void truncate(size_t Size) { Captured.resize(Size); }

private:
  DiagnosticEngine::HandlerTy Handler;
  DiagnosticEngine::HandlerTy *Previous = nullptr;
  std::vector<Diagnostic> Captured;
};

} // namespace tdl

#endif // TDL_SUPPORT_DIAGNOSTICS_H
