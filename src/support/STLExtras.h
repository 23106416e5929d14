//===- STLExtras.h - Small generic helpers ----------------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A handful of helpers in the spirit of llvm/ADT/STLExtras.h, restricted to
/// what this project actually uses.
///
//===----------------------------------------------------------------------===//

#ifndef TDL_SUPPORT_STLEXTRAS_H
#define TDL_SUPPORT_STLEXTRAS_H

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace tdl {

/// A borrowed read-only run of elements: a vector, a braced list, or a
/// pointer and a count (the C++17 stand-in for `std::span<const T>`). It
/// owns nothing, so it must not outlive the storage it views.
template <typename T> class ArrayRef {
public:
  ArrayRef() = default;
  ArrayRef(const T *Data, size_t Size) : Data(Data), Size(Size) {}
  ArrayRef(const std::vector<T> &V) : Data(V.data()), Size(V.size()) {}
  // A braced argument list outlives the call it is passed to, which is the
  // one use this constructor serves.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
  ArrayRef(std::initializer_list<T> L) : Data(L.begin()), Size(L.size()) {}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  const T &operator[](size_t I) const { return Data[I]; }

private:
  const T *Data = nullptr;
  size_t Size = 0;
};

/// Returns true if \p Range contains \p Value.
template <typename Range, typename T>
bool is_contained(const Range &Haystack, const T &Value) {
  return std::find(Haystack.begin(), Haystack.end(), Value) != Haystack.end();
}

/// Erases all elements matching \p Pred from the vector.
template <typename T, typename Pred>
void erase_if(std::vector<T> &Container, Pred Predicate) {
  Container.erase(
      std::remove_if(Container.begin(), Container.end(), Predicate),
      Container.end());
}

/// Joins string-like elements with a separator.
template <typename Range>
std::string join(const Range &Parts, std::string_view Separator) {
  std::string Result;
  bool First = true;
  for (const auto &Part : Parts) {
    if (!First)
      Result += Separator;
    First = false;
    Result += Part;
  }
  return Result;
}

/// Splits \p Text on \p Separator; keeps empty pieces.
std::vector<std::string_view> split(std::string_view Text, char Separator);

/// Returns true if \p Name matches \p Pattern, where the pattern is either a
/// literal or a dialect wildcard of the form "dialect.*".
bool matchesOpPattern(std::string_view Pattern, std::string_view Name);

} // namespace tdl

#endif // TDL_SUPPORT_STLEXTRAS_H
