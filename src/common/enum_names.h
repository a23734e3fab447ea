// Text names for enums: one {name, value} table per named enum serves
// both directions, name -> value when the advisor codec parses a request
// and value -> name when it writes one (or a label is printed).

#pragma once

namespace cloudview {

template <typename E>
struct EnumName {
  const char* name;
  E value;
};

/// \brief Specialized once per named enum, next to the enum, as
/// `static constexpr EnumName<E> kTable[]` listing every value once.
template <typename E>
struct EnumNames;

/// \brief The name the enum's table gives `value` ("unknown" if none).
template <typename E>
constexpr const char* NameOf(E value) {
  for (const EnumName<E>& entry : EnumNames<E>::kTable) {
    if (entry.value == value) return entry.name;
  }
  return "unknown";
}

}  // namespace cloudview
