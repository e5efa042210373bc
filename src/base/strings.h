#ifndef CAR_BASE_STRINGS_H_
#define CAR_BASE_STRINGS_H_

#include <charconv>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace car {

namespace internal {

/// Appends the streamed representation of `value`. Strings and integers
/// are appended directly, with exactly the characters operator<< would
/// produce (std::to_chars matches the default integer formatting); any
/// other type goes through a stream. Saves the stream set-up that
/// dominated short concatenations such as memo keys and printed schemas.
template <typename T>
void StrAppendOne(std::string* out, const T& value) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out->append(std::string_view(value));
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool> &&
                       !std::is_same_v<T, char> &&
                       !std::is_same_v<T, signed char> &&
                       !std::is_same_v<T, unsigned char>) {
    char buffer[24];
    auto [end, error] = std::to_chars(buffer, buffer + sizeof(buffer), value);
    (void)error;  // 24 chars hold every 64-bit integer.
    out->append(buffer, end);
  } else {
    std::ostringstream os;
    os << value;
    out->append(os.str());
  }
}

}  // namespace internal

/// Concatenates the streamed representations of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  (internal::StrAppendOne(&out, args), ...);
  return out;
}

/// Joins the streamed representations of the elements of `items` with
/// `separator` between consecutive elements.
template <typename Container>
std::string StrJoin(const Container& items, std::string_view separator) {
  std::string out;
  bool first = true;
  for (const auto& item : items) {
    if (!first) out.append(separator);
    first = false;
    internal::StrAppendOne(&out, item);
  }
  return out;
}

/// Splits `text` at each occurrence of `separator`; empty pieces are kept.
std::vector<std::string> StrSplit(std::string_view text, char separator);

/// Returns `text` unchanged when it fits in `max_bytes`, otherwise its
/// first `max_bytes` bytes followed by an elision marker carrying the
/// elided byte count. For echoing untrusted input in error messages without
/// letting the message inherit the input's size.
std::string Elide(std::string_view text, size_t max_bytes = 256);

/// Returns `text` with leading and trailing ASCII whitespace removed.
std::string_view StripWhitespace(std::string_view text);

/// Parses the whole of `text` as a decimal uint64: digits only, with no
/// sign, whitespace or trailing characters, and no overflow. Returns
/// nullopt otherwise (unlike stoull, which reads "-5" as 2^64-5 and "12x"
/// as 12).
std::optional<uint64_t> ParseUint64(std::string_view text);

}  // namespace car

#endif  // CAR_BASE_STRINGS_H_
