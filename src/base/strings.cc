#include "base/strings.h"

#include <cctype>

namespace car {

std::vector<std::string> StrSplit(std::string_view text, char separator) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      return pieces;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Elide(std::string_view text, size_t max_bytes) {
  if (text.size() <= max_bytes) return std::string(text);
  return StrCat(text.substr(0, max_bytes), "... [", text.size() - max_bytes,
                " more bytes]");
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::optional<uint64_t> ParseUint64(std::string_view text) {
  uint64_t value = 0;
  auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace car
