#include "common/strings.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dcm {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

namespace {

// A NUL-terminated copy of `text` for strtod/strtoll: on the stack when it
// fits (every number this code base writes does), on the heap otherwise.
class TerminatedCopy {
 public:
  explicit TerminatedCopy(std::string_view text) : size_(text.size()) {
    if (size_ < sizeof(stack_)) {
      std::memcpy(stack_, text.data(), size_);
      stack_[size_] = '\0';
      begin_ = stack_;
    } else {
      heap_.assign(text);
      begin_ = heap_.c_str();
    }
  }
  TerminatedCopy(const TerminatedCopy&) = delete;
  TerminatedCopy& operator=(const TerminatedCopy&) = delete;

  const char* begin() const { return begin_; }
  const char* end() const { return begin_ + size_; }

 private:
  char stack_[64]{};
  std::string heap_;
  size_t size_;
  const char* begin_ = nullptr;
};

}  // namespace

std::optional<double> parse_double(std::string_view text) {
  const std::string_view t = trim(text);
  if (t.empty()) return std::nullopt;
  const TerminatedCopy buf(t);
  char* end = nullptr;
  const double value = std::strtod(buf.begin(), &end);
  if (end != buf.end()) return std::nullopt;
  return value;
}

std::optional<int64_t> parse_int(std::string_view text) {
  const std::string_view t = trim(text);
  if (t.empty()) return std::nullopt;
  const TerminatedCopy buf(t);
  char* end = nullptr;
  const long long value = std::strtoll(buf.begin(), &end, 10);
  if (end != buf.end()) return std::nullopt;
  return static_cast<int64_t>(value);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string str_format(const char* fmt, ...) {
  // Format once into a stack buffer; only output that overflows it is
  // formatted a second time, straight into the string.
  va_list args;
  va_start(args, fmt);
  va_list retry;
  va_copy(retry, args);
  char stack[256];
  const int needed = std::vsnprintf(stack, sizeof(stack), fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    const auto size = static_cast<size_t>(needed);
    if (size < sizeof(stack)) {
      out.assign(stack, size);
    } else {
      out.resize(size);
      std::vsnprintf(out.data(), size + 1, fmt, retry);
    }
  }
  va_end(retry);
  return out;
}

}  // namespace dcm
