#pragma once
/// \file line_reader.hpp
/// \brief The one streaming line reader behind every JSONL file the library
///        loads: trace files, result stores and `--resume` streams.

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

namespace routesim {

/// Opens `path` for binary reading; null when it cannot be opened.
inline std::unique_ptr<std::FILE, int (*)(std::FILE*)> open_for_reading(
    const std::string& path) {
  return {std::fopen(path.c_str(), "rb"), &std::fclose};
}

/// Calls `line(first, last, ended_with_newline)` for every line of `file`,
/// split as std::getline splits: without its '\n', and a final line with
/// no newline only when it is non-empty (the one call where
/// `ended_with_newline` is false).  The span lives until `line` returns.
///
/// The file streams through one fixed 64 KiB buffer; a line cut by the
/// buffer's end moves to its front, and only a line longer than the whole
/// buffer is gathered in a std::string.  Returns false when a read failed
/// (std::ferror), without calling `line` for a final unterminated line.
template <typename LineFn>
bool for_each_line(std::FILE* file, LineFn&& line) {
  constexpr std::size_t kBufferBytes = 64 * 1024;
  const std::unique_ptr<char[]> buffer(new char[kBufferBytes]);
  std::string long_line;
  std::size_t held = 0;  // bytes of an unfinished line at the buffer's front
  for (;;) {
    const std::size_t got =
        std::fread(buffer.get() + held, 1, kBufferBytes - held, file);
    if (got == 0) break;
    const char* p = buffer.get();
    const char* const end = p + held + got;
    while (const auto* newline = static_cast<const char*>(
               std::memchr(p, '\n', static_cast<std::size_t>(end - p)))) {
      if (long_line.empty()) {
        line(p, newline, true);
      } else {
        long_line.append(p, newline);
        line(long_line.data(), long_line.data() + long_line.size(), true);
        long_line.clear();
      }
      p = newline + 1;
    }
    held = static_cast<std::size_t>(end - p);
    if (!long_line.empty() || held == kBufferBytes) {
      long_line.append(p, held);
      held = 0;
    } else {
      std::memmove(buffer.get(), p, held);
    }
  }
  if (std::ferror(file) != 0) return false;
  if (!long_line.empty()) {
    line(long_line.data(), long_line.data() + long_line.size(), false);
  } else if (held > 0) {
    line(buffer.get(), buffer.get() + held, false);
  }
  return true;
}

}  // namespace routesim
