// Invariant failures that must stop the run in every build type.
//
// A bare assert() vanishes under NDEBUG, the default RelWithDebInfo build,
// and a violated topology or runner invariant then corrupts memory or the
// simulation silently. Fatal() prints one attributable line,
// `emu: fatal: <where>: <message>`, and aborts.
#ifndef SRC_COMMON_FATAL_H_
#define SRC_COMMON_FATAL_H_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace emu {

// `where` names the check, conventionally `Class::Method`; the rest is a
// printf format.
[[noreturn]] __attribute__((format(printf, 2, 3))) inline void Fatal(const char* where,
                                                                      const char* format, ...) {
  std::fprintf(stderr, "emu: fatal: %s: ", where);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace emu

#endif  // SRC_COMMON_FATAL_H_
