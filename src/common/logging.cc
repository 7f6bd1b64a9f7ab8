#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace mgjoin {

namespace {
constexpr LogLevel kMinLevel = LogLevel::kWarn;

std::vector<std::function<void()>>& FatalHooks() {
  static std::vector<std::function<void()>> hooks;
  return hooks;
}

void RunFatalHooks() {
  // A hook may CHECK-fail (e.g. while flushing a corrupted recorder);
  // the guard keeps the second fatal path from re-running the chain.
  static bool running = false;
  if (running) return;
  running = true;
  auto& hooks = FatalHooks();
  for (auto it = hooks.rbegin(); it != hooks.rend(); ++it) {
    (*it)();
  }
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

void AtFatal(std::function<void()> fn) {
  FatalHooks().push_back(std::move(fn));
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level),
      enabled_(level >= kMinLevel || level == LogLevel::kFatal) {
  if (enabled_) {
    stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
  if (level_ == LogLevel::kFatal) {
    // The message is already on stderr; give registered hooks a chance
    // to flush diagnostics (traces, metrics) before the abort.
    RunFatalHooks();
    std::abort();
  }
}

}  // namespace internal

}  // namespace mgjoin
