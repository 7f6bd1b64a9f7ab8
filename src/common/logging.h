#ifndef MGJOIN_COMMON_LOGGING_H_
#define MGJOIN_COMMON_LOGGING_H_

#include <functional>
#include <sstream>
#include <string>

namespace mgjoin {

/// Messages below kWarn are dropped, so library code stays quiet in
/// benchmarks.
enum class LogLevel { kDebug = 0, kInfo, kWarn, kError, kFatal };

/// \brief Registers `fn` to run after a Fatal message is printed and
/// before the process aborts — the hook for flushing diagnostics (the
/// bench harness flushes its Chrome trace here, so a crashed run keeps
/// the trace that explains it).
///
/// Hooks run in reverse registration order, each at most once per
/// process; a hook that itself fails fatally does not re-enter the
/// chain. Not removable: registrants must be process-lifetime objects.
void AtFatal(std::function<void()> fn);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal

#define MGJ_LOG(level)                                                  \
  ::mgjoin::internal::LogMessage(::mgjoin::LogLevel::k##level, __FILE__, \
                                 __LINE__)

/// CHECK-style invariant assertions: active in all build types because
/// the simulator's correctness depends on them.
#define MGJ_CHECK(cond)                                          \
  if (!(cond))                                                   \
  ::mgjoin::internal::LogMessage(::mgjoin::LogLevel::kFatal,     \
                                 __FILE__, __LINE__)             \
      << "Check failed: " #cond " "

#define MGJ_CHECK_OK(expr)                                       \
  do {                                                           \
    ::mgjoin::Status _st = (expr);                               \
    MGJ_CHECK(_st.ok()) << _st.ToString();                       \
  } while (false)

#define MGJ_DCHECK(cond) MGJ_CHECK(cond)

}  // namespace mgjoin

#endif  // MGJOIN_COMMON_LOGGING_H_
