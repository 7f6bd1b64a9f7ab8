#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call into a layer's public function.
struct Span {
  std::string name;       ///< "<layer>.<function>", e.g. "join.shuffle"
  std::int64_t start_ns;  ///< since the log was created
  std::int64_t end_ns;
  int parent;             ///< index of the enclosing span, -1 for a root
  std::uint64_t op;       ///< op id shared by every span of one op
};

/// \brief In-memory span recorder for the traced run.
///
/// Spans nest by call order: a span opened while another is open becomes
/// its child. Nothing is written until WriteChromeTrace() runs at exit, so
/// recording costs two clock reads and one vector append per span.
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  int Open(std::string name, std::uint64_t op);
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time in ms (duration minus the time its children cover) of
  /// every span of `op`, summed by span name.
  std::map<std::string, double> SelfMsByName(std::uint64_t op) const;

  /// Duration in ms of the first root span named `name` of `op`, or 0.
  double RootMs(const std::string& name, std::uint64_t op) const;

  /// Writes every span as a Chrome trace "X" event (Perfetto /
  /// chrome://tracing). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction. A null log
/// records nothing, so untraced code paths share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t op)
      : log_(log), index_(log ? log->Open(std::move(name), op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
