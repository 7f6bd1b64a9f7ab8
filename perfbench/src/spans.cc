#include "spans.h"

#include <cstdio>

namespace perfbench {

std::int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Open(std::string name, std::uint64_t op) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), NowNs(), 0, parent, op});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int index) {
  spans_[index].end_ns = NowNs();
  // Spans are scoped, so the one closing is always the innermost open.
  open_.pop_back();
}

std::map<std::string, double> SpanLog::SelfMsByName(std::uint64_t op) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.op == op && s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self_ms;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op != op) continue;
    self_ms[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return self_ms;
}

double SpanLog::RootMs(const std::string& name, std::uint64_t op) const {
  for (const Span& s : spans_) {
    if (s.op == op && s.parent < 0 && s.name == name) {
      return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return 0.0;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto dot = s.name.find('.');
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"op\":%llu}}",
                 i == 0 ? "" : ",\n", s.name.c_str(),
                 s.name.substr(0, dot).c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
