#include "common/wallprof.h"

namespace mgjoin {

WallProfiler& WallProfiler::Global() {
  static WallProfiler prof;
  return prof;
}

void WallProfiler::Add(const std::string& phase, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  seconds_[phase] += seconds;
}

std::vector<std::pair<std::string, double>> WallProfiler::Phases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {seconds_.begin(), seconds_.end()};
}

void WallProfiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  seconds_.clear();
}

}  // namespace mgjoin
