#ifndef MGJOIN_OBS_METRICS_H_
#define MGJOIN_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace mgjoin::obs {

/// Monotonic event/byte counter.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level with a high-water mark (queue depths, ring
/// occupancy). `Set` moves the level; the high-water mark only grows.
class Gauge {
 public:
  void Set(std::uint64_t v) {
    value_ = v;
    if (v > high_water_) high_water_ = v;
  }
  std::uint64_t value() const { return value_; }
  std::uint64_t high_water() const { return high_water_; }

 private:
  std::uint64_t value_ = 0;
  std::uint64_t high_water_ = 0;
};

/// Power-of-two bucketed histogram (bucket i counts values in
/// [2^(i-1), 2^i), bucket 0 counts zeros and ones).
class Histogram {
 public:
  void Observe(std::uint64_t v);
  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  /// \brief Approximate value at quantile `q` in [0, 1]: the bucket
  /// holding the q-th observation is exact, the position inside it is
  /// linearly interpolated; the result is clamped to the observed
  /// min/max. Error is bounded by the bucket width (a factor of 2).
  std::uint64_t ValueAtQuantile(double q) const;
  std::uint64_t P50() const { return ValueAtQuantile(0.50); }
  std::uint64_t P95() const { return ValueAtQuantile(0.95); }
  std::uint64_t P99() const { return ValueAtQuantile(0.99); }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

/// \brief Busy-time timeline of one resource (a link direction, a DMA
/// engine): total busy time plus a fixed-width binned profile, so the
/// end-of-run summary can show *when* a link was hot, not only how hot
/// on average.
class Timeline {
 public:
  /// `bin_width` controls the profile resolution (default 1 ms of sim
  /// time per bin).
  explicit Timeline(sim::SimTime bin_width = sim::kMillisecond)
      : bin_width_(bin_width) {}

  /// Accumulates a busy interval [start, end). Intervals may be added
  /// out of order and may overlap bins arbitrarily.
  void AddBusy(sim::SimTime start, sim::SimTime end);

  sim::SimTime busy() const { return busy_; }
  sim::SimTime last_end() const { return last_end_; }

  /// busy-time / window, clamped to [0, 1] only by the caller's choice
  /// of window (overlapping reservations can exceed 1).
  double Utilization(sim::SimTime window) const {
    return window == 0 ? 0.0
                       : static_cast<double>(busy_) /
                             static_cast<double>(window);
  }

  /// Per-bin utilization in [0,1]; bin i covers
  /// [i*bin_width, (i+1)*bin_width).
  std::vector<double> Profile() const;

  /// Compact ASCII profile ("0123456789X" utilization deciles per
  /// column), downsampled to at most `max_cols` columns.
  std::string Sparkline(std::size_t max_cols = 60) const;

 private:
  sim::SimTime bin_width_;
  sim::SimTime busy_ = 0;
  sim::SimTime last_end_ = 0;
  std::vector<sim::SimTime> bins_;
};

/// \brief Pre-resolved reference to a registry Counter.
///
/// Hot paths touch metrics once per packet/batch; resolving the name
/// through the registry's std::map on every touch costs more than the
/// add itself. A handle is resolved once at setup and is null-safe: a
/// default-constructed handle (metrics disabled) makes every touch a
/// no-op, so call sites need no branching of their own. Handles stay
/// valid for the registry's lifetime — std::map nodes never move.
class CounterHandle {
 public:
  CounterHandle() = default;
  explicit CounterHandle(Counter* c) : c_(c) {}
  void Add(std::uint64_t n = 1) {
    if (c_ != nullptr) c_->Add(n);
  }
  explicit operator bool() const { return c_ != nullptr; }

 private:
  Counter* c_ = nullptr;
};

/// Pre-resolved, null-safe reference to a registry Gauge (see
/// CounterHandle).
class GaugeHandle {
 public:
  GaugeHandle() = default;
  explicit GaugeHandle(Gauge* g) : g_(g) {}
  void Set(std::uint64_t v) {
    if (g_ != nullptr) g_->Set(v);
  }
  explicit operator bool() const { return g_ != nullptr; }

 private:
  Gauge* g_ = nullptr;
};

/// Pre-resolved, null-safe reference to a registry Histogram (see
/// CounterHandle).
class HistogramHandle {
 public:
  HistogramHandle() = default;
  explicit HistogramHandle(Histogram* h) : h_(h) {}
  void Observe(std::uint64_t v) {
    if (h_ != nullptr) h_->Observe(v);
  }
  explicit operator bool() const { return h_ != nullptr; }

 private:
  Histogram* h_ = nullptr;
};

/// \brief Registry of named metrics. Names are hierarchical by
/// convention ("net.packets", "link.NVLink1:0-1.fwd"); the summary is
/// sorted by name so output is deterministic.
///
/// Lookups create the metric on first use. The registry is not
/// synchronized: the simulator is single-threaded and so are all
/// producers.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  Timeline& timeline(const std::string& name) { return timelines_[name]; }

  const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, Timeline>& timelines() const {
    return timelines_;
  }

  /// Handle accessors: one map lookup now, none per touch.
  CounterHandle counter_handle(const std::string& name) {
    return CounterHandle(&counters_[name]);
  }
  GaugeHandle gauge_handle(const std::string& name) {
    return GaugeHandle(&gauges_[name]);
  }
  HistogramHandle histogram_handle(const std::string& name) {
    return HistogramHandle(&histograms_[name]);
  }

  /// Null-tolerant resolvers: an absent registry yields an empty (no-op)
  /// handle, so components resolve unconditionally at setup.
  static CounterHandle ResolveCounter(MetricsRegistry* m,
                                      const std::string& name) {
    return m == nullptr ? CounterHandle() : m->counter_handle(name);
  }
  static GaugeHandle ResolveGauge(MetricsRegistry* m,
                                  const std::string& name) {
    return m == nullptr ? GaugeHandle() : m->gauge_handle(name);
  }
  static HistogramHandle ResolveHistogram(MetricsRegistry* m,
                                          const std::string& name) {
    return m == nullptr ? HistogramHandle() : m->histogram_handle(name);
  }

  /// Renders every metric; timeline utilizations are relative to
  /// `window` (pass the run's makespan).
  std::string Summary(sim::SimTime window) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, Timeline> timelines_;
};

}  // namespace mgjoin::obs

#endif  // MGJOIN_OBS_METRICS_H_
