#ifndef MGJOIN_OBS_EXPORT_H_
#define MGJOIN_OBS_EXPORT_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace mgjoin::obs {

/// \brief OpenMetrics / CSV exporters for the metrics registry and the
/// telemetry sampler, plus a strict-enough parser for linting.
///
/// Registry metrics export under family prefix "mgj_" (counters get the
/// "_total" suffix, histograms expand to _bucket/_sum/_count). Sampled
/// telemetry series export as gauge families "mgj_sample_*" with one
/// MetricPoint per snapshot, timestamped in seconds of simulated time;
/// flow series carry query/phase/src/dst labels. The separate namespace
/// keeps a sampled series from colliding with a registry family of the
/// same base name.

/// One exposition line's worth of parsed sample data.
struct OmSample {
  std::string name;  ///< full sample name incl. suffix ("mgj_x_total")
  std::string labels;  ///< raw label block without braces ("" if none)
  double value = 0.0;
  bool has_timestamp = false;
  double timestamp = 0.0;
};

/// One `# TYPE` family and the samples attributed to it.
struct OmFamily {
  std::string name;
  std::string type;  ///< "counter" | "gauge" | "histogram" | "unknown"
  std::vector<OmSample> samples;
};

/// Renders the full OpenMetrics text exposition. Either argument may be
/// null; `# EOF` is always emitted.
std::string OpenMetricsText(const MetricsRegistry* metrics,
                            const TelemetrySampler* telemetry);

/// Multi-run variant (bench processes run several figures per binary):
/// when more than one sampler is given, each series gets a run="<i>"
/// label so runs stay distinguishable in one exposition.
std::string OpenMetricsText(
    const MetricsRegistry* metrics,
    const std::vector<const TelemetrySampler*>& telemetry);

/// Parses an exposition produced by OpenMetricsText (metric lines and
/// `# TYPE` lines; other comments are skipped). Returns families in
/// file order.
Result<std::vector<OmFamily>> ParseOpenMetrics(const std::string& text);

/// Structural lint over an exposition: parses it, then checks `# EOF`
/// presence, name charset, duplicate TYPE declarations, suffix/type
/// agreement (counters end _total; histogram samples are
/// _bucket/_sum/_count), and per-series nondecreasing timestamps.
Status LintOpenMetrics(const std::string& text);

/// Sampled telemetry as CSV:
/// "name,metric,query,phase,src,dst,time_ps,value" (flow columns empty
/// for plain series).
std::string TelemetryCsv(const TelemetrySampler& telemetry);

/// Writes `text` to `path` (parent directory must exist). Fails when the
/// file cannot be opened, written or flushed.
Status WriteTextFile(const std::string& path, const std::string& text);

/// Reads the whole of `path`, byte for byte. Fails when the file cannot
/// be opened or read.
Result<std::string> ReadTextFile(const std::string& path);

}  // namespace mgjoin::obs

#endif  // MGJOIN_OBS_EXPORT_H_
