/**
 * @file
 * Prometheus text exposition (version 0.0.4) for MetricsSnapshot.
 *
 * Maps the snapshot's dotted metric names onto Prometheus conventions:
 * names are prefixed `voltboot_` and dots become underscores, counters
 * and gauges emit one sample each, and histograms emit as summaries —
 * `{quantile="0.5|0.9|0.99"}` samples plus `_sum` and `_count`. Output
 * is sorted by metric name (the snapshot maps are ordered), so the
 * exposition is deterministic for a deterministic snapshot.
 */

#ifndef VOLTBOOT_REPORT_PROMETHEUS_HH
#define VOLTBOOT_REPORT_PROMETHEUS_HH

#include <string>
#include <utility>
#include <vector>

#include "trace/metrics.hh"

namespace voltboot
{
namespace report
{

/** Constant labels stamped onto every sample, in the given order. */
using PrometheusLabels =
    std::vector<std::pair<std::string, std::string>>;

/** Render @p snap in the Prometheus text exposition format. */
std::string toPrometheus(const trace::MetricsSnapshot &snap);

/** As above, with @p labels attached to every sample (merged in front
 * of the summary quantile label). */
std::string toPrometheus(const trace::MetricsSnapshot &snap,
                         const PrometheusLabels &labels);

/** `voltboot_` + @p name with every non-alphanumeric mapped to `_`. */
std::string prometheusName(const std::string &name);

/** Escape @p value for use inside a label: `\` -> `\\`, `"` -> `\"`,
 * newline -> `\n` (exposition format rules). */
std::string escapeLabelValue(const std::string &value);

} // namespace report
} // namespace voltboot

#endif // VOLTBOOT_REPORT_PROMETHEUS_HH
