/**
 * @file
 * Report generation: the human-facing end of the observability loop.
 *
 * Two products, both deterministic byte-for-byte given the same inputs:
 *
 *  - Trace report: one JSONL trace rendered as Markdown — span
 *    statistics, the reconstructed span tree, per-domain voltage
 *    waveform summaries, and (optionally) the invariant check verdict.
 *
 *  - Campaign report: a sweep JSON joined with its per-trial traces and
 *    an optional throughput baseline — outcome summary, per-board /
 *    per-target success and bit-error tables, the paper's
 *    retention-vs-off-time view, aggregated trace statistics, and, when
 *    the sweep carries its opt-in timing section, wall-clock percentile
 *    tables plus a regression verdict against the baseline.
 *
 * Determinism note: every section derived from canonical inputs
 * (records, traces) is byte-stable across runs and job counts. The
 * wall-clock and regression sections are derived from the sweep's
 * non-canonical `timing` section and only appear when the sweep was
 * run with `--timing`; a canonical sweep yields a canonical report.
 */

#ifndef VOLTBOOT_REPORT_REPORT_HH
#define VOLTBOOT_REPORT_REPORT_HH

#include <span>
#include <string>
#include <vector>

#include "report/campaign_json.hh"
#include "report/invariants.hh"
#include "trace/trace.hh"

namespace voltboot
{
namespace report
{

/** A rendered trace report plus the invariant verdict (when checked). */
struct TraceReport
{
    std::string markdown;
    std::vector<Violation> violations;
};

/**
 * Render @p events as a Markdown trace report.
 *
 * @param source Label used in the report heading.
 * @param check  Run checkTraceInvariants() and include the verdict.
 */
TraceReport buildTraceReport(std::span<const trace::TraceEvent> events,
                             const std::string &source, bool check);

/** Options for buildCampaignReport(). */
struct CampaignReportOptions
{
    /** Directory holding `trial_NNNNNN.jsonl` traces; empty skips the
     * per-trial trace join. */
    std::string trace_dir;

    /** Optional throughput baseline (BENCH_campaign.json). */
    const Baseline *baseline = nullptr;

    /** Telemetry heartbeat JSONL (`sweep --heartbeat`) to join into
     * the throughput section; empty skips it. */
    std::string heartbeat_path;

    /** Invariant-check every joined trace; violations (and missing
     * trace files) become problems. */
    bool check = false;

    /** Minimum acceptable throughput as a fraction of the baseline;
     * below this the regression section flags a problem. */
    double regression_threshold = 0.5;
};

/** A rendered campaign report plus everything that went wrong. */
struct CampaignReport
{
    std::string markdown;

    /** Human-readable problems: invariant violations per trial trace,
     * missing trace files (under --check), throughput regressions.
     * Non-empty means the report subcommand exits non-zero. */
    std::vector<std::string> problems;
};

/** Join @p sweep with traces/baseline per @p opts and render. */
CampaignReport buildCampaignReport(const SweepDoc &sweep,
                                   const CampaignReportOptions &opts);

} // namespace report
} // namespace voltboot

#endif // VOLTBOOT_REPORT_REPORT_HH
