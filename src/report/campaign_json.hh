/**
 * @file
 * Parsers for the campaign result JSON (`CampaignResult::toJson`) and
 * the bench baseline artefacts (`BENCH_campaign.json`), feeding the
 * report generator.
 *
 * Loading a sweep back through this reader is the inverse of
 * `CampaignResult::toJson()` for everything the report needs: the
 * canonical record fields always, and the opt-in `timing` section
 * (wall clock, throughput, metrics snapshot) when the sweep was run
 * with `--timing`. Schema violations are reported as JsonParseError
 * with the offending value's line/column, same as the trace reader.
 */

#ifndef VOLTBOOT_REPORT_CAMPAIGN_JSON_HH
#define VOLTBOOT_REPORT_CAMPAIGN_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/metrics.hh"

namespace voltboot
{
namespace report
{

/** One trial record, as re-read from campaign JSON. */
struct SweepRecord
{
    uint64_t index = 0;
    std::string board;
    std::string target;
    std::string attack;
    double temp_c = 0.0;
    double off_ms = 0.0;
    double current_a = 0.0;
    double impedance_mohm = 0.0;
    uint64_t seed_index = 0;
    uint64_t chip_seed = 0;
    std::string status; ///< ok | attack_failed | error | skipped
    std::string detail;
    bool probe_attached = false;
    bool booted = false;
    uint64_t dump_bytes = 0;
    double accuracy = 0.0;
    double bit_error_rate = 0.0;
    bool key_planted = false;
    bool key_found = false;
    bool key_exact = false;

    /** Glitch axes and outcome; default-zero when reading sweeps
     * written before the glitch attack existed. */
    double glitch_off_ns = 0.0;
    double glitch_width_ns = 0.0;
    double glitch_depth_v = 0.0;
    uint64_t glitch_faults = 0;
    std::string glitch_effect;
    bool glitch_bypassed = false;

    /** Sidechannel axes and outcome; default-zero when reading sweeps
     * written before the static-extract/coupling attacks existed. */
    double undervolt_depth_v = 0.0;
    double hold_ns = 0.0;
    double readout_rate = 0.0;
    double cpa_window_ns = 0.0;
    bool se_frozen = false;
    bool se_zeroized = false;
    double se_read_fraction = 0.0;
    uint64_t cpa_recovered = 0;

    /** Key-recovery axes and outcome; defaults when reading sweeps
     * written before the keyfind engine existed. */
    uint64_t dump_count = 1;
    bool use_priors = false;
    uint64_t kr_scan_hits = 0;
    uint64_t kr_corrected_hits = 0;
    uint64_t kr_bit_errors = 0;
    uint64_t kr_key_bits_flipped = 0;
    uint64_t kr_correction_iterations = 0;
    uint64_t kr_disagreeing_bits = 0;
};

/** A whole sweep document. */
struct SweepDoc
{
    std::string schema; ///< "voltboot-campaign-v1"
    uint64_t campaign_seed = 0;
    std::string grid;
    std::vector<SweepRecord> records;

    /** Opt-in timing section (non-canonical); valid iff has_timing. */
    bool has_timing = false;
    double wall_seconds = 0.0;
    uint64_t jobs = 0;
    double trials_per_second = 0.0;
    trace::MetricsSnapshot metrics;
};

/** Parse a campaign result document; throws JsonParseError. */
SweepDoc parseSweepJson(std::string_view text,
                        const std::string &source = "<string>");

/** Load and parse a sweep JSON file; fatal() if unreadable. */
SweepDoc readSweepFile(const std::string &path);

/** One `runs[]` entry of a BENCH_campaign.json artefact. */
struct BaselineRun
{
    uint64_t jobs = 0;
    double wall_seconds = 0.0;
    double trials_per_second = 0.0;
};

/** A BENCH_campaign.json throughput baseline. */
struct Baseline
{
    std::string bench;
    uint64_t trials = 0;
    std::vector<BaselineRun> runs;

    /** Best throughput over all runs; 0 when there are none. */
    double bestTrialsPerSecond() const;
    /** Throughput of the run with matching @p jobs, or nullptr. */
    const BaselineRun *runForJobs(uint64_t jobs) const;
};

/** Parse a BENCH_campaign.json document; throws JsonParseError. */
Baseline parseBaselineJson(std::string_view text,
                           const std::string &source = "<string>");

/** Load and parse a baseline file; fatal() if unreadable. */
Baseline readBaselineFile(const std::string &path);

} // namespace report
} // namespace voltboot

#endif // VOLTBOOT_REPORT_CAMPAIGN_JSON_HH
