/**
 * @file
 * Reader for the telemetry heartbeat JSONL stream
 * (`voltboot_cli sweep --heartbeat FILE`; schema
 * `voltboot-heartbeat-v1`, written by telemetry::CampaignMonitor).
 *
 * Heartbeats are the crash-tolerant record of a sweep: one appended,
 * flushed line per sampling interval, so even a SIGKILLed campaign
 * leaves a parseable progress history ending within one interval of
 * where it died. The reader is lenient about truncation — a torn final
 * line (the process died mid-write) is dropped, everything before it
 * is kept — but strict about the lines it does accept.
 */

#ifndef VOLTBOOT_REPORT_HEARTBEAT_HH
#define VOLTBOOT_REPORT_HEARTBEAT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace voltboot
{
namespace report
{

/** One parsed heartbeat line. */
struct Heartbeat
{
    uint64_t seq = 0;
    bool final_sample = false;
    uint64_t campaign_seed = 0;
    std::string grid_spec;
    uint64_t total_trials = 0;
    uint64_t started = 0;
    uint64_t completed = 0;
    uint64_t won = 0;
    uint64_t failed = 0;
    uint64_t skipped = 0;
    /** Raw counter block, name -> value. */
    std::map<std::string, uint64_t> counters;
    double elapsed_s = 0.0;
    double trials_per_sec = 0.0;
    double trials_per_sec_ewma = 0.0;
    double eta_s = 0.0;
    uint64_t unix_ms = 0;
};

/**
 * Parse the heartbeat stream at @p path, in file order. Lines that are
 * not valid heartbeat objects (torn tail writes, foreign schemas, a
 * count that is negative, fractional or >= 2^64) are skipped. fatal()s
 * when the file cannot be read.
 */
std::vector<Heartbeat> readHeartbeats(const std::string &path);

/** Markdown summary of a heartbeat stream for the campaign report:
 * sample cadence, rate trajectory, and the final sample. Empty string
 * for an empty stream. */
std::string renderHeartbeatSummary(const std::vector<Heartbeat> &beats);

} // namespace report
} // namespace voltboot

#endif // VOLTBOOT_REPORT_HEARTBEAT_HH
