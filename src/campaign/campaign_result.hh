/**
 * @file
 * Structured campaign results.
 *
 * Every trial produces one TrialRecord — parameters echoed back, a
 * status, and the extraction metrics the paper reports (retention
 * accuracy / bit-error rate, key-recovery outcome). A CampaignResult is
 * the ordered vector of records (indexed by trial index, so the layout
 * is schedule-independent) plus merged summaries, and renders to JSON
 * and CSV.
 *
 * The canonical JSON/CSV output is bit-identical for a given
 * (grid, campaign seed) regardless of worker count: wall-clock
 * measurements are segregated into an optional "timing" section that is
 * omitted by default.
 */

#ifndef VOLTBOOT_CAMPAIGN_CAMPAIGN_RESULT_HH
#define VOLTBOOT_CAMPAIGN_CAMPAIGN_RESULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "campaign/sweep_grid.hh"
#include "sim/stats.hh"
#include "trace/metrics.hh"

namespace voltboot
{

/** How one trial ended. */
enum class TrialStatus
{
    Ok,           ///< Extraction ran; metrics are valid.
    AttackFailed, ///< The attack itself failed (probe/boot); no dump.
    Error,        ///< The trial threw; detail carries the message.
    Skipped,      ///< Campaign aborted before this trial started.
};

/** Record name of each TrialStatus, indexed by its value. */
inline constexpr std::array<const char *, 4> kStatusNames = {
    "ok", "attack_failed", "error", "skipped"};
static_assert(kStatusNames.size() ==
              static_cast<size_t>(TrialStatus::Skipped) + 1);

const char *toString(TrialStatus status);

/** Quote @p field per RFC 4180 when it contains a comma, quote, or
 * newline (embedded quotes doubled); otherwise returned unchanged. */
std::string csvEscape(const std::string &field);

/** Split one CSV row (without its trailing newline) into unescaped
 * fields — the inverse of the quoting csvEscape() applies. */
std::vector<std::string> splitCsvRow(const std::string &line);

/** Outcome and metrics of a single trial. */
struct TrialRecord
{
    TrialSpec spec;
    TrialStatus status = TrialStatus::Skipped;
    std::string detail;     ///< Failure reason / exception text.
    uint64_t chip_seed = 0; ///< The derived silicon seed actually used.

    bool probe_attached = false;
    bool booted = false;

    uint64_t dump_bytes = 0;
    /** Fraction of dump bits matching ground truth (1.0 = perfect,
     * ~0.5 = nothing retained). Valid only when status == Ok. */
    double accuracy = 0.0;
    double bit_error_rate = 0.0;

    bool key_planted = false;
    bool key_found = false;
    bool key_exact = false;

    /** Glitch trials: number of faults the pulse injected. */
    uint64_t glitch_faults = 0;
    /** Glitch trials: comma-joined effect names, in boundary order
     * (e.g. "skip,opcode_corrupt" — note the embedded commas). */
    std::string glitch_effect;
    /** Glitch trials: the signature check passed without a valid tag. */
    bool glitch_bypassed = false;

    /** StaticExtract trials: the clock froze below brown-out. */
    bool se_frozen = false;
    /** StaticExtract trials: the victim finished its zeroize wipe. */
    bool se_zeroized = false;
    /** StaticExtract trials: fraction of the dump the slow readout
     * path observed inside the hold window. */
    double se_read_fraction = 0.0;
    /** VoltageCoupling trials: key bytes whose winning CPA guess
     * cleared the confidence threshold. */
    uint64_t cpa_recovered = 0;

    /** KeyRecovery trials: keyfind engine outcome (deterministic). */
    uint64_t kr_scan_hits = 0;      ///< Exact-scan schedule hits.
    uint64_t kr_corrected_hits = 0; ///< Correction-scan hits.
    /** Residual schedule bit errors of the best hit (0 when none). */
    uint64_t kr_bit_errors = 0;
    /** Key bits the corrector flipped for the best corrected hit. */
    uint64_t kr_key_bits_flipped = 0;
    /** Local-search iterations the correction stage spent in total. */
    uint64_t kr_correction_iterations = 0;
    /** Bits that disagreed across the trial's fused dumps. */
    uint64_t kr_disagreeing_bits = 0;

    /** Wall-clock cost; timing only, never in canonical output. */
    double duration_s = 0.0;
};

/** A TrialRecord member of type T, held directly or by its spec. */
template <class T>
struct RecordMember
{
    T TrialSpec::*spec = nullptr;
    T TrialRecord::*record = nullptr;

    T &of(TrialRecord &r) const { return spec ? r.spec.*spec : r.*record; }
    const T &
    of(const TrialRecord &r) const
    {
        return spec ? r.spec.*spec : r.*record;
    }
};

/**
 * One column of a trial record: its JSON key and CSV header, the member
 * it carries (whose type is the value's kind), and whether a reader
 * requires it.
 */
struct RecordColumn
{
    /** Optional columns postdate the v1 schema: sweeps written before
     * their attack family lack them, and they read back as the
     * TrialRecord default. */
    enum Use { Required, Optional };

    template <class T>
    constexpr RecordColumn(const char *n, T TrialSpec::*m, Use u = Required)
        : name(n), member(RecordMember<T>{m, nullptr}), use(u)
    {}
    template <class T>
    constexpr RecordColumn(const char *n, T TrialRecord::*m, Use u = Required)
        : name(n), member(RecordMember<T>{nullptr, m}), use(u)
    {}

    const char *name;
    std::variant<RecordMember<uint64_t>, RecordMember<double>,
                 RecordMember<bool>, RecordMember<std::string>,
                 RecordMember<TargetRam>, RecordMember<AttackKind>,
                 RecordMember<TrialStatus>>
        member;
    Use use;
};

/**
 * The trial-record columns, in JSON order; CSV moves the free-text
 * `detail` last. Adding a column is one row here plus its TrialRecord
 * (or TrialSpec) member; the writers and the report reader follow.
 */
inline constexpr RecordColumn kRecordColumns[] = {
    {"index", &TrialSpec::index},
    {"board", &TrialSpec::board},
    {"target", &TrialSpec::target},
    {"attack", &TrialSpec::attack},
    {"temp_c", &TrialSpec::temp_c},
    {"off_ms", &TrialSpec::off_ms},
    {"current_a", &TrialSpec::current_a},
    {"impedance_mohm", &TrialSpec::impedance_mohm},
    {"seed_index", &TrialSpec::seed_index},
    {"glitch_off_ns", &TrialSpec::glitch_off_ns, RecordColumn::Optional},
    {"glitch_width_ns", &TrialSpec::glitch_width_ns, RecordColumn::Optional},
    {"glitch_depth_v", &TrialSpec::glitch_depth_v, RecordColumn::Optional},
    {"undervolt_depth_v", &TrialSpec::undervolt_depth_v,
     RecordColumn::Optional},
    {"hold_ns", &TrialSpec::hold_ns, RecordColumn::Optional},
    {"readout_rate", &TrialSpec::readout_rate, RecordColumn::Optional},
    {"cpa_window_ns", &TrialSpec::cpa_window_ns, RecordColumn::Optional},
    {"dump_count", &TrialSpec::dump_count, RecordColumn::Optional},
    {"use_priors", &TrialSpec::use_priors, RecordColumn::Optional},
    {"chip_seed", &TrialRecord::chip_seed},
    {"status", &TrialRecord::status},
    {"detail", &TrialRecord::detail},
    {"probe_attached", &TrialRecord::probe_attached},
    {"booted", &TrialRecord::booted},
    {"dump_bytes", &TrialRecord::dump_bytes},
    {"accuracy", &TrialRecord::accuracy},
    {"bit_error_rate", &TrialRecord::bit_error_rate},
    {"key_planted", &TrialRecord::key_planted},
    {"key_found", &TrialRecord::key_found},
    {"key_exact", &TrialRecord::key_exact},
    {"glitch_faults", &TrialRecord::glitch_faults, RecordColumn::Optional},
    {"glitch_effect", &TrialRecord::glitch_effect, RecordColumn::Optional},
    {"glitch_bypassed", &TrialRecord::glitch_bypassed,
     RecordColumn::Optional},
    {"se_frozen", &TrialRecord::se_frozen, RecordColumn::Optional},
    {"se_zeroized", &TrialRecord::se_zeroized, RecordColumn::Optional},
    {"se_read_fraction", &TrialRecord::se_read_fraction,
     RecordColumn::Optional},
    {"cpa_recovered", &TrialRecord::cpa_recovered, RecordColumn::Optional},
    {"kr_scan_hits", &TrialRecord::kr_scan_hits, RecordColumn::Optional},
    {"kr_corrected_hits", &TrialRecord::kr_corrected_hits,
     RecordColumn::Optional},
    {"kr_bit_errors", &TrialRecord::kr_bit_errors, RecordColumn::Optional},
    {"kr_key_bits_flipped", &TrialRecord::kr_key_bits_flipped,
     RecordColumn::Optional},
    {"kr_correction_iterations", &TrialRecord::kr_correction_iterations,
     RecordColumn::Optional},
    {"kr_disagreeing_bits", &TrialRecord::kr_disagreeing_bits,
     RecordColumn::Optional},
};

/** Merged per-campaign statistics. */
struct CampaignSummary
{
    uint64_t trials = 0;
    uint64_t ok = 0;
    uint64_t attack_failed = 0;
    uint64_t errors = 0;
    uint64_t skipped = 0;

    RunningStats accuracy;       ///< Over Ok trials.
    RunningStats bit_error_rate; ///< Over Ok trials.
    uint64_t keys_planted = 0;
    uint64_t keys_found = 0;
    uint64_t keys_exact = 0;

    /** Attack success = Ok trials that booted attacker code. */
    uint64_t booted = 0;

    /** Glitch trials run / signature checks bypassed. */
    uint64_t glitch_trials = 0;
    uint64_t glitch_bypassed = 0;

    /** Static-extract trials run / clock-freezes achieved. */
    uint64_t static_trials = 0;
    uint64_t static_frozen = 0;

    /** Voltage-coupling trials run / confident CPA key bytes summed. */
    uint64_t coupling_trials = 0;
    uint64_t cpa_key_bytes = 0;

    /** Key-recovery trials run / exact keys recovered among them. */
    uint64_t keyrecovery_trials = 0;
    uint64_t keyrecovery_exact = 0;
};

/** Everything a campaign produced. */
struct CampaignResult
{
    uint64_t campaign_seed = 0;
    std::string grid_spec; ///< Canonical SweepGrid::describe().
    /** One record per trial, at its trial index. */
    std::vector<TrialRecord> records;

    /** Wall-clock of the whole run (timing only). */
    double wall_seconds = 0.0;
    unsigned jobs = 1;

    /** Engine metrics captured at the end of the run: worker-queue
     * counters, the per-trial wall-clock histogram (count, mean,
     * p50/p90/p99) and per-step wall-clock totals. Wall-clock derived,
     * so rendered only inside the opt-in timing section of toJson(). */
    trace::MetricsSnapshot metrics;

    CampaignSummary summary() const;

    /** Trials per second over the whole campaign. */
    double
    trialsPerSecond() const
    {
        return wall_seconds > 0.0
                   ? static_cast<double>(records.size()) / wall_seconds
                   : 0.0;
    }

    /**
     * Render to JSON. With @p include_timing false (the default) the
     * output is a pure function of (grid, campaign seed) — byte-equal
     * across job counts and machines.
     */
    std::string toJson(bool include_timing = false) const;

    /** Render to CSV (one record per row; canonical, no timing). */
    std::string toCsv() const;

    /** Write @p content to @p path; fatal() on I/O failure. */
    static void writeFile(const std::string &path,
                          const std::string &content);
};

} // namespace voltboot

#endif // VOLTBOOT_CAMPAIGN_CAMPAIGN_RESULT_HH
