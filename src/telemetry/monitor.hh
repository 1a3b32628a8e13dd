/**
 * @file
 * The campaign telemetry monitor: a sampler thread that aggregates the
 * lock-free worker counters into periodic snapshots, derives the
 * progress model (trial rate, EWMA, ETA, per-axis grid completion),
 * hands every sample to one caller-supplied callback, and keeps
 * mutex-guarded copies for the /metrics + /progress endpoints.
 *
 * The monitor is the only progress source: a caller renders every
 * progress surface it wants — heartbeat lines, a terminal status line,
 * trace counter events — from the per-sample callback, and serves
 * pull-style endpoints from latest().
 *
 * Layering: the monitor knows nothing about Campaign or SweepGrid —
 * the caller describes the sweep as a total trial count plus an
 * ordered list of (axis name, size) pairs, slowest-varying first, the
 * same enumeration contract SweepGrid::at() documents. That keeps
 * voltboot_telemetry below voltboot_campaign in the library graph, so
 * future runners (the daemon mode of ROADMAP.md) can reuse it.
 *
 * Determinism contract: everything here is wall-clock derived and
 * **non-canonical** — heartbeats, /metrics and /progress never feed
 * back into trace files or campaign JSON/CSV. Heartbeat lines keep the
 * deterministic campaign identity fields (seed, grid, totals from the
 * counter deltas) separate from the wall-clock block (`wall`), so a
 * consumer diffing two runs can ignore the latter wholesale. Schema:
 * docs/TELEMETRY.md.
 */

#ifndef VOLTBOOT_TELEMETRY_MONITOR_HH
#define VOLTBOOT_TELEMETRY_MONITOR_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/counters.hh"
#include "trace/metrics.hh"

namespace voltboot
{
namespace telemetry
{

/** One sweep axis as the monitor sees it: a name and its length, in
 * slowest-varying-first enumeration order. */
struct AxisDesc
{
    std::string name;
    uint64_t size = 1;
};

struct TelemetrySnapshot;
class CampaignMonitor;

/** Receives every sample, timer-driven and final, in order and never
 * concurrently; the final sample arrives on the thread calling stop(). */
using SampleCallback = std::function<void(const CampaignMonitor &,
                                          const TelemetrySnapshot &)>;

/** EWMA smoothing factor for the trial rate (per sample). */
constexpr double kRateAlpha = 0.3;

/** Monitor knobs. */
struct MonitorConfig
{
    /** Seconds between samples (callback cadence, snapshot refresh). */
    double interval_s = 1.0;
    /** Total trials of the sweep (0 = unknown; no ETA / axes). */
    uint64_t total_trials = 0;
    /** Campaign identity echoed into every heartbeat line. */
    uint64_t campaign_seed = 0;
    std::string grid_spec;
    /** Axes, slowest-varying first (SweepGrid enumeration order). */
    std::vector<AxisDesc> axes;
    /** Called once per sample; empty = no callback. */
    SampleCallback on_sample;
};

/** One aggregated sample of the campaign's counters + rate model. */
struct TelemetrySnapshot
{
    uint64_t seq = 0;        ///< Sample number, starting at 1.
    bool final_sample = false; ///< Emitted by stop(), not the timer.
    double elapsed_s = 0.0;  ///< Wall seconds since start().
    CounterTotals totals;    ///< Relaxed sum over every worker block.
    double trials_per_sec = 0.0;      ///< Rate over the last interval.
    double trials_per_sec_ewma = 0.0; ///< Smoothed rate.
    double eta_s = 0.0; ///< Remaining / EWMA; 0 when unknowable.
};

/**
 * The wall-clock step slots of @p t as `core.wall_s.<step>` entries in
 * total seconds, for a metrics snapshot's counters. Steps that never
 * ran are omitted.
 */
std::map<std::string, double> stepWallSeconds(const CounterTotals &t);

/**
 * The sampler. start() launches the thread; stop() (or destruction)
 * joins it and takes one final sample, flagged final_sample. All
 * accessors are safe from any thread.
 */
class CampaignMonitor
{
  public:
    explicit CampaignMonitor(MonitorConfig config);
    ~CampaignMonitor();
    CampaignMonitor(const CampaignMonitor &) = delete;
    CampaignMonitor &operator=(const CampaignMonitor &) = delete;

    void start();
    /** Join, then take the final sample. Idempotent. */
    void stop();

    /** Copy of the most recent sample (or a fresh sample when none
     * has been taken yet). */
    TelemetrySnapshot latest() const;

    /**
     * The latest sample as a metrics snapshot — counters
     * named `telemetry.<counter>`, the rate model as gauges — which
     * report::toPrometheus renders directly; this is the /metrics
     * payload.
     */
    trace::MetricsSnapshot metricsSnapshot() const;

    /** The /progress JSON document: counts, rate model, ETA, and
     * per-axis grid position/completion. */
    std::string progressJson() const;

    /** One newline-terminated heartbeat JSONL line for @p snap. */
    std::string heartbeatLine(const TelemetrySnapshot &snap) const;

    const MonitorConfig &config() const { return config_; }

  private:
    void sampleLoop();
    /** Take a sample, update the rate model, run the callback. */
    void sample(bool final_sample);

    MonitorConfig config_;
    std::thread thread_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    bool started_ = false;
    std::chrono::steady_clock::time_point t0_;
    TelemetrySnapshot latest_;
};

} // namespace telemetry
} // namespace voltboot

#endif // VOLTBOOT_TELEMETRY_MONITOR_HH
