/**
 * @file
 * The parallel campaign engine.
 *
 * Campaign::run() executes every trial of a SweepGrid on a fixed-size
 * pool of std::threads. The work queue is an atomic cursor handing out
 * contiguous index chunks; each worker writes its finished TrialRecords
 * into a pre-sized result vector at the trial index, so the output
 * layout — and, because every trial's randomness derives from
 * (campaign seed, trial index), the output *bytes* — are identical
 * whether the campaign ran on one thread or sixteen.
 *
 * Robustness: a trial that throws is captured as TrialStatus::Error and
 * the sweep continues; requestAbort() marks all not-yet-started trials
 * Skipped and lets in-flight trials finish.
 *
 * Observability: with CampaignConfig::trace_dir set, every trial runs
 * under its own thread-local trace scope and its events are written to
 * `<trace_dir>/trial_NNNNNN.jsonl`. Because trace timestamps are
 * simulation time and each trial is hermetic, those files are
 * byte-identical for any worker count — the determinism contract
 * extends to traces. At the end of the run the engine summarises its
 * own cost into CampaignResult::metrics (jobs, chunk, queue grabs, the
 * per-trial wall-clock histogram, and each attack step's wall-clock
 * total read from the workers' telemetry blocks); that snapshot is
 * wall-clock derived and therefore only ever rendered in the opt-in
 * timing section of the JSON output. See docs/TRACING.md.
 *
 * Progress: the engine keeps no progress model of its own. Its workers
 * bump the lock-free telemetry counters, and a telemetry::
 * CampaignMonitor sampling them is the one progress source for
 * callers (see docs/TELEMETRY.md).
 */

#ifndef VOLTBOOT_CAMPAIGN_CAMPAIGN_HH
#define VOLTBOOT_CAMPAIGN_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>

#include "campaign/campaign_result.hh"
#include "campaign/sweep_grid.hh"
#include "campaign/trial_runner.hh"

namespace voltboot
{

/** Engine knobs. */
struct CampaignConfig
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Campaign seed: with the grid, fully determines every result. */
    uint64_t seed = 0x5eed;
    /** Trials handed to a worker per queue grab; 0 = auto. */
    uint64_t chunk = 0;
    /**
     * Trial function; defaults to runTrial(). Replaceable for tests
     * (e.g. fault injection) and future remote/sharded executors. May
     * throw: the engine records the throw as TrialStatus::Error.
     */
    std::function<TrialRecord(const TrialSpec &, uint64_t seed)> runner;
    /**
     * When non-empty, write one deterministic JSONL trace per trial
     * into this directory (created if absent) as trial_NNNNNN.jsonl,
     * NNNNNN being the zero-padded trial index.
     */
    std::string trace_dir;
};

/** A runnable sweep: grid + engine configuration. */
class Campaign
{
  public:
    explicit Campaign(SweepGrid grid, CampaignConfig config = {});

    /** Execute every trial; blocks until the sweep completes. */
    CampaignResult run();

    /** Ask the engine to stop handing out new trials (thread-safe;
     * callable from another thread or a signal handler). */
    void requestAbort() { abort_.store(true, std::memory_order_relaxed); }
    bool aborted() const
    { return abort_.load(std::memory_order_relaxed); }

    const SweepGrid &grid() const { return grid_; }

  private:
    SweepGrid grid_;
    CampaignConfig config_;
    std::atomic<bool> abort_{false};
};

} // namespace voltboot

#endif // VOLTBOOT_CAMPAIGN_CAMPAIGN_HH
