#include "campaign/campaign.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

#include "telemetry/monitor.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace voltboot
{

namespace
{

/** `<trace_dir>/trial_NNNNNN.jsonl` for trial @p index. */
std::string
tracePath(const std::string &dir, uint64_t index)
{
    char name[32];
    std::snprintf(name, sizeof(name), "trial_%06llu.jsonl",
                  static_cast<unsigned long long>(index));
    return (std::filesystem::path(dir) / name).string();
}

} // namespace

Campaign::Campaign(SweepGrid grid, CampaignConfig config)
    : grid_(std::move(grid)), config_(std::move(config))
{
    if (!config_.runner)
        config_.runner = [](const TrialSpec &spec, uint64_t seed) {
            return runTrial(spec, seed);
        };
}

CampaignResult
Campaign::run()
{
    using clock = std::chrono::steady_clock;

    const uint64_t total = grid_.size();
    unsigned jobs = config_.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(
        std::min<uint64_t>(jobs, std::max<uint64_t>(total, 1)));

    CampaignResult result;
    result.campaign_seed = config_.seed;
    result.grid_spec = grid_.describe();
    result.jobs = jobs;
    result.records.resize(total);

    // Small chunks keep the pool balanced when per-trial cost varies
    // wildly across the grid (e.g. imx53 iRAM vs pi4 register trials);
    // the atomic grab is nanoseconds against millisecond trials.
    uint64_t chunk = config_.chunk;
    if (chunk == 0)
        chunk = std::max<uint64_t>(
            1, total / (static_cast<uint64_t>(jobs) * 8));

    const bool tracing = !config_.trace_dir.empty();
    if (tracing)
        std::filesystem::create_directories(config_.trace_dir);

    std::atomic<uint64_t> cursor{0};
    // Per-worker telemetry deltas; each worker writes only its own
    // slot, read after the join.
    std::vector<telemetry::CounterTotals> spent(jobs);
    const auto t0 = clock::now();

    auto elapsedSince = [](clock::time_point start) {
        return std::chrono::duration<double>(clock::now() - start)
            .count();
    };

    auto worker = [&](unsigned w) {
        // Every hot-path counter this worker touches — attack-step
        // wall time included — lands in its own cache-line-padded
        // block; the telemetry monitor sums them, the engine reads
        // this worker's deltas.
        telemetry::WorkerScope telemetry_scope;
        const telemetry::CounterTotals before = telemetry::threadTotals();
        for (;;) {
            const uint64_t begin = cursor.fetch_add(chunk);
            if (begin >= total)
                break;
            const uint64_t end = std::min(begin + chunk, total);
            for (uint64_t i = begin; i < end; ++i) {
                TrialRecord rec;
                if (aborted()) {
                    rec.spec = grid_.at(i);
                    rec.status = TrialStatus::Skipped;
                    rec.detail = "campaign aborted";
                    telemetry::add(telemetry::Counter::TrialsSkipped);
                } else {
                    telemetry::add(telemetry::Counter::TrialsStarted);
                    const auto start = clock::now();
                    trace::MemoryTraceSink sink;
                    {
                        // The Scope resets this thread's sim clock, so
                        // each trial's trace starts its own timeline;
                        // the Span's Complete event closes (and lands
                        // in the sink) before the Scope uninstalls it.
                        std::optional<trace::Scope> scope;
                        std::optional<trace::Span> span;
                        if (tracing) {
                            scope.emplace(sink);
                            span.emplace("campaign", "trial");
                        }
                        try {
                            rec = config_.runner(grid_.at(i),
                                                 config_.seed);
                        } catch (const std::exception &e) {
                            rec = TrialRecord{};
                            rec.spec = grid_.at(i);
                            rec.status = TrialStatus::Error;
                            rec.detail = e.what();
                        } catch (...) {
                            rec = TrialRecord{};
                            rec.spec = grid_.at(i);
                            rec.status = TrialStatus::Error;
                            rec.detail = "unknown exception";
                        }
                        if (span) {
                            span->arg({"index", i});
                            span->arg({"board", rec.spec.board});
                            span->arg({"target",
                                       toString(rec.spec.target)});
                            span->arg({"attack",
                                       toString(rec.spec.attack)});
                            span->arg({"status",
                                       toString(rec.status)});
                        }
                    }
                    rec.duration_s = elapsedSince(start);
                    if (tracing)
                        CampaignResult::writeFile(
                            tracePath(config_.trace_dir, i),
                            trace::toJsonl(sink.events()));
                    telemetry::add(telemetry::Counter::TrialsCompleted);
                    if (rec.status == TrialStatus::Ok)
                        telemetry::add(telemetry::Counter::TrialsWon);
                    else if (rec.status == TrialStatus::Error ||
                             rec.status == TrialStatus::AttackFailed)
                        telemetry::add(telemetry::Counter::TrialsFailed);
                }
                result.records[i] = std::move(rec);
            }
        }
        spent[w] = telemetry::threadTotals().since(before);
    };

    if (jobs == 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker, t);
        for (std::thread &t : pool)
            t.join();
    }

    result.wall_seconds = elapsedSince(t0);

    // Engine metrics, all wall-clock derived: they end up in
    // CampaignResult::metrics and only ever render inside the opt-in
    // timing section. Every chunk is grabbed exactly once.
    trace::MetricsSnapshot &metrics = result.metrics;
    metrics.gauges["campaign.jobs"] = jobs;
    metrics.gauges["campaign.chunk"] = static_cast<double>(chunk);
    metrics.counters["campaign.queue_grabs"] =
        static_cast<double>((total + chunk - 1) / chunk);
    std::vector<double> walls;
    for (const TrialRecord &r : result.records)
        if (r.status != TrialStatus::Skipped)
            walls.push_back(r.duration_s);
    if (!walls.empty())
        metrics.histograms["campaign.trial_wall_s"] =
            trace::summarize(std::move(walls));
    telemetry::CounterTotals steps;
    for (const telemetry::CounterTotals &d : spent)
        steps += d;
    metrics.counters.merge(telemetry::stepWallSeconds(steps));
    return result;
}

} // namespace voltboot
