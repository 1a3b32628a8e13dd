/**
 * @file
 * P2 — campaign engine throughput (BENCH_campaign.json artefact).
 *
 * Runs the same fixed attack sweep at 1, 4 and hardware-concurrency
 * worker threads and records trials/sec for each, so later PRs can
 * track the engine's scaling trajectory. Also asserts the engine's core
 * promise while it is at it: the canonical JSON of every run is
 * byte-identical regardless of job count.
 *
 * Flags (for CI smoke runs):
 *   --trials N       approximate trial count (rounded up to the nearest
 *                    even number: the grid runs 2 attacks per seed)
 *   --jobs A,B,...   explicit worker-thread counts to sweep
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "campaign/campaign.hh"
#include "core/analysis.hh"

using namespace voltboot;

namespace
{

const bench::Usage kUsage{
    "campaign_throughput",
    "usage: campaign_throughput [--trials N] [--jobs A,B,...]"};

} // namespace

int
main(int argc, char **argv)
{
    uint64_t trials = 0;        // 0 = the default 12-trial grid
    std::vector<unsigned> jobs; // empty = the default 1/4/N sweep
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                kUsage.fatal("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--trials")
            trials = kUsage.parseUint(flag, value());
        else if (flag == "--jobs")
            jobs = kUsage.parseJobsList(value());
        else
            kUsage.fatal("unknown option " + flag);
    }

    bench::banner("P2", "campaign engine throughput (1/4/N threads)");

    SweepGrid grid;
    grid.boards = {"pi4"};
    grid.targets = {TargetRam::DCache};
    grid.attacks = {AttackKind::VoltBoot, AttackKind::ColdBoot};
    grid.temps_c = {25.0};
    grid.offs_ms = {5.0};
    grid.seed_count = 6; // 12 trials: enough to keep every worker busy
    if (trials > 0)
        grid.seed_count = std::max<uint64_t>(1, (trials + 1) / 2);

    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    if (jobs.empty()) {
        // Default sweep, deduped while preserving order (hw may be 1
        // or 4).
        for (unsigned j : {1u, 4u, hw})
            if (std::find(jobs.begin(), jobs.end(), j) == jobs.end())
                jobs.push_back(j);
    }

    TextTable table({"jobs", "wall (s)", "trials/s", "speedup vs 1"});
    std::string baseline_json;
    double baseline_tps = 0.0;
    std::string artefact = "{\n  \"bench\": \"campaign_throughput\",\n"
                           "  \"trials\": " +
                           std::to_string(grid.size()) +
                           ",\n  \"hardware_concurrency\": " +
                           std::to_string(hw) + ",\n  \"runs\": [\n";
    for (size_t i = 0; i < jobs.size(); ++i) {
        CampaignConfig cfg;
        cfg.jobs = jobs[i];
        cfg.seed = 0xbe;
        const CampaignResult result = Campaign(grid, cfg).run();
        const std::string json = result.toJson();
        if (baseline_json.empty()) {
            baseline_json = json;
            baseline_tps = result.trialsPerSecond();
        } else if (json != baseline_json) {
            std::cout << "ERROR: results differ from --jobs "
                      << jobs.front() << " run!\n";
            return 1;
        }
        const double speedup =
            baseline_tps > 0.0 ? result.trialsPerSecond() / baseline_tps
                               : 0.0;
        table.addRow({std::to_string(jobs[i]),
                      TextTable::num(result.wall_seconds, 2),
                      TextTable::num(result.trialsPerSecond(), 2),
                      TextTable::num(speedup, 2) + "x"});
        artefact += "    {\"jobs\": " + std::to_string(jobs[i]) +
                    ", \"wall_seconds\": " +
                    bench::jsonNum(result.wall_seconds) +
                    ", \"trials_per_second\": " +
                    bench::jsonNum(result.trialsPerSecond()) +
                    ", \"speedup_vs_serial\": " + bench::jsonNum(speedup) +
                    "}";
        artefact += (i + 1 < jobs.size()) ? ",\n" : "\n";
    }
    artefact += "  ]\n}\n";

    std::cout << table.render();
    std::cout << "(all runs byte-identical across job counts)\n";
    bench::saveArtefact("BENCH_campaign.json", artefact);
    return 0;
}
