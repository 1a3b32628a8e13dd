/**
 * @file
 * P7 — CPA key recovery from supply-voltage coupling
 * (BENCH_cpa.json artefact).
 *
 * Sweeps the voltage-coupling attack over a correlation-window axis
 * and reports the per-window fraction of AES key bytes whose winning
 * CPA guess was both confident and correct. Asserts the two
 * load-bearing properties along the way: the sweep is byte-identical
 * across job counts, and the nominal full-window scenario recovers at
 * least 80% of the key bytes.
 *
 * Flags (for CI smoke runs):
 *   --seeds N        chip seeds per cell (default 8)
 *   --jobs A,B,...   worker-thread counts to compare (default 1,2)
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "campaign/campaign.hh"
#include "core/analysis.hh"

using namespace voltboot;

namespace
{

const bench::Usage kUsage{
    "cpa_recovery",
    "usage: cpa_recovery [--seeds N] [--jobs A,B,...]"};

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seeds = 8;
    std::vector<unsigned> jobs{1, 2};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                kUsage.fatal("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--seeds")
            seeds = std::max<uint64_t>(1, kUsage.parseUint(flag, value()));
        else if (flag == "--jobs")
            jobs = kUsage.parseJobsList(value());
        else
            kUsage.fatal("unknown option " + flag);
    }

    bench::banner("P7", "CPA key recovery vs correlation window");

    // Window 0 is the nominal scenario (correlate every sample up to
    // the next block); the finite windows shrink the usable slot count
    // towards the single-sample floor. The acceptance bar below only
    // binds the nominal cell.
    SweepGrid grid;
    grid.attacks = {AttackKind::VoltageCoupling};
    grid.cpa_windows_ns = {0.0, 2.0, 8.0};
    grid.seed_count = seeds;

    CampaignResult result;
    std::string baseline_json;
    double best_tps = 0.0;
    for (const unsigned j : jobs) {
        CampaignConfig cfg;
        cfg.jobs = j;
        cfg.seed = 0xc9a5;
        CampaignResult r = Campaign(grid, cfg).run();
        const std::string json = r.toJson();
        if (baseline_json.empty())
            baseline_json = json;
        else if (json != baseline_json) {
            std::cout << "ERROR: results differ from --jobs "
                      << jobs.front() << " run!\n";
            return 1;
        }
        best_tps = std::max(best_tps, r.trialsPerSecond());
        result = std::move(r);
    }

    // Aggregate correct-byte fraction per window over seeds. The
    // accuracy field of a coupling trial is correct_bytes / 16.
    std::map<double, std::pair<uint64_t, double>>
        surface; // window_ns -> (trials, summed accuracy)
    for (const TrialRecord &rec : result.records) {
        auto &cell = surface[rec.spec.cpa_window_ns];
        ++cell.first;
        cell.second += rec.accuracy;
    }

    TextTable table({"window (ns)", "trials", "key bytes correct"});
    double nominal_rate = 0.0;
    std::string cells_json;
    for (const auto &[window, cell] : surface) {
        const double rate = cell.second / static_cast<double>(cell.first);
        if (window == 0.0)
            nominal_rate = rate;
        table.addRow({window == 0.0 ? "full block"
                                    : TextTable::num(window, 0),
                      std::to_string(cell.first), TextTable::pct(rate)});
        if (!cells_json.empty())
            cells_json += ",\n";
        cells_json += "    {\"window_ns\": " + bench::jsonNum(window) +
                      ", \"trials\": " + std::to_string(cell.first) +
                      ", \"key_byte_rate\": " + bench::jsonNum(rate) + "}";
    }
    std::cout << table.render();

    const CampaignSummary s = result.summary();
    std::cout << s.cpa_key_bytes << " confident key bytes over "
              << s.coupling_trials << " trials; nominal window recovers "
              << TextTable::pct(nominal_rate) << " of the key\n";
    std::cout << "(all runs byte-identical across job counts)\n";

    std::string artefact =
        "{\n  \"bench\": \"cpa_recovery\",\n"
        "  \"trials\": " + std::to_string(s.coupling_trials) +
        ",\n  \"confident_key_bytes\": " +
        std::to_string(s.cpa_key_bytes) +
        ",\n  \"nominal_key_byte_rate\": " + bench::jsonNum(nominal_rate) +
        ",\n  \"trials_per_second\": " + bench::jsonNum(best_tps) +
        ",\n  \"cells\": [\n" + cells_json + "\n  ]\n}\n";
    bench::saveArtefact("BENCH_cpa.json", artefact);

    // The acceptance bar: the nominal-leakage scenario recovers at
    // least 80% of the AES key bytes.
    if (nominal_rate < 0.8) {
        std::cout << "ERROR: nominal CPA recovery below 80% ("
                  << TextTable::pct(nominal_rate) << ")\n";
        return 1;
    }
    return 0;
}
