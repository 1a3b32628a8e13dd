/**
 * @file
 * P8 — keyfind engine throughput (BENCH_keyfind.json artefact).
 *
 * Times the batched residual-filter scan against the reference
 * KeyFinder sweep on a planted 1 MiB dump across bit-error rates, and
 * the correction stage with and without DRV-style priors. Asserts the
 * load-bearing properties on the way:
 *
 *   - the batched hit list is bit-identical to KeyFinder::scan at
 *     every error rate;
 *   - the full pipeline is byte-identical across --jobs counts;
 *   - the batched scan clears 10x the reference throughput on the
 *     1 MiB dump (the early-reject filter skips the 11-round
 *     expansion on ~99.98% of offsets).
 *
 * Flags (for CI smoke runs):
 *   --mib N          dump size in MiB (default 1)
 *   --jobs A,B,...   worker-thread counts to compare (default 1,4)
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/analysis.hh"
#include "crypto/aes.hh"
#include "keyfind/engine.hh"
#include "keyfind/schedule_scan.hh"
#include "sim/rng.hh"

using namespace voltboot;

namespace
{

const bench::Usage kUsage{
    "keyfind_throughput",
    "usage: keyfind_throughput [--mib N] [--jobs A,B,...]"};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::vector<uint8_t>
corrupt(std::vector<uint8_t> data, double ber, uint64_t seed)
{
    Rng rng(seed);
    for (auto &b : data)
        for (int bit = 0; bit < 8; ++bit)
            if (rng.uniform() < ber)
                b ^= 1u << bit;
    return data;
}

bool
sameCandidates(const std::vector<KeyCandidate> &a,
               const std::vector<KeyCandidate> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].offset != b[i].offset || a[i].key != b[i].key ||
            a[i].bit_errors != b[i].bit_errors ||
            a[i].error_fraction != b[i].error_fraction)
            return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t mib = 1;
    std::vector<unsigned> jobs{1, 4};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                kUsage.fatal("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--mib")
            mib = std::max<uint64_t>(1, kUsage.parseUint(flag, value()));
        else if (flag == "--jobs")
            jobs = kUsage.parseJobsList(value());
        else
            kUsage.fatal("unknown option " + flag);
    }

    bench::banner("P8", "keyfind scan + correction throughput");
    std::cout << "residual filter path: "
              << (keyfind::scheduleScanAccelerated() ? "AVX-512"
                                                     : "scalar")
              << "\n\n";

    // --- the dump: schedules planted in random filler ---
    const size_t bytes = mib << 20;
    Rng krng(42);
    std::vector<uint8_t> key(16);
    for (auto &b : key)
        b = static_cast<uint8_t>(krng.next());
    const auto sched = Aes::expandKey(key);
    Rng rng(7);
    std::vector<uint8_t> base(bytes);
    for (auto &b : base)
        b = static_cast<uint8_t>(rng.next());
    const std::vector<size_t> plants = {0x1000, bytes / 2, bytes - 4096};
    for (size_t off : plants)
        std::copy(sched.begin(), sched.end(), base.begin() + off);

    // --- scan: reference vs batched, per bit-error rate ---
    TextTable table({"BER", "ref offsets/s", "batched offsets/s",
                     "speedup", "hits", "first key (ms)"});
    const KeyFinderConfig scan_cfg;
    const KeyFinder reference(scan_cfg);
    double min_speedup = 1e30;
    double best_batched = 0.0, best_reference = 0.0;
    std::string cells_json;
    bool parity_ok = true;
    for (double ber : {0.0, 0.01, 0.05, 0.5}) {
        const MemoryImage image(
            corrupt(base, ber, 100 + static_cast<uint64_t>(ber * 1e6)));

        auto t0 = std::chrono::steady_clock::now();
        const auto ref_hits = reference.scan(image);
        const double ref_s = secondsSince(t0);

        t0 = std::chrono::steady_clock::now();
        keyfind::ScanStats stats;
        const auto fast_hits =
            keyfind::scheduleScan(image, scan_cfg, &stats);
        const double fast_s = secondsSince(t0);

        if (!sameCandidates(fast_hits, ref_hits)) {
            std::cout << "ERROR: batched scan diverges from the "
                         "reference at BER "
                      << ber << "\n";
            parity_ok = false;
        }

        // Time-to-first-key: the full engine on the same dump.
        t0 = std::chrono::steady_clock::now();
        keyfind::KeyRecoveryConfig ecfg;
        ecfg.run_correction = false;
        const auto report =
            keyfind::KeyRecoveryEngine(ecfg).recover(image);
        const double first_key_ms =
            report.bestKey() ? secondsSince(t0) * 1e3 : -1.0;

        const double offsets = static_cast<double>(stats.offsets);
        const double ref_rate = offsets / std::max(ref_s, 1e-9);
        const double fast_rate = offsets / std::max(fast_s, 1e-9);
        const double speedup = fast_rate / std::max(ref_rate, 1e-9);
        min_speedup = std::min(min_speedup, speedup);
        best_batched = std::max(best_batched, fast_rate);
        best_reference = std::max(best_reference, ref_rate);

        table.addRow({TextTable::pct(ber, 1), TextTable::num(ref_rate, 0),
                      TextTable::num(fast_rate, 0),
                      TextTable::num(speedup, 1) + "x",
                      std::to_string(fast_hits.size()),
                      first_key_ms < 0 ? "-"
                                       : TextTable::num(first_key_ms, 1)});
        if (!cells_json.empty())
            cells_json += ",\n";
        cells_json +=
            "    {\"ber\": " + bench::jsonNum(ber) +
            ", \"reference_offsets_per_second\": " + bench::jsonNum(ref_rate) +
            ", \"batched_offsets_per_second\": " + bench::jsonNum(fast_rate) +
            ", \"speedup\": " + bench::jsonNum(speedup) +
            ", \"hits\": " + std::to_string(fast_hits.size()) +
            ", \"early_reject_fraction\": " +
            bench::jsonNum(static_cast<double>(stats.early_rejects) /
                    std::max(offsets, 1.0)) +
            "}";
    }
    std::cout << table.render();

    // --- full pipeline, byte-identical across jobs ---
    const MemoryImage pipeline_image(corrupt(base, 0.01, 4242));
    std::string jobs_json;
    double best_pipeline = 0.0;
    std::vector<KeyCandidate> serial_scan;
    std::vector<RobustScanHit> serial_corrected;
    bool jobs_ok = true;
    for (size_t ji = 0; ji < jobs.size(); ++ji) {
        keyfind::KeyRecoveryConfig ecfg;
        ecfg.jobs = jobs[ji];
        const auto t0 = std::chrono::steady_clock::now();
        const auto report =
            keyfind::KeyRecoveryEngine(ecfg).recover(pipeline_image);
        const double dt = secondsSince(t0);
        const double rate =
            static_cast<double>(report.scan.offsets) / std::max(dt, 1e-9);
        best_pipeline = std::max(best_pipeline, rate);
        if (ji == 0) {
            serial_scan = report.scan_hits;
            serial_corrected = report.corrected_hits;
        } else {
            bool same = sameCandidates(report.scan_hits, serial_scan) &&
                        report.corrected_hits.size() ==
                            serial_corrected.size();
            for (size_t i = 0; same && i < serial_corrected.size(); ++i)
                same = report.corrected_hits[i].offset ==
                           serial_corrected[i].offset &&
                       report.corrected_hits[i].corrected.key ==
                           serial_corrected[i].corrected.key;
            if (!same) {
                std::cout << "ERROR: --jobs " << jobs[ji]
                          << " results differ from --jobs "
                          << jobs.front() << "!\n";
                jobs_ok = false;
            }
        }
        if (!jobs_json.empty())
            jobs_json += ",\n";
        jobs_json += "    {\"jobs\": " + std::to_string(jobs[ji]) +
                     ", \"pipeline_offsets_per_second\": " +
                     bench::jsonNum(rate) + "}";
    }
    if (jobs_ok)
        std::cout << "full pipeline byte-identical across jobs (";
    else
        std::cout << "full pipeline DIVERGED across jobs (";
    for (size_t i = 0; i < jobs.size(); ++i)
        std::cout << (i ? "," : "") << jobs[i];
    std::cout << ")\n";

    // --- correction stage: blind vs prior-guided ---
    // A small dump of corrupted schedules; the priors mark exactly the
    // bits an attacker's DRV profile would flag.
    const size_t cbytes = 64 << 10;
    std::vector<uint8_t> cimg(cbytes);
    Rng crng(11);
    for (auto &b : cimg)
        b = static_cast<uint8_t>(crng.next());
    std::vector<float> priors(cbytes * 8, 0.001f);
    Rng frng(13);
    for (size_t p = 0; p < 8; ++p) {
        const size_t off = 0x1000 + p * 0x1800;
        std::copy(sched.begin(), sched.end(), cimg.begin() + off);
        for (int f = 0; f < 3; ++f) {
            const size_t bit =
                off * 8 + static_cast<size_t>(frng.next() % 128);
            cimg[bit / 8] ^= 1u << (bit % 8);
            priors[bit] = 0.4f;
        }
    }
    const MemoryImage cimage(std::move(cimg));
    const std::vector<MemoryImage> cdumps{cimage};

    double corrections_per_s[2] = {0, 0};
    uint64_t distance_evals[2] = {0, 0};
    for (int guided = 0; guided < 2; ++guided) {
        keyfind::KeyRecoveryConfig ecfg;
        ecfg.use_priors = guided == 1;
        const auto t0 = std::chrono::steady_clock::now();
        const auto report = keyfind::KeyRecoveryEngine(ecfg).recover(
            std::span<const MemoryImage>(cdumps),
            std::span<const float>(priors));
        const double dt = secondsSince(t0);
        corrections_per_s[guided] =
            static_cast<double>(report.correction.attempted) /
            std::max(dt, 1e-9);
        distance_evals[guided] = report.correction.distance_evals;
    }
    std::cout << "correction: " << TextTable::num(corrections_per_s[0], 0)
              << " attempts/s blind, "
              << TextTable::num(corrections_per_s[1], 0)
              << " attempts/s prior-guided ("
              << distance_evals[0] << " vs " << distance_evals[1]
              << " schedule evals)\n";

    std::string artefact =
        "{\n  \"bench\": \"keyfind_throughput\",\n"
        "  \"dump_bytes\": " + std::to_string(bytes) +
        ",\n  \"accelerated\": " +
        (keyfind::scheduleScanAccelerated() ? "true" : "false") +
        ",\n  \"scan_offsets_per_second\": " + bench::jsonNum(best_batched) +
        ",\n  \"reference_offsets_per_second\": " +
        bench::jsonNum(best_reference) +
        ",\n  \"min_scan_speedup\": " + bench::jsonNum(min_speedup) +
        ",\n  \"pipeline_offsets_per_second\": " +
        bench::jsonNum(best_pipeline) +
        ",\n  \"corrections_per_second\": " +
        bench::jsonNum(corrections_per_s[0]) +
        ",\n  \"prior_corrections_per_second\": " +
        bench::jsonNum(corrections_per_s[1]) +
        ",\n  \"cells\": [\n" + cells_json + "\n  ],\n"
        "  \"jobs\": [\n" + jobs_json + "\n  ]\n}\n";
    bench::saveArtefact("BENCH_keyfind.json", artefact);

    if (!parity_ok || !jobs_ok)
        return 1;
    if (min_speedup < 10.0) {
        std::cout << "ERROR: batched scan speedup below 10x ("
                  << TextTable::num(min_speedup, 1) << "x)\n";
        return 1;
    }
    std::cout << "takeaway: the residual filter rejects ~99.98% of "
                 "offsets before any schedule\nexpansion, so the scan "
                 "runs >10x the reference while staying bit-identical;\n"
                 "priors cut the correction search cost without "
                 "changing its answers.\n";
    return 0;
}
