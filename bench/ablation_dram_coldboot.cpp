/**
 * @file
 * Ablation A4 — the classic DRAM cold boot, on this substrate.
 *
 * Why did anyone build TRESOR and CaSE in the first place? Because the
 * Halderman-style attack really works on DRAM: chill the module, pull
 * it, transplant it, dump it, and error-correct the disk key out of the
 * decayed image. This bench runs that pipeline across the
 * temperature/transplant-time grid and reports key-recovery success,
 * establishing the baseline the paper's on-chip schemes defend against —
 * and that Volt Boot then re-breaks from the other side.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/analysis.hh"
#include "crypto/aes.hh"
#include "keyfind/engine.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

using namespace voltboot;

namespace
{

struct Trial
{
    bool recovered;
    double ber;
    size_t flips;
};

Trial
run(double celsius, Seconds off_time, uint64_t seed)
{
    Soc soc(SocConfig::bcm2711());
    soc.powerOn();

    Rng rng(seed);
    std::vector<uint8_t> key(16);
    for (auto &b : key)
        b = static_cast<uint8_t>(rng.next());
    const auto sched = Aes::expandKey(key);
    soc.dramArray().write(0x40000, sched);

    soc.setAmbient(Temperature::celsius(celsius));
    soc.powerCycle(off_time);

    std::vector<uint8_t> window(176 + 64);
    soc.dramArray().read(0x40000, window);

    Trial t;
    size_t errs = 0;
    for (size_t i = 0; i < 176; ++i)
        errs += std::popcount(
            static_cast<uint8_t>(window[i] ^ sched[i]));
    t.ber = static_cast<double>(errs) / (176 * 8);

    keyfind::KeyRecoveryConfig kcfg;
    kcfg.use_priors = false;
    const auto hits = keyfind::KeyRecoveryEngine(kcfg)
                          .recover(MemoryImage(window))
                          .corrected_hits;
    t.recovered = !hits.empty() && hits.front().corrected.key == key;
    t.flips = hits.empty() ? 0 : hits.front().corrected.key_bits_flipped;
    return t;
}

} // namespace

int
main()
{
    bench::banner("Ablation A4",
                  "classic DRAM cold boot: key recovery vs temperature "
                  "and transplant time");

    TextTable table({"Ambient", "Off-time", "Dump BER", "Key recovered",
                     "Key bits repaired"});
    struct Point
    {
        double celsius;
        double off_s;
    };
    for (const Point p :
         {Point{25, 0.2}, Point{25, 2.0}, Point{25, 30.0},
          Point{0, 2.0}, Point{-50, 10.0}, Point{-50, 60.0}}) {
        int ok = 0;
        double ber = 0;
        size_t flips = 0;
        const int trials = 3;
        for (int t = 0; t < trials; ++t) {
            const Trial r =
                run(p.celsius, Seconds(p.off_s), 50 + t);
            ok += r.recovered;
            ber += r.ber;
            flips += r.flips;
        }
        table.addRow({TextTable::num(p.celsius, 0) + " degC",
                      TextTable::num(p.off_s, 1) + " s",
                      TextTable::pct(ber / trials, 2),
                      std::to_string(ok) + "/" + std::to_string(trials),
                      TextTable::num(static_cast<double>(flips) / trials,
                                     1)});
    }
    std::cout << table.render();

    std::cout
        << "\nshape: chilled transplants recover the key reliably "
           "(matching Halderman et al.);\nwarm fast swaps sit at the "
           "error-corrector's limit, and slow warm swaps fail — which\n"
           "is exactly why the original attack chills the module. This "
           "is the attack on-chip\ncrypto neutralises, and the bar Volt "
           "Boot clears from the other side: SRAM never\ngives the "
           "attacker a usable BER at any temperature, but the probe "
           "gives 0% BER\ndirectly.\n";
    return 0;
}
