/**
 * @file
 * Supply-voltage-coupling leakage: the AES victim and its CPA analyzer.
 *
 * Sanjaya et al. observe that a victim's switching activity couples
 * into the shared supply rail: every bit that toggles draws charge, so
 * the rail dips in proportion to the Hamming weight of the data being
 * processed. The trace layer already records per-domain rails as
 * `voltage.<domain>` Counter events (PR 4), which makes the attack a
 * pure trace-analysis problem: given a rail waveform captured while
 * the victim encrypts known plaintexts, recover the key.
 *
 * Two halves:
 *
 *  - runCoupledAesVictim() plays the victim: for each block it emits an
 *    `aes.block` Instant carrying the plaintext, then one rail sample
 *    per byte whose dip is couple_mv_per_bit x (HW(sbox(pt ^ key)) + 1)
 *    plus bounded counter-seeded noise — the classic first-round
 *    S-box leakage model — all inside a "power" span
 *    `coupling.capture` that the sidechannel_bounds invariant audits.
 *
 *  - analyzeCoupling() is the attacker: classic correlation power
 *    analysis. For each key byte and each of the 256 guesses it
 *    predicts the per-block hypothetical power HW(sbox(pt ^ guess))
 *    and ranks guesses by the best Pearson correlation against any
 *    sample slot in the capture. A flat or foreign waveform has no
 *    slot that correlates, so nothing clears the confidence threshold
 *    and zero bytes are recovered — the analyzer never hallucinates a
 *    key out of noise-free silence.
 *
 * Both halves are deterministic: the victim's noise is counter-hashed
 * from (seed, block, byte) and the analyzer is straight-line float
 * arithmetic over parsed events, so campaigns are byte-identical at
 * any --jobs and the same trace always analyzes to the same ranking.
 */

#ifndef VOLTBOOT_SIDECHANNEL_COUPLING_HH
#define VOLTBOOT_SIDECHANNEL_COUPLING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/units.hh"
#include "trace/trace.hh"

namespace voltboot
{
namespace sidechannel
{

/** Number of known-plaintext blocks the victim captures. */
inline constexpr uint64_t kCouplingBlocks = 48;

/**
 * The coupled AES victim: what it encrypts and how hard it leaks. The
 * capture timing (start 10 ns, one byte per 1 ns cycle, 4 idle cycles
 * between blocks) is fixed in coupling.cc.
 */
struct CouplingVictimConfig
{
    /** Rail the victim's activity couples into. */
    std::string domain = "core";
    Volt nominal{0.8};

    /** Rail dip per Hamming-weight unit, in millivolts. */
    double couple_mv_per_bit = 2.0;
    /** Bounded uniform measurement noise amplitude, in millivolts. */
    double noise_mv = 0.4;

    /** Seed for plaintexts and noise (counter-hashed). */
    uint64_t seed = 1;
    /** The key under attack. */
    std::array<uint8_t, 16> key{};
};

/** What the victim run emitted. */
struct CouplingRun
{
    uint64_t blocks = 0;
    /** Simulation time of the last emitted sample. */
    Seconds end{0.0};
};

/**
 * Emit the victim's capture into the current thread's trace sink.
 * No-op (blocks = 0) when tracing is disabled. Advances the trace
 * clock to the capture end so later events stay monotonic.
 */
CouplingRun runCoupledAesVictim(const CouplingVictimConfig &config);

/** CPA verdict for one key byte. */
struct CpaByteResult
{
    uint8_t best_guess = 0;
    /** |Pearson r| of the winning guess at its best sample slot. */
    double best_corr = 0.0;
    /** best_corr cleared the confidence threshold. */
    bool confident = false;
};

/** Analyzer knobs. A byte counts as recovered when its |r| reaches
 * kConfidenceThreshold (0.25, coupling.cc). */
struct CpaOptions
{
    /** Which voltage.<domain> counter carries the leakage. Empty =
     * auto-detect from the trace's coupling.capture span (falling back
     * to the first voltage counter seen). */
    std::string domain;
    /** Only correlate samples within this many ns of each aes.block
     * marker; 0 = use every sample up to the next block. */
    double window_ns = 0.0;
};

/** Full CPA ranking over a parsed trace. */
struct CpaResult
{
    std::array<CpaByteResult, 16> bytes{};
    size_t blocks = 0;
    size_t samples_per_block = 0;
    /** Bytes whose winning guess cleared the confidence threshold. */
    unsigned recovered = 0;
};

/**
 * Correlation power analysis over a parsed trace: consume `aes.block`
 * instants (known plaintexts) and `voltage.<domain>` Counter samples,
 * rank all 256 guesses per key byte by max-|r| over sample slots.
 * Deterministic; ties break toward the numerically lower guess.
 */
CpaResult analyzeCoupling(const std::vector<trace::TraceEvent> &events,
                          const CpaOptions &opts = {});

/** How many bytes the ranking got right against the true key. */
unsigned countCorrectBytes(const CpaResult &result,
                           const std::array<uint8_t, 16> &key);

/** Byte-deterministic Markdown table of the per-byte ranking. */
std::string renderCpaMarkdown(const CpaResult &result);

} // namespace sidechannel
} // namespace voltboot

#endif // VOLTBOOT_SIDECHANNEL_COUPLING_HH
