/**
 * @file
 * The Chypnosis-style static undervolt extraction attack.
 *
 * Glitching (src/fault) drives a rail *briefly* below its timing margin
 * to corrupt one instruction; this family drives it *statically* below
 * the brown-out threshold and keeps it there. Below brown-out the clock
 * tree stops producing edges, so the core freezes mid-execution — but
 * SRAM cells whose data-retention voltage (DRV) sits below the sagged
 * rail keep their state. The attacker then has all the time in the
 * world to read the frozen state out through a slow path (JTAG, scan,
 * or bit-banged debug), which is exactly the Chypnosis observation:
 * undervolting turns a running chip into a readable snapshot.
 *
 * The model composes three existing layers:
 *
 *  - the fault::GlitchWaveform trapezoid generates the undervolt ramp
 *    (offset = ramp start, width = hold time, depth = sag below
 *    nominal), traced as voltage.<domain> Counter samples inside an
 *    "undervolt.hold" span that the report layer's sidechannel_bounds
 *    invariant audits;
 *  - an isa/cpu ClockGate samples the waveform at each instruction
 *    boundary and freezes the core once the rail sags below
 *    kFreezeFraction (0.7) x nominal (the brown-out detector's threshold);
 *  - sram/MemoryArray::droopTo applies the retention physics: cells
 *    whose DRV exceeds the waveform floor flip to their power-up
 *    fingerprints, so digging too deep corrupts the very state the
 *    freeze preserved.
 *
 * The victim is a countdown-then-zeroize program: it spins for a
 * fixed number of cycles (64) and then wipes the secret region. A
 * well-timed, deep-enough ramp freezes the clock before the wipe
 * reaches the secret; a shallow ramp lets the zeroize win; an
 * over-deep ramp freezes the core but kills the cells. The success
 * surface over (depth, hold, readout rate) is the experiment.
 */

#ifndef VOLTBOOT_SIDECHANNEL_STATIC_EXTRACT_HH
#define VOLTBOOT_SIDECHANNEL_STATIC_EXTRACT_HH

#include <cstdint>
#include <string>

#include "fault/glitch.hh"
#include "soc/soc.hh"
#include "sram/memory_image.hh"

namespace voltboot
{
namespace sidechannel
{

/** Which on-chip state the frozen chip is read out of. */
enum class ExtractTarget
{
    DCache, ///< L1 data RAM (secrets staged by a store loop).
    Regs,   ///< The vector register file.
    Iram,   ///< On-chip iRAM (i.MX-style).
};

const char *toString(ExtractTarget target);

/** Bench settings for one static-extraction run: the target and the
 * three sweep axes. The ramp start and slew, core clock, brown-out
 * threshold, victim countdown, step budget and victim layout are fixed
 * (constants in static_extract.cc). */
struct StaticExtractConfig
{
    ExtractTarget target = ExtractTarget::DCache;

    /** Static sag below nominal (the undervolt depth). */
    Volt depth{0.45};
    /** How long the rail is held at the floor before release. */
    Seconds hold = Seconds::nanoseconds(400.0);

    /**
     * Readout bandwidth of the slow extraction path, in bytes per
     * microsecond of hold time; 0 = unlimited. The frozen window is
     * exactly `hold`, so bytes beyond hold_us * readout_rate are never
     * observed and read back as zero.
     */
    double readout_rate = 0.0;
};

/** Outcome of one static-extraction run. */
struct StaticExtractOutcome
{
    /** The clock froze below brown-out before the victim halted. */
    bool frozen = false;
    /** The victim completed its zeroize wipe and halted cleanly. */
    bool zeroized = false;
    uint64_t steps = 0;
    /** Waveform floor the rail sagged to, in volts. */
    double floor_v = 0.0;
    /** Retention cells flipped by the droop across the domain. */
    uint64_t cells_lost = 0;
    /** Bytes the slow readout path observed before the hold ended. */
    size_t bytes_read = 0;
    /** bytes_read / dump size. */
    double read_fraction = 1.0;
    /** The extracted image (unread suffix zero-filled). */
    MemoryImage dump;
};

/**
 * Orchestrates the undervolt-freeze-readout sequence against a powered
 * Soc. Runs under a "core" span `attack.static_extract`; the ramp lands
 * in the trace as a "power" span `undervolt.hold` over voltage.<domain>
 * Counter samples.
 */
class StaticExtractAttack
{
  public:
    StaticExtractAttack(Soc &soc, StaticExtractConfig config = {});

    /** Stage the victim, ramp the rail, freeze, droop, read out. */
    StaticExtractOutcome execute();

    /** The exact victim source of the last execute() (ground truth). */
    const std::string &victimSource() const { return victim_source_; }

    /** Power domain the configured target's arrays draw from. */
    const DomainSpec &targetDomain() const;

  private:
    Soc &soc_;
    StaticExtractConfig config_;
    std::string victim_source_;
};

} // namespace sidechannel
} // namespace voltboot

#endif // VOLTBOOT_SIDECHANNEL_STATIC_EXTRACT_HH
