/**
 * @file
 * The timing-fault model: how a supply droop becomes a wrong
 * instruction.
 *
 * Digital logic is timed against a guard-banded supply: below roughly
 * 90% of nominal, the longest paths through fetch/decode/execute no
 * longer close in one cycle and an instruction boundary can latch
 * garbage. The model derives that *timing-margin threshold* from the
 * rail's nominal voltage, samples the glitch waveform at each
 * instruction boundary (one boundary per core clock cycle), and when
 * the instantaneous voltage sits below the threshold, fires a fault
 * with probability rising linearly from 0 at the margin to 1 at the
 * crash voltage — the point where essentially every path mistimes.
 *
 * Which *effect* a fired fault takes — instruction skip, opcode
 * corruption, wrong-target branch, register bit-flip — is drawn from a
 * severity-weighted distribution: shallow droops mostly produce clean
 * skips and single bit-flips (one marginal path), deep droops shift
 * weight towards opcode corruption and wild control flow (many paths
 * failing together). This matches the empirical spread reported for
 * crowbar glitching of application cores.
 *
 * Determinism contract (PR-1 style): every draw is a counter-based
 * hash of (seed, retired-instruction index, channel) — no mutable RNG
 * state — so a trial's fault stream is a pure function of its seed and
 * the waveform, byte-identical at any campaign `--jobs` count.
 */

#ifndef VOLTBOOT_FAULT_FAULT_MODEL_HH
#define VOLTBOOT_FAULT_FAULT_MODEL_HH

#include <cstdint>
#include <vector>

#include "fault/glitch.hh"
#include "isa/cpu.hh"
#include "sim/units.hh"

namespace voltboot
{
namespace fault
{

/** Fault-stream settings. The voltage-to-fault calibration (margin 0.9
 * and crash 0.5 of nominal) is fixed: kMarginFraction and
 * kCrashFraction in fault_model.cc. */
struct TimingFaultConfig
{
    /** Counter-hash seed of the fault stream. */
    uint64_t seed = 1;
};

/** One fired fault, for the attack log. */
struct FaultEvent
{
    uint64_t retired; ///< Instruction boundary index.
    FaultEffect effect;
};

/** FaultInjector sampling a GlitchWaveform on a fixed core clock. */
class TimingFaultModel : public FaultInjector
{
  public:
    /**
     * @param cfg   Fault-stream seed.
     * @param wave  The pulse, in time relative to victim entry.
     * @param cycle Core clock period (one instruction boundary each).
     */
    TimingFaultModel(TimingFaultConfig cfg, const GlitchWaveform &wave,
                     Seconds cycle);

    FaultAction onInstruction(uint64_t pc, uint32_t insn,
                              uint64_t retired) override;

    /** Fired faults, in boundary order. */
    const std::vector<FaultEvent> &events() const { return events_; }
    uint64_t faultsInjected() const { return events_.size(); }

    /** The derived timing-margin threshold voltage. */
    Volt marginVoltage() const;
    /** The derived always-faults crash voltage. */
    Volt crashVoltage() const;

    /** P(fault at a boundary | rail at @p v): 0 above the margin,
     * linear to 1 at the crash voltage. */
    double faultProbability(Volt v) const;

  private:
    double draw(uint64_t retired, uint64_t channel) const;
    FaultAction chooseEffect(uint64_t pc, uint32_t insn,
                             uint64_t retired, double severity) const;

    TimingFaultConfig cfg_;
    const GlitchWaveform &wave_;
    Seconds cycle_;
    std::vector<FaultEvent> events_;
};

} // namespace fault
} // namespace voltboot

#endif // VOLTBOOT_FAULT_FAULT_MODEL_HH
