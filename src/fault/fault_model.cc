#include "fault/fault_model.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace voltboot
{
namespace fault
{

namespace
{

// Channel numbers of the per-boundary draws (domain separation).
constexpr uint64_t kChanFire = 0;
constexpr uint64_t kChanEffect = 1;
constexpr uint64_t kChanPayload = 2;

/** Below kMarginFraction * nominal, boundaries can fault. */
constexpr double kMarginFraction = 0.9;
/** At kCrashFraction * nominal, every boundary faults. */
constexpr double kCrashFraction = 0.5;
static_assert(kMarginFraction > kCrashFraction);

} // namespace

TimingFaultModel::TimingFaultModel(TimingFaultConfig cfg,
                                   const GlitchWaveform &wave,
                                   Seconds cycle)
    : cfg_(cfg), wave_(wave), cycle_(cycle)
{
    if (cycle.seconds() <= 0.0)
        fatal("TimingFaultModel: core clock period must be positive");
}

Volt
TimingFaultModel::marginVoltage() const
{
    return Volt(wave_.nominal().volts() * kMarginFraction);
}

Volt
TimingFaultModel::crashVoltage() const
{
    return Volt(wave_.nominal().volts() * kCrashFraction);
}

double
TimingFaultModel::faultProbability(Volt v) const
{
    const double margin = marginVoltage().volts();
    const double crash = crashVoltage().volts();
    if (v.volts() >= margin)
        return 0.0;
    return std::min((margin - v.volts()) / (margin - crash), 1.0);
}

double
TimingFaultModel::draw(uint64_t retired, uint64_t channel) const
{
    const uint64_t h = splitmix64(
        hashCombine(hashCombine(cfg_.seed, retired), channel));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

FaultAction
TimingFaultModel::chooseEffect(uint64_t pc, uint32_t insn,
                               uint64_t retired, double severity) const
{
    // Severity-weighted effect mix: shallow droops favour clean skips
    // and single bit-flips, deep droops shift towards corrupted
    // decodes and wild control flow.
    const double w_skip = 0.40;
    const double w_corrupt = 0.15 + 0.25 * severity;
    const double w_branch = 0.10 + 0.20 * severity;
    const double w_flip = 0.35 - 0.10 * severity;
    const double total = w_skip + w_corrupt + w_branch + w_flip;

    const uint64_t h = splitmix64(
        hashCombine(hashCombine(cfg_.seed, retired), kChanPayload));
    double u = draw(retired, kChanEffect) * total;

    FaultAction a;
    if ((u -= w_skip) < 0.0) {
        a.effect = FaultEffect::Skip;
        return a;
    }
    if ((u -= w_corrupt) < 0.0) {
        a.effect = FaultEffect::OpcodeCorrupt;
        // A mistimed decode latch: flip one bit of the opcode field
        // (top byte), which usually lands on a different — often
        // undefined — instruction.
        a.insn_override = insn ^ (1u << (24 + (h % 8)));
        return a;
    }
    if ((u -= w_branch) < 0.0) {
        a.effect = FaultEffect::WrongBranch;
        // A corrupted branch adder: transfer to a nearby but wrong
        // word-aligned target, up to 7 instructions either way.
        int64_t delta = static_cast<int64_t>(h % 15) - 7;
        if (delta == 0 || delta == 1)
            delta = 2; // 0 re-executes, 1 is the correct fall-through
        a.branch_target =
            pc + static_cast<uint64_t>(delta * 4);
        return a;
    }
    a.effect = FaultEffect::RegisterBitFlip;
    a.reg = h % 31;             // x0..x30
    a.bit = (h >> 8) % 64;
    return a;
}

FaultAction
TimingFaultModel::onInstruction(uint64_t pc, uint32_t insn,
                                uint64_t retired)
{
    const Seconds t(static_cast<double>(retired) * cycle_.seconds());
    const Volt v = wave_.at(t);
    const double p = faultProbability(v);
    if (p <= 0.0 || draw(retired, kChanFire) >= p)
        return {};
    const FaultAction a = chooseEffect(pc, insn, retired, p);
    events_.push_back({retired, a.effect});
    return a;
}

} // namespace fault
} // namespace voltboot
