/**
 * @file
 * Glitch waveform generation: the attacker's crowbar pulse.
 *
 * A voltage glitch briefly shorts a supply rail towards ground through
 * a low-impedance MOSFET ("crowbar" glitching), then releases it so the
 * regulator recovers. On the bench the interesting knobs are exactly
 * three: *offset* (when the pulse fires, relative to a trigger),
 * *width* (how long the crowbar conducts) and *depth* (how far the rail
 * is dragged below nominal). This module turns those knobs into a
 * deterministic voltage-vs-time waveform the timing-fault model and the
 * trace layer can both sample.
 *
 * The edge rate is not free: the rail's decoupling capacitance has to
 * be discharged through the crowbar and recharged through the supply
 * path, so both edges slew with the RC product of the crowbar
 * impedance and the domain decap — the same physics
 * `power/transient.hh` uses for probe droop, applied to an
 * intentionally hostile load. The pulse is therefore a trapezoid:
 * linear fall over one edge time, a flat floor at (nominal - depth),
 * and a linear recovery that reaches nominal exactly at
 * offset + width. The floor clamps at 0 V (the crowbar cannot drive
 * the rail below ground).
 *
 * A zero-width or zero-depth pulse is *degenerate*: the waveform is
 * identically nominal and callers are expected to treat the glitch as
 * absent (no fault model, no trace events) — see
 * GlitchParams::degenerate().
 */

#ifndef VOLTBOOT_FAULT_GLITCH_HH
#define VOLTBOOT_FAULT_GLITCH_HH

#include <string>

#include "sim/units.hh"

namespace voltboot
{
namespace fault
{

/** The three bench knobs of a crowbar glitch. */
struct GlitchParams
{
    /** Pulse start, relative to the waveform's trigger (victim entry). */
    Seconds offset{0.0};
    /** Total pulse duration (fall + floor + recovery). */
    Seconds width{0.0};
    /** Maximum excursion below nominal. */
    Volt depth{0.0};

    /** A degenerate pulse never leaves nominal: a no-op by contract. */
    bool
    degenerate() const
    {
        return width.seconds() <= 0.0 || depth.volts() <= 0.0;
    }
};

/** Deterministic voltage-vs-time shape of one glitch pulse. */
class GlitchWaveform
{
  public:
    /**
     * @param nominal   The rail's nominal voltage.
     * @param params    Offset/width/depth of the pulse.
     * @param crowbar   Crowbar MOSFET on-impedance (sets edge slew).
     * @param decap     Domain decoupling capacitance (sets edge slew).
     */
    GlitchWaveform(Volt nominal, GlitchParams params, Ohm crowbar,
                   Farad decap);

    /** Rail voltage at time @p t (relative to the trigger). Nominal
     * outside [start, end]; never below max(nominal - depth, 0). */
    Volt at(Seconds t) const;

    Volt nominal() const { return nominal_; }
    const GlitchParams &params() const { return params_; }

    /** Pulse start / end times (end is where nominal is restored). */
    Seconds start() const { return params_.offset; }
    Seconds end() const { return params_.offset + params_.width; }

    /** Edge slew time actually used (RC product, clamped into the
     * pulse so fall + recovery always fit inside width). */
    Seconds edge() const { return edge_; }

    /** Deepest point of the pulse, floor-clamped at 0 V. */
    Volt floor() const { return floor_; }

  private:
    Volt nominal_;
    GlitchParams params_;
    Seconds edge_{0.0};
    Volt floor_{0.0};
};

/**
 * Emit one bounded rail excursion into the trace in one batch: a
 * voltage.<domain> Counter sample at each @p cycle boundary inside the
 * waveform where the value changes, a return-to-nominal sample at its
 * end, then the "power" Complete span @p span_name ("glitch.pulse",
 * "undervolt.hold") with args domain, nominal_v, depth_v, offset_s and
 * width_s, bracketing them (children before parents, as the span
 * aggregator expects). Waveform times are relative to @p anchor and
 * every timestamp is assigned here, so the batch may be emitted at any
 * sim time at or after the waveform's end. No-op when tracing is off.
 */
void emitExcursionTrace(const GlitchWaveform &wave,
                        const std::string &domain, Seconds anchor,
                        Seconds cycle, const char *span_name);

} // namespace fault
} // namespace voltboot

#endif // VOLTBOOT_FAULT_GLITCH_HH
