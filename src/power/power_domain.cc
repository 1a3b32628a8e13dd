#include "power/power_domain.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace voltboot
{

const char *
toString(RegulatorKind kind)
{
    switch (kind) {
      case RegulatorKind::Buck:
        return "BUCK";
      case RegulatorKind::Ldo:
        return "LDO";
    }
    return "?";
}

PowerDomain::PowerDomain(std::string name, Volt nominal, RegulatorKind kind,
                         DomainLoadProfile profile)
    : name_(std::move(name)), nominal_(nominal), kind_(kind),
      profile_(profile)
{
    if (nominal_.volts() <= 0.0)
        fatal("PowerDomain ", name_, ": nominal voltage must be positive");
}

void
PowerDomain::attachLoad(MemoryArray *array)
{
    if (array == nullptr)
        panic("PowerDomain ", name_, ": null load");
    loads_.push_back(array);
}

void
PowerDomain::attachProbe(const VoltageProbe &probe)
{
    if (probe.voltage.volts() <= 0.0)
        fatal("PowerDomain ", name_, ": probe voltage must be positive");
    probe_ = probe;
    if (trace::enabled()) {
        trace::instant("power", "probe_attach",
                       {{"domain", name_},
                        {"voltage_v", probe.voltage.volts()},
                        {"max_current_a", probe.max_current.amps()},
                        {"impedance_ohm",
                         probe.source_impedance.ohms()}});
    }
}

void
PowerDomain::detachProbe()
{
    probe_.reset();
    if (trace::enabled()) {
        trace::instant("power", "probe_detach",
                       {{"domain", name_},
                        {"drops_retention", !powered_}});
    }
    if (!powered_) {
        // Removing the probe from an unpowered domain cuts the only
        // thing keeping the cells alive: retention ends on the spot.
        for (MemoryArray *a : loads_)
            if (a->powerState() == PowerState::Retained)
                a->powerDown();
        current_ = Volt(0.0);
        trace::counter("power", trace::voltageCounter(name_), 0.0);
    }
}

void
PowerDomain::powerUp(Seconds now, Temperature temp)
{
    if (powered_)
        return;

    const bool held = std::any_of(
        loads_.begin(), loads_.end(), [](const MemoryArray *a) {
            return a->powerState() == PowerState::Retained;
        });

    Seconds off_time = ever_powered_ && !held
                           ? now - powered_down_at_
                           : Seconds(1e9);
    if (off_time.seconds() < 0.0)
        panic("PowerDomain ", name_, ": time ran backwards");

    trace::setSimTime(now);
    if (trace::enabled()) {
        trace::instant("power", "domain_power_up",
                       {{"domain", name_},
                        {"voltage_v", nominal_.volts()},
                        {"off_s", off_time.seconds()},
                        {"held_by_probe", held}});
    }

    for (MemoryArray *a : loads_) {
        if (a->powerState() == PowerState::Retained)
            a->resumePowered(nominal_);
        else
            a->powerUp(nominal_, off_time, temp);
    }
    powered_ = true;
    current_ = nominal_;
    ever_powered_ = true;
    trace::counter("power", trace::voltageCounter(name_), nominal_.volts());
}

void
PowerDomain::scaleVoltage(Volt v)
{
    if (!powered_)
        fatal("PowerDomain ", name_, ": cannot scale an unpowered domain");
    if (v.volts() <= 0.0)
        fatal("PowerDomain ", name_,
              ": use powerDown() to remove power, not scaleVoltage(0)");
    if (trace::enabled()) {
        trace::instant("power", "domain_scale",
                       {{"domain", name_},
                        {"from_v", current_.volts()},
                        {"to_v", v.volts()}});
    }
    // Scaling down kills cells whose DRV sits above the new level;
    // scaling up never resurrects them.
    if (v < current_)
        for (MemoryArray *a : loads_)
            a->droopTo(v);
    current_ = v;
    trace::counter("power", trace::voltageCounter(name_), v.volts());
}

void
PowerDomain::powerDown(Seconds now)
{
    if (!powered_)
        return;
    powered_ = false;
    powered_down_at_ = now;
    last_transient_.reset();

    trace::setSimTime(now);
    if (trace::enabled()) {
        trace::instant("power", "domain_power_down",
                       {{"domain", name_},
                        {"probed", probe_.has_value()}});
    }

    if (!probe_) {
        for (MemoryArray *a : loads_)
            a->powerDown();
        current_ = Volt(0.0);
        trace::counter("power", trace::voltageCounter(name_), 0.0);
        return;
    }

    // The probe carries the domain across the power cycle. The surge at
    // disconnect droops the rail; marginal cells flip at the minimum.
    const ProbeTransient tr = TransientSolver::solve(
        *probe_, profile_.surge_current, profile_.retention_current,
        profile_.decap, profile_.surge_duration);
    last_transient_ = tr;
    if (trace::enabled()) {
        trace::instant("power", "probe_transient",
                       {{"domain", name_},
                        {"v_min", tr.v_min.volts()},
                        {"v_settled", tr.v_settled.volts()},
                        {"current_limited", tr.current_limited}});
    }
    // Sample the rail at the droop minimum and after it settles — the
    // two points of the paper's oscilloscope shot that matter for
    // retention. The probe_hold invariant keys off these samples.
    trace::counter("power", trace::voltageCounter(name_),
                   tr.v_min.volts());
    trace::counter("power", trace::voltageCounter(name_),
                   tr.v_settled.volts());
    for (MemoryArray *a : loads_) {
        a->droopTo(tr.v_min);
        a->retainAt(tr.v_settled);
    }
    current_ = tr.v_settled;
}

} // namespace voltboot
