#include "campaign/sweep_grid.hh"

#include <charconv>
#include <cmath>
#include <map>
#include <sstream>
#include <type_traits>

#include "sim/logging.hh"

namespace voltboot
{

namespace
{

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(s);
    while (std::getline(in, item, sep))
        out.push_back(item);
    return out;
}

template <class T>
T
parseNumberStrict(const std::string &text, const char *key)
{
    const std::string t = trim(text);
    T value{};
    const auto [ptr, ec] =
        std::from_chars(t.data(), t.data() + t.size(), value);
    if (ec != std::errc() || ptr != t.data() + t.size())
        fatal("malformed ", key, " value '", text, "'");
    return value;
}

/** One value of axis @p key, parsed by its element type's rule. */
template <class T>
T
parseValue(const std::string &text, const char *key)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return trim(text);
    } else if constexpr (std::is_same_v<T, TargetRam>) {
        return targetFromString(trim(text));
    } else if constexpr (std::is_same_v<T, AttackKind>) {
        return attackFromString(trim(text));
    } else if constexpr (std::is_same_v<T, double>) {
        const double v = parseNumberStrict<double>(text, key);
        if (!std::isfinite(v))
            fatal("grid key '", key, "' value '", text, "' is not finite");
        return v;
    } else if constexpr (std::is_same_v<T, bool>) {
        const uint64_t v = parseNumberStrict<uint64_t>(text, key);
        if (v > 1)
            fatal("grid key '", key, "' takes 0 or 1, got '", text, "'");
        return v != 0;
    } else { // counts: dumps, seeds
        const uint64_t v = parseNumberStrict<uint64_t>(text, key);
        if (v == 0)
            fatal("grid key '", key, "' values must be >= 1, got '", text,
                  "'");
        return v;
    }
}

std::string renderValue(const std::string &v) { return v; }
std::string renderValue(TargetRam v) { return toString(v); }
std::string renderValue(AttackKind v) { return toString(v); }
std::string renderValue(uint64_t v) { return std::to_string(v); }
std::string renderValue(bool v) { return v ? "1" : "0"; }

/** Shortest round-trip decimal rendering of a double. */
std::string
renderValue(double v)
{
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        panic("renderValue: to_chars failed");
    return {buf, ptr};
}

// --- Per-list rules: a value list, or the seed count whose values are
// --- the indices 0..count-1 -------------------------------------------

template <class T>
uint64_t
listSize(const std::vector<T> &list)
{
    return list.size();
}

uint64_t listSize(uint64_t count) { return count; }

template <class T>
T
listAt(const std::vector<T> &list, uint64_t i)
{
    return list[i];
}

uint64_t listAt(uint64_t, uint64_t i) { return i; }

template <class T>
void
parseList(std::vector<T> &list, const std::string &value, const char *key)
{
    list.clear();
    for (const std::string &item : split(value, ','))
        list.push_back(parseValue<T>(item, key));
}

void
parseList(uint64_t &count, const std::string &value, const char *key)
{
    count = parseValue<uint64_t>(value, key);
}

template <class T>
std::string
renderList(const std::vector<T> &list)
{
    std::string out;
    for (size_t i = 0; i < list.size(); ++i) {
        if (i)
            out += ',';
        out += renderValue(static_cast<T>(list[i]));
    }
    return out;
}

std::string renderList(uint64_t count) { return std::to_string(count); }

/** One sweep axis: its spec key, its `--list-axes` documentation, and
 * how it fills its SweepGrid list and its TrialSpec field. */
struct Axis
{
    const char *key;
    const char *unit;
    std::string values; ///< Accepted values, for axesHelp().
    uint64_t (*size)(const SweepGrid &);
    void (*apply)(const SweepGrid &, uint64_t i, TrialSpec &);
    void (*parse)(SweepGrid &, const std::string &value, const char *key);
    std::string (*render)(const SweepGrid &);
};

template <auto List, auto Field>
Axis
axis(const char *key, const char *unit, std::string values)
{
    return {key, unit, std::move(values),
            [](const SweepGrid &g) { return listSize(g.*List); },
            [](const SweepGrid &g, uint64_t i, TrialSpec &s) {
                s.*Field = listAt(g.*List, i);
            },
            [](SweepGrid &g, const std::string &value, const char *k) {
                parseList(g.*List, value, k);
            },
            [](const SweepGrid &g) { return renderList(g.*List); }};
}

/**
 * Every sweep axis, slowest-varying first: the order of describe(),
 * axesHelp() and the at() decode. Defaults are SweepGrid's member
 * initialisers. Adding an axis is one row here plus its SweepGrid list
 * and TrialSpec field.
 */
const std::vector<Axis> &
axes()
{
    static const std::vector<Axis> table = {
        axis<&SweepGrid::boards, &TrialSpec::board>(
            "board", "-", "pi3|pi4|imx53"),
        axis<&SweepGrid::targets, &TrialSpec::target>(
            "target", "-", joinNames(kTargetNames)),
        axis<&SweepGrid::attacks, &TrialSpec::attack>(
            "attack", "-", joinNames(kAttackNames)),
        axis<&SweepGrid::temps_c, &TrialSpec::temp_c>(
            "temp", "degC", "ambient temperature list"),
        axis<&SweepGrid::offs_ms, &TrialSpec::off_ms>(
            "off-ms", "ms", "power-off time list"),
        axis<&SweepGrid::currents_a, &TrialSpec::current_a>(
            "current", "A", "probe current-limit list"),
        axis<&SweepGrid::impedances_mohm, &TrialSpec::impedance_mohm>(
            "impedance-mohm", "mohm", "probe source impedance list"),
        axis<&SweepGrid::glitch_offs_ns, &TrialSpec::glitch_off_ns>(
            "glitch-off-ns", "ns", "pulse offset from victim entry"),
        axis<&SweepGrid::glitch_widths_ns, &TrialSpec::glitch_width_ns>(
            "glitch-width-ns", "ns", "pulse width (0 = no pulse)"),
        axis<&SweepGrid::glitch_depths_v, &TrialSpec::glitch_depth_v>(
            "glitch-depth", "V", "droop below nominal (0 = no pulse)"),
        axis<&SweepGrid::undervolt_depths_v, &TrialSpec::undervolt_depth_v>(
            "undervolt-depth", "V", "static sag below nominal (0 = no ramp)"),
        axis<&SweepGrid::holds_ns, &TrialSpec::hold_ns>(
            "hold-ns", "ns", "undervolt hold time at the floor"),
        axis<&SweepGrid::readout_rates, &TrialSpec::readout_rate>(
            "readout-rate", "B/us", "frozen readout bandwidth (0 = unlimited)"),
        axis<&SweepGrid::cpa_windows_ns, &TrialSpec::cpa_window_ns>(
            "cpa-window-ns", "ns", "CPA correlation window (0 = full block)"),
        axis<&SweepGrid::dump_counts, &TrialSpec::dump_count>(
            "dumps", "count", "power-cycle dumps fused per key-recovery trial"),
        axis<&SweepGrid::use_priors, &TrialSpec::use_priors>(
            "prior", "0|1", "guide key correction by DRV decay priors"),
        axis<&SweepGrid::plant_key, &TrialSpec::plant_key>(
            "key", "0|1", "plant + scan an AES-128 schedule"),
        axis<&SweepGrid::seed_count, &TrialSpec::seed_index>(
            "seeds", "count", "chip-seed replication axis"),
    };
    return table;
}

} // namespace

const char *
toString(AttackKind kind)
{
    return kAttackNames.at(static_cast<size_t>(kind));
}

const char *
toString(TargetRam target)
{
    return kTargetNames.at(static_cast<size_t>(target));
}

AttackKind
attackFromString(const std::string &name)
{
    if (const auto kind = enumFromName<AttackKind>(kAttackNames, name))
        return *kind;
    fatal("unknown attack '", name, "' (", joinNames(kAttackNames), ")");
}

TargetRam
targetFromString(const std::string &name)
{
    if (const auto target = enumFromName<TargetRam>(kTargetNames, name))
        return *target;
    fatal("unknown target '", name, "' (", joinNames(kTargetNames), ")");
}

uint64_t
SweepGrid::size() const
{
    uint64_t n = 1;
    for (const Axis &a : axes())
        n *= a.size(*this);
    return n;
}

TrialSpec
SweepGrid::at(uint64_t index) const
{
    if (index >= size())
        panic("SweepGrid::at: index ", index, " out of range (size ",
              size(), ")");
    TrialSpec spec;
    spec.index = index;
    uint64_t rem = index;
    // Fastest-varying axis first (seed innermost, board outermost).
    const std::vector<Axis> &table = axes();
    for (auto a = table.rbegin(); a != table.rend(); ++a) {
        const uint64_t n = a->size(*this);
        a->apply(*this, rem % n, spec);
        rem /= n;
    }
    return spec;
}

SweepGrid
SweepGrid::parse(const std::string &spec)
{
    SweepGrid grid;
    // Normalise newlines to ';' and strip '#' comments per line.
    std::string flat;
    for (const std::string &line : split(spec, '\n')) {
        const auto hash = line.find('#');
        flat += line.substr(0, hash);
        flat += ';';
    }
    std::map<std::string, std::string> seen;
    for (const std::string &raw : split(flat, ';')) {
        const std::string entry = trim(raw);
        if (entry.empty())
            continue;
        const auto eq = entry.find('=');
        if (eq == std::string::npos)
            fatal("grid entry '", entry, "' is not key=value");
        const std::string key = trim(entry.substr(0, eq));
        const std::string value = entry.substr(eq + 1);
        if (trim(value).empty())
            fatal("empty value list for grid key '", key, "'");
        const Axis *found = nullptr;
        std::string keys;
        for (const Axis &a : axes()) {
            if (key == a.key)
                found = &a;
            keys += keys.empty() ? "" : "|";
            keys += a.key;
        }
        if (found == nullptr)
            fatal("unknown grid key '", key, "' (", keys, ")");
        if (const auto [first, fresh] = seen.emplace(key, value); !fresh)
            fatal("grid key '", key, "' given twice ('", first->second,
                  "' and '", value, "')");
        found->parse(grid, value, found->key);
    }
    if (grid.size() == 0)
        fatal("grid describes zero trials");
    return grid;
}

std::string
SweepGrid::describe() const
{
    std::string out;
    for (const Axis &a : axes()) {
        out += out.empty() ? "" : ";";
        out += a.key;
        out += '=';
        out += a.render(*this);
    }
    return out;
}

std::vector<std::pair<const char *, uint64_t>>
SweepGrid::axisSizes() const
{
    std::vector<std::pair<const char *, uint64_t>> out;
    for (const Axis &a : axes())
        out.emplace_back(a.key, a.size(*this));
    return out;
}

std::string
SweepGrid::axesHelp()
{
    const SweepGrid defaults;
    std::string out =
        "axis              unit   default  values\n"
        "----              ----   -------  ------\n";
    for (const Axis &a : axes()) {
        std::string line = a.key;
        line.resize(18, ' ');
        std::string unit = a.unit;
        unit.resize(7, ' ');
        std::string def = a.render(defaults);
        def.resize(9, ' ');
        out += line + unit + def + a.values + "\n";
    }
    out += "\nEnumeration order: the board axis varies slowest, the "
           "chip-seed index\nfastest; axes in between follow the order "
           "above from bottom to top.\nGlitch axes apply to "
           "attack=glitch trials only; undervolt-depth, hold-ns\nand "
           "readout-rate to attack=static-extract; cpa-window-ns to\n"
           "attack=voltage-coupling; dumps and prior to "
           "attack=key-recovery.\n";
    return out;
}

} // namespace voltboot
