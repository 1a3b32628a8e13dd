#include "sidechannel/coupling.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "crypto/aes.hh"
#include "sim/rng.hh"

namespace voltboot
{
namespace sidechannel
{

namespace
{

/** Capture start time (simulation seconds). */
constexpr Seconds kStart = Seconds::nanoseconds(10.0);
/** One rail sample per processed byte, one byte per cycle. */
constexpr Seconds kCycle = Seconds::nanoseconds(1.0);
/** Idle cycles between blocks (rail back at nominal). */
constexpr uint64_t kGapCycles = 4;
/** Minimum |r| for a byte to count as recovered. */
constexpr double kConfidenceThreshold = 0.25;

/** Uniform double in [0, 1) from one hash value. */
double
unitFromHash(uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string
hexEncode(const std::array<uint8_t, 16> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(32);
    for (uint8_t b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

bool
hexDecode(const std::string &hex, std::array<uint8_t, 16> *out)
{
    if (hex.size() != 32)
        return false;
    auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        return -1;
    };
    for (size_t i = 0; i < 16; ++i) {
        const int hi = nibble(hex[i * 2]);
        const int lo = nibble(hex[i * 2 + 1]);
        if (hi < 0 || lo < 0)
            return false;
        (*out)[i] = static_cast<uint8_t>(hi << 4 | lo);
    }
    return true;
}

} // namespace

CouplingRun
runCoupledAesVictim(const CouplingVictimConfig &config)
{
    CouplingRun run;
    if (!trace::enabled())
        return run;

    const std::array<uint8_t, 256> &sbox = Aes::sbox();
    const std::string counter_name = trace::voltageCounter(config.domain);
    const double cyc = kCycle.seconds();
    const double start = kStart.seconds();
    const double block_period =
        (16.0 + static_cast<double>(kGapCycles)) * cyc;

    auto sample = [&](double t, double v) {
        trace::counterAt("power", counter_name, Seconds(t), v);
        run.end = Seconds(t);
    };

    double last_t = start;
    for (uint64_t b = 0; b < kCouplingBlocks; ++b) {
        const double t_b = start + static_cast<double>(b) * block_period;

        std::array<uint8_t, 16> pt;
        for (size_t i = 0; i < 16; ++i)
            pt[i] = static_cast<uint8_t>(
                hashCombine(config.seed, b * 16 + i));

        trace::TraceEvent mark;
        mark.phase = trace::Phase::Instant;
        mark.category = "core";
        mark.name = "aes.block";
        mark.ts = Seconds(t_b);
        mark.args.push_back({"block", b});
        mark.args.push_back({"pt", hexEncode(pt)});
        trace::emit(std::move(mark));

        for (size_t i = 0; i < 16; ++i) {
            const uint8_t inter =
                sbox[static_cast<uint8_t>(pt[i] ^ config.key[i])];
            const int hw = std::popcount(static_cast<unsigned>(inter));
            const double noise =
                config.noise_mv *
                unitFromHash(hashCombine(
                    hashCombine(config.seed, 0x201bULL), b * 16 + i));
            const double dip_mv =
                config.couple_mv_per_bit * (hw + 1) + noise;
            sample(t_b + static_cast<double>(i) * cyc,
                   config.nominal.volts() - dip_mv / 1000.0);
        }
        last_t = t_b + 16.0 * cyc;
        sample(last_t, config.nominal.volts());
    }
    run.blocks = kCouplingBlocks;

    // The capture span closes over its children (aggregator contract:
    // children precede parents in emission order).
    trace::TraceEvent span;
    span.phase = trace::Phase::Complete;
    span.category = "power";
    span.name = "coupling.capture";
    span.ts = kStart;
    span.dur = Seconds(last_t - start);
    span.args.push_back({"domain", config.domain});
    span.args.push_back({"nominal_v", config.nominal.volts()});
    span.args.push_back(
        {"dip_bound_v",
         (config.couple_mv_per_bit * 9.0 + config.noise_mv) / 1000.0});
    span.args.push_back({"blocks", kCouplingBlocks});
    span.args.push_back({"cycle_ns", cyc * 1e9});
    trace::emit(std::move(span));

    if (trace::simTime().seconds() < last_t)
        trace::setSimTime(Seconds(last_t));
    return run;
}

CpaResult
analyzeCoupling(const std::vector<trace::TraceEvent> &events,
                const CpaOptions &opts)
{
    CpaResult result;
    std::string domain = opts.domain;
    if (domain.empty()) {
        // Auto-detect: prefer the capture span's own domain arg, fall
        // back to the first voltage counter in the trace.
        for (const trace::TraceEvent &ev : events) {
            if (ev.phase != trace::Phase::Complete ||
                ev.name != "coupling.capture")
                continue;
            if (auto d = trace::argString(ev, "domain")) {
                domain = std::move(*d);
                break;
            }
        }
        if (domain.empty()) {
            for (const trace::TraceEvent &ev : events) {
                if (ev.phase != trace::Phase::Counter)
                    continue;
                if (auto d = trace::voltageDomain(ev.name)) {
                    domain = *d;
                    break;
                }
            }
        }
    }
    const std::string counter_name = trace::voltageCounter(domain);

    // Gather per-block plaintexts and their sample vectors, in trace
    // order: each rail sample belongs to the most recent aes.block.
    std::vector<std::array<uint8_t, 16>> pts;
    std::vector<std::vector<double>> samples;
    std::vector<double> block_ts;
    for (const trace::TraceEvent &ev : events) {
        if (ev.phase == trace::Phase::Instant && ev.name == "aes.block") {
            const std::optional<std::string> hex =
                trace::argString(ev, "pt");
            std::array<uint8_t, 16> pt;
            if (!hex || !hexDecode(*hex, &pt))
                continue;
            pts.push_back(pt);
            samples.emplace_back();
            block_ts.push_back(ev.ts.seconds());
        } else if (ev.phase == trace::Phase::Counter &&
                   ev.name == counter_name && !pts.empty()) {
            const std::optional<double> v = trace::argNumber(ev, "v");
            if (!v)
                continue;
            if (opts.window_ns > 0.0 &&
                (ev.ts.seconds() - block_ts.back()) * 1e9 >=
                    opts.window_ns)
                continue;
            samples.back().push_back(*v);
        }
    }

    result.blocks = pts.size();
    if (pts.size() < 2)
        return result;

    size_t slots = samples[0].size();
    for (const std::vector<double> &s : samples)
        slots = std::min(slots, s.size());
    result.samples_per_block = slots;
    if (slots == 0)
        return result;

    const size_t n = pts.size();
    const double dn = static_cast<double>(n);

    // Per-slot rail statistics, shared by every guess.
    std::vector<double> sum_y(slots, 0.0), sum_yy(slots, 0.0);
    for (size_t b = 0; b < n; ++b) {
        for (size_t s = 0; s < slots; ++s) {
            const double y = samples[b][s];
            sum_y[s] += y;
            sum_yy[s] += y * y;
        }
    }

    const std::array<uint8_t, 256> &sbox = Aes::sbox();
    std::array<double, 256> hw;
    for (unsigned v = 0; v < 256; ++v)
        hw[v] = static_cast<double>(std::popcount(v));

    std::vector<double> h(n);
    std::vector<double> sum_xy(slots);
    for (size_t byte = 0; byte < 16; ++byte) {
        CpaByteResult best;
        for (unsigned g = 0; g < 256; ++g) {
            double sum_x = 0.0, sum_xx = 0.0;
            for (size_t b = 0; b < n; ++b) {
                h[b] = hw[sbox[static_cast<uint8_t>(pts[b][byte] ^ g)]];
                sum_x += h[b];
                sum_xx += h[b] * h[b];
            }
            std::fill(sum_xy.begin(), sum_xy.end(), 0.0);
            for (size_t b = 0; b < n; ++b)
                for (size_t s = 0; s < slots; ++s)
                    sum_xy[s] += h[b] * samples[b][s];

            const double var_x = dn * sum_xx - sum_x * sum_x;
            double score = 0.0;
            for (size_t s = 0; s < slots; ++s) {
                const double var_y = dn * sum_yy[s] - sum_y[s] * sum_y[s];
                if (var_x <= 0.0 || var_y <= 0.0)
                    continue;
                const double cov = dn * sum_xy[s] - sum_x * sum_y[s];
                const double r = cov / std::sqrt(var_x * var_y);
                score = std::max(score, std::fabs(r));
            }
            if (score > best.best_corr) {
                best.best_guess = static_cast<uint8_t>(g);
                best.best_corr = score;
            }
        }
        best.confident = best.best_corr >= kConfidenceThreshold;
        if (best.confident)
            ++result.recovered;
        result.bytes[byte] = best;
    }
    return result;
}

unsigned
countCorrectBytes(const CpaResult &result,
                  const std::array<uint8_t, 16> &key)
{
    unsigned correct = 0;
    for (size_t i = 0; i < 16; ++i)
        if (result.bytes[i].best_guess == key[i])
            ++correct;
    return correct;
}

std::string
renderCpaMarkdown(const CpaResult &result)
{
    std::ostringstream os;
    os << "## CPA key recovery (supply-voltage coupling)\n\n";
    os << "blocks: " << result.blocks
       << ", samples/block: " << result.samples_per_block
       << ", confident bytes: " << result.recovered << "/16\n\n";
    os << "| byte | guess | abs r | confident |\n";
    os << "|---:|---|---:|---|\n";
    static const char digits[] = "0123456789abcdef";
    for (size_t i = 0; i < 16; ++i) {
        const CpaByteResult &b = result.bytes[i];
        os << "| " << i << " | 0x" << digits[b.best_guess >> 4]
           << digits[b.best_guess & 0xf] << " | "
           << trace::jsonNumber(b.best_corr) << " | "
           << (b.confident ? "yes" : "no") << " |\n";
    }
    return os.str();
}

} // namespace sidechannel
} // namespace voltboot
