#include "keyfind/schedule_scan.hh"

#include <algorithm>
#include <cstring>

#include "crypto/key_corrector.hh"
#include "sim/word_popcount_batch.hh"
#include "telemetry/counters.hh"

namespace voltboot
{
namespace keyfind
{

namespace
{

/** Residual filter lanes evaluated per batched pass. */
constexpr unsigned kBatchLanes = 64;

/** The reference accept test, applied to a survivor window. */
void
scoreWindow(std::span<const uint8_t> bytes, size_t off, size_t key_bytes,
            size_t schedule_bytes, double max_error_fraction,
            std::vector<KeyCandidate> &hits)
{
    std::span<const uint8_t> window(bytes.data() + off, schedule_bytes);
    // Same constant-window skip as the reference (Rcon injection
    // forbids constant schedules; zero pages dominate real dumps). A
    // constant window has zero linear residual, so the filter alone
    // cannot reject it.
    if (std::all_of(window.begin(), window.begin() + 16,
                    [&](uint8_t b) { return b == window[0]; }))
        return;
    const double derived_bits =
        static_cast<double>((schedule_bytes - key_bytes) * 8);
    const size_t errors =
        KeyFinder::scheduleBitErrors(window, key_bytes);
    const double frac = static_cast<double>(errors) / derived_bits;
    if (frac <= max_error_fraction) {
        KeyCandidate cand;
        cand.offset = off;
        cand.key_bytes = key_bytes;
        cand.key.assign(window.begin(), window.begin() + key_bytes);
        cand.bit_errors = errors;
        cand.error_fraction = frac;
        hits.push_back(std::move(cand));
    }
}

} // namespace

size_t
acceptedErrorBudget(double max_error_fraction, size_t derived_bits)
{
    const double db = static_cast<double>(derived_bits);
    size_t e = 0;
    if (max_error_fraction > 0) {
        const double approx = max_error_fraction * db;
        e = approx >= static_cast<double>(derived_bits)
                ? derived_bits
                : static_cast<size_t>(approx);
    }
    // Nudge to the exact boundary of the double comparison the
    // reference performs.
    while (e + 1 <= derived_bits &&
           static_cast<double>(e + 1) / db <= max_error_fraction)
        ++e;
    while (e > 0 && static_cast<double>(e) / db > max_error_fraction)
        --e;
    return e;
}

bool
scheduleScanAccelerated()
{
    return wordPopcountAccelerated();
}

void
scheduleScanRange(std::span<const uint8_t> bytes, size_t key_bytes,
                  size_t schedule_bytes, size_t off_begin, size_t off_end,
                  const KeyFinderConfig &config,
                  std::vector<KeyCandidate> &hits, ScanStats &stats)
{
    if (bytes.size() < schedule_bytes)
        return;
    const size_t last_off = bytes.size() - schedule_bytes;
    if (off_begin > last_off)
        return;
    off_end = std::min(off_end, last_off + 1);

    const unsigned nk = static_cast<unsigned>(key_bytes / 4);
    const auto words = scheduleResidualWords(key_bytes);
    const size_t budget = acceptedErrorBudget(
        config.max_error_fraction, (schedule_bytes - key_bytes) * 8);

    // Batched path: 64 consecutive word-aligned offsets per pass, one
    // strided XOR3+popcount kernel call per relation, then a scalar
    // compare of each lane's residual sum against the budget.
    static_assert(kKeyScanStride == 4, "lanes are consecutive words");
    uint32_t acc[kBatchLanes];
    for (size_t off = off_begin; off < off_end;
         off += size_t{kBatchLanes} * 4) {
        const unsigned lanes = static_cast<unsigned>(
            std::min<size_t>(kBatchLanes, (off_end - off + 3) / 4));
        std::memset(acc, 0, sizeof(uint32_t) * lanes);
        const uint8_t *base = bytes.data() + off;
        for (unsigned i : words)
            xorTriplePopcountAccumulate(base, size_t{i} * 4,
                                        size_t{i - 1} * 4,
                                        size_t{i - nk} * 4, lanes, acc);
        stats.offsets += lanes;
        for (unsigned l = 0; l < lanes; ++l) {
            if (acc[l] > budget) {
                ++stats.early_rejects;
                continue;
            }
            ++stats.scored;
            scoreWindow(bytes, off + size_t{l} * 4, key_bytes,
                        schedule_bytes, config.max_error_fraction, hits);
        }
    }
}

std::vector<KeyCandidate>
scheduleScan(const MemoryImage &image, const KeyFinderConfig &config,
             ScanStats *stats)
{
    std::vector<KeyCandidate> hits;
    ScanStats local;
    const auto &bytes = image.bytes();

    struct Variant
    {
        size_t key_bytes;
        size_t schedule_bytes;
        bool enabled;
    };
    const Variant variants[] = {
        {16, 176, config.aes128},
        {32, 240, config.aes256},
    };
    for (const Variant &v : variants) {
        if (!v.enabled || bytes.size() < v.schedule_bytes)
            continue;
        scheduleScanRange(bytes, v.key_bytes, v.schedule_bytes, 0,
                          bytes.size(), config, hits, local);
    }

    telemetry::add(telemetry::Counter::KeyfindOffsets, local.offsets);
    telemetry::add(telemetry::Counter::KeyfindEarlyRejects,
                   local.early_rejects);
    if (stats)
        *stats += local;

    std::sort(hits.begin(), hits.end(),
              [](const KeyCandidate &a, const KeyCandidate &b) {
                  return a.bit_errors < b.bit_errors;
              });
    return hits;
}

} // namespace keyfind
} // namespace voltboot
