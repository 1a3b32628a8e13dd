#include "crypto/key_finder.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace voltboot
{

size_t
KeyFinder::scheduleBitErrors(std::span<const uint8_t> window,
                             size_t key_bytes)
{
    const size_t schedule_bytes = Aes::scheduleBytes(key_bytes);
    if (window.size() < schedule_bytes)
        panic("KeyFinder: window smaller than a full schedule");
    // The first key_bytes match by construction; score the derived part.
    return Aes::scheduleDistance(window.subspan(0, key_bytes), window,
                                 key_bytes / 4, schedule_bytes / 4);
}

std::vector<KeyCandidate>
KeyFinder::scan(const MemoryImage &image) const
{
    std::vector<KeyCandidate> hits;
    const auto &bytes = image.bytes();

    struct Variant
    {
        size_t key_bytes;
        size_t schedule_bytes;
        bool enabled;
    };
    const Variant variants[] = {
        {16, 176, config_.aes128},
        {32, 240, config_.aes256},
    };

    for (const Variant &v : variants) {
        if (!v.enabled || bytes.size() < v.schedule_bytes)
            continue;
        // Bits being scored: the derived (redundant) part of the schedule.
        const double derived_bits =
            static_cast<double>((v.schedule_bytes - v.key_bytes) * 8);
        for (size_t off = 0; off + v.schedule_bytes <= bytes.size();
             off += kKeyScanStride) {
            std::span<const uint8_t> window(bytes.data() + off,
                                            v.schedule_bytes);
            // Cheap pre-filter: an all-zero or all-equal window is never
            // a schedule (Rcon injection forbids it) and zero pages
            // dominate real dumps.
            if (std::all_of(window.begin(), window.begin() + 16,
                            [&](uint8_t b) { return b == window[0]; }))
                continue;
            const size_t errors = scheduleBitErrors(window, v.key_bytes);
            const double frac = static_cast<double>(errors) / derived_bits;
            if (frac <= config_.max_error_fraction) {
                KeyCandidate cand;
                cand.offset = off;
                cand.key_bytes = v.key_bytes;
                cand.key.assign(window.begin(),
                                window.begin() + v.key_bytes);
                cand.bit_errors = errors;
                cand.error_fraction = frac;
                hits.push_back(std::move(cand));
            }
        }
    }

    std::sort(hits.begin(), hits.end(),
              [](const KeyCandidate &a, const KeyCandidate &b) {
                  return a.bit_errors < b.bit_errors;
              });
    return hits;
}

std::optional<KeyCandidate>
KeyFinder::best(const MemoryImage &image) const
{
    auto hits = scan(image);
    if (hits.empty())
        return std::nullopt;
    return hits.front();
}

} // namespace voltboot
