/**
 * @file
 * Batched AES key-schedule scan with a vectorized early-reject filter.
 *
 * crypto/key_finder.cc scores every candidate offset by expanding the
 * full 11-round schedule from the window's leading bytes — ~3.5 KiB of
 * S-box work per offset, almost all of it spent proving that random
 * data is not a schedule. This module keeps the *accept* decision
 * bit-identical while making the *reject* decision nearly free:
 *
 *   For the schedule rows with no S-box, an ideal schedule satisfies
 *   w[i] = w[i-Nk] ^ w[i-1] exactly, so the observed window's residual
 *   r[i] = popcount(W[i] ^ W[i-1] ^ W[i-Nk]) is bounded by the sum of
 *   the bit errors on those three words. Over the disjoint-support
 *   relation set (crypto/scheduleResidualWords) the residual sum never
 *   exceeds the window's derived-bit error count — the quantity the
 *   reference scorer thresholds. An offset whose residual sum already
 *   exceeds the acceptance budget therefore *cannot* be accepted, and
 *   is rejected without expanding anything. On random data the
 *   residual sum concentrates around half the relation bits (~160 for
 *   AES-128 vs a budget of 128 at the default 10% threshold), so only
 *   ~0.02% of offsets survive to the exact scorer.
 *
 * The residuals themselves are word-wise XOR + popcount with no
 * cross-offset dependency, so 16 consecutive offsets are evaluated per
 * AVX-512 pass via sim/word_popcount_batch (runtime-dispatched, with a
 * bit-identical scalar fallback). Survivors are re-scored with the
 * reference KeyFinder::scheduleBitErrors, making the hit list — order
 * included — byte-identical to KeyFinder::scan.
 */

#ifndef VOLTBOOT_KEYFIND_SCHEDULE_SCAN_HH
#define VOLTBOOT_KEYFIND_SCHEDULE_SCAN_HH

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/key_finder.hh"

namespace voltboot
{
namespace keyfind
{

/** Work tallies of a scan pass. */
struct ScanStats
{
    uint64_t offsets = 0;       ///< Candidate offsets examined.
    uint64_t early_rejects = 0; ///< Rejected by the residual filter alone.
    uint64_t scored = 0;        ///< Survivors run through the exact scorer.

    void
    operator+=(const ScanStats &o)
    {
        offsets += o.offsets;
        early_rejects += o.early_rejects;
        scored += o.scored;
    }
};

/**
 * Scan byte offsets [off_begin, off_end) of @p bytes (at
 * kKeyScanStride spacing, off_begin itself being the first candidate)
 * for schedules of one AES variant, appending accepted candidates to
 * @p hits in ascending-offset order. Offsets whose window would overrun
 * the buffer are skipped. The accepted set and every candidate field
 * are bit-identical to the corresponding KeyFinder::scan windows.
 */
void scheduleScanRange(std::span<const uint8_t> bytes, size_t key_bytes,
                       size_t schedule_bytes, size_t off_begin,
                       size_t off_end, const KeyFinderConfig &config,
                       std::vector<KeyCandidate> &hits, ScanStats &stats);

/**
 * Whole-image scan over every variant @p config enables — the drop-in
 * batched equivalent of KeyFinder(config).scan(image): same hits, same
 * sort, same tie order.
 */
std::vector<KeyCandidate> scheduleScan(const MemoryImage &image,
                                       const KeyFinderConfig &config,
                                       ScanStats *stats = nullptr);

/** True when the residual filter runs on an AVX-512 path. */
bool scheduleScanAccelerated();

/**
 * Largest bit-error count the reference scorer accepts: the greatest
 * integer e with e / derived_bits <= max_error_fraction under exact
 * double division (the comparison KeyFinder::scan performs).
 */
size_t acceptedErrorBudget(double max_error_fraction,
                           size_t derived_bits);

} // namespace keyfind
} // namespace voltboot

#endif // VOLTBOOT_KEYFIND_SCHEDULE_SCAN_HH
