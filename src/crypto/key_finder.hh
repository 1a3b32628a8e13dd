/**
 * @file
 * AES key-schedule scanner for memory dumps.
 *
 * Works like the key-recovery tooling from the original cold boot attack:
 * slide a window over the dump, treat the bytes as the start of an AES
 * key schedule, recompute the schedule from the would-be master key and
 * score how many bits of the observed window disagree. A perfect dump
 * (Volt Boot) scores 0; a decayed dump (cold boot) scores according to
 * its bit-error rate. Because the schedule is ~11x redundant, small error
 * rates are correctable by taking the master key bytes directly and
 * regenerating; the paper's point is that SRAM's bistable errors make
 * this search explode for cold boot while Volt Boot needs no correction
 * at all.
 */

#ifndef VOLTBOOT_CRYPTO_KEY_FINDER_HH
#define VOLTBOOT_CRYPTO_KEY_FINDER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/aes.hh"
#include "sram/memory_image.hh"

namespace voltboot
{

/** One key-schedule hit in a dump. */
struct KeyCandidate
{
    size_t offset;             ///< Byte offset of the schedule in the dump.
    size_t key_bytes;          ///< 16 or 32.
    std::vector<uint8_t> key;  ///< Recovered master key.
    size_t bit_errors;         ///< Schedule bits disagreeing with ideal.
    double error_fraction;     ///< bit_errors / schedule bits.
};

/** Scan stride in bytes (key schedules are word-aligned in practice). */
inline constexpr size_t kKeyScanStride = 4;

/** Scanner configuration. */
struct KeyFinderConfig
{
    /**
     * Maximum fraction of schedule bits allowed to disagree before a
     * window is rejected. 0 demands an exact schedule.
     */
    double max_error_fraction = 0.10;
    /** Look for AES-128 schedules. */
    bool aes128 = true;
    /** Look for AES-256 schedules. */
    bool aes256 = false;
};

/** Scans MemoryImages for embedded AES key schedules. */
class KeyFinder
{
  public:
    explicit KeyFinder(KeyFinderConfig config = {}) : config_(config) {}

    /** All candidate schedules in @p image, best (fewest errors) first. */
    std::vector<KeyCandidate> scan(const MemoryImage &image) const;

    /** Convenience: the single best candidate, if any. */
    std::optional<KeyCandidate> best(const MemoryImage &image) const;

    /**
     * Score one window: bit errors between @p window (a schedule-sized
     * byte span) and the ideal schedule regenerated from its first
     * key_bytes bytes.
     */
    static size_t scheduleBitErrors(std::span<const uint8_t> window,
                                    size_t key_bytes);

  private:
    KeyFinderConfig config_;
};

} // namespace voltboot

#endif // VOLTBOOT_CRYPTO_KEY_FINDER_HH
