/**
 * @file
 * AES-128/192/256 (FIPS-197) — block cipher and key expansion.
 *
 * Used as the victim workload for the on-chip-cryptography attacks: the
 * expanded key schedule is exactly what TRESOR-style systems park in
 * registers and CaSE-style systems park in locked cache lines, and the
 * schedule's algebraic structure is what the KeyFinder scanner exploits
 * to locate keys in memory dumps (as in the original cold boot attack).
 *
 * The block cipher favours clarity and auditability over speed; it is a
 * victim model, not a production cipher. The key schedule is on the key
 * reconstruction's hot path, so its S-box word step is shared by
 * expandKey() and the allocation-free scheduleDistance().
 */

#ifndef VOLTBOOT_CRYPTO_AES_HH
#define VOLTBOOT_CRYPTO_AES_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace voltboot
{

/** AES with a 128/192/256-bit key. */
class Aes
{
  public:
    /** Construct from a raw key of 16, 24 or 32 bytes. */
    explicit Aes(std::span<const uint8_t> key);

    /** Key length in bytes. */
    size_t keyBytes() const { return key_bytes_; }
    /** Number of rounds (10/12/14). */
    size_t rounds() const { return rounds_; }

    /**
     * The expanded key schedule: 4*(rounds+1) words, serialised as
     * bytes in the order they'd sit in memory. This is the secret an
     * attacker hunts for.
     */
    const std::vector<uint8_t> &schedule() const { return schedule_; }

    /** Encrypt one 16-byte block in place. */
    void encryptBlock(std::span<uint8_t, 16> block) const;
    /** Decrypt one 16-byte block in place. */
    void decryptBlock(std::span<uint8_t, 16> block) const;

    /** ECB convenience over whole buffers (length % 16 == 0). */
    std::vector<uint8_t> encryptEcb(std::span<const uint8_t> data) const;
    std::vector<uint8_t> decryptEcb(std::span<const uint8_t> data) const;

    /**
     * Expand @p key into a schedule without building an Aes object
     * (shared with KeyFinder's candidate verification).
     */
    static std::vector<uint8_t> expandKey(std::span<const uint8_t> key);

    /** Schedule size for a @p key_bytes-byte key: 176, 208 or 240.
     * @throws FatalError for any other key size. */
    static size_t scheduleBytes(size_t key_bytes);

    /**
     * Bit disagreement between @p window and the schedule of @p key,
     * counted over schedule words [@p first_word, @p end_word). The
     * schedule is derived word by word on the stack, and each word's
     * popcount is added as soon as it is derived; once the running count
     * reaches @p bound the rest is skipped. The result is therefore
     * exact when it is below @p bound and some value >= @p bound
     * otherwise, which is all a caller comparing "d < bound" needs.
     * @throws FatalError for a bad key size, or when @p window or the
     *         schedule is shorter than @p end_word words.
     */
    static size_t scheduleDistance(std::span<const uint8_t> key,
                                   std::span<const uint8_t> window,
                                   size_t first_word, size_t end_word,
                                   size_t bound = SIZE_MAX);

    /** The AES S-box (exposed for KeyFinder's schedule checks). */
    static const std::array<uint8_t, 256> &sbox();

  private:
    size_t key_bytes_;
    size_t rounds_;
    std::vector<uint8_t> schedule_;
};

} // namespace voltboot

#endif // VOLTBOOT_CRYPTO_AES_HH
