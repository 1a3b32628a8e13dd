/**
 * @file
 * Process-wide cache of per-array power-up planes.
 *
 * Everything a MemoryArray derives at first power-up — the stable
 * power-up fingerprint, the metastable mask, and the fully resolved
 * first-power-on contents — is a pure function of the die identity
 * (chip seed, array id, array size, metastable calibration). Campaign
 * trials construct a fresh Soc per trial, and sweep grids deliberately
 * reuse dies across attack kinds, so without a cache every trial
 * re-hashes tens of millions of cells to rebuild planes an earlier
 * trial already derived. This cache shares them: keyed by the exact
 * inputs of the derivation, immutable once built, LRU-evicted under a
 * configurable byte budget, and safe to share across campaign worker
 * threads (values are deterministic, so a cache hit can never change
 * simulation output).
 *
 * The budget is bytes, not entries: one DRAM-scale plane triple can
 * weigh hundreds of MB, so counting entries would let a single huge
 * die blow memory while dozens of small dies barely register. It
 * defaults to 512 MB; setFingerprintCacheCapacity() (tests and
 * benches) changes it immediately, and 0 disables caching entirely.
 * Entries whose own footprint exceeds the budget are handed to the
 * caller but never inserted — a plane bigger than the whole cache
 * would otherwise evict everything else and then be evicted itself on
 * the next insert, thrashing the cache without ever producing a hit.
 */

#ifndef VOLTBOOT_SRAM_FINGERPRINT_CACHE_HH
#define VOLTBOOT_SRAM_FINGERPRINT_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/plane_arena.hh"

namespace voltboot
{

/**
 * Immutable per-die power-up planes (see MemoryArray): bit-packed
 * word planes carved out of one embedded arena, so the whole structure
 * moves as a unit and its footprint is one number. The BitPlane views
 * stay valid for the life of the FingerprintPlanes (arena lifetime
 * rule, see sim/plane_arena.hh); the cache shares them behind
 * shared_ptr<const ...> so a consumer can never outlive its planes.
 */
struct FingerprintPlanes
{
    /** Backing storage for every plane below. */
    PlaneArena arena;
    /** Stable power-up state per cell (metastable cells' bits here are
     * their intrinsic power_up_bit; re-rolls overwrite them). */
    BitPlane fingerprint;
    /** Bit mask of metastable cells. */
    BitPlane metastable_mask;
    /** Array contents after the first power-on (nonce-1 metastable
     * draws applied) — the state every fresh trial starts from. */
    BitPlane initial_bits;
    /** Rank-compressed metastable draw cutoffs: entry r is
     * rawUniformCountBelow(theta) of the r-th metastable cell in cell
     * order, so every re-roll is one integer compare instead of a bias
     * hash + double math. Empty above the plane-cache size cap (the
     * table costs 8 bytes per metastable cell); consumers then derive
     * the cutoff on the fly, bit-identically. */
    std::vector<uint64_t> meta_cutoffs;
    /** Per-word rank of the word's first metastable cell — the index
     * into meta_cutoffs where word w's cutoffs start. */
    std::vector<uint32_t> meta_rank;

    /** Heap footprint, for the cache byte budget. */
    size_t
    footprint() const
    {
        return arena.bytesReserved() +
               meta_cutoffs.capacity() * sizeof(uint64_t) +
               meta_rank.capacity() * sizeof(uint32_t);
    }
};

/** Identity of a derivation: every input the planes depend on. */
struct FingerprintKey
{
    uint64_t chip_seed = 0;
    uint64_t array_id = 0;
    uint64_t size_bytes = 0;
    double metastable_fraction = 0.0;
    double metastable_bias_min = 0.0;
    double metastable_bias_max = 0.0;

    bool operator==(const FingerprintKey &other) const = default;
};

/**
 * Return the cached planes for @p key, building them with @p build on a
 * miss. Thread-safe. The returned pointer stays valid for the caller's
 * lifetime even if the entry is evicted (or was never inserted because
 * it exceeds the byte budget).
 */
std::shared_ptr<const FingerprintPlanes>
acquireFingerprintPlanes(const FingerprintKey &key,
                         const std::function<FingerprintPlanes()> &build);

/** Cache observability (tests, diagnostics). */
struct FingerprintCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /** Builds too large for the budget, served uncached. */
    uint64_t oversize = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
    /** Current byte budget. */
    uint64_t capacity = 0;
};

FingerprintCacheStats fingerprintCacheStats();

/**
 * Override the byte budget (takes effect immediately; evicts down to
 * the new budget).
 */
void setFingerprintCacheCapacity(size_t bytes);

/** Drop every cached entry and reset the counters (tests). The
 * capacity is left as configured. */
void clearFingerprintCache();

} // namespace voltboot

#endif // VOLTBOOT_SRAM_FINGERPRINT_CACHE_HH
