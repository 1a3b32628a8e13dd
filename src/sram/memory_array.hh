/**
 * @file
 * Byte-addressable simulated memory arrays with retention physics.
 *
 * A MemoryArray owns the stored bits plus a power-state machine:
 *
 *   Powered  -- normal operation at a supply voltage;
 *   Retained -- externally held at some voltage (the Volt Boot probe) while
 *               the rest of the system power-cycles;
 *   Off      -- unpowered; state decays with time and temperature.
 *
 * Transitions apply the RetentionModel per cell. Cells that lose state
 * resolve to their power-up fingerprint (PUF-like, stable per chip seed,
 * with a metastable fraction that re-rolls every power-up).
 *
 * Internally the array is a bit-sliced structure-of-arrays: the stored
 * bits, the per-event loss mask, and the shared power-up planes
 * (fingerprint, metastable mask) are contiguous uint64_t word planes
 * carved out of PlaneArenas (see sim/plane_arena.hh), so the fast
 * kernels advance 64 cells per word op — or 512 per AVX-512 register
 * via sim/cell_hash_batch — and DRAM-scale arrays (hundreds of MB of
 * modeled cells) stay cache- and bandwidth-friendly. The byte API
 * below (readByte/write/snapshot/...) is a thin view over the packed
 * plane; on little-endian hosts block transfers are memcpys.
 */

#ifndef VOLTBOOT_SRAM_MEMORY_ARRAY_HH
#define VOLTBOOT_SRAM_MEMORY_ARRAY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/plane_arena.hh"
#include "sim/rng.hh"
#include "sim/units.hh"
#include "sram/fingerprint_cache.hh"
#include "sram/retention_model.hh"

namespace voltboot
{

/** Power state of a memory array. */
enum class PowerState
{
    Powered,  ///< Supplied by its domain at nominal voltage.
    Retained, ///< Held by an external source (e.g., Volt Boot probe).
    Off,      ///< Unpowered; contents decay.
};

/** Convert a PowerState to a human-readable name. */
const char *toString(PowerState state);

/**
 * A byte-addressable array of simulated 6T-SRAM (or DRAM) cells.
 *
 * The array is always constructed Off with undefined content; the first
 * powerUp() fills it with the chip's power-up fingerprint, mirroring real
 * silicon where "SRAMs boot up into random states where approximately 50%
 * of the bits are 1s".
 */
class MemoryArray
{
  public:
    /**
     * @param name        Human-readable identifier (e.g. "core0.L1D.data").
     * @param size_bytes  Capacity in bytes.
     * @param config      Cell technology parameters.
     * @param chip_seed   Identifies the simulated die; the same seed always
     *                    yields identical silicon.
     * @param array_id    Distinguishes arrays within one chip.
     */
    MemoryArray(std::string name, size_t size_bytes,
                const RetentionConfig &config, uint64_t chip_seed,
                uint64_t array_id);

    const std::string &name() const { return name_; }
    size_t sizeBytes() const { return size_bytes_; }
    size_t sizeBits() const { return size_bytes_ * 8; }
    PowerState powerState() const { return state_; }
    Volt supplyVoltage() const { return supply_; }
    const RetentionModel &model() const { return model_; }

    /**
     * Power the array on at voltage @p v after having been Off for
     * @p off_time at temperature @p temp. Cells whose retention time
     * exceeds off_time keep their bits; the rest resolve to power-up
     * state. The very first power-up initialises every cell.
     */
    void powerUp(Volt v, Seconds off_time, Temperature temp);

    /** Convenience: first power-on (everything resolves to fingerprint). */
    void
    powerUp(Volt v)
    {
        powerUp(v, Seconds(1e9), Temperature::celsius(25.0));
    }

    /** Remove power. Contents will decay until the next powerUp(). */
    void powerDown();

    /**
     * Enter the Retained state at voltage @p v (a probe or an always-on
     * rail holds the array through a power cycle). Cells whose DRV exceeds
     * @p v lose state immediately.
     */
    void retainAt(Volt v);

    /**
     * Apply a transient voltage droop of the supply down to @p v_min (for
     * a few microseconds, long enough for marginal cells to flip). Valid
     * in Powered or Retained states.
     */
    void droopTo(Volt v_min);

    /** Resume normal powered operation from the Retained state. */
    void resumePowered(Volt v);

    /** Read/write bytes. Asserts the array is Powered. */
    uint8_t readByte(size_t addr) const;
    void writeByte(size_t addr, uint8_t value);
    void read(size_t addr, std::span<uint8_t> out) const;
    void write(size_t addr, std::span<const uint8_t> data);
    uint64_t readWord64(size_t addr) const;
    void writeWord64(size_t addr, uint64_t value);

    /**
     * Raw snapshot of the stored bits regardless of power state —
     * this is what a debug port (RAMINDEX / JTAG) sees after reboot.
     * Exported word-at-a-time from the packed plane. Reading an Off
     * array is a modelling error (real SRAM cannot be read without
     * power) and panics.
     */
    std::vector<uint8_t> snapshot() const;

    /** Fill with a repeated byte pattern (test/bench helper). One word
     * store per 8 bytes. */
    void fill(uint8_t value);

    /** Cell parameters for bit index @p bit (diagnostics/tests). */
    CellParams cellParams(uint64_t bit) const { return model_.cellParams(bit); }

    /** Number of power-up events so far (metastable-cell nonce). */
    uint64_t powerUpCount() const { return power_up_count_; }

    /** Cells resolved to their power-up state by the most recent loss
     * event (decay past retention time, droop below DRV, or a full
     * power-up resolution). Diagnostics / trace reporting. */
    uint64_t lastCellsLost() const { return last_cells_lost_; }

    /**
     * The loss mask of the most recent loss event, exported as packed
     * bytes (bit i == cell i lost). popcount equals lastCellsLost().
     * Diagnostics/tests; identical across kernels.
     */
    std::vector<uint8_t> lastLossMask() const { return loss_.toBytes(); }

  private:
    void requirePowered(const char *op) const;
    /** Reference kernel: resolve every cell that fails @p survives to
     * its power-up state, evaluating the full per-cell parameter
     * derivation (splitmix chains + inverse normal CDF) per cell. */
    template <typename SurvivesFn>
    void applyLoss(SurvivesFn survives);
    /**
     * Fast kernel: same result as applyLoss, but survival is one
     * integer compare of the cell's raw uniform hash on @p channel
     * against the threshold band (a cell at/above the band dies iff
     * @p loss_at_or_above; the rare hash inside the band is resolved by
     * @p scalarDies, the exact per-cell predicate). The loss bitmask is
     * derived 64 cells at a time straight into the loss word plane
     * (AVX-512 compare-to-mask where available, see
     * sim/cell_hash_batch) and applied with word ops against the
     * fingerprint/metastable planes — no per-cell scatter anywhere.
     */
    template <typename ScalarDiesFn>
    void applyLossFast(uint64_t channel,
                       RetentionModel::ThresholdBand band,
                       bool loss_at_or_above, ScalarDiesFn scalarDies);
    /** Every cell resolves to its power-up state. */
    void resolveAllToPowerUp();
    /** Word-masked resolveAllToPowerUp: copy the fingerprint plane and
     * re-roll metastable cells via batched draws, touching only words
     * with metastable bits. */
    void resolveAllToPowerUpFast();
    /** Lazily acquire the die's power-up planes (fingerprint,
     * metastable mask, first-power-on contents) from the process-wide
     * cache, deriving them on a miss. */
    void ensureFingerprint() const;
    /** Derive this die's power-up planes from scratch. */
    FingerprintPlanes buildFingerprintPlanes() const;

    std::string name_;
    /** Backing storage for the array's own word planes. */
    PlaneArena arena_;
    /** Stored bits, one bit per cell (cell i == bit i). */
    BitPlane bits_;
    /** Loss mask of the most recent loss event (same indexing). */
    BitPlane loss_;
    size_t size_bytes_ = 0;
    RetentionModel model_;
    /** Emit a "sram_state" trace event for the @p from -> @p to edge. */
    void traceTransition(PowerState from, PowerState to, Volt v) const;

    PowerState state_ = PowerState::Off;
    Volt supply_{0.0};
    uint64_t power_up_count_ = 0;
    uint64_t last_cells_lost_ = 0;
    bool ever_powered_ = false;
    /** Die identity, the fingerprint-cache key. */
    uint64_t chip_seed_ = 0;
    uint64_t array_id_ = 0;
    /** Shared immutable power-up planes (see FingerprintPlanes). */
    mutable std::shared_ptr<const FingerprintPlanes> planes_;
};

/** An SRAM array with 6T-cell defaults. */
class SramArray : public MemoryArray
{
  public:
    SramArray(std::string name, size_t size_bytes, uint64_t chip_seed,
              uint64_t array_id,
              const RetentionConfig &config = RetentionConfig::sram6t())
        : MemoryArray(std::move(name), size_bytes, config, chip_seed,
                      array_id)
    {}
};

/** A DRAM array: same framework, capacitor-grade retention constants. */
class DramArray : public MemoryArray
{
  public:
    DramArray(std::string name, size_t size_bytes, uint64_t chip_seed,
              uint64_t array_id,
              const RetentionConfig &config = RetentionConfig::dram())
        : MemoryArray(std::move(name), size_bytes, config, chip_seed,
                      array_id)
    {}
};

} // namespace voltboot

#endif // VOLTBOOT_SRAM_MEMORY_ARRAY_HH
