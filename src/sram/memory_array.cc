#include "sram/memory_array.hh"

#include <bit>
#include <cstring>

#include "sim/cell_hash_batch.hh"
#include "sim/logging.hh"
#include "sram/retention_kernel.hh"
#include "telemetry/counters.hh"
#include "trace/trace.hh"

namespace voltboot
{

namespace
{

/** Above this many cells the fingerprint planes skip the metastable
 * cutoff table (8 bytes per metastable cell) and re-rolls recompute
 * the bias theta on the fly instead. Every real SRAM in the modeled
 * SoCs sits below the cap; only DRAM-scale arrays pay the hashing. */
constexpr uint64_t kPlaneCacheMaxBits = uint64_t{1} << 25;

/** Valid-lane mask for a word covering @p n <= 64 cells. */
inline uint64_t
laneMask(unsigned n)
{
    return n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

/**
 * Fresh power-up draws for the metastable cells selected by @p mask
 * (cell indices cell0 + bit) at power-up nonce @p nonce, returned as a
 * word with draw values at the mask positions and zeros elsewhere.
 *
 * Draw keys are hashCombine(cell, nonce) — non-consecutive — so the
 * hashes go through the gathered batch. The per-cell bias threshold is
 * taken from @p lane_cutoffs (the word's slice of the rank-compressed
 * FingerprintPlanes::meta_cutoffs table, one entry per set bit of
 * @p mask in bit order) when memoised, otherwise recomputed on the fly
 * from the bias channel: the double math is identical to
 * metastableTheta()/metastableDraw() (uniformFromRaw of the batched raw
 * hash), so the integer compare against rawUniformCountBelow(theta) is
 * bit-exact with the reference draw either way, and DRAM-scale arrays
 * carry no per-metastable-cell storage.
 */
uint64_t
rerolledDraws(const RetentionModel &model, uint64_t cell0, uint64_t mask,
              uint64_t nonce, const uint64_t *lane_cutoffs = nullptr)
{
    const CellRng &rng = model.rng();
    uint64_t cells[64], keys[64], draws[64];
    unsigned n = 0;
    for (uint64_t m = mask; m; m &= m - 1) {
        const uint64_t cell = cell0 + std::countr_zero(m);
        cells[n] = cell;
        keys[n] = hashCombine(cell, nonce);
        ++n;
    }
    cellBitsBatchIndexed(rng, keys, RetentionModel::ChannelMetastableDraw,
                         n, draws);
    uint64_t out = 0;
    uint64_t m = mask;
    if (lane_cutoffs) {
        for (unsigned i = 0; i < n; ++i, m &= m - 1) {
            const int b = std::countr_zero(m);
            const uint64_t value = (draws[i] >> 11) < lane_cutoffs[i];
            out |= value << b;
        }
        return out;
    }
    const RetentionConfig &cfg = model.config();
    uint64_t biases[64];
    cellBitsBatchIndexed(rng, cells, RetentionModel::ChannelMetastableBias,
                         n, biases);
    const double bias_lo = cfg.metastable_bias_min;
    const double bias_range = cfg.metastable_bias_max - bias_lo;
    for (unsigned i = 0; i < n; ++i, m &= m - 1) {
        const int b = std::countr_zero(m);
        const double theta =
            bias_lo +
            CellRng::uniformFromRaw(biases[i] >> 11) * bias_range;
        const uint64_t value =
            (draws[i] >> 11) < CellRng::rawUniformCountBelow(theta);
        out |= value << b;
    }
    return out;
}

/**
 * Re-roll every metastable cell of @p bits in place at power-up nonce
 * @p nonce. Only words with metastable bits are touched. @p cutoffs /
 * @p rank are the planes' rank-compressed cutoff table (may be null);
 * because every metastable bit of a word re-rolls here, word w's lanes
 * are exactly cutoffs[rank[w]...].
 */
void
rerollMetastable(BitPlane &bits, const BitPlane &metastable,
                 const RetentionModel &model, uint64_t nonce,
                 const uint64_t *cutoffs = nullptr,
                 const uint32_t *rank = nullptr)
{
    const size_t nwords = bits.sizeWords();
    uint64_t *words = bits.words();
    const uint64_t *ms = metastable.words();
    for (size_t w = 0; w < nwords; ++w) {
        const uint64_t m = ms[w];
        if (!m)
            continue;
        words[w] = (words[w] & ~m) |
                   rerolledDraws(model, w * 64, m, nonce,
                                 cutoffs ? cutoffs + rank[w] : nullptr);
    }
}

} // namespace

const char *
toString(PowerState state)
{
    switch (state) {
      case PowerState::Powered:
        return "Powered";
      case PowerState::Retained:
        return "Retained";
      case PowerState::Off:
        return "Off";
    }
    return "?";
}

MemoryArray::MemoryArray(std::string name, size_t size_bytes,
                         const RetentionConfig &config, uint64_t chip_seed,
                         uint64_t array_id)
    : name_(std::move(name)), size_bytes_(size_bytes),
      model_(config, CellRng(chip_seed, array_id)),
      chip_seed_(chip_seed), array_id_(array_id)
{
    if (size_bytes == 0)
        fatal("MemoryArray ", name_, ": size must be nonzero");
    // Both per-array planes come from one tight arena block.
    const uint64_t nbits = sizeBits();
    arena_.reserve(2 * PlaneArena::alignWords(BitPlane::wordsFor(nbits)));
    bits_ = arena_.allocBits(nbits);
    loss_ = arena_.allocBits(nbits);
}

void
MemoryArray::requirePowered(const char *op) const
{
    if (state_ != PowerState::Powered)
        panic("MemoryArray ", name_, ": ", op, " while ",
              toString(state_));
}

template <typename SurvivesFn>
void
MemoryArray::applyLoss(SurvivesFn survives)
{
    // Invocation-granularity counts: one add per pass, never per cell.
    telemetry::add(telemetry::Counter::KernelReference);
    telemetry::add(telemetry::Counter::CellsProcessed, sizeBits());
    const uint64_t nonce = power_up_count_;
    uint64_t lost = 0;
    for (size_t byte = 0; byte < size_bytes_; ++byte) {
        const uint8_t v = bits_.byteAt(byte);
        uint8_t out = 0, loss8 = 0;
        for (int bit = 0; bit < 8; ++bit) {
            const uint64_t cell = byte * 8 + bit;
            const CellParams p = model_.cellParams(cell);
            bool value;
            if (survives(p)) {
                value = (v >> bit) & 1;
            } else {
                value = model_.powerUpState(cell, p, nonce);
                loss8 |= 1u << bit;
                ++lost;
            }
            out |= static_cast<uint8_t>(value) << bit;
        }
        bits_.setByte(byte, out);
        loss_.setByte(byte, loss8);
    }
    last_cells_lost_ = lost;
}

void
MemoryArray::ensureFingerprint() const
{
    if (planes_)
        return;
    FingerprintKey key;
    key.chip_seed = chip_seed_;
    key.array_id = array_id_;
    key.size_bytes = size_bytes_;
    key.metastable_fraction = model_.config().metastable_fraction;
    key.metastable_bias_min = model_.config().metastable_bias_min;
    key.metastable_bias_max = model_.config().metastable_bias_max;
    planes_ = acquireFingerprintPlanes(
        key, [this] { return buildFingerprintPlanes(); });
}

FingerprintPlanes
MemoryArray::buildFingerprintPlanes() const
{
    FingerprintPlanes planes;
    const uint64_t nbits = sizeBits();
    planes.arena.reserve(
        3 * PlaneArena::alignWords(BitPlane::wordsFor(nbits)));
    planes.fingerprint = planes.arena.allocBits(nbits);
    planes.metastable_mask = planes.arena.allocBits(nbits);
    planes.initial_bits = planes.arena.allocBits(nbits);

    // Only the power-up and stability channels matter here; deriving
    // them directly (and turning the stability compare into an integer
    // threshold on the raw hash — exact, see CellRng::
    // rawUniformCountBelow) skips the two inverse-normal-CDF
    // evaluations cellParams() would burn per cell. The stable/
    // metastable split is hoisted once into these planes; power-up
    // re-rolls later touch only words with metastable bits. Each word
    // of either plane is one mask-derivation call (eight AVX-512
    // compares on wide hosts, see sim/cell_hash_batch).
    const CellRng &rng = model_.rng();
    const uint64_t meta_min_raw = CellRng::rawUniformCountBelow(
        model_.config().metastable_fraction);
    uint64_t *fp = planes.fingerprint.words();
    uint64_t *ms = planes.metastable_mask.words();
    const size_t nwords = planes.fingerprint.sizeWords();
    for (size_t w = 0; w < nwords; ++w) {
        const uint64_t cell0 = w * 64;
        const unsigned n =
            static_cast<unsigned>(std::min<uint64_t>(64, nbits - cell0));
        fp[w] = cellLsbMaskBatch(rng, cell0,
                                 RetentionModel::ChannelPowerUp, n);
        // Metastable iff the raw stability hash is below the fraction
        // threshold: complement of the >= mask, valid lanes only.
        uint64_t in_band;
        const uint64_t ge = cellBandMaskBatch(
            rng, cell0, RetentionModel::ChannelStability, n,
            meta_min_raw, meta_min_raw, &in_band);
        ms[w] = ~ge & laneMask(n);
    }
    // Rank-compressed bias cutoff table: the bias theta is
    // wake-independent silicon, so its rawUniformCountBelow() image is
    // derived once per die and every later re-roll becomes one integer
    // compare. Skipped above the plane-cache cap — the table costs
    // 8 bytes per metastable cell, which DRAM-scale planes do not pay.
    if (nbits <= kPlaneCacheMaxBits) {
        const double bias_lo = model_.config().metastable_bias_min;
        const double bias_range =
            model_.config().metastable_bias_max - bias_lo;
        planes.meta_rank.resize(nwords);
        planes.meta_cutoffs.reserve(
            static_cast<size_t>(planes.metastable_mask.popcount()));
        uint64_t biases[64];
        for (size_t w = 0; w < nwords; ++w) {
            planes.meta_rank[w] =
                static_cast<uint32_t>(planes.meta_cutoffs.size());
            if (!ms[w])
                continue;
            const unsigned n = static_cast<unsigned>(
                std::min<uint64_t>(64, nbits - w * 64));
            cellBitsBatch(rng, w * 64,
                          RetentionModel::ChannelMetastableBias, n,
                          biases);
            for (uint64_t m = ms[w]; m; m &= m - 1) {
                const int b = std::countr_zero(m);
                const double theta =
                    bias_lo +
                    CellRng::uniformFromRaw(biases[b] >> 11) * bias_range;
                planes.meta_cutoffs.push_back(
                    CellRng::rawUniformCountBelow(theta));
            }
        }
    }
    // First-power-on contents: the fingerprint with every metastable
    // cell at its nonce-1 draw. Trials all start from this exact state,
    // so sharing it turns their first power-up into a memcpy.
    planes.initial_bits.copyFrom(planes.fingerprint);
    rerollMetastable(planes.initial_bits, planes.metastable_mask, model_,
                     /*nonce=*/1,
                     planes.meta_cutoffs.empty()
                         ? nullptr
                         : planes.meta_cutoffs.data(),
                     planes.meta_rank.data());
    return planes;
}

template <typename ScalarDiesFn>
void
MemoryArray::applyLossFast(uint64_t channel,
                           RetentionModel::ThresholdBand band,
                           bool loss_at_or_above, ScalarDiesFn scalarDies)
{
    telemetry::add(cellHashBatchAccelerated()
                       ? telemetry::Counter::KernelAvx512
                       : telemetry::Counter::KernelScalar);
    telemetry::add(telemetry::Counter::CellsProcessed, sizeBits());
    ensureFingerprint();
    const uint64_t nonce = power_up_count_;
    const CellRng &rng = model_.rng();
    const uint64_t *cut_table =
        planes_->meta_cutoffs.empty() ? nullptr
                                      : planes_->meta_cutoffs.data();
    const uint32_t *cut_rank = planes_->meta_rank.data();
    const uint64_t nbits = sizeBits();
    const size_t nwords = bits_.sizeWords();
    uint64_t *words = bits_.words();
    uint64_t *loss_words = loss_.words();
    const uint64_t *fp = planes_->fingerprint.words();
    const uint64_t *ms = planes_->metastable_mask.words();
    uint64_t lost = 0;
    // Lost metastable cells re-roll through the gathered hash batch.
    // At typical loss rates only a few bits per word re-roll, so
    // word-at-a-time batches would run at 1-4 of 8 lanes; accumulating
    // the re-roll set over a 16-word chunk keeps the batch full and
    // amortises the per-call cost ~16x.
    constexpr size_t kChunk = 16;
    uint64_t meta_masks[kChunk];
    uint64_t rcells[kChunk * 64], rkeys[kChunk * 64];
    uint64_t rdraws[kChunk * 64], rcuts[kChunk * 64];
    const double bias_lo = model_.config().metastable_bias_min;
    const double bias_range =
        model_.config().metastable_bias_max - bias_lo;
    for (size_t w0 = 0; w0 < nwords; w0 += kChunk) {
        const size_t wend = std::min(w0 + kChunk, nwords);
        unsigned lanes = 0;
        for (size_t w = w0; w < wend; ++w) {
            const uint64_t cell0 = w * 64;
            const unsigned n = static_cast<unsigned>(
                std::min<uint64_t>(64, nbits - cell0));
            // The whole 64-cell word classifies in one mask derivation:
            // one integer compare per cell settles everything outside
            // the guard band, and the expected number of in-band cells
            // per transition is ~band_width / 2^53 * size_bits ~ 1e-3,
            // so the scalar fallback never shows up in profiles.
            uint64_t in_band;
            const uint64_t ge = cellBandMaskBatch(
                rng, cell0, channel, n, band.lo, band.hi, &in_band);
            uint64_t loss =
                loss_at_or_above ? ge : (~ge & laneMask(n));
            for (uint64_t gb = in_band; gb; gb &= gb - 1) {
                const int b = std::countr_zero(gb);
                const uint64_t m = uint64_t{1} << b;
                loss =
                    (loss & ~m) |
                    (static_cast<uint64_t>(scalarDies(cell0 + b)) << b);
            }
            loss_words[w] = loss;
            meta_masks[w - w0] = 0;
            if (!loss)
                continue; // whole word survives untouched
            lost += std::popcount(loss);
            // Lost stable cells take their fingerprint bit; lost
            // metastable cells queue for the chunk's re-roll batch.
            words[w] = (words[w] & ~loss) | (fp[w] & loss & ~ms[w]);
            const uint64_t meta_lost = loss & ms[w];
            meta_masks[w - w0] = meta_lost;
            for (uint64_t m = meta_lost; m; m &= m - 1) {
                const int b = std::countr_zero(m);
                const uint64_t cell = cell0 + b;
                rcells[lanes] = cell;
                rkeys[lanes] = hashCombine(cell, nonce);
                if (cut_table) {
                    // Rank of this cell's cutoff: the word's base rank
                    // plus the metastable cells before it in the word.
                    rcuts[lanes] = cut_table
                        [cut_rank[w] +
                         std::popcount(ms[w] & ((uint64_t{1} << b) - 1))];
                }
                ++lanes;
            }
        }
        if (!lanes)
            continue;
        cellBitsBatchIndexed(rng, rkeys,
                             RetentionModel::ChannelMetastableDraw,
                             lanes, rdraws);
        if (!cut_table) {
            // Same double math as metastableTheta(): bit-exact with the
            // reference draw (see rerolledDraws).
            cellBitsBatchIndexed(rng, rcells,
                                 RetentionModel::ChannelMetastableBias,
                                 lanes, rcuts);
            for (unsigned i = 0; i < lanes; ++i) {
                const double theta =
                    bias_lo +
                    CellRng::uniformFromRaw(rcuts[i] >> 11) * bias_range;
                rcuts[i] = CellRng::rawUniformCountBelow(theta);
            }
        }
        unsigned lane = 0;
        for (size_t w = w0; w < wend; ++w) {
            uint64_t add = 0;
            for (uint64_t m = meta_masks[w - w0]; m; m &= m - 1, ++lane) {
                const uint64_t value = (rdraws[lane] >> 11) < rcuts[lane];
                add |= value << std::countr_zero(m);
            }
            words[w] |= add;
        }
    }
    last_cells_lost_ = lost;
    telemetry::drainHashStats();
}

void
MemoryArray::traceTransition(PowerState from, PowerState to, Volt v) const
{
    trace::instant("sram", "sram_state",
                   {{"array", name_},
                    {"from", toString(from)},
                    {"to", toString(to)},
                    {"supply_v", v.volts()}});
}

void
MemoryArray::resolveAllToPowerUp()
{
    last_cells_lost_ = sizeBits();
    loss_.setAll();
    if (retentionKernel() == RetentionKernel::Fast) {
        resolveAllToPowerUpFast();
        return;
    }
    telemetry::add(telemetry::Counter::KernelReference);
    telemetry::add(telemetry::Counter::CellsProcessed, sizeBits());
    ensureFingerprint();
    const uint64_t nonce = power_up_count_;
    bits_.copyFrom(planes_->fingerprint);
    // Metastable cells re-roll on every power-up.
    for (size_t byte = 0; byte < size_bytes_; ++byte) {
        const uint8_t msb = planes_->metastable_mask.byteAt(byte);
        if (!msb)
            continue;
        uint8_t v = bits_.byteAt(byte);
        for (int bit = 0; bit < 8; ++bit) {
            if (!((msb >> bit) & 1))
                continue;
            const uint64_t cell = byte * 8 + bit;
            const bool value = model_.metastableDraw(cell, nonce);
            v = (v & ~(1u << bit)) | (static_cast<uint8_t>(value) << bit);
        }
        bits_.setByte(byte, v);
    }
}

void
MemoryArray::resolveAllToPowerUpFast()
{
    telemetry::add(cellHashBatchAccelerated()
                       ? telemetry::Counter::KernelAvx512
                       : telemetry::Counter::KernelScalar);
    telemetry::add(telemetry::Counter::CellsProcessed, sizeBits());
    ensureFingerprint();
    const uint64_t nonce = power_up_count_;
    if (nonce == 1) {
        // First ever power-on: the nonce-1 resolve is precomputed in
        // the shared planes.
        bits_.copyFrom(planes_->initial_bits);
        return;
    }
    // Metastable cells re-roll on every power-up; stable cells are
    // fully resolved by the fingerprint copy, so only words with
    // metastable bits are touched.
    bits_.copyFrom(planes_->fingerprint);
    rerollMetastable(bits_, planes_->metastable_mask, model_, nonce,
                     planes_->meta_cutoffs.empty()
                         ? nullptr
                         : planes_->meta_cutoffs.data(),
                     planes_->meta_rank.data());
    telemetry::drainHashStats();
}

void
MemoryArray::powerUp(Volt v, Seconds off_time, Temperature temp)
{
    if (state_ == PowerState::Powered)
        panic("MemoryArray ", name_, ": powerUp while already Powered");

    ++power_up_count_;
    if (state_ == PowerState::Retained) {
        // Held through the power cycle: nothing decays, but cells whose
        // DRV exceeds the retention voltage were already lost at
        // retainAt() time. Just resume.
        state_ = PowerState::Powered;
        supply_ = v;
        if (trace::enabled())
            traceTransition(PowerState::Retained, PowerState::Powered, v);
        return;
    }

    last_cells_lost_ = 0;
    if (!ever_powered_) {
        // First ever power-on: every cell resolves to its power-up state.
        resolveAllToPowerUp();
        ever_powered_ = true;
    } else {
        // Array-level fast paths bound the per-cell work: when the
        // expected survival is essentially 0 or 1 no individual cell can
        // deviate from it beyond the lognormal's far tail.
        const double p_survive = model_.expectedSurvival(off_time, temp);
        if (p_survive < 1e-12) {
            resolveAllToPowerUp();
        } else if (p_survive <= 1.0 - 1e-12) {
            if (retentionKernel() == RetentionKernel::Fast) {
                // Survive iff the raw retention hash is at/above the
                // band, i.e. lose iff below it.
                applyLossFast(
                    RetentionModel::ChannelRetention,
                    model_.decaySurvivalBand(off_time, temp),
                    /*loss_at_or_above=*/false, [&](uint64_t cell) {
                        return !model_.survivesUnpowered(
                            model_.cellParams(cell), off_time, temp);
                    });
            } else {
                applyLoss([&](const CellParams &p) {
                    return model_.survivesUnpowered(p, off_time, temp);
                });
            }
        } else {
            // Everything survives; contents untouched.
            loss_.clear();
        }
    }
    state_ = PowerState::Powered;
    supply_ = v;
    if (trace::enabled()) {
        traceTransition(PowerState::Off, PowerState::Powered, v);
        trace::instant("sram", "sram_decay",
                       {{"array", name_},
                        {"off_s", off_time.seconds()},
                        {"temp_c", temp.celsiusDegrees()},
                        {"cells_flipped", last_cells_lost_},
                        {"size_bits", sizeBits()}});
    }
}

void
MemoryArray::powerDown()
{
    if (state_ == PowerState::Off)
        return;
    const PowerState from = state_;
    state_ = PowerState::Off;
    supply_ = Volt(0.0);
    if (trace::enabled())
        traceTransition(from, PowerState::Off, Volt(0.0));
}

void
MemoryArray::retainAt(Volt v)
{
    if (state_ == PowerState::Off)
        panic("MemoryArray ", name_,
              ": cannot retain an already-unpowered array");
    // Cells that need more than the retention voltage lose state now.
    droopTo(v);
    const PowerState from = state_;
    state_ = PowerState::Retained;
    supply_ = v;
    ever_powered_ = true;
    if (trace::enabled())
        traceTransition(from, PowerState::Retained, v);
}

void
MemoryArray::droopTo(Volt v_min)
{
    if (state_ == PowerState::Off)
        panic("MemoryArray ", name_, ": droop while Off");
    last_cells_lost_ = 0;
    if (v_min >= model_.config().drv_max) {
        // Above every possible DRV: nothing can flip.
        loss_.clear();
    } else if (v_min <= model_.config().drv_min) {
        resolveAllToPowerUp();
    } else if (retentionKernel() == RetentionKernel::Fast) {
        // A cell dies iff its raw DRV hash is at/above the band
        // (higher hash => higher DRV).
        applyLossFast(RetentionModel::ChannelDrv,
                      model_.droopLossBand(v_min),
                      /*loss_at_or_above=*/true, [&](uint64_t cell) {
                          return !model_.survivesAtVoltage(
                              model_.cellParams(cell), v_min);
                      });
    } else {
        applyLoss([&](const CellParams &p) {
            return model_.survivesAtVoltage(p, v_min);
        });
    }
    if (trace::enabled()) {
        trace::instant("sram", "sram_droop",
                       {{"array", name_},
                        {"v_min", v_min.volts()},
                        {"cells_flipped", last_cells_lost_},
                        {"size_bits", sizeBits()}});
    }
}

void
MemoryArray::resumePowered(Volt v)
{
    if (state_ != PowerState::Retained)
        panic("MemoryArray ", name_, ": resumePowered while ",
              toString(state_));
    state_ = PowerState::Powered;
    supply_ = v;
    if (trace::enabled())
        traceTransition(PowerState::Retained, PowerState::Powered, v);
}

uint8_t
MemoryArray::readByte(size_t addr) const
{
    requirePowered("readByte");
    if (addr >= size_bytes_)
        panic("MemoryArray ", name_, ": read out of range: ", addr);
    return bits_.byteAt(addr);
}

void
MemoryArray::writeByte(size_t addr, uint8_t value)
{
    requirePowered("writeByte");
    if (addr >= size_bytes_)
        panic("MemoryArray ", name_, ": write out of range: ", addr);
    bits_.setByte(addr, value);
}

void
MemoryArray::read(size_t addr, std::span<uint8_t> out) const
{
    requirePowered("read");
    if (addr + out.size() > size_bytes_)
        panic("MemoryArray ", name_, ": block read out of range");
    bits_.readBytes(addr, out.data(), out.size());
}

void
MemoryArray::write(size_t addr, std::span<const uint8_t> data)
{
    requirePowered("write");
    if (addr + data.size() > size_bytes_)
        panic("MemoryArray ", name_, ": block write out of range");
    bits_.writeBytes(addr, data.data(), data.size());
}

uint64_t
MemoryArray::readWord64(size_t addr) const
{
    requirePowered("readWord64");
    if (addr + 8 > size_bytes_)
        panic("MemoryArray ", name_, ": word read out of range: ", addr);
    uint64_t v;
    bits_.readBytes(addr, reinterpret_cast<uint8_t *>(&v), 8);
    return v;
}

void
MemoryArray::writeWord64(size_t addr, uint64_t value)
{
    requirePowered("writeWord64");
    if (addr + 8 > size_bytes_)
        panic("MemoryArray ", name_, ": word write out of range: ", addr);
    bits_.writeBytes(addr, reinterpret_cast<const uint8_t *>(&value), 8);
}

std::vector<uint8_t>
MemoryArray::snapshot() const
{
    if (state_ == PowerState::Off)
        panic("MemoryArray ", name_,
              ": snapshot of an unpowered array is physically meaningless");
    return bits_.toBytes();
}

void
MemoryArray::fill(uint8_t value)
{
    requirePowered("fill");
    bits_.fillBytes(value);
}

} // namespace voltboot
