/**
 * @file
 * The unified key-recovery engine: batched scan, prior-guided
 * correction, multi-dump fusion and work-stealing parallelism behind
 * one front door.
 *
 * crypto/ grew two independent recovery tools — KeyFinder (exact-scan,
 * Volt Boot's error-free dumps) and RobustKeyScanner (correction scan,
 * cold boot's decayed dumps) — each with its own sequential sliding
 * loop. This engine generalises both into one pipeline:
 *
 *   1. *Vectorized scan.* Every candidate offset passes the linear
 *      residual early-reject filter (keyfind/schedule_scan, AVX-512
 *      batched with scalar fallback) so the full 11-round expansion
 *      runs only on the ~0.02% of offsets that could possibly be
 *      accepted. The hit list is bit-identical to KeyFinder::scan.
 *
 *   2. *Prior-guided correction.* Surviving the prefilter, windows go
 *      to KeyCorrector::attempt with per-bit flip priors when the
 *      caller supplies them (keyfind/prior derives them from the SRAM
 *      retention model; multi-dump fusion adds disagreement evidence).
 *      With no priors the hits are identical to RobustKeyScanner::scan,
 *      which the tests keep as this stage's reference oracle; nothing
 *      in production calls it.
 *
 *   3. *Parallel orchestration.* The offset space is split into
 *      fixed-size chunks forming a deterministic task list; workers
 *      steal tasks via an atomic cursor and results merge back in task
 *      order, so the output is byte-identical at any --jobs. The
 *      engine itself draws no randomness — determinism needs no seed
 *      plumbing at all.
 *
 * Campaign trials drive the engine through the KeyRecovery attack mode
 * (src/campaign); benches drive it directly (bench/keyfind_throughput,
 * bench/ablation_dram_coldboot).
 */

#ifndef VOLTBOOT_KEYFIND_ENGINE_HH
#define VOLTBOOT_KEYFIND_ENGINE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/key_corrector.hh"
#include "crypto/key_finder.hh"
#include "keyfind/prior.hh"
#include "keyfind/schedule_scan.hh"

namespace voltboot
{
namespace keyfind
{

/** Work tallies of the correction stage. */
struct CorrectionStats
{
    uint64_t attempted = 0; ///< Windows entered into the corrector.
    uint64_t accepted = 0;  ///< Attempts that produced an accepted key.
    uint64_t gave_up_residual = 0;
    uint64_t gave_up_error_floor = 0;
    uint64_t gave_up_max_iterations = 0;
    uint64_t iterations = 0;     ///< Local-search iterations, summed.
    uint64_t distance_evals = 0; ///< Candidate schedules scored, summed.

    void
    operator+=(const CorrectionStats &o)
    {
        attempted += o.attempted;
        accepted += o.accepted;
        gave_up_residual += o.gave_up_residual;
        gave_up_error_floor += o.gave_up_error_floor;
        gave_up_max_iterations += o.gave_up_max_iterations;
        iterations += o.iterations;
        distance_evals += o.distance_evals;
    }
};

/**
 * Engine configuration. Both stages target AES-128 at kKeyScanStride:
 * the scan with KeyFinderConfig's defaults, the correction with
 * KeyCorrectorConfig's defaults behind the kPrefilterThreshold
 * first-round filter.
 */
struct KeyRecoveryConfig
{
    /** Run the correction stage (stage 2) at all. */
    bool run_correction = true;
    /** Use per-bit flip priors when the caller provides them. */
    bool use_priors = true;
    /** Worker threads; 0 picks the hardware concurrency. Results are
     * byte-identical regardless. */
    unsigned jobs = 1;
    /** Candidate offsets per work-stealing task. */
    size_t chunk_offsets = 4096;
};

/** Everything one recovery run produced. */
struct RecoveryReport
{
    /** Exact-scan hits, fewest bit errors first (KeyFinder order). */
    std::vector<KeyCandidate> scan_hits;
    /** Correction hits, fewest residual errors first
     * (RobustKeyScanner order). */
    std::vector<RobustScanHit> corrected_hits;
    ScanStats scan;
    CorrectionStats correction;
    size_t dumps_fused = 1;
    /** Bits that disagreed across the fused dumps (0 for one dump). */
    size_t disagreeing_bits = 0;

    /** The recovered key, preferring the exact scan's best hit and
     * falling back to the best corrected hit. */
    std::optional<std::vector<uint8_t>> bestKey() const;
};

/** The batched, parallel scan + correction pipeline. */
class KeyRecoveryEngine
{
  public:
    explicit KeyRecoveryEngine(KeyRecoveryConfig config = {})
        : config_(config)
    {}

    /** Recover from a single dump, no priors. */
    RecoveryReport recover(const MemoryImage &dump) const;

    /**
     * Recover from @p dumps of the same array (majority-vote fused when
     * more than one), optionally guided by per-bit flip priors
     * @p cell_flip_priors (one entry per bit; see decayFlipPriors).
     * With several dumps the fusion's disagreement evidence is folded
     * into the priors.
     */
    RecoveryReport recover(std::span<const MemoryImage> dumps,
                           std::span<const float> cell_flip_priors = {})
        const;

  private:
    RecoveryReport
    recoverImage(const MemoryImage &image,
                 std::span<const float> flip_likelihood) const;

    KeyRecoveryConfig config_;
};

} // namespace keyfind
} // namespace voltboot

#endif // VOLTBOOT_KEYFIND_ENGINE_HH
