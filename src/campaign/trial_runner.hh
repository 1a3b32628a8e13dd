/**
 * @file
 * Execution of one campaign trial.
 *
 * A trial is hermetic: it builds its own Soc from the TrialSpec, stages
 * the standard victim for the chosen target memory, captures the
 * ground-truth image, mounts the chosen attack, extracts, and scores
 * the dump. Nothing is shared between trials, which is what makes the
 * campaign engine embarrassingly parallel.
 *
 * Determinism contract (see docs/CAMPAIGN.md):
 *  - the simulated silicon of a trial is a pure function of
 *    (campaign seed, chip-seed index) — the same die is reused across
 *    the temperature/off-time/probe axes, as it would be on a real
 *    bench;
 *  - any trial-local randomness (e.g. the planted AES key) derives from
 *    (campaign seed, trial index) via the counter-based hash in
 *    sim/rng.hh, independent of thread count and schedule.
 */

#ifndef VOLTBOOT_CAMPAIGN_TRIAL_RUNNER_HH
#define VOLTBOOT_CAMPAIGN_TRIAL_RUNNER_HH

#include <cstdint>
#include <vector>

#include "campaign/campaign_result.hh"
#include "campaign/sweep_grid.hh"
#include "core/attack.hh"
#include "soc/soc.hh"
#include "soc/soc_config.hh"
#include "sram/memory_image.hh"

namespace voltboot
{

class Rng;

/** Board name to platform config ("pi3"|"pi4"|"imx53"); fatal() else. */
SocConfig socConfigFor(const std::string &board);

/** The silicon seed used by every trial with this chip-seed index. */
uint64_t deriveChipSeed(uint64_t campaign_seed, uint64_t seed_index);

/** The per-trial random stream seed. */
uint64_t deriveTrialSeed(uint64_t campaign_seed, uint64_t trial_index);

/**
 * The bench of one trial: the spec's board built on the die of its
 * chip-seed index, set to its ambient and powered on, plus the Volt
 * Boot probe settings its axes name. runTrial and the CLI's `attack`
 * both start here.
 */
struct TrialBench
{
    TrialBench(const TrialSpec &spec, uint64_t campaign_seed);

    Soc soc;
    AttackConfig attack;
};

/** Victim staging result: what the attacker should recover. */
struct Victim
{
    MemoryImage truth;
    std::vector<uint8_t> planted_key; ///< Empty unless a key was staged.
};

/** Stage the standard victim for @p spec's target memory on a powered
 * @p soc and capture ground truth; @p rng draws a planted key. */
Victim stageVictim(Soc &soc, const TrialSpec &spec, Rng &rng);

/** Extract @p target from core 0 after a Volt Boot power cycle. */
MemoryImage dumpTarget(VoltBootAttack &attack, TargetRam target);

/**
 * Run one trial to completion and score it. Throws (FatalError etc.) on
 * invalid parameter combinations — the campaign engine records a throw
 * as TrialStatus::Error without stopping the sweep.
 */
TrialRecord runTrial(const TrialSpec &spec, uint64_t campaign_seed);

} // namespace voltboot

#endif // VOLTBOOT_CAMPAIGN_TRIAL_RUNNER_HH
