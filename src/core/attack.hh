/**
 * @file
 * The Volt Boot attack and its cold-boot baseline.
 *
 * VoltBootAttack walks the four steps of Section 6.1:
 *   1. identify the target power domain and its board test pad,
 *   2. attach a matched external voltage probe there,
 *   3. power-cycle the board and boot attacker software (USB media on
 *      the Raspberry Pis; the i.MX535 boots from internal ROM and is
 *      dumped over JTAG),
 *   4. extract and analyse the retained SRAM.
 *
 * Cache extraction runs a real vb64 extraction program on the victim
 * cores: it leaves the caches disabled, loops RAMINDEX reads with the
 * required dsb sy; isb barrier pairs, and stores the words to DRAM,
 * exactly mirroring the paper's CP15 procedure.
 *
 * ColdBootAttack is the control experiment (Section 3): same steps but
 * no probe — only low ambient temperature and the cells' intrinsic
 * retention stand between the data and oblivion.
 *
 * Observability: when this thread has a trace sink installed
 * (trace::Scope), every step runs under a "core"-category span —
 * attack.steps12_probe, attack.step3_power_cycle, attack.step4_extract,
 * coldboot.power_cycle — stamped in simulation time with the step's
 * parameters and outcome as args, interleaved with the power/sram/soc
 * events the step provokes. Each step's *wall-clock* cost is added to
 * the step's lock-free telemetry slot (core/step_scope.hh), never to
 * the deterministic trace. Schema: docs/TRACING.md.
 */

#ifndef VOLTBOOT_CORE_ATTACK_HH
#define VOLTBOOT_CORE_ATTACK_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hh"
#include "fault/fault_model.hh"
#include "fault/glitch.hh"
#include "power/transient.hh"
#include "soc/soc.hh"
#include "sram/memory_image.hh"

namespace voltboot
{

/** Attacker equipment and timing. */
struct AttackConfig
{
    /** Bench supply parameters; voltage is matched to the pad at attach
     * time, so only current capability and impedance matter here. */
    Amp probe_max_current{3.0};
    Ohm probe_impedance{0.05};
    /** How long the board stays disconnected from main power. */
    Seconds off_time = Seconds::milliseconds(500);
};

/** Which L1 RAM to extract. */
enum class L1Ram
{
    DData,
    IData,
    DTag,
    ITag,
};

/** Outcome of an attack run. */
struct AttackOutcome
{
    bool probe_attached = false;
    bool rebooted_into_attacker_code = false;
    std::optional<ProbeTransient> transient;
    std::string failure_reason;
};

/** Orchestrates Volt Boot against a Soc. */
class VoltBootAttack
{
  public:
    VoltBootAttack(Soc &soc, AttackConfig config = {});

    /** Steps 1-2: find the pad (from the platform database, as an
     * attacker would from PCB inspection) and attach a matched probe. */
    AttackOutcome attachProbe();

    /** Attach at an explicit pad (to demonstrate wrong-domain failures). */
    AttackOutcome attachProbeAt(const std::string &pad_label);

    /** Step 3: cut main power, wait, reboot. For pad-booted platforms
     * this boots attacker media; ROM-boot platforms (i.MX) come up by
     * themselves. Returns false if authenticated boot blocks us. */
    AttackOutcome powerCycleAndBoot();

    /** Convenience: attachProbe + powerCycleAndBoot. */
    AttackOutcome execute();

    /** @name Step 4: extraction */
    ///@{
    /** Dump one way of an L1 RAM on @p core by running the extraction
     * program there (RAMINDEX + barriers, caches disabled). */
    MemoryImage dumpL1Way(size_t core, L1Ram ram, size_t way);
    /** All ways, way-major (matches Cache::dumpAll layout). */
    MemoryImage dumpL1(size_t core, L1Ram ram);
    /** Dump the vector register file of @p core via a vread/str program. */
    MemoryImage dumpVectorRegisters(size_t core);
    /** Dump the iRAM over JTAG (i.MX path). */
    MemoryImage dumpIram();
    /** Dump @p core's DTLB entry RAM via RAMINDEX (Section 2.1's wider
     * internal-RAM surface). */
    MemoryImage dumpDtlb(size_t core);
    /** Dump @p core's BTB entry RAM via RAMINDEX. */
    MemoryImage dumpBtb(size_t core);
    ///@}

    /** Human-readable narration of the steps taken (Figure 5 bench). */
    const std::vector<std::string> &trace() const { return trace_; }

    /** Step 3b on a freshly repowered board: open a JTAG session on
     * ROM-boot platforms, otherwise boot attacker media (USB MSD).
     * Returns false if authenticated boot rejects the image. Shared
     * with the cold boot control, whose power cycle runs outside this
     * object. */
    bool bootAttackerCode();

  private:
    /** DRAM address the extraction programs dump into. */
    uint64_t dumpBase() const;
    /** Step 4's program-driven dump: assemble @p source at the
     * extractor address, run it on @p core for at most @p max_steps,
     * and read @p bytes back from dumpBase(). fatal() before the power
     * cycle has booted attacker code, or if the program faults. */
    MemoryImage runExtractor(size_t core, const std::string &source,
                             uint64_t max_steps, size_t bytes);
    void note(std::string line);

    Soc &soc_;
    AttackConfig config_;
    std::vector<std::string> trace_;
    bool booted_ = false;
};

/**
 * The Section 3 control: classic cold boot against on-chip SRAM. The
 * board is chilled to @p temperature, power is cut for @p off_time with
 * no probe anywhere, and the same extraction pipeline runs afterwards.
 */
class ColdBootAttack
{
  public:
    ColdBootAttack(Soc &soc, Temperature temperature,
                   Seconds off_time = Seconds::milliseconds(500),
                   AttackConfig config = {});

    /** Cut power, wait, reboot attacker code. */
    bool powerCycleAndBoot();

    /** Extraction identical to the Volt Boot path. */
    MemoryImage dumpL1(size_t core, L1Ram ram);
    MemoryImage dumpL1Way(size_t core, L1Ram ram, size_t way);

  private:
    Soc &soc_;
    Temperature temperature_;
    Seconds off_time_;
    VoltBootAttack extractor_; ///< Reuses the extraction machinery.
};

/**
 * Glitcher bench settings: the crowbar pulse and the fault-stream
 * seed. The core clock, crowbar impedance, step budget and victim
 * layout are fixed (constants in attack.cc), as is the fault model's
 * calibration (fault_model.cc). A default-constructed config has a
 * degenerate (absent) pulse: running it is byte-identical to running
 * the victim with no glitch hardware attached at all.
 */
struct GlitchConfig
{
    /** The pulse: offset/width in victim sim time, depth in volts. */
    fault::GlitchParams pulse;
    /** Fault-stream seed (counter-hashed; no shared RNG state). */
    uint64_t seed = 1;
};

/** Outcome of one glitched signature-check run. */
struct GlitchOutcome
{
    /** The win condition: the victim reached the `pass` path and
     * recorded a valid verdict for an image that never verifies. */
    bool bypassed = false;
    /** The victim halted cleanly (pass or fail verdict recorded). */
    bool completed = false;
    /** The core faulted, ran wild, or hung past the step budget. */
    bool crashed = false;
    std::string crash_reason; ///< Fault name / "wild_execution" / "hang".
    uint64_t steps = 0;
    uint64_t faults_injected = 0;
    /** Effect names of each injected fault, in boundary order. */
    std::vector<std::string> effects;
};

/**
 * Voltage-glitch fault injection against a secure-boot signature
 * check, the third attack family: no probe and no power cycle — the
 * board stays up — but a crowbar pulse on the core rail while the
 * victim verifies a (deliberately tampered) firmware image. Success is
 * reaching the `pass` label without a valid signature.
 *
 * Observability mirrors VoltBootAttack: the run executes under a
 * "core" span `attack.glitch` carrying the pulse parameters and
 * outcome; the pulse itself lands in the trace as a "power" span
 * `glitch.pulse` over `voltage.<domain>` Counter samples, which is
 * what the report layer's `glitch_bounds` invariant checks.
 */
class GlitchAttack
{
  public:
    GlitchAttack(Soc &soc, GlitchConfig config = {});

    /** Stage the victim, arm the glitcher, run, read the verdict. */
    GlitchOutcome execute();

    /** The exact victim source of the last execute() (ground truth). */
    const std::string &victimSource() const { return victim_source_; }

  private:
    Soc &soc_;
    GlitchConfig config_;
    std::string victim_source_;
};

} // namespace voltboot

#endif // VOLTBOOT_CORE_ATTACK_HH
