#include "keyfind/engine.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "sim/logging.hh"
#include "telemetry/counters.hh"

namespace voltboot
{
namespace keyfind
{

namespace
{

/** Both stages target AES-128: its key and schedule sizes. */
constexpr size_t kKeyBytes = 16;
constexpr size_t kScheduleBytes = 176;

/** One work-stealing unit: a contiguous offset range of one stage. */
struct Task
{
    bool correction;
    size_t off_begin;
    size_t off_end;
};

/** Per-task results, merged back in task order so the final output is
 * independent of which worker ran what. */
struct TaskResult
{
    std::vector<KeyCandidate> scan_hits;
    std::vector<RobustScanHit> corrected_hits;
    ScanStats scan;
    CorrectionStats correction;
};

/** Append chunked tasks covering every valid offset of one stage. */
void
appendTasks(std::vector<Task> &tasks, bool correction, size_t image_bytes,
            size_t chunk_offsets)
{
    if (image_bytes < kScheduleBytes)
        return;
    const size_t last_off = image_bytes - kScheduleBytes;
    const size_t span = std::max<size_t>(1, chunk_offsets) * kKeyScanStride;
    for (size_t begin = 0; begin <= last_off; begin += span)
        tasks.push_back(
            Task{correction, begin, std::min(begin + span, last_off + 1)});
}

void
runCorrectionTask(std::span<const uint8_t> bytes, const Task &task,
                  const KeyRecoveryConfig &config,
                  std::span<const float> flip_likelihood,
                  TaskResult &result)
{
    const KeyCorrector corrector;
    for (size_t off = task.off_begin; off < task.off_end;
         off += kKeyScanStride) {
        std::span<const uint8_t> window(bytes.data() + off,
                                        kScheduleBytes);
        // Constant windows are never schedules (Rcon forbids them), and
        // a window whose first derived round already disagrees on more
        // than the prefilter fraction is random data.
        bool all_same = true;
        for (size_t i = 1; i < kKeyBytes && all_same; ++i)
            all_same = window[i] == window[0];
        if (all_same)
            continue;
        if (KeyCorrector::firstRoundMismatch(window, kKeyBytes) >
            kPrefilterThreshold)
            continue;
        ++result.correction.attempted;
        std::span<const float> prior;
        if (config.use_priors && !flip_likelihood.empty())
            prior = flip_likelihood.subspan(off * 8, kKeyBytes * 8);
        CorrectionAttempt a = corrector.attempt(window, kKeyBytes, prior);
        result.correction.iterations += a.iterations;
        result.correction.distance_evals += a.distance_evals;
        switch (a.gave_up) {
          case GiveUpReason::None:
            break;
          case GiveUpReason::Residual:
            ++result.correction.gave_up_residual;
            break;
          case GiveUpReason::ErrorFloor:
            ++result.correction.gave_up_error_floor;
            break;
          case GiveUpReason::MaxIterations:
            ++result.correction.gave_up_max_iterations;
            break;
        }
        if (a.key) {
            ++result.correction.accepted;
            result.corrected_hits.push_back(
                RobustScanHit{off, std::move(*a.key)});
        }
    }
}

void
runTask(std::span<const uint8_t> bytes, const Task &task,
        const KeyRecoveryConfig &config,
        std::span<const float> flip_likelihood, TaskResult &result)
{
    if (task.correction) {
        runCorrectionTask(bytes, task, config, flip_likelihood, result);
        telemetry::add(telemetry::Counter::KeyfindCorrections,
                       result.correction.attempted);
        telemetry::add(telemetry::Counter::KeyfindCorrectionIters,
                       result.correction.iterations);
    } else {
        scheduleScanRange(bytes, kKeyBytes, kScheduleBytes,
                          task.off_begin, task.off_end, KeyFinderConfig{},
                          result.scan_hits, result.scan);
        telemetry::add(telemetry::Counter::KeyfindOffsets,
                       result.scan.offsets);
        telemetry::add(telemetry::Counter::KeyfindEarlyRejects,
                       result.scan.early_rejects);
    }
}

} // namespace

std::optional<std::vector<uint8_t>>
RecoveryReport::bestKey() const
{
    if (!scan_hits.empty())
        return scan_hits.front().key;
    if (!corrected_hits.empty())
        return corrected_hits.front().corrected.key;
    return std::nullopt;
}

RecoveryReport
KeyRecoveryEngine::recoverImage(
    const MemoryImage &image,
    std::span<const float> flip_likelihood) const
{
    if (!flip_likelihood.empty() &&
        flip_likelihood.size() != image.sizeBits())
        fatal("KeyRecoveryEngine: flip priors must hold one entry per "
              "bit, got ", flip_likelihood.size());
    const auto &bytes = image.bytes();

    // Deterministic task list: the scan stage, then the correction
    // stage. Workers steal via the cursor; results land in per-task
    // slots and merge back in list order, so any interleaving produces
    // the same output.
    std::vector<Task> tasks;
    appendTasks(tasks, false, bytes.size(), config_.chunk_offsets);
    if (config_.run_correction)
        appendTasks(tasks, true, bytes.size(), config_.chunk_offsets);

    std::vector<TaskResult> results(tasks.size());
    std::atomic<size_t> cursor{0};
    auto drain = [&]() {
        for (;;) {
            const size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks.size())
                break;
            runTask(bytes, tasks[i], config_, flip_likelihood,
                    results[i]);
        }
    };

    unsigned jobs = config_.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    if (jobs <= 1 || tasks.size() <= 1) {
        drain();
    } else {
        std::vector<std::thread> workers;
        workers.reserve(jobs);
        for (unsigned w = 0; w < jobs; ++w)
            workers.emplace_back([&]() {
                telemetry::WorkerScope scope;
                drain();
            });
        for (std::thread &t : workers)
            t.join();
    }

    RecoveryReport report;
    for (TaskResult &r : results) {
        report.scan += r.scan;
        report.correction += r.correction;
        std::move(r.scan_hits.begin(), r.scan_hits.end(),
                  std::back_inserter(report.scan_hits));
        std::move(r.corrected_hits.begin(), r.corrected_hits.end(),
                  std::back_inserter(report.corrected_hits));
    }
    // The references' exact sorts, applied to the same pre-sort order
    // the sequential loops produce (ascending offset per stage).
    std::sort(report.scan_hits.begin(), report.scan_hits.end(),
              [](const KeyCandidate &a, const KeyCandidate &b) {
                  return a.bit_errors < b.bit_errors;
              });
    std::sort(report.corrected_hits.begin(),
              report.corrected_hits.end(),
              [](const RobustScanHit &a, const RobustScanHit &b) {
                  return a.corrected.residual_bit_errors <
                         b.corrected.residual_bit_errors;
              });
    return report;
}

RecoveryReport
KeyRecoveryEngine::recover(const MemoryImage &dump) const
{
    return recoverImage(dump, {});
}

RecoveryReport
KeyRecoveryEngine::recover(std::span<const MemoryImage> dumps,
                           std::span<const float> cell_flip_priors) const
{
    if (dumps.empty())
        fatal("KeyRecoveryEngine: no dumps");
    if (dumps.size() == 1) {
        std::span<const float> prior;
        if (config_.use_priors)
            prior = cell_flip_priors;
        return recoverImage(dumps[0], prior);
    }
    const FusedDump fused = fuseDumps(dumps, cell_flip_priors);
    std::span<const float> prior;
    if (config_.use_priors)
        prior = fused.flip_likelihood;
    RecoveryReport report = recoverImage(fused.image, prior);
    report.dumps_fused = fused.dumps;
    report.disagreeing_bits = fused.disagreeing_bits;
    return report;
}

} // namespace keyfind
} // namespace voltboot
