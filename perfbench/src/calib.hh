/**
 * @file
 * The frozen in-run calibration kernel behind `norm_cost`.
 *
 * A self-contained gate-word evaluation loop: a fixed pseudo-random
 * gate network (built from a constant seed by this file alone) is
 * swept in topological order over 64-bit words, the same shape of
 * work as the program's simulation kernels. It deliberately shares no
 * code with the program — a faster kernel in the program must not
 * speed up this denominator too and hide its own gain. Do not change
 * this kernel: every calibrated number ever recorded depends on it.
 */

#ifndef PERFBENCH_CALIB_HH
#define PERFBENCH_CALIB_HH

#include <cstdint>

namespace perfbench
{

struct Calibration
{
    /** Seconds for one fixed unit of calibration work (median). */
    double seconds = 0;
    /** Gate-words evaluated per second over that unit. */
    double gateWordsPerSecond = 0;
    /** Fold of every evaluated word, so the compiler cannot drop the
     *  work; equal to kCalibrationDigest on every host. */
    std::uint64_t digest = 0;
};

/**
 * Run the fixed work @p reps times on @p threads threads at once (one
 * unit each); report the median wall time of a rep. Matching the
 * workload's own parallelism lets the unit see the same machine the
 * workload sees, busy siblings included.
 */
Calibration calibrate(int reps, int threads);

} // namespace perfbench

#endif // PERFBENCH_CALIB_HH
