/**
 * @file
 * The study pipeline as a user of `graphport study` / `index` pays for
 * it: one pass = sweep -> Dataset::saveCsv -> StrategyIndex::build ->
 * saveFile -> Advisor (freeze) -> portfolio::solveCover(eps 0.10).
 * An untraced run makes several passes, between its serve blocks.
 *
 * Every pass runs in a fresh process (`graphport_perf pass ...`), so no
 * cache of the program carries from one pass into the next. The child
 * writes its timings, output digests and (when traced) its spans to a
 * text file the parent reads back. A traced pass also replays, from the
 * harness and at the pass's thread count, the calls that Dataset::build
 * and StrategyIndex::build make internally, so each layer gets a time
 * and the pipeline an explicit unattributed share.
 */
#ifndef GRAPHPORT_PERF_STUDY_HPP
#define GRAPHPORT_PERF_STUDY_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "spans.hpp"

namespace perf {

/** Where the harness finds its binaries and writes scratch files. */
struct Env
{
    std::string selfExe; ///< this binary, re-executed as `pass`
    std::string cliExe;  ///< graphport_cli, spawned as shard workers
    std::string workDir; ///< scratch directory of this run
};

/** How a workload sweeps its study universe. */
struct StudyConfig
{
    /** Schedule space: "legacy" (96 ids) or "extended" (576). */
    std::string space = "legacy";
    /**
     * Sweep with shard::shardedSweep over 2 graphport_cli sweep-worker
     * processes x 1 thread, instead of an in-process Dataset::build.
     */
    bool sharded = false;
    /** 0: the paper's study universe; N: runner::smallUniverse(N). */
    unsigned smallApps = 0;
    /** Universe::seed (measurement noise of every cell). */
    std::uint64_t seed = 0x5eed;
};

/**
 * The study passes of one run. Every pass must produce the same
 * digests, and at the pinned seed the digests recorded in study.cpp;
 * each pass that does not counts as one failure. A pass that exits
 * non-zero counts as one failure and ends the phase: a pass that
 * always fails must not be respawned for the rest of the run. Times
 * are kept as measured; the run scales them to nominal speed.
 */
class StudyPhase
{
  public:
    /** With @p traced, the one pass a run makes records every layer. */
    StudyPhase(const StudyConfig &cfg, const Env &env, bool traced,
               SpanRecorder &rec, Tally &tally);

    /**
     * Run one pass in a fresh process. Returns false, and runs no
     * further pass, once a pass has exited non-zero.
     */
    bool runPass();

    /**
     * Spawn @p n set-up probes: pass processes that stop where their
     * first call into runner would be, then load and freeze the index
     * the first pass wrote. Call after the first pass.
     */
    void probeSetup(unsigned n);

    /** Passes that completed. */
    unsigned passes() const { return passes_; }

    /** Wall time of each pass, first runner call to solveCover return. */
    const std::vector<double> &studyS() const { return studyS_; }

    /**
     * Set-up of a fresh process: process spawn -> first call into
     * runner, over the passes and the probes, and the time a probe
     * took to load and freeze the index.
     */
    const std::vector<double> &spawnS() const { return spawnS_; }
    const std::vector<double> &loadS() const { return loadS_; }

    /** Largest peak RSS of a pass process with its shard workers, MB. */
    double peakRssMb() const { return peakRssMb_; }

    /**
     * The index snapshot of the first pass, kept where later passes do
     * not overwrite it; the serve phase serves it.
     */
    const std::string &gpiPath() const { return gpiPath_; }

    /** Digests of the passes' outputs, by name. */
    const std::map<std::string, std::string> &digests() const
    {
        return digests_;
    }

    /** Layer metrics of the traced pass (empty when untraced). */
    const MetricSet &layers() const { return layers_; }

  private:
    StudyConfig cfg_;
    Env env_;
    bool traced_;
    SpanRecorder &rec_;
    Tally &tally_;
    std::string dir_;
    std::vector<std::string> argv_;
    bool failed_ = false;
    unsigned passes_ = 0;
    std::vector<double> studyS_, spawnS_, loadS_;
    double peakRssMb_ = 0.0;
    std::string gpiPath_;
    std::map<std::string, std::string> digests_;
    MetricSet layers_;
};

/** Entry point of the `pass` child process; returns its exit code. */
int passMain(const std::vector<std::string> &args);

} // namespace perf

#endif // GRAPHPORT_PERF_STUDY_HPP
