/**
 * @file
 * The serve pipeline over the index a study pass wrote: set-up (load
 * the .gpi and freeze it), open-loop passes at the fixed rates through
 * Advisor::advise(Query) in process, and the max_qps staircase. An
 * untraced run serves in blocks between its study passes; a traced run
 * measures the serve layers instead, the routed path's included, each
 * over the workload's own stream and index.
 */
#ifndef GRAPHPORT_PERF_SERVE_HPP
#define GRAPHPORT_PERF_SERVE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"
#include "spans.hpp"
#include "speed.hpp"
#include "study.hpp"

namespace perf {

/** How a workload serves. */
struct ServeConfig
{
    Mix mix = Mix::Mixed;
    std::uint64_t seed = 1;
};

class ServePhase
{
  public:
    /**
     * Set up over @p gpiPath and take the reference answers; the loaded
     * index must answer like the pass that wrote it, whose answer
     * digest is @p studyAnswers.
     */
    ServePhase(const ServeConfig &cfg, const Env &env,
               const std::string &gpiPath, const std::string &studyAnswers,
               MachineSpeed &speed, SpanRecorder &rec, Tally &tally);

    /**
     * Serve for @p seconds in rounds of one pass at each fixed rate and
     * one staircase trial, each after a measurement of the machine's
     * speed.
     */
    void block(double seconds);

    /**
     * The end-to-end serve metrics over the windows and trials of every
     * block, at nominal speed for the run's machine speed @p speed:
     * p50_us.* and p99_us.* per rate, and max_qps; the same as
     * measured, prefixed "raw.".
     */
    void report(MetricSet &out, double speed) const;

    /** A traced run: every serve layer, then one pass at `high`. */
    void measureLayers(MetricSet &out);

    /**
     * Peak RSS of the harness once the index is served and the
     * reference answers are taken, before any load pass: what serving
     * costs in memory, without the sample buffers that grow with the
     * offered rate.
     */
    double harnessRssMb() const { return harnessRssMb_; }

  private:
    void count(const LoadResult &r, const char *what);

    ServeConfig cfg_;
    Env env_;
    std::string gpiPath_;
    MachineSpeed &speed_;
    SpanRecorder &rec_;
    Tally &tally_;
    std::optional<graphport::serve::Advisor> advisor_;
    QueryTable table_;
    std::vector<graphport::serve::Advice> reference_;
    std::optional<InProcessTarget> target_;
    std::vector<std::uint32_t> probe_;
    double harnessRssMb_ = 0.0;
    /** Per fixed rate (low, high): each window's p50 and p99, us. */
    std::vector<double> p50_[2], p99_[2];
    std::optional<RateStaircase> staircase_;
    unsigned rounds_ = 0;
};

} // namespace perf

#endif // GRAPHPORT_PERF_SERVE_HPP
