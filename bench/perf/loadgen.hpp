/**
 * @file
 * The harness's load generator. It owns everything that decides what
 * load the program sees and how its answers are timed:
 *
 *  - the query table (every distinct query a stream can carry) and
 *    the seeded streams drawn from it;
 *  - open-loop Poisson arrivals at fixed rates;
 *  - latency measured from each query's *intended* send time, so a
 *    stall is charged to every query it delays (coordinated-omission
 *    safe), with exact percentiles from the raw samples;
 *  - how late the generator itself started a query it was free to
 *    send on time;
 *  - the max_qps staircase.
 *
 * The program is reached only through Advisor::advise(Query) (in
 * process) or shard::Router::routeWire (routed), and receives only
 * the generated queries.
 */
#ifndef GRAPHPORT_PERF_LOADGEN_HPP
#define GRAPHPORT_PERF_LOADGEN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "graphport/serve/advisor.hpp"
#include "graphport/shard/router.hpp"

namespace perf {

/** p99 limit of the max_qps search, in microseconds. */
constexpr double kP99LimitUs = 1000.0;

/** Largest micro-batch the routed open loop sends at once. */
constexpr std::size_t kMaxBatch = 512;

/** Every distinct query a stream can carry, grouped by kind. */
struct QueryTable
{
    std::vector<graphport::serve::Query> queries;
    /** Exact lattice hits naming the input. */
    std::vector<std::uint32_t> hitByName;
    /** Exact lattice hits naming the input's class. */
    std::vector<std::uint32_t> hitByClass;
    /** Inputs the study never measured, on a known chip. */
    std::vector<std::uint32_t> unseenInput;
    /** A studied (app, input) pair on a chip the study never saw. */
    std::vector<std::uint32_t> unknownChip;
};

/** Build the table from an index's apps, inputs and chips. */
QueryTable makeQueryTable(const graphport::serve::StrategyIndex &index);

/** Stream composition. */
enum class Mix
{
    /** ~60% hits (a quarter by class), 18% unseen inputs, 22% unknown chips. */
    Mixed,
    /** Known chips only: the hits and unseen inputs of Mixed. */
    KnownChips,
};

/** @p n table indices drawn for @p mix from @p seed. */
std::vector<std::uint32_t> makeStream(const QueryTable &table, Mix mix,
                                      std::size_t n, std::uint64_t seed);

/**
 * Intended send offsets (ns from pass start) of @p n Poisson arrivals
 * at @p qps. The unit-rate draws depend only on @p seed, so every rate
 * scales the same schedule.
 */
std::vector<std::uint64_t> poissonArrivals(std::size_t n, double qps,
                                           std::uint64_t seed);

/** Chain @p h over every field Advice::sameAnswer compares. */
std::uint64_t digestAdvice(const graphport::serve::Advice &a,
                           std::uint64_t h);

/** Outcome of one pass (open loop) or one closed-loop probe. */
struct LoadResult
{
    std::size_t queries = 0;
    /** Queries unanswered or answered differently from the reference. */
    std::size_t failed = 0;
    double offeredQps = 0.0;
    double achievedQps = 0.0;
    /** Intended send -> answer. */
    double p50Us = 0.0;
    double p99Us = 0.0;
    /** Actual start -> answer. */
    double serviceP99Us = 0.0;
    /** Intended send -> actual start (queueing). */
    double waitP99Us = 0.0;
    /** Generator lateness on queries it was free to send on time. */
    double lateP99Us = 0.0;
    std::size_t lateSamples = 0;
    /** Mean queries per dispatch (1 in process, the batch when routed). */
    double batchMean = 1.0;
    /** Share of the queries the busiest executor handled. */
    double loadShareMax = 0.0;
    /** Open loop: each query's latency in ns, in schedule order. */
    std::vector<double> latencyNs;

    /** p99 within the limit and completions kept up with arrivals. */
    bool sustained() const
    {
        return p99Us <= kP99LimitUs && achievedQps >= 0.97 * offeredQps;
    }
};

/** A serving path the generator drives. */
class Target
{
  public:
    virtual ~Target() = default;

    /** One open-loop pass: stream[i] is due at arrivalsNs[i]. */
    virtual LoadResult pass(const std::vector<std::uint32_t> &stream,
                            const std::vector<std::uint64_t> &arrivalsNs) = 0;

    /** Queries per second answered back to back for @p seconds. */
    virtual LoadResult closedLoop(const std::vector<std::uint32_t> &stream,
                                  double seconds) = 0;
};

/**
 * Advisor::advise(Query) in process: @p threads workers take the next
 * due query from one shared schedule. Every answer is compared with
 * @p reference (one Advice per table entry).
 */
class InProcessTarget final : public Target
{
  public:
    InProcessTarget(const graphport::serve::Advisor &advisor,
                    const QueryTable &table,
                    const std::vector<graphport::serve::Advice> &reference,
                    unsigned threads);

    LoadResult pass(const std::vector<std::uint32_t> &stream,
                    const std::vector<std::uint64_t> &arrivalsNs) override;
    LoadResult closedLoop(const std::vector<std::uint32_t> &stream,
                          double seconds) override;

  private:
    const graphport::serve::Advisor &advisor_;
    const QueryTable &table_;
    const std::vector<graphport::serve::Advice> &reference_;
    unsigned threads_;
};

/**
 * shard::Router::routeWire from one generator thread: each turn sends
 * every due query (up to kMaxBatch) as one batch. Every routed answer
 * must be sameAnswer to @p reference, the in-process answer.
 */
class RoutedTarget final : public Target
{
  public:
    RoutedTarget(graphport::shard::Router &router, const QueryTable &table,
                 const std::vector<graphport::serve::Advice> &reference);

    LoadResult pass(const std::vector<std::uint32_t> &stream,
                    const std::vector<std::uint64_t> &arrivalsNs) override;
    LoadResult closedLoop(const std::vector<std::uint32_t> &stream,
                          double seconds) override;

  private:
    /** Whether @p got answers table entry @p k like the reference. */
    bool correct(const graphport::shard::WireAdvice &got, std::uint32_t k);
    void fillBatch(const std::vector<std::uint32_t> &stream,
                   std::size_t begin, std::size_t end);

    graphport::shard::Router &router_;
    const QueryTable &table_;
    const std::vector<graphport::serve::Advice> &reference_;
    /** Per table entry: answer byte patterns already checked. */
    std::vector<std::vector<graphport::shard::WireAdvice>> verified_;
    std::vector<std::size_t> shardOf_;
    std::vector<graphport::serve::Query> batch_;
    std::vector<std::uint64_t> keys_;
    std::vector<graphport::shard::WireAdvice> answers_;
};

/** Generate a stream and schedule for @p qps x @p seconds and run it. */
LoadResult runAtRate(Target &target, const QueryTable &table, Mix mix,
                     double qps, double seconds, std::uint64_t seed);

/** One open-loop pass, cut into windows by intended send time. */
struct WindowedResult
{
    /** The whole pass, warm-up included. */
    LoadResult whole;
    /** p50 and p99 of each window after the warm-up, in microseconds. */
    std::vector<double> p50Us, p99Us;
    /** Queries in the smallest window. */
    std::size_t minWindowQueries = 0;
};

/**
 * Run @p qps for @p warmS + @p windows x @p windowS seconds and take
 * p50 and p99 in each window after the first @p warmS. The warm-up
 * wakes the serving threads or processes from the idle between passes,
 * which would otherwise charge every pass's first queries; short
 * windows keep a share of them clear of the multi-millisecond stalls
 * of a shared machine, so a low quantile over many windows is the
 * program's tail and not the host's.
 */
WindowedResult runWindowed(Target &target, const QueryTable &table, Mix mix,
                           double qps, double warmS, unsigned windows,
                           double windowS, std::uint64_t seed);

/**
 * The max_qps search: an up-down staircase over offered rates. Each
 * trial is one short open-loop pass at rate(); a sustained() pass
 * raises the rate by the current step, a failed one lowers it. Each
 * reversal halves the step down to a floor, and a third move in the
 * same direction doubles it again, so the staircase follows the
 * capacity when a contended stretch of the host lowers it and when
 * it lifts. The rates tried after the first reversal hover around the
 * rate a pass sustains half of the time; the estimate is their upper
 * quartile, the capacity of the run's quieter stretches. Trials spread
 * over a whole run, unlike a bisection, where one unlucky pass
 * decides every later rate.
 */
class RateStaircase
{
  public:
    /** Start at @p startQps, e.g. a closed-loop capacity probe. */
    explicit RateStaircase(double startQps);

    /** The rate the next trial offers. */
    double rate() const { return rate_; }

    /** Record whether a trial at rate() was sustained. */
    void record(bool sustained);

    /**
     * Upper quartile of the rates tried from the first reversal on, or
     * of all rates tried when there was none.
     */
    double estimate() const;

    std::size_t trials() const { return tried_.size(); }

  private:
    double rate_;
    double step_;
    int lastMove_ = 0;
    unsigned sameMoves_ = 0;
    /** Index into tried_ of the trial that first reversed direction. */
    std::size_t settled_ = 0;
    std::vector<double> tried_;
};

} // namespace perf

#endif // GRAPHPORT_PERF_LOADGEN_HPP
