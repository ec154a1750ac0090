#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <exception>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace perf {

namespace serve = graphport::serve;
namespace shard = graphport::shard;

namespace {

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
}

/**
 * Block until nowNs() >= @p dueNs: sleep while far ahead, spin the
 * last stretch for send accuracy. Returns whether it had to wait, i.e.
 * whether the caller was free before the query was due.
 */
bool
waitUntil(std::uint64_t dueNs)
{
    std::uint64_t now = nowNs();
    if (now >= dueNs)
        return false;
    while (dueNs - now > 200000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(dueNs - now - 100000));
        now = nowNs();
        if (now >= dueNs)
            return true;
    }
    while (nowNs() < dueNs)
        cpuRelax();
    return true;
}

/** The timestamps one pass leaves behind, reduced to a LoadResult. */
LoadResult
summarise(const std::vector<std::uint64_t> &arrivalsNs, std::uint64_t t0,
          const std::vector<std::uint64_t> &startNs,
          const std::vector<std::uint64_t> &endNs,
          std::vector<double> late)
{
    const std::size_t n = arrivalsNs.size();
    LoadResult r;
    r.queries = n;
    if (n == 0)
        return r;
    std::vector<double> latency(n), service(n), wait(n);
    std::uint64_t lastEnd = t0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t due = t0 + arrivalsNs[i];
        latency[i] = static_cast<double>(endNs[i] - due);
        service[i] = static_cast<double>(endNs[i] - startNs[i]);
        wait[i] = static_cast<double>(startNs[i] - due);
        lastEnd = std::max(lastEnd, endNs[i]);
    }
    r.latencyNs = latency;
    r.p50Us = percentile(latency, 50.0) * 1e-3;
    r.p99Us = percentile(latency, 99.0) * 1e-3;
    r.serviceP99Us = percentile(service, 99.0) * 1e-3;
    r.waitP99Us = percentile(wait, 99.0) * 1e-3;
    r.lateSamples = late.size();
    r.lateP99Us = percentile(late, 99.0) * 1e-3;
    const double span = std::max(1e-9, secondsBetween(t0, lastEnd));
    r.achievedQps = static_cast<double>(n) / span;
    r.offeredQps = static_cast<double>(n) /
                   std::max(1e-9, static_cast<double>(arrivalsNs.back()) *
                                      1e-9);
    return r;
}

} // namespace

QueryTable
makeQueryTable(const serve::StrategyIndex &index)
{
    // Inputs and chips the study never measured. The chip names are
    // invented, so a query for them always takes the predictive path.
    const std::vector<std::string> unseenInputs = {"intranet", "mesh"};
    std::vector<std::string> unknownChips;
    for (const char *c : {"A100", "XE2"}) {
        if (!index.hasChip(c))
            unknownChips.push_back(c);
    }

    QueryTable t;
    const auto add = [&t](std::vector<std::uint32_t> &kind,
                          const std::string &app, const std::string &input,
                          const std::string &chip) {
        kind.push_back(static_cast<std::uint32_t>(t.queries.size()));
        t.queries.push_back({app, input, chip});
    };
    for (const std::string &app : index.apps()) {
        for (const std::string &chip : index.chips()) {
            for (const auto &in : index.inputs()) {
                add(t.hitByName, app, in.name, chip);
                add(t.hitByClass, app, in.cls, chip);
            }
            for (const std::string &in : unseenInputs)
                add(t.unseenInput, app, in, chip);
        }
        for (const std::string &chip : unknownChips) {
            for (const auto &in : index.inputs())
                add(t.unknownChip, app, in.name, chip);
        }
    }
    return t;
}

std::vector<std::uint32_t>
makeStream(const QueryTable &table, Mix mix, std::size_t n,
           std::uint64_t seed)
{
    Rng rng(seed ^ 0x73747265616d2121ull);
    const auto pick = [&rng](const std::vector<std::uint32_t> &kind) {
        return kind[rng.below(kind.size())];
    };
    // Known-chip streams draw from the hit and unseen-input share of
    // the mixed composition only, in the same proportion.
    const double scale = mix == Mix::Mixed || table.unknownChip.empty()
                             ? 1.0
                             : 0.78;
    std::vector<std::uint32_t> stream(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double r = rng.nextDouble() * scale;
        if (r < 0.60)
            stream[i] = rng.nextDouble() < 0.25 ? pick(table.hitByClass)
                                                : pick(table.hitByName);
        else if (r < 0.78)
            stream[i] = pick(table.unseenInput);
        else
            stream[i] = pick(table.unknownChip);
    }
    return stream;
}

std::vector<std::uint64_t>
poissonArrivals(std::size_t n, double qps, std::uint64_t seed)
{
    Rng rng(seed ^ 0x6172726976616c73ull);
    const double meanNs = 1e9 / qps;
    std::vector<std::uint64_t> out(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += -std::log(1.0 - rng.nextDouble()) * meanNs;
        out[i] = static_cast<std::uint64_t>(t);
    }
    return out;
}

std::uint64_t
digestAdvice(const serve::Advice &a, std::uint64_t h)
{
    const auto mix = [&h](std::uint64_t v) {
        h = digestBytes(&v, sizeof v, h);
    };
    mix(a.config);
    mix(static_cast<std::uint64_t>(a.tierId));
    mix(a.predictive);
    h = digestBytes(a.tier.data(), a.tier.size(), h);
    h = digestBytes(a.partition.data(), a.partition.size(), h);
    h = digestBytes(a.configLabel.data(), a.configLabel.size(), h);
    h = digestBytes(a.intendedTier.data(), a.intendedTier.size(), h);
    mix(std::bit_cast<std::uint64_t>(a.expectedSlowdownVsOracle));
    mix(std::bit_cast<std::uint64_t>(a.partitionSlowdownVsOracle));
    mix(a.degraded);
    mix(a.degradeSteps);
    mix(a.retries);
    mix(a.portfolioMember);
    mix(std::bit_cast<std::uint64_t>(a.portabilityCostVsOracle));
    return h;
}

// ---- in process ------------------------------------------------------

InProcessTarget::InProcessTarget(
    const serve::Advisor &advisor, const QueryTable &table,
    const std::vector<serve::Advice> &reference, unsigned threads)
    : advisor_(advisor), table_(table), reference_(reference),
      threads_(std::max(1u, threads))
{}

LoadResult
InProcessTarget::pass(const std::vector<std::uint32_t> &stream,
                      const std::vector<std::uint64_t> &arrivalsNs)
{
    const std::size_t n = stream.size();
    std::vector<std::uint64_t> startNs(n), endNs(n);
    std::vector<std::uint8_t> waited(n, 0);
    std::vector<std::size_t> served(threads_, 0);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> failed{0};
    // Lead time for the workers to start before the first arrival.
    const std::uint64_t t0 = nowNs() + 2000000;
    onThreads(threads_, [&](unsigned tid) {
        std::size_t mine = 0;
        std::size_t bad = 0;
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            waited[i] = waitUntil(t0 + arrivalsNs[i]) ? 1 : 0;
            const std::uint32_t k = stream[i];
            const std::uint64_t s = nowNs();
            std::uint64_t e = 0;
            bool ok = false;
            try {
                const serve::Advice a = advisor_.advise(table_.queries[k]);
                e = nowNs();
                ok = a.sameAnswer(reference_[k]);
            } catch (const std::exception &) {
                e = nowNs();
            }
            startNs[i] = s;
            endNs[i] = e;
            bad += ok ? 0 : 1;
            ++mine;
        }
        served[tid] = mine;
        failed += bad;
    });

    std::vector<double> late;
    for (std::size_t i = 0; i < n; ++i) {
        if (waited[i])
            late.push_back(
                static_cast<double>(startNs[i] - (t0 + arrivalsNs[i])));
    }
    LoadResult r = summarise(arrivalsNs, t0, startNs, endNs, std::move(late));
    r.failed = failed.load();
    r.batchMean = 1.0;
    r.loadShareMax =
        n == 0 ? 0.0
               : static_cast<double>(
                     *std::max_element(served.begin(), served.end())) /
                     static_cast<double>(n);
    return r;
}

LoadResult
InProcessTarget::closedLoop(const std::vector<std::uint32_t> &stream,
                            double seconds)
{
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> failed{0};
    const std::uint64_t t0 = nowNs();
    const std::uint64_t stop = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    onThreads(threads_, [&](unsigned tid) {
        std::size_t i = tid * stream.size() / threads_;
        std::size_t mine = 0;
        std::size_t bad = 0;
        while (nowNs() < stop) {
            for (int burst = 0; burst < 64; ++burst) {
                const std::uint32_t k = stream[i];
                i = i + 1 == stream.size() ? 0 : i + 1;
                try {
                    bad += advisor_.advise(table_.queries[k])
                                   .sameAnswer(reference_[k])
                               ? 0
                               : 1;
                } catch (const std::exception &) {
                    ++bad;
                }
                ++mine;
            }
        }
        done += mine;
        failed += bad;
    });
    LoadResult r;
    r.queries = done.load();
    r.failed = failed.load();
    r.achievedQps =
        static_cast<double>(r.queries) / secondsBetween(t0, nowNs());
    return r;
}

// ---- routed ------------------------------------------------------------

RoutedTarget::RoutedTarget(shard::Router &router, const QueryTable &table,
                           const std::vector<serve::Advice> &reference)
    : router_(router), table_(table), reference_(reference),
      verified_(table.queries.size())
{
    for (const serve::Query &q : table.queries)
        shardOf_.push_back(router.shardOf(q.chip));
    batch_.reserve(kMaxBatch);
    keys_.reserve(kMaxBatch);
}

bool
RoutedTarget::correct(const shard::WireAdvice &got, std::uint32_t k)
{
    // Inflating an answer costs more than routing it, so each distinct
    // byte pattern of an entry's answer is checked with
    // Advice::sameAnswer once and then recognised by its bytes.
    std::vector<shard::WireAdvice> &seen = verified_[k];
    for (const shard::WireAdvice &v : seen) {
        if (std::memcmp(&v, &got, sizeof got) == 0)
            return true;
    }
    if (!shard::adviceFromWire(got).sameAnswer(reference_[k]))
        return false;
    if (seen.size() < 4)
        seen.push_back(got);
    return true;
}

void
RoutedTarget::fillBatch(const std::vector<std::uint32_t> &stream,
                        std::size_t begin, std::size_t end)
{
    batch_.resize(end - begin);
    keys_.resize(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
        batch_[i - begin] = table_.queries[stream[i]];
        keys_[i - begin] = i;
    }
}

LoadResult
RoutedTarget::pass(const std::vector<std::uint32_t> &stream,
                   const std::vector<std::uint64_t> &arrivalsNs)
{
    const std::size_t n = stream.size();
    std::vector<std::uint64_t> startNs(n), endNs(n);
    std::vector<double> late;
    std::vector<std::size_t> perShard(router_.shards(), 0);
    std::size_t failed = 0;
    std::size_t batches = 0;
    const std::uint64_t t0 = nowNs() + 1000000;
    std::size_t next = 0;
    while (next < n) {
        const std::uint64_t due = t0 + arrivalsNs[next];
        if (waitUntil(due))
            late.push_back(static_cast<double>(nowNs() - due));
        const std::uint64_t now = nowNs();
        std::size_t end = next + 1;
        while (end < n && end - next < kMaxBatch &&
               t0 + arrivalsNs[end] <= now)
            ++end;
        fillBatch(stream, next, end);
        const std::uint64_t s = nowNs();
        bool answered = true;
        try {
            router_.routeWire(batch_, keys_, answers_);
        } catch (const std::exception &) {
            answered = false;
        }
        const std::uint64_t e = nowNs();
        for (std::size_t i = next; i < end; ++i) {
            startNs[i] = s;
            endNs[i] = e;
            ++perShard[shardOf_[stream[i]]];
            if (!answered || answers_.size() != end - next ||
                !correct(answers_[i - next], stream[i]))
                ++failed;
        }
        ++batches;
        next = end;
    }
    LoadResult r = summarise(arrivalsNs, t0, startNs, endNs, std::move(late));
    r.failed = failed;
    r.batchMean = batches == 0 ? 0.0
                               : static_cast<double>(n) /
                                     static_cast<double>(batches);
    r.loadShareMax =
        n == 0 ? 0.0
               : static_cast<double>(
                     *std::max_element(perShard.begin(), perShard.end())) /
                     static_cast<double>(n);
    return r;
}

LoadResult
RoutedTarget::closedLoop(const std::vector<std::uint32_t> &stream,
                         double seconds)
{
    LoadResult r;
    const std::uint64_t t0 = nowNs();
    const std::uint64_t stop = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    std::size_t next = 0;
    while (nowNs() < stop) {
        if (next + kMaxBatch > stream.size())
            next = 0;
        const std::size_t end = std::min(stream.size(), next + kMaxBatch);
        fillBatch(stream, next, end);
        bool answered = true;
        try {
            router_.routeWire(batch_, keys_, answers_);
        } catch (const std::exception &) {
            answered = false;
        }
        for (std::size_t i = next; i < end; ++i) {
            if (!answered || answers_.size() != end - next ||
                !correct(answers_[i - next], stream[i]))
                ++r.failed;
        }
        r.queries += end - next;
        next = end;
    }
    r.achievedQps =
        static_cast<double>(r.queries) / secondsBetween(t0, nowNs());
    r.batchMean = static_cast<double>(std::min(stream.size(), kMaxBatch));
    return r;
}

// ---- rates and the search -------------------------------------------

LoadResult
runAtRate(Target &target, const QueryTable &table, Mix mix, double qps,
          double seconds, std::uint64_t seed)
{
    const std::size_t n =
        std::max<std::size_t>(1, static_cast<std::size_t>(qps * seconds));
    return target.pass(makeStream(table, mix, n, seed),
                       poissonArrivals(n, qps, seed));
}

WindowedResult
runWindowed(Target &target, const QueryTable &table, Mix mix, double qps,
            double warmS, unsigned windows, double windowS,
            std::uint64_t seed)
{
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(qps * (warmS + windows * windowS)));
    const std::vector<std::uint64_t> arrivals =
        poissonArrivals(n, qps, seed);
    WindowedResult w;
    w.whole = target.pass(makeStream(table, mix, n, seed), arrivals);
    w.minWindowQueries = n;
    std::size_t i = 0;
    for (unsigned k = 0; k <= windows; ++k) {
        // Window 0 is the warm-up; the last one takes what is left.
        const double endNs = (warmS + k * windowS) * 1e9;
        std::vector<double> latency;
        for (; i < n && (k == windows ||
                         static_cast<double>(arrivals[i]) < endNs);
             ++i)
            latency.push_back(w.whole.latencyNs[i]);
        if (k == 0)
            continue;
        w.minWindowQueries = std::min(w.minWindowQueries, latency.size());
        w.p50Us.push_back(percentile(latency, 50.0) * 1e-3);
        w.p99Us.push_back(percentile(latency, 99.0) * 1e-3);
    }
    return w;
}

namespace {

/** First step of the staircase, and the floor halving stops at. */
constexpr double kFirstStep = 0.25;
constexpr double kFloorStep = 0.03;

} // namespace

RateStaircase::RateStaircase(double startQps)
    : rate_(std::max(1000.0, startQps)), step_(kFirstStep)
{}

void
RateStaircase::record(bool sustained)
{
    tried_.push_back(rate_);
    const int move = sustained ? 1 : -1;
    if (lastMove_ != 0 && move != lastMove_) {
        step_ = std::max(kFloorStep, step_ / 2.0);
        sameMoves_ = 1;
        if (settled_ == 0)
            settled_ = tried_.size() - 1;
    } else if (++sameMoves_ >= 3) {
        step_ = std::min(kFirstStep, step_ * 2.0);
    }
    lastMove_ = move;
    rate_ = sustained ? rate_ * (1.0 + step_) : rate_ / (1.0 + step_);
    rate_ = std::max(1000.0, rate_);
}

double
RateStaircase::estimate() const
{
    std::vector<double> rates(tried_.begin() + static_cast<long>(settled_),
                              tried_.end());
    return percentile(rates, 75.0);
}

} // namespace perf
