#include "serve.hpp"

#include <cstdio>
#include <optional>
#include <thread>
#include <unistd.h>

#include "graphport/serve/advisor.hpp"
#include "graphport/shard/router.hpp"
#include "graphport/shard/wire.hpp"
#include "graphport/support/allochook.hpp"
#include "graphport/support/framing.hpp"

namespace perf {

namespace serve = graphport::serve;
namespace shard = graphport::shard;
namespace support = graphport::support;

namespace {

/** The fixed offered rates, queries per second. */
constexpr double kLowQps = 50000.0;
constexpr double kHighQps = 150000.0;

/** In-process worker threads draining the schedule. */
constexpr unsigned kServeThreads = 2;


/** Closed-loop warm-up of worker scratch and caches, seconds. */
constexpr double kWarmS = 0.05;

/** How long the machine's speed is measured before each pass. */
constexpr double kSpeedS = 0.015;

/**
 * A pass at a fixed rate: an unmeasured warm-up, then windows whose
 * percentiles are kept one by one (see runWindowed).
 */
constexpr double kPassWarmS = 0.05;
constexpr unsigned kWindowsPerPass = 3;
constexpr double kWindowS = 0.05;

/** Length of one max_qps staircase trial. */
constexpr double kSearchPassS = 0.15;

/** Closed-loop and open-loop probes of a traced run. */
constexpr double kLayerProbeS = 0.2;

/** Keeps results of timed loops observable, so no loop is elided. */
volatile std::uint64_t g_sink = 0;

/**
 * Run @p body (one pass over @p items items) under span @p name until
 * at least 50 ms have elapsed; returns nanoseconds per item. Loops
 * time whole streams, never single calls, so the clock's own cost
 * stays out of the figure.
 */
template <typename F>
double
nsPerItem(SpanRecorder &rec, const char *name, std::size_t items, F &&body)
{
    if (items == 0)
        return 0.0;
    unsigned reps = 0;
    const SpanRecorder::Token t = rec.open(name);
    const std::uint64_t t0 = nowNs();
    do {
        body();
        ++reps;
    } while (secondsBetween(t0, nowNs()) < 0.05);
    const double s = rec.close(t);
    return s * 1e9 / (static_cast<double>(reps) * static_cast<double>(items));
}

shard::RouterOptions
routerOptions(const Env &env, const std::string &gpiPath, unsigned shards)
{
    shard::RouterOptions opts;
    opts.shards = shards;
    opts.indexPath = gpiPath;
    opts.baseWorkerArgv = {env.cliExe, "serve-worker"};
    return opts;
}

/** Per-query cost of the in-process serve layers over @p stream. */
void
measureServeLayers(const serve::Advisor &advisor, const QueryTable &table,
                   const std::vector<serve::Advice> &reference,
                   const std::vector<std::uint32_t> &stream,
                   SpanRecorder &rec, MetricSet &out)
{
    const serve::Advisor::Lease lease = advisor.lease();
    const serve::FrozenIndex &frozen = lease->frozen;
    const std::size_t n = stream.size();
    std::uint64_t sink = 0;

    std::vector<serve::IdQuery> ids(n);
    const double internNs = nsPerItem(rec, "serve.intern", n, [&] {
        for (std::size_t i = 0; i < n; ++i) {
            const serve::Query &q = table.queries[stream[i]];
            ids[i] = frozen.internQuery(q.app, q.input, q.chip);
        }
    });
    const double frozenNs = nsPerItem(rec, "serve.frozen", n, [&] {
        for (std::size_t i = 0; i < n; ++i)
            sink += advisor.advise(ids[i]).config;
    });
    std::vector<std::size_t> lattice;
    for (std::size_t i = 0; i < n; ++i) {
        if (!reference[stream[i]].predictive)
            lattice.push_back(i);
    }
    const double descentNs =
        nsPerItem(rec, "serve.descent", lattice.size(), [&] {
            for (const std::size_t i : lattice)
                sink += advisor.advise(ids[i]).config;
        });

    // k-NN over the index's own example pool: every studied pair,
    // predicted from the others. Independent of the stream, so the
    // layer is measured even where a stream takes no predictive path.
    struct Probe
    {
        std::uint32_t app, input;
        graphport::port::WorkloadFeatures features;
    };
    std::vector<Probe> probes;
    for (const serve::PredictorExample &e : lease->index.examples()) {
        const std::uint32_t a = frozen.findSymbol(e.app);
        const std::uint32_t in = frozen.findSymbol(e.input);
        bool seen = false;
        for (const Probe &p : probes)
            seen = seen || (p.app == a && p.input == in);
        if (!seen)
            probes.push_back({a, in, e.features});
    }
    const double knnNs = nsPerItem(rec, "serve.knn", probes.size(), [&] {
        for (const Probe &p : probes)
            sink += frozen.predictConfig(p.features, p.app, p.input);
    });
    const double adviseNs = nsPerItem(rec, "serve.advise", n, [&] {
        for (std::size_t i = 0; i < n; ++i)
            sink += advisor.advise(table.queries[stream[i]]).config;
    });
    // Materialising is what the string API adds to a lattice answer,
    // taken where k-NN, which is slower by two orders, is out of the
    // difference.
    const double latticeInternNs =
        nsPerItem(rec, "serve.intern.lattice", lattice.size(), [&] {
            for (const std::size_t i : lattice) {
                const serve::Query &q = table.queries[stream[i]];
                ids[i] = frozen.internQuery(q.app, q.input, q.chip);
            }
        });
    const double latticeAdviseNs =
        nsPerItem(rec, "serve.advise.lattice", lattice.size(), [&] {
            for (const std::size_t i : lattice)
                sink += advisor.advise(table.queries[stream[i]]).config;
        });

    double allocs = -1.0;
    if (support::allocCountingActive()) {
        support::resetThreadAllocCounts();
        for (std::size_t i = 0; i < n; ++i)
            sink += advisor.advise(table.queries[stream[i]]).config;
        allocs = static_cast<double>(support::threadAllocCounts().allocs) /
                 static_cast<double>(n);
    }
    g_sink = sink;

    out.set("serve.intern_ns", internNs, "ns");
    out.set("serve.descent_ns", descentNs, "ns");
    out.set("serve.knn_ns", knnNs, "ns");
    out.set("serve.frozen_ns", frozenNs, "ns");
    out.set("serve.materialise_ns",
            latticeAdviseNs - latticeInternNs - descentNs, "ns");
    out.set("serve.advise_ns", adviseNs, "ns");
    out.set("serve.share.predictive",
            1.0 - static_cast<double>(lattice.size()) /
                      static_cast<double>(n),
            "frac");
    out.set("serve.share.lattice",
            static_cast<double>(lattice.size()) / static_cast<double>(n),
            "frac");
    out.set("serve.allocs_per_query", allocs, "count");
}

/**
 * The routed path at one shard, split into its serial steps: router
 * encode, frame checksums (both ends hash both frames), the pipes,
 * worker decode, in-shard advise, worker encode and router decode.
 * What the closed-loop router time does not explain is unattributed.
 * Every routed answer must be sameAnswer to the in-process reference.
 */
void
measureRouteLayers(const serve::Advisor &advisor, const QueryTable &table,
                   const std::vector<serve::Advice> &reference,
                   const std::vector<std::uint32_t> &stream, Mix mix,
                   std::uint64_t seed, const Env &env,
                   const std::string &gpiPath, double probeS,
                   SpanRecorder &rec, Tally &tally, MetricSet &out)
{
    const std::size_t b = std::min(stream.size(), kMaxBatch);
    std::vector<serve::Query> queries;
    std::vector<std::uint64_t> keys;
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < b; ++i) {
        queries.push_back(table.queries[stream[i]]);
        keys.push_back(i);
        indices.push_back(i);
    }
    std::uint64_t sink = 0;
    std::string queryFrame;
    const double encodeNs = nsPerItem(rec, "shard.encode", b, [&] {
        queryFrame = shard::packQueryFrame(1, queries, keys, indices);
    });
    std::uint64_t key = 0;
    std::vector<serve::Query> decoded;
    std::vector<std::uint64_t> decodedKeys;
    std::string cause;
    const double workerDecodeNs =
        nsPerItem(rec, "shard.worker_decode", b, [&] {
            sink += shard::unpackQueryFrame(queryFrame, &key, &decoded,
                                            &decodedKeys, &cause);
        });
    const serve::Advisor::Lease lease = advisor.lease();
    const serve::StrategyIndex &index = lease->index;
    const serve::Advisor slice(index.sliceByChips(index.chips()));
    std::vector<shard::WireAdvice> wire(decoded.size());
    const double inshardNs = nsPerItem(rec, "shard.inshard", b, [&] {
        for (std::size_t i = 0; i < decoded.size(); ++i)
            wire[i] = shard::adviceToWire(slice.advise(decoded[i]));
    });
    std::string adviceFrame;
    const double workerEncodeNs =
        nsPerItem(rec, "shard.worker_encode", b, [&] {
            adviceFrame = shard::packAdviceFrame(1, wire);
        });
    std::vector<shard::WireAdvice> gathered;
    const double decodeNs = nsPerItem(rec, "shard.decode", b, [&] {
        sink += shard::unpackAdviceFrame(adviceFrame, &key, &gathered,
                                         &cause);
    });
    const double checksumNs = nsPerItem(rec, "shard.checksum", b, [&] {
        for (int end = 0; end < 2; ++end)
            sink += support::frameChecksum(queryFrame) ^
                    support::frameChecksum(adviceFrame);
    });

    // The pipes: one round trip of both frames through two OS pipes to
    // an echoing thread, as router and worker exchange them. The frame
    // calls checksum both frames at both ends, which is charged to
    // shard.checksum instead.
    int toWorker[2] = {-1, -1};
    int toRouter[2] = {-1, -1};
    failIf(::pipe(toWorker) != 0 || ::pipe(toRouter) != 0,
           "cannot create pipes");
    double roundTripNs = 0.0;
    bool piped = true;
    {
        std::thread echo([&] {
            std::string payload, why;
            while (support::readFrame(toWorker[0], payload, why) ==
                   support::FrameStatus::Ok) {
                if (!support::writeFrame(toRouter[1], adviceFrame))
                    return;
            }
        });
        roundTripNs = nsPerItem(rec, "shard.pipe", 1, [&] {
            std::string payload, why;
            piped = piped && support::writeFrame(toWorker[1], queryFrame) &&
                    support::readFrame(toRouter[0], payload, why) ==
                        support::FrameStatus::Ok;
        });
        // EOF on its input ends the echo thread.
        ::close(toWorker[1]);
        echo.join();
    }
    for (const int fd : {toWorker[0], toRouter[0], toRouter[1]})
        ::close(fd);
    failIf(!piped, "the pipe round trip failed");
    const double pipeNs = roundTripNs / static_cast<double>(b) - checksumNs;
    g_sink = sink;

    // The real router at one and two shards, closed loop; at two, also
    // an open-loop pass at `high`, micro-batching the due queries.
    const auto count = [&tally](const LoadResult &r) {
        tally.attempted += r.queries;
        if (r.failed != 0)
            tally.fail("routed answers differ from the in-process "
                       "reference",
                       r.failed);
    };
    double closedQps[3] = {0.0, 0.0, 0.0};
    LoadResult open;
    for (unsigned shards = 1; shards <= 2; ++shards) {
        const SpanRecorder::Token t =
            rec.open(shards == 1 ? "shard.closed.s1" : "shard.closed.s2");
        shard::Router router(index.chips(),
                             routerOptions(env, gpiPath, shards));
        RoutedTarget target(router, table, reference);
        (void)target.closedLoop(stream, 0.1);
        const LoadResult r = target.closedLoop(stream, probeS);
        count(r);
        closedQps[shards] = r.achievedQps;
        rec.close(t);
        if (shards == 2) {
            const SpanRecorder::Token o = rec.open("shard.open_loop.high");
            open = runAtRate(target, table, mix, kHighQps, probeS, seed);
            count(open);
            rec.close(o);
        }
    }
    const double routeNs = 1e9 / closedQps[1];
    const double unattributedNs = routeNs - encodeNs - checksumNs - pipeNs -
                                  workerDecodeNs - inshardNs -
                                  workerEncodeNs - decodeNs;

    out.set("shard.encode_ns", encodeNs, "ns");
    out.set("shard.checksum_ns", checksumNs, "ns");
    out.set("shard.pipe_ns", pipeNs, "ns");
    out.set("shard.worker_decode_ns", workerDecodeNs, "ns");
    out.set("shard.inshard_ns", inshardNs, "ns");
    out.set("shard.worker_encode_ns", workerEncodeNs, "ns");
    out.set("shard.decode_ns", decodeNs, "ns");
    out.set("shard.route_ns", routeNs, "ns");
    out.set("shard.unattributed_ns", unattributedNs, "ns");
    out.set("shard.unattributed_frac", unattributedNs / routeNs, "frac");
    out.set("shard.closed_qps.s1", closedQps[1], "1/s");
    out.set("shard.closed_qps.s2", closedQps[2], "1/s");
    out.set("serve.batch_mean", open.batchMean, "count");
    out.set("serve.load_share_max", open.loadShareMax, "frac");
}

const char *const kRateNames[2] = {"low", "high"};
const double kRates[2] = {kLowQps, kHighQps};

} // namespace

ServePhase::ServePhase(const ServeConfig &cfg, const Env &env,
                       const std::string &gpiPath,
                       const std::string &studyAnswers, MachineSpeed &speed,
                       SpanRecorder &rec, Tally &tally)
    : cfg_(cfg), env_(env), gpiPath_(gpiPath), speed_(speed), rec_(rec),
      tally_(tally)
{
    rec_.timed("serve.load", [this] {
        advisor_.emplace(serve::StrategyIndex::loadFile(gpiPath_));
    });
    table_ = makeQueryTable(advisor_->lease()->index);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const serve::Query &q : table_.queries) {
        reference_.push_back(advisor_->advise(q));
        h = digestAdvice(reference_.back(), h);
    }
    ++tally_.attempted;
    if (hex64(h) != studyAnswers)
        tally_.fail("the loaded index answers differently from the "
                    "pass that wrote it");
    harnessRssMb_ = selfPeakRssMb();

    target_.emplace(*advisor_, table_, reference_, kServeThreads);
    probe_ = makeStream(table_, cfg_.mix, 200000, cfg_.seed);
    // The staircase starts at the closed-loop rate; from there it
    // settles within a few trials whatever the workload's ceiling.
    (void)target_->closedLoop(probe_, kWarmS);
    (void)speed_.measure(kServeThreads, kSpeedS);
    const LoadResult capacity = target_->closedLoop(probe_, 2.0 * kWarmS);
    count(capacity, "the closed-loop probe");
    staircase_.emplace(capacity.achievedQps);
}

void
ServePhase::count(const LoadResult &r, const char *what)
{
    tally_.attempted += r.queries;
    if (r.failed != 0)
        tally_.fail(std::string("wrong or missing answers in ") + what,
                    r.failed);
}

void
ServePhase::block(double seconds)
{
    const SpanRecorder::Token span = rec_.open("serve.block");
    const std::uint64_t t0 = nowNs();
    // A study pass just ran: warm the workers' scratch and caches again.
    (void)target_->closedLoop(probe_, kWarmS);
    do {
        ++rounds_;
        for (std::size_t k = 0; k < 2; ++k) {
            const double speed = speed_.measure(kServeThreads, kSpeedS);
            const WindowedResult w = runWindowed(
                *target_, table_, cfg_.mix, kRates[k], kPassWarmS,
                kWindowsPerPass, kWindowS, cfg_.seed + 100000 * k + rounds_);
            count(w.whole, "a fixed-rate pass");
            std::printf("  %-4s round %u (machine speed %.3f): %zu "
                        "samples, offered %.0f q/s, achieved %.0f q/s, "
                        "late p99 %.2f us (%zu samples); windows of >= "
                        "%zu samples, p50/p99 us:",
                        kRateNames[k], rounds_, speed,
                        w.whole.queries, w.whole.offeredQps,
                        w.whole.achievedQps, w.whole.lateP99Us,
                        w.whole.lateSamples, w.minWindowQueries);
            for (std::size_t i = 0; i < w.p50Us.size(); ++i) {
                p50_[k].push_back(w.p50Us[i]);
                p99_[k].push_back(w.p99Us[i]);
                std::printf(" %.2f/%.2f", w.p50Us[i], w.p99Us[i]);
            }
            std::printf("\n");
        }
        const double speed = speed_.measure(kServeThreads, kSpeedS);
        const LoadResult r = runAtRate(*target_, table_, cfg_.mix,
                                       staircase_->rate(), kSearchPassS,
                                       cfg_.seed + 200000 + rounds_);
        count(r, "a max_qps trial");
        staircase_->record(r.sustained());
        std::printf("  max_qps trial %u (machine speed %.3f): offered %.0f "
                    "q/s, achieved %.0f q/s, p99 %.2f us: %s\n",
                    rounds_, speed, r.offeredQps, r.achievedQps, r.p99Us,
                    r.sustained() ? "sustained" : "not sustained");
        std::fflush(stdout);
    } while (secondsBetween(t0, nowNs()) < seconds);
    rec_.close(span);
}

void
ServePhase::report(MetricSet &out, double speed) const
{
    // Medians over the run's windows.
    for (std::size_t k = 0; k < 2; ++k) {
        const std::string rate = kRateNames[k];
        out.set("p50_us." + rate, median(p50_[k]) * speed, "us");
        out.set("p99_us." + rate, median(p99_[k]) * speed, "us");
        out.set("raw.p50_us." + rate, median(p50_[k]), "us");
        out.set("raw.p99_us." + rate, median(p99_[k]), "us");
    }
    out.set("max_qps", staircase_->estimate() / speed, "1/s");
    out.set("raw.max_qps", staircase_->estimate(), "1/s");
    std::printf("  %u serve rounds; max_qps %.0f q/s as measured over %zu "
                "trials\n",
                rounds_, staircase_->estimate(), staircase_->trials());
}

void
ServePhase::measureLayers(MetricSet &out)
{
    measureServeLayers(*advisor_, table_, reference_, probe_, rec_, out);
    measureRouteLayers(*advisor_, table_, reference_, probe_, cfg_.mix,
                       cfg_.seed, env_, gpiPath_, kLayerProbeS, rec_, tally_,
                       out);
    const SpanRecorder::Token t = rec_.open("serve.open_loop.high");
    const LoadResult r = runAtRate(*target_, table_, cfg_.mix, kHighQps,
                                   kLayerProbeS, cfg_.seed);
    rec_.close(t);
    count(r, "a fixed-rate pass");
    out.set("serve.service_p99_us", r.serviceP99Us, "us");
    out.set("serve.wait_p99_us", r.waitP99Us, "us");
    out.set("loadgen.late_p99_us", r.lateP99Us, "us");
}

} // namespace perf
