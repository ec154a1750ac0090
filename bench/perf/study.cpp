#include "study.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>

#include "graphport/apps/app.hpp"
#include "graphport/dsl/compact.hpp"
#include "graphport/port/predict.hpp"
#include "graphport/port/strategy.hpp"
#include "graphport/portfolio/cover.hpp"
#include "graphport/portfolio/portfolio.hpp"
#include "graphport/runner/dataset.hpp"
#include "graphport/serve/advisor.hpp"
#include "graphport/serve/index.hpp"
#include "graphport/shard/supervise.hpp"
#include "graphport/shard/sweep.hpp"
#include "graphport/sim/costengine.hpp"
#include "loadgen.hpp"

extern char **environ;

namespace perf {

namespace fs = std::filesystem;
namespace runner = graphport::runner;
namespace serve = graphport::serve;
namespace shard = graphport::shard;

namespace {

/** Universe seed at which the digests below were recorded. */
constexpr std::uint64_t kPinnedSeed = 0x5eed;

/** Shard workers of a sharded sweep, each with one thread. */
constexpr std::size_t kSweepShards = 2;

/** Threads of an in-process sweep and of the portfolio solve. */
constexpr unsigned kStudyThreads = 2;

/**
 * Output digests at kPinnedSeed: Dataset::contentHash of the sweep and
 * of the CSV loaded back (the CSV rounds timings, so the two differ),
 * and FNV-1a 64 of the CSV, .gpi and .gpp bytes and of the answers to
 * every query of the query table. A pass at this seed must reproduce
 * them exactly.
 */
struct Pinned
{
    const char *universe; ///< "study" or "small<N>"
    const char *space;
    const char *digests[6]; ///< in kDigestNames order
};

const char *const kDigestNames[] = {"dataset", "csv_reload", "csv",
                                    "gpi",     "gpp",        "answers"};

constexpr Pinned kPinned[] = {
    {"study",
     "legacy",
     {"94fdddacb19b9b75", "7afd5da05922c716", "7ded41ef7b14b716",
      "8a4df3877f0635c0", "b863ac34e49a642b", "153dd004ceb0f823"}},
    {"study",
     "extended",
     {"c7b627b062facdad", "d961a611408b243f", "410f21017d69ba28",
      "dc4274d6c04257cd", "bea2f72a08973597", "05c05d60b58f1ac7"}},
    {"small2",
     "legacy",
     {"8961ab9c56014df2", "56539fb4629e308e", "e3feb895e926a1c6",
      "df315b2903d57da2", "90093582a5581500", "b818e502675d3743"}},
    {"small2",
     "extended",
     {"695f1744910e0900", "90448da959f7b40e", "7b221f7c7407bdcd",
      "82c580147be3ee72", "2cfea863309cd61c", "fefd6ce4da799ffd"}},
};

runner::Universe
makeUniverse(const StudyConfig &cfg)
{
    runner::Universe u = cfg.smallApps == 0
                             ? runner::studyUniverse()
                             : runner::smallUniverse(cfg.smallApps);
    u.space = graphport::dsl::ScheduleSpace::byName(cfg.space);
    u.seed = cfg.seed;
    return u;
}

std::string
universeName(const StudyConfig &cfg)
{
    return cfg.smallApps == 0 ? "study"
                              : "small" + std::to_string(cfg.smallApps);
}

/** Spawn @p argv with inherited stdio; returns the pid. */
long
spawn(const std::vector<std::string> &argv)
{
    std::vector<char *> cargv;
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, cargv[0], nullptr, nullptr,
                                 cargv.data(), environ);
    failIf(rc != 0, "cannot spawn " + argv[0]);
    return static_cast<long>(pid);
}

/** Shell-style exit code of a waitpid status. */
int
exitCode(int status)
{
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

/** Wait for @p pid; returns its shell-style exit code. */
int
waitFor(long pid)
{
    int status = 0;
    while (::waitpid(static_cast<pid_t>(pid), &status, 0) < 0) {
        if (errno != EINTR)
            return 127;
    }
    return exitCode(status);
}

/** body(k) for k in [0, n) on @p threads threads, chunked. */
template <typename F>
void
parallelFor(unsigned threads, std::size_t n, std::size_t chunk, F &&body)
{
    std::atomic<std::size_t> next{0};
    onThreads(threads, [&](unsigned) {
        for (std::size_t b; (b = next.fetch_add(chunk)) < n;) {
            for (std::size_t k = b; k < std::min(n, b + chunk); ++k)
                body(k);
        }
    });
}

/** graphport_cli sweep-worker argv that rebuilds @p cfg's universe. */
std::vector<std::string>
workerBase(const StudyConfig &cfg, const std::string &cliExe)
{
    std::vector<std::string> base = {cliExe, "sweep-worker",
                                     "--schedule-space", cfg.space};
    if (cfg.smallApps != 0) {
        base.push_back("--small");
        base.push_back(std::to_string(cfg.smallApps));
    }
    return base;
}

/** The sweep a workload pays for: in process, or sharded. */
runner::Dataset
sweep(const runner::Universe &u, const StudyConfig &cfg,
      const std::string &cliExe, const std::string &dir)
{
    if (!cfg.sharded) {
        runner::BuildOptions opts;
        opts.threads = kStudyThreads;
        return runner::Dataset::build(u, opts);
    }
    shard::SweepShardOptions opts;
    opts.shards = kSweepShards;
    opts.workerThreads = 1;
    opts.shardDir = dir + "/shards";
    fs::create_directories(opts.shardDir);
    opts.baseWorkerArgv = workerBase(cfg, cliExe);
    return shard::shardedSweep(u, opts);
}

/** Times of the layers inside Dataset::build, replayed. */
struct SweepLayers
{
    double genS = 0.0, recordS = 0.0, compactS = 0.0, priceS = 0.0;
    double launches = 0.0, unique = 0.0, cells = 0.0;
};

/**
 * graph gen -> record -> compact -> price over the whole universe at
 * the sweep's thread count, each under its own span: the calls
 * Dataset::build makes, in its order.
 */
SweepLayers
replaySweep(const runner::Universe &u, SpanRecorder &rec)
{
    namespace dsl = graphport::dsl;
    const std::size_t nApps = u.apps.size();
    const std::size_t nTraces = nApps * u.inputs.size();
    SweepLayers l;

    std::vector<graphport::graph::Csr> graphs;
    l.genS = rec.timed("graph.gen", [&] {
        for (const runner::InputSpec &in : u.inputs)
            graphs.push_back(in.make());
    });
    std::vector<dsl::AppTrace> traces(nTraces);
    l.recordS = rec.timed("apps.record", [&] {
        parallelFor(kStudyThreads, nTraces, 1, [&](std::size_t k) {
            auto run = graphport::apps::runApp(
                graphport::apps::appByName(u.apps[k % nApps]),
                graphs[k / nApps], u.inputs[k / nApps].name);
            traces[k] = std::move(run.second);
        });
    });
    std::vector<dsl::CompactTrace> compact(nTraces);
    l.compactS = rec.timed("dsl.compact", [&] {
        parallelFor(kStudyThreads, nTraces, 1, [&](std::size_t k) {
            compact[k] = dsl::compactTrace(traces[k]);
        });
    });
    for (const dsl::CompactTrace &c : compact) {
        l.launches += static_cast<double>(c.launchCount());
        l.unique += static_cast<double>(c.uniqueCount());
    }
    const std::vector<dsl::Schedule> &schedules = u.space.all();
    std::vector<const graphport::sim::ChipModel *> chips;
    for (const std::string &name : u.chips)
        chips.push_back(&runner::chipFor(u, name));
    const std::size_t nCfg = schedules.size();
    const std::size_t cells = nTraces * chips.size() * nCfg;
    l.cells = static_cast<double>(cells);
    std::vector<double> sink(cells);
    l.priceS = rec.timed("sim.price", [&] {
        parallelFor(kStudyThreads, cells, 32, [&](std::size_t w) {
            const graphport::sim::ChipModel &chip =
                *chips[(w / nCfg) % chips.size()];
            const graphport::sim::CostEngine engine(chip,
                                                    schedules[w % nCfg]);
            const double base =
                engine.appTimeNs(compact[w / (nCfg * chips.size())]);
            double acc = 0.0;
            for (unsigned r = 0; r < u.runs; ++r)
                acc += graphport::sim::noisyTimeNs(base, chip.noiseSigma,
                                                   w * 8 + r);
            sink[w] = acc;
        });
    });
    return l;
}

/**
 * The shard layer's workers, replayed: the sweep-worker processes a
 * sharded sweep spawns, with the coordinator's own argv, run
 * concurrently. Returns the slowest worker's wall time and their
 * checkpoints in @p gpks.
 */
double
replayWorkers(const StudyConfig &cfg, const std::string &cliExe,
              const std::string &dir, std::vector<std::string> *gpks)
{
    const std::string shardDir = dir + "/replay-shards";
    fs::remove_all(shardDir);
    fs::create_directories(shardDir);
    const std::size_t every = shard::SweepShardOptions{}.checkpointEvery;
    std::vector<long> pids;
    std::vector<std::uint64_t> started;
    for (std::size_t s = 0; s < kSweepShards; ++s) {
        gpks->push_back(
            shard::shardCheckpointPath(shardDir, s, kSweepShards));
        started.push_back(nowNs());
        pids.push_back(spawn(shard::sweepWorkerArgv(
            workerBase(cfg, cliExe), s, kSweepShards, 1, gpks->back(),
            every, "", false)));
    }
    double slowest = 0.0;
    for (std::size_t reaped = 0; reaped < pids.size();) {
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, 0);
        if (pid < 0) {
            failIf(errno != EINTR, "lost a replayed sweep worker");
            continue;
        }
        for (std::size_t s = 0; s < pids.size(); ++s) {
            if (pids[s] != pid)
                continue;
            failIf(exitCode(status) != 0,
                   "replayed sweep worker exited with code " +
                       std::to_string(exitCode(status)));
            slowest = std::max(slowest, secondsBetween(started[s], nowNs()));
            ++reaped;
        }
    }
    return slowest;
}

/**
 * Replay, each under its own span and at the pass's thread count, the
 * calls Dataset::build, the shard layer and StrategyIndex::build make
 * internally. @p pass holds the pass's own step times; what the
 * replayed layers do not explain becomes the unattributed rows.
 */
void
replayLayers(const runner::Universe &u, const runner::Dataset &ds,
             const StudyConfig &cfg, const std::string &cliExe,
             const std::string &dir, const MetricSet &pass,
             SpanRecorder &rec, MetricSet &out)
{
    namespace dsl = graphport::dsl;
    namespace port = graphport::port;
    // One replay drifts by +-10% on a shared machine, so every layer
    // is replayed twice and the attribution compares means: each step
    // the pipeline timed once is also replayed once as a whole.
    constexpr unsigned kRounds = 2;
    std::vector<port::Specialisation> specs = {{false, false, false}};
    for (const port::Specialisation &s : port::Specialisation::lattice())
        specs.push_back(s);
    specs.push_back({true, true, true});
    SweepLayers sw;
    double collectS = 0.0, alg1S = 0.0, tabulateS = 0.0, looS = 0.0;
    std::vector<port::Strategy> strategies;
    for (unsigned r = 0; r < kRounds; ++r) {
        const SweepLayers l = replaySweep(u, rec);
        sw.genS += l.genS / kRounds;
        sw.recordS += l.recordS / kRounds;
        sw.compactS += l.compactS / kRounds;
        sw.priceS += l.priceS / kRounds;
        sw.launches = l.launches;
        sw.unique = l.unique;
        sw.cells = l.cells;

        // StrategyIndex::build internals, in its order.
        std::map<std::string, dsl::AppTrace> byPair;
        collectS += rec.timed("port.collect_traces", [&] {
            byPair = port::collectTraces(u);
        }) / kRounds;
        alg1S += rec.timed("port.alg1", [&] {
            strategies = port::allStrategies(ds, 0.05);
        }) / kRounds;
        failIf(specs.size() != strategies.size(),
               "allStrategies no longer returns baseline + lattice + "
               "oracle");
        tabulateS += rec.timed("port.tabulate", [&] {
            for (std::size_t i = 0; i < strategies.size(); ++i)
                (void)port::tabulateStrategy(ds, strategies[i], specs[i]);
        }) / kRounds;
        looS += rec.timed("port.loo_predict", [&] {
            std::set<std::string> pairs;
            for (std::size_t t = 0; t < ds.numTests(); ++t) {
                const runner::Test test = ds.testAt(t);
                const std::string key = test.app + "|" + test.input;
                (void)port::extractFeatures(byPair.at(key));
                if (pairs.insert(key).second)
                    (void)port::predictConfig(ds, byPair, test.app,
                                              test.input, 3);
            }
        }) / kRounds;
    }
    double partitions = 0.0, mwuTests = 0.0, sigPairs = 0.0;
    for (const port::Strategy &s : strategies) {
        partitions += static_cast<double>(s.partitions.size());
        for (const auto &entry : s.partitions) {
            mwuTests += static_cast<double>(entry.second.decisions.size());
            for (const port::OptDecision &d : entry.second.decisions)
                sigPairs += static_cast<double>(d.significantPairs);
        }
    }
    double indexS = pass.get("serve.index_build_s");
    indexS = 0.5 * (indexS + rec.timed("serve.index_build", [&] {
                        (void)serve::StrategyIndex::build(ds);
                    }));
    fs::remove_all(dir + "/shards");
    const double buildS =
        0.5 * (pass.get("runner.build_s") +
               rec.timed(cfg.sharded ? "shard.sweep" : "runner.build", [&] {
                   (void)sweep(u, cfg, cliExe, dir);
               }));

    // ---- the shard layer: workers writing .gpk, then the merge ------
    std::vector<std::string> gpks;
    double workerS = 0.0;
    for (unsigned r = 0; r < kRounds; ++r) {
        gpks.clear();
        if (cfg.sharded) {
            rec.timed("shard.workers", [&] {
                workerS += replayWorkers(cfg, cliExe, dir, &gpks) / kRounds;
            });
            continue;
        }
        // A 1-process sweep that checkpoints writes the same .gpk rows
        // a shard worker does, so the layer is measured on every
        // universe.
        runner::BuildOptions opts;
        opts.threads = kStudyThreads;
        opts.checkpointPath = dir + "/replay.gpk";
        opts.keepCheckpoint = true;
        fs::remove(opts.checkpointPath);
        workerS += rec.timed("shard.workers", [&] {
            (void)runner::Dataset::build(u, opts);
        }) / kRounds;
        gpks.push_back(opts.checkpointPath);
    }
    double gpkBytes = 0.0;
    for (const std::string &p : gpks)
        gpkBytes += static_cast<double>(fileBytes(p));
    std::optional<runner::Dataset> merged;
    const double mergeS = rec.timed("shard.merge", [&] {
        merged.emplace(runner::Dataset::fromShardCheckpoints(u, gpks));
    });
    failIf(merged->contentHash() != ds.contentHash(),
           "the strict merge of the checkpoints differs from the sweep");

    // ---- attribution ----------------------------------------------
    // In process, the sweep is the replayed layers. Sharded, it is the
    // slowest worker plus the merge; the workers' own time beyond the
    // replayed layers (checkpoint writes, process start, imbalance
    // between the shards' ranges) is the shard layer's overhead.
    const double layersS = sw.genS + sw.recordS + sw.compactS + sw.priceS;
    const double runnerUnattributed =
        cfg.sharded ? buildS - workerS - mergeS : buildS - layersS;
    const double indexUnattributed =
        indexS - collectS - alg1S - tabulateS - looS;
    double steps = 0.0;
    for (const char *step :
         {"runner.build_s", "runner.csv_save_s", "serve.index_build_s",
          "serve.index_save_s", "serve.freeze_s", "portfolio.matrix_s",
          "portfolio.solve_s"})
        steps += pass.get(step);
    const double studyS = pass.get("study_s");
    const double glue = studyS - steps;

    out.set("graph.gen_s", sw.genS, "s");
    out.set("apps.record_s", sw.recordS, "s");
    out.set("dsl.compact_s", sw.compactS, "s");
    out.set("dsl.launches_total", sw.launches, "count");
    out.set("dsl.launches_unique", sw.unique, "count");
    out.set("sim.price_s", sw.priceS, "s");
    out.set("sim.cells", sw.cells, "count");
    out.set("sim.cells_per_s", sw.cells / sw.priceS, "1/s");
    out.set("runner.unattributed_s", runnerUnattributed, "s");
    out.set("shard.workers_s", workerS, "s");
    out.set("shard.worker_overhead_s", workerS - layersS, "s");
    out.set("shard.gpk_bytes", gpkBytes, "bytes");
    out.set("shard.merge_s", mergeS, "s");
    out.set("port.collect_traces_s", collectS, "s");
    out.set("port.alg1_s", alg1S, "s");
    out.set("port.partitions", partitions, "count");
    out.set("stats.mwu_tests", mwuTests, "count");
    out.set("stats.significant_pairs", sigPairs, "count");
    out.set("port.tabulate_s", tabulateS, "s");
    out.set("port.loo_predict_s", looS, "s");
    out.set("serve.index_unattributed_s", indexUnattributed, "s");
    out.set("study.unattributed_frac",
            (glue + runnerUnattributed + indexUnattributed) / studyS,
            "frac");
}

std::string
argValue(const std::vector<std::string> &args, const std::string &flag,
         const std::string &fallback)
{
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == flag)
            return args[i + 1];
    }
    return fallback;
}

bool
hasFlag(const std::vector<std::string> &args, const std::string &flag)
{
    for (const std::string &a : args) {
        if (a == flag)
            return true;
    }
    return false;
}

/** What one pass child reported. */
struct PassReport
{
    MetricSet values;
    std::map<std::string, std::string> digests;
    std::vector<Span> spans;
};

PassReport
readReport(const std::string &path)
{
    std::ifstream in(path);
    failIf(!in.good(), "study pass left no report at " + path);
    PassReport r;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string tag, name, value, unit;
        fields >> tag >> name >> value >> unit;
        if (tag == "value")
            r.values.set(name, std::stod(value), unit);
        else if (tag == "digest")
            r.digests[name] = value;
        else if (Span s; SpanRecorder::parseLine(line, &s))
            r.spans.push_back(std::move(s));
    }
    return r;
}

} // namespace

int
passMain(const std::vector<std::string> &args)
{
    StudyConfig cfg;
    cfg.space = argValue(args, "--space", "legacy");
    cfg.sharded = hasFlag(args, "--sharded");
    cfg.smallApps =
        static_cast<unsigned>(std::stoul(argValue(args, "--small", "0")));
    cfg.seed = std::stoull(
        argValue(args, "--seed", std::to_string(kPinnedSeed)));
    const std::string dir = argValue(args, "--dir", ".");
    const std::string cliExe = argValue(args, "--cli", "");
    const bool traced = hasFlag(args, "--trace");

    if (hasFlag(args, "--setup-only")) {
        // A set-up probe: a pass that stops where its first call into
        // runner would be, then sets up serving the way a fresh
        // `graphport` process does: load the index and freeze it.
        const std::uint64_t start = nowNs();
        const serve::Advisor advisor(
            serve::StrategyIndex::loadFile(argValue(args, "--gpi", "")));
        const double serveS = secondsBetween(start, nowNs());
        std::ofstream out(dir + "/pass.out");
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", serveS);
        out << "value start_ns " << start << " ns\n"
            << "value serve_setup_s " << buf << " s\n";
        return out ? 0 : 1;
    }
    if (traced) {
        // The replays run in a warm process; warm it the same way
        // before the pipeline, so pipeline and replays compare like
        // for like. Untraced passes keep the cold start users pay.
        SpanRecorder quiet(false);
        (void)replaySweep(makeUniverse(cfg), quiet);
    }

    SpanRecorder rec(traced);
    MetricSet m;
    // Set-up ends here: the next statement is the first call into
    // runner.
    m.set("start_ns", static_cast<double>(nowNs()), "ns");
    const SpanRecorder::Token passSpan = rec.open("study.pass");
    const runner::Universe u = makeUniverse(cfg);

    std::optional<runner::Dataset> ds;
    m.set("runner.build_s",
          rec.timed(cfg.sharded ? "shard.sweep" : "runner.build",
                    [&] { ds.emplace(sweep(u, cfg, cliExe, dir)); }),
          "s");
    const std::string csvPath = dir + "/study.csv";
    m.set("runner.csv_save_s", rec.timed("runner.csv_save", [&] {
        std::ofstream os(csvPath);
        ds->saveCsv(os);
        os.close();
        failIf(!os, "cannot write " + csvPath);
    }),
          "s");
    std::optional<serve::StrategyIndex> index;
    m.set("serve.index_build_s", rec.timed("serve.index_build", [&] {
        index.emplace(serve::StrategyIndex::build(*ds));
    }),
          "s");
    const std::string gpiPath = dir + "/index.gpi";
    m.set("serve.index_save_s",
          rec.timed("serve.index_save", [&] { index->saveFile(gpiPath); }),
          "s");
    std::optional<serve::Advisor> advisor;
    m.set("serve.freeze_s", rec.timed("serve.freeze", [&] {
        advisor.emplace(std::move(*index));
    }),
          "s");
    std::optional<graphport::portfolio::SlowdownMatrix> matrix;
    m.set("portfolio.matrix_s", rec.timed("portfolio.matrix", [&] {
        matrix.emplace(graphport::portfolio::SlowdownMatrix::build(
            *ds, kStudyThreads));
    }),
          "s");
    graphport::portfolio::CoverOptions cover;
    cover.epsilon = 0.10;
    cover.threads = kStudyThreads;
    std::optional<graphport::portfolio::CoverSolution> solution;
    m.set("portfolio.solve_s", rec.timed("portfolio.solve", [&] {
        solution.emplace(graphport::portfolio::solveCover(*matrix, cover));
    }),
          "s");
    m.set("study_s", rec.close(passSpan), "s");

    // ---- outputs, off the clock -----------------------------------
    m.set("runner.csv_bytes", static_cast<double>(fileBytes(csvPath)),
          "bytes");
    m.set("serve.index_bytes", static_cast<double>(fileBytes(gpiPath)),
          "bytes");
    m.set("portfolio.members",
          static_cast<double>(solution->members.size()), "count");
    std::map<std::string, std::string> digests;
    digests["dataset"] = hex64(ds->contentHash());
    digests["csv"] = hex64(digestFile(csvPath));
    digests["gpi"] = hex64(digestFile(gpiPath));
    {
        std::ostringstream gpp;
        graphport::portfolio::Portfolio::fromSolution(*ds, *solution)
            .save(gpp);
        const std::string bytes = gpp.str();
        digests["gpp"] = hex64(digestBytes(bytes.data(), bytes.size()));
    }
    {
        const QueryTable table =
            makeQueryTable(advisor->lease()->index);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const serve::Query &q : table.queries)
            h = digestAdvice(advisor->advise(q), h);
        digests["answers"] = hex64(h);
    }
    if (hasFlag(args, "--reload-csv")) {
        std::ifstream csv(csvPath);
        digests["csv_reload"] =
            hex64(runner::Dataset::loadCsv(u, csv).contentHash());
    }
    if (traced) {
        const MetricSet passValues = m;
        replayLayers(u, *ds, cfg, cliExe, dir, passValues, rec, m);
    }
    // This process and the shard workers it spawned and reaped.
    m.set("peak_rss_mb", std::max(selfPeakRssMb(), childrenPeakRssMb()),
          "MB");

    std::ofstream out(dir + "/pass.out");
    char buf[64];
    for (const Metric &metric : m.all()) {
        std::snprintf(buf, sizeof buf, "%.17g", metric.value);
        out << "value " << metric.name << ' ' << buf << ' '
            << metric.unit << '\n';
    }
    for (const auto &[name, value] : digests)
        out << "digest " << name << ' ' << value << '\n';
    rec.writeLines(out);
    out.close();
    return out ? 0 : 1;
}

StudyPhase::StudyPhase(const StudyConfig &cfg, const Env &env, bool traced,
                       SpanRecorder &rec, Tally &tally)
    : cfg_(cfg), env_(env), traced_(traced), rec_(rec), tally_(tally), dir_(env.workDir + "/pass"),
      gpiPath_(env.workDir + "/serve.gpi")
{
    // graphport_cli sweep-worker rebuilds the universe at the paper's
    // seed and has no flag for another, so a sharded sweep always runs
    // at the pinned seed.
    if (cfg_.sharded)
        cfg_.seed = kPinnedSeed;
    argv_ = {env_.selfExe, "pass",
             "--space",    cfg_.space,
             "--small",    std::to_string(cfg_.smallApps),
             "--seed",     std::to_string(cfg_.seed),
             "--dir",      dir_,
             "--cli",      env_.cliExe,
             cfg_.sharded ? "--sharded" : "--in-process",
             traced_ ? "--trace" : "--untraced"};
}

bool
StudyPhase::runPass()
{
    if (failed_)
        return false;
    const Pinned *pinned = nullptr;
    for (const Pinned &p : kPinned) {
        if (cfg_.seed == kPinnedSeed && universeName(cfg_) == p.universe &&
            cfg_.space == p.space)
            pinned = &p;
    }
    // A fresh directory per pass: leftover shard checkpoints would let
    // the next sweep resume instead of pricing.
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // The first pass also loads its CSV back, which is too slow to
    // repeat on every pass.
    const bool first = passes_ == 0;
    std::vector<std::string> argv = argv_;
    if (first)
        argv.push_back("--reload-csv");
    const SpanRecorder::Token span = rec_.open("study.process");
    const std::uint64_t spawnNs = nowNs();
    const long pid = spawn(argv);
    const int code = waitFor(pid);
    ++tally_.attempted;
    if (code != 0) {
        rec_.close(span);
        tally_.fail("study pass exited with code " + std::to_string(code));
        failed_ = true;
        return false;
    }
    PassReport report = readReport(dir_ + "/pass.out");
    rec_.adopt(report.spans, pid);
    rec_.close(span);
    ++passes_;
    const double passS = report.values.get("study_s");
    const double setup =
        (report.values.get("start_ns") - static_cast<double>(spawnNs)) *
        1e-9;
    studyS_.push_back(passS);
    spawnS_.push_back(setup);
    peakRssMb_ = std::max(peakRssMb_, report.values.get("peak_rss_mb"));
    std::printf("  pass %u: study_s %.4f, spawn -> runner %.3f ms\n",
                passes_, passS, setup * 1e3);
    std::fflush(stdout);

    bool good = true;
    for (std::size_t d = 0; pinned != nullptr && d < 6; ++d) {
        const auto it = report.digests.find(kDigestNames[d]);
        const std::string got = it == report.digests.end() ? "" : it->second;
        // csv_reload is taken on the first pass only.
        if (got.empty() && d == 1 && !first)
            continue;
        if (got != pinned->digests[d]) {
            std::printf("  digest %s: got %s, pinned %s\n", kDigestNames[d],
                        got.c_str(), pinned->digests[d]);
            good = false;
        }
    }
    report.digests.erase("csv_reload");
    if (first) {
        digests_ = report.digests;
        fs::copy_file(dir_ + "/index.gpi", gpiPath_,
                      fs::copy_options::overwrite_existing);
        for (const auto &[name, value] : digests_)
            std::printf("  digest %-8s %s\n", name.c_str(), value.c_str());
    }
    if (!good || report.digests != digests_)
        tally_.fail("study pass outputs differ from the pinned or first "
                    "pass's digests");
    if (traced_)
        layers_ = report.values;
    return true;
}

void
StudyPhase::probeSetup(unsigned n)
{
    std::vector<std::string> probe = argv_;
    probe.insert(probe.end(), {"--setup-only", "--gpi", gpiPath_});
    std::vector<double> spawnTimes, loadTimes;
    for (unsigned k = 0; k < n; ++k) {
        const std::uint64_t spawnNs = nowNs();
        const int code = waitFor(spawn(probe));
        ++tally_.attempted;
        if (code != 0) {
            tally_.fail("a set-up probe exited with code " +
                        std::to_string(code));
            return;
        }
        const PassReport report = readReport(dir_ + "/pass.out");
        spawnTimes.push_back(
            (report.values.get("start_ns") - static_cast<double>(spawnNs)) *
            1e-9);
        loadTimes.push_back(report.values.get("serve_setup_s"));
    }
    std::printf("  %u set-up probes; spawn -> runner, load + freeze (ms):",
                n);
    for (unsigned k = 0; k < n; ++k) {
        spawnS_.push_back(spawnTimes[k]);
        loadS_.push_back(loadTimes[k]);
        std::printf(" %.3f/%.3f", spawnTimes[k] * 1e3, loadTimes[k] * 1e3);
    }
    std::printf("\n");
    std::fflush(stdout);
}

} // namespace perf
