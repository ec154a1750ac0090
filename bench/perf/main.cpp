/**
 * @file
 * graphport_perf: the benchmark of graphport's two pipelines.
 *
 *   graphport_perf --workload W [--seed S] [--seconds T] [--trace DIR]
 *                  [--json FILE] [--work DIR] [--git-sha SHA]
 *   graphport_perf --smoke
 *
 * Every workload runs the whole product: study passes (fresh-process
 * sweep -> CSV -> strategy index -> freeze -> portfolio) alternating
 * with serve blocks over the index the first pass wrote. Workloads
 * differ in the schedule space, the sweep (in process or sharded) and
 * the query mix; see README.md for why each was chosen. Without --trace a run prints the end-to-end
 * metrics; with --trace it measures every layer instead and writes a
 * Chrome trace and a self-time table into DIR.
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. The exit code is 0 only when
 * every output check passed.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sched.h>
#include <string>
#include <unistd.h>
#include <vector>

#include "common.hpp"
#include "serve.hpp"
#include "spans.hpp"
#include "speed.hpp"
#include "study.hpp"

#ifndef GRAPHPORT_PERF_BUILD_TYPE
#define GRAPHPORT_PERF_BUILD_TYPE "unknown"
#endif

namespace perf {
namespace {

namespace fs = std::filesystem;

/** CPUs the workloads need: up to 3 busy threads plus the OS. */
constexpr unsigned kMinCpus = 4;

/** Fewest study passes of an untraced run: a median needs three. */
constexpr unsigned kMinPasses = 3;

/** Set-up probes after every study pass. */
constexpr unsigned kSetupProbes = 6;

/** Shortest serve block, for passes shorter than that (--smoke). */
constexpr double kMinBlockS = 0.5;

struct Workload
{
    const char *name;
    StudyConfig study;
    Mix mix;
};

// Why each workload exists is recorded in README.md and
// BENCHMARK.json: study-wide takes the extended space, the sharded
// sweep and the k-NN path that study bypasses. No workload serves
// through shard::Router: on a shared host its open-loop latency
// measures the host's vCPU stalls (README.md), so the routed path is
// measured per layer only, in every traced run.
const Workload kWorkloads[] = {
    {"study", {"legacy", false}, Mix::KnownChips},
    {"study-wide", {"extended", true}, Mix::Mixed},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0x5eed;
    double seconds = 30.0;
    std::string traceDir;
    std::string jsonPath;
    std::string workDir;
    std::string gitSha = "unknown";
    bool smoke = false;
};

struct RunResult
{
    MetricSet metrics;
    Tally tally;
    /** CPU seconds stolen by the hypervisor during the run. */
    double stealS = 0.0;
};

unsigned
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN));
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string a, b, c;
    in >> a >> b >> c;
    return a + " " + b + " " + c;
}

/**
 * CPU seconds the hypervisor has taken from this machine since boot
 * (the steal column of /proc/stat): a run during which it grows fast
 * measured a contended machine.
 */
double
stealSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    unsigned long long field[8] = {};
    in >> cpu;
    for (unsigned long long &f : field)
        in >> f;
    return static_cast<double>(field[7]) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::string
selfExe(const char *argv0)
{
    std::error_code ec;
    const fs::path p = fs::read_symlink("/proc/self/exe", ec);
    return ec ? std::string(argv0) : p.string();
}

/** JSON string literal (the harness's names need no escaping). */
std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const MetricSet &m)
{
    std::string s = "{";
    for (std::size_t k = 0; k < m.all().size(); ++k) {
        const Metric &x = m.all()[k];
        s += (k ? ", " : "") + quoted(x.name) + ": {\"value\": " +
             number(x.value) + ", \"unit\": " + quoted(x.unit) + "}";
    }
    return s + "}";
}

RunResult
runWorkload(const Workload &w, const Options &opt, const Env &env,
            bool traced)
{
    RunResult res;
    SpanRecorder rec(traced);
    StudyConfig sc = w.study;
    sc.seed = opt.seed;
    sc.smallApps = opt.smoke ? 2 : 0;
    ServeConfig vc;
    vc.mix = w.mix;
    vc.seed = opt.seed;
    std::printf("workload %s: %s space, %s sweep; serve in process, %s "
                "stream\n",
                w.name, sc.space.c_str(),
                sc.sharded ? "sharded" : "in-process",
                w.mix == Mix::Mixed ? "mixed" : "known-chip");
    std::fflush(stdout);

    // Study passes and serve blocks alternate, each block as long as
    // the pass before it, until the run's time is spent: every metric
    // is then taken over the whole run, so drift of a shared machine
    // over the run moves all of them alike and no metric sits in a slow
    // stretch of its own. A failure ends the run, which is wrong
    // whatever follows; a failed study pass leaves no index worth
    // serving.
    MachineSpeed speed;
    StudyPhase study(sc, env, traced, rec, res.tally);
    std::optional<ServePhase> serve;
    const unsigned minPasses = opt.smoke ? 1 : kMinPasses;
    const std::uint64_t t0 = nowNs();
    const auto done = [&] {
        return res.tally.failed != 0 ||
               (study.passes() >= minPasses &&
                secondsBetween(t0, nowNs()) >= opt.seconds);
    };
    while (study.runPass() && res.tally.failed == 0) {
        if (!serve)
            serve.emplace(vc, env, study.gpiPath(),
                          study.digests().at("answers"), speed, rec,
                          res.tally);
        study.probeSetup(kSetupProbes);
        if (traced || done())
            break;
        serve->block(std::max(kMinBlockS, study.studyS().back()));
        if (done())
            break;
    }
    // The run's machine speed: the median of the measurements taken
    // while serving, with the program idle between its passes.
    const double runSpeed = median(speed.samples());
    if (!serve)
        std::printf("  no serving: the study phase failed\n");
    else if (traced)
        serve->measureLayers(res.metrics);
    else
        serve->report(res.metrics, runSpeed);
    const double harnessRssMb = serve ? serve->harnessRssMb() : 0.0;
    std::printf("  %u study passes; machine speed median %.3f over %zu "
                "measurements; harness RSS %.1f MB when serving\n",
                study.passes(), runSpeed, speed.samples().size(),
                harnessRssMb);
    res.metrics.set("machine.speed", runSpeed, "x");

    if (traced) {
        for (const Metric &m : study.layers().all()) {
            if (m.name != "start_ns" && m.name != "study_s")
                res.metrics.set(m.name, m.value, m.unit);
        }
        double covered = 0.0;
        for (const Span &sp : rec.spans()) {
            if (sp.parent < 0)
                covered += secondsBetween(sp.startNs, sp.endNs);
        }
        res.metrics.set("trace_overhead_frac",
                        static_cast<double>(rec.spans().size()) *
                            spanCostSeconds() / covered,
                        "frac");
        fs::create_directories(opt.traceDir);
        const std::string base = opt.traceDir + "/" + w.name;
        rec.writeChromeTrace(base + ".trace.json");
        std::ofstream table(base + ".layers.txt");
        table << "# self time per span, seconds (" << w.name << ", seed "
              << opt.seed << ")\n";
        for (const auto &[name, self] : rec.selfSeconds()) {
            char line[160];
            std::snprintf(line, sizeof line, "%-28s %12.6f\n",
                          name.c_str(), self);
            table << line;
        }
        std::printf("  trace: %s.trace.json, %s.layers.txt\n", base.c_str(),
                    base.c_str());
    } else {
        const double studyS = median(study.studyS());
        const double setupS =
            median(study.spawnS()) + median(study.loadS());
        res.metrics.set("study_s", studyS * runSpeed, "s");
        res.metrics.set("setup_s", setupS * runSpeed, "s");
        res.metrics.set("raw.study_s", studyS, "s");
        res.metrics.set("raw.setup_s", setupS, "s");
    }
    // The largest of the processes: the harness serving in process, a
    // study pass with its shard workers. The router's serve-worker
    // processes are left out: the harness spawns them after its load
    // buffers have grown, so getrusage would charge them with those.
    res.metrics.set("peak_rss_mb", std::max(harnessRssMb, study.peakRssMb()),
                    "MB");
    for (const Metric &m : res.metrics.all()) {
        if (!std::isfinite(m.value))
            res.tally.fail("metric " + m.name + " is not a finite number");
    }
    return res;
}

void
printResult(const RunResult &r, const Options &opt, const std::string &name,
            bool traced)
{
    for (const Metric &m : r.metrics.all())
        std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const double errorRate =
        r.tally.attempted == 0
            ? 1.0
            : static_cast<double>(r.tally.failed) /
                  static_cast<double>(r.tally.attempted);
    std::printf("steal during the run: %.2f CPU s\n", r.stealS);
    std::printf("attempted %llu failed %llu error_rate %.3g\n",
                static_cast<unsigned long long>(r.tally.attempted),
                static_cast<unsigned long long>(r.tally.failed), errorRate);
    for (const std::string &c : r.tally.causes)
        std::printf("failure: %s\n", c.c_str());
    const bool correct = r.tally.failed == 0 && r.tally.attempted > 0;
    const std::string summary =
        "{\"correct\": " + std::string(correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(r.tally.attempted) +
        ", \"failed\": " + std::to_string(r.tally.failed) +
        ", \"metrics\": " + metricsJson(r.metrics) + "}";
    if (!opt.jsonPath.empty()) {
        std::ofstream js(opt.jsonPath);
        js << "{\"workload\": " << quoted(name)
           << ", \"seed\": " << opt.seed
           << ", \"seconds\": " << number(opt.seconds)
           << ", \"traced\": " << (traced ? "true" : "false")
           << ", \"fingerprint\": {\"nproc\": " << cpuCount()
           << ", \"compiler\": " << quoted("gcc " __VERSION__)
           << ", \"build_type\": " << quoted(GRAPHPORT_PERF_BUILD_TYPE)
           << ", \"git_sha\": " << quoted(opt.gitSha)
           << ", \"loadavg\": " << quoted(loadAverage())
           << ", \"steal_s\": " << number(r.stealS) << "}"
           << ", \"error_rate\": " << number(errorRate)
           << ", \"result\": " << summary << "}\n";
    }
    std::printf("%s\n", summary.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: graphport_perf --workload W [--seed S] "
                 "[--seconds T] [--trace DIR] [--json FILE] [--work DIR] "
                 "[--git-sha SHA]\n"
                 "       graphport_perf --smoke\n"
                 "workloads: study study-wide\n");
    return 2;
}

int
smoke(Options opt, const Env &envIn)
{
    // Every workload path and every output check, on the reduced
    // universe at the pinned seed, untraced and traced.
    opt.smoke = true;
    opt.seed = 0x5eed;
    opt.seconds = 1.0;
    bool ok = true;
    for (const Workload &w : kWorkloads) {
        for (const bool traced : {false, true}) {
            Env env = envIn;
            env.workDir += std::string("/") + w.name;
            opt.traceDir = env.workDir + "/trace";
            const RunResult r = runWorkload(w, opt, env, traced);
            const bool good = r.tally.failed == 0 && r.tally.attempted > 0;
            std::printf("smoke %-12s %-8s %s (%llu attempted, %llu "
                        "failed)\n",
                        w.name, traced ? "traced" : "untraced",
                        good ? "ok" : "FAILED",
                        static_cast<unsigned long long>(r.tally.attempted),
                        static_cast<unsigned long long>(r.tally.failed));
            for (const std::string &c : r.tally.causes)
                std::printf("  failure: %s\n", c.c_str());
            ok = ok && good;
        }
    }
    {
        // A pass child that fails (here on an unknown schedule space)
        // must end the study phase with one failure, not be respawned.
        Env env = envIn;
        env.workDir += "/failing-pass";
        StudyConfig bad;
        bad.space = "no-such-space";
        bad.smallApps = 2;
        SpanRecorder rec(false);
        Tally tally;
        std::printf("smoke failing-pass: the pass below must fail\n");
        std::fflush(stdout);
        StudyPhase phase(bad, env, false, rec, tally);
        const bool first = phase.runPass();
        const bool second = phase.runPass();
        const bool good = !first && !second && phase.passes() == 0 &&
                          tally.attempted == 1 && tally.failed == 1;
        std::printf("smoke %-12s %-8s %s (%llu attempted, %llu failed)\n",
                    "failing-pass", "untraced", good ? "ok" : "FAILED",
                    static_cast<unsigned long long>(tally.attempted),
                    static_cast<unsigned long long>(tally.failed));
        ok = ok && good;
    }
    fs::remove_all(envIn.workDir);
    return ok ? 0 : 1;
}

int
run(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && args[0] == "pass")
        return passMain({args.begin() + 1, args.end()});

    Options opt;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        const bool hasValue = i + 1 < args.size();
        if (a == "--smoke")
            opt.smoke = true;
        else if (a == "--workload" && hasValue)
            opt.workload = args[++i];
        else if (a == "--seed" && hasValue)
            opt.seed = std::stoull(args[++i], nullptr, 0);
        else if (a == "--seconds" && hasValue)
            opt.seconds = std::stod(args[++i]);
        else if (a == "--trace" && hasValue)
            opt.traceDir = args[++i];
        else if (a == "--json" && hasValue)
            opt.jsonPath = args[++i];
        else if (a == "--work" && hasValue)
            opt.workDir = args[++i];
        else if (a == "--git-sha" && hasValue)
            opt.gitSha = args[++i];
        else
            return usage();
    }

    Env env;
    env.selfExe = selfExe(argv[0]);
    const fs::path binDir = fs::path(env.selfExe).parent_path();
    env.cliExe = (binDir / "graphport_cli").string();
    env.workDir = opt.workDir.empty() ? (binDir / "perf-work").string()
                                      : opt.workDir;
    failIf(!fs::exists(env.cliExe),
           "graphport_cli not found next to graphport_perf (" +
               env.cliExe + ")");
    if (opt.smoke)
        return smoke(opt, env);

    const Workload *w = nullptr;
    for (const Workload &x : kWorkloads) {
        if (opt.workload == x.name)
            w = &x;
    }
    if (w == nullptr || opt.seconds <= 0.0)
        return usage();
    const unsigned cpus = cpuCount();
    std::printf("fingerprint: nproc %u, compiler gcc %s, build %s, git %s, "
                "loadavg %s\n",
                cpus, __VERSION__, GRAPHPORT_PERF_BUILD_TYPE,
                opt.gitSha.c_str(), loadAverage().c_str());
    if (cpus < kMinCpus) {
        std::fprintf(stderr,
                     "graphport_perf: refusing to measure: this machine "
                     "gives the benchmark %u CPUs, and its workloads keep "
                     "up to 3 threads busy beside the OS, so it needs %u. "
                     "Numbers taken here would mean nothing.\n",
                     cpus, kMinCpus);
        return 3;
    }
    env.workDir += std::string("/") + w->name;
    const bool traced = !opt.traceDir.empty();
    const double steal = stealSeconds();
    RunResult r = runWorkload(*w, opt, env, traced);
    r.stealS = stealSeconds() - steal;
    fs::remove_all(env.workDir);
    printResult(r, opt, w->name, traced);
    return r.tally.failed == 0 && r.tally.attempted > 0 ? 0 : 1;
}

} // namespace
} // namespace perf

int
main(int argc, char **argv)
{
    try {
        return perf::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "graphport_perf: %s\n", e.what());
        return 1;
    }
}
