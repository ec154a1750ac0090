/**
 * @file
 * Shared plumbing of the graphport_perf harness: the clock, metric
 * collection, failure accounting, digests, exact percentiles and the
 * seeded generator. All of it belongs to the benchmark, so a change to
 * the program under test cannot change how the program is measured.
 */
#ifndef GRAPHPORT_PERF_COMMON_HPP
#define GRAPHPORT_PERF_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

namespace perf {

/**
 * Monotonic nanoseconds. steady_clock is CLOCK_MONOTONIC on Linux, so
 * timestamps taken in different processes of one machine compare.
 */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(std::uint64_t startNs, std::uint64_t endNs)
{
    return static_cast<double>(endNs - startNs) * 1e-9;
}

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The measurements of one run, in the order they were taken. */
class MetricSet
{
  public:
    /** Record (or overwrite) @p name. */
    void set(const std::string &name, double value,
             const std::string &unit);

    /** Value of @p name (0 when missing). */
    double get(const std::string &name) const;

    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/**
 * Operations attempted and failed. A failure is an unanswered query, a
 * wrong answer, or a study pass whose outputs are wrong; each distinct
 * cause is kept once for the report.
 */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> causes;

    void fail(const std::string &cause, std::uint64_t n = 1);
};

/** FNV-1a 64 over raw bytes, chained through @p h. */
std::uint64_t digestBytes(const void *data, std::size_t n,
                          std::uint64_t h = 0xcbf29ce484222325ull);

/** Digest of a whole file (fatal when unreadable). */
std::uint64_t digestFile(const std::string &path);

/** Size of a file in bytes (0 when missing). */
std::uint64_t fileBytes(const std::string &path);

/**
 * Peak resident set in MB of this process's own program image (VmHWM):
 * what it has touched since it was exec'd. getrusage's figure is no
 * use for that: Linux charges a process spawned with vfork semantics,
 * as posix_spawn and Python's subprocess do, with its parent's peak
 * up to the exec.
 */
double selfPeakRssMb();

/**
 * Peak resident set in MB of the largest child this process has waited
 * for, with that child's own waited-for descendants (getrusage). A
 * child charged with this process's peak reads at least that.
 */
double childrenPeakRssMb();

/** 16-digit lower-case hex. */
std::string hex64(std::uint64_t v);

/** splitmix64: the harness's only source of randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform in [0, 1). */
    double nextDouble();

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n);

  private:
    std::uint64_t state_;
};

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> v);

/**
 * Exact nearest-rank percentile @p p (0..100] of raw samples: the
 * smallest sample with at least p% of the samples at or below it.
 * Reorders @p v; 0 when empty.
 */
double percentile(std::vector<double> &v, double p);

/**
 * Run @p worker(t) for t in [0, @p threads) on that many threads and
 * join them all; the first exception a worker threw is rethrown.
 */
template <typename F>
void
onThreads(unsigned threads, F &&worker)
{
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            try {
                worker(t);
            } catch (...) {
                errors[t] = std::current_exception();
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

/** Throws std::runtime_error(@p what) when @p cond holds. */
void failIf(bool cond, const std::string &what);

} // namespace perf

#endif // GRAPHPORT_PERF_COMMON_HPP
