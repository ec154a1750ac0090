/**
 * @file
 * The harness's own in-memory span recorder. It wraps calls into the
 * program from the outside (name, start, end, parent), keeps the spans
 * in memory, and writes them out once: as a Chrome trace and as a
 * self-time table. It is deliberately independent of graphport's
 * obs::Tracer, so a change to the program's observability layer can
 * never change what the benchmark attributes.
 *
 * Spans nest by call order on the recording thread. A study pass runs
 * in a child process; its spans travel back as text lines and are
 * adopted under the parent's open span, keeping the child's pid.
 */
#ifndef GRAPHPORT_PERF_SPANS_HPP
#define GRAPHPORT_PERF_SPANS_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perf {

/** One finished span. */
struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int id = 0;
    int parent = -1; ///< id of the enclosing span, -1 for a root
    long pid = 0;
};

class SpanRecorder
{
  public:
    /** A disabled recorder still times calls but keeps no spans. */
    explicit SpanRecorder(bool enabled);

    /**
     * Run @p fn under a span named @p name and return its wall time in
     * seconds. Spans opened inside @p fn become its children.
     */
    template <typename F>
    double
    timed(const std::string &name, F &&fn)
    {
        const Token t = open(name);
        fn();
        return close(t);
    }

    /** An open span: its index (-1 when disabled) and start time. */
    struct Token
    {
        int index = -1;
        std::uint64_t startNs = 0;
    };

    /** Open a span now. */
    Token open(const std::string &name);

    /** Close @p t now; returns its duration in seconds. */
    double close(const Token &t);

    /**
     * Adopt spans recorded by another process: their roots become
     * children of the currently open span.
     */
    void adopt(const std::vector<Span> &spans, long pid);

    const std::vector<Span> &spans() const { return spans_; }

    /** Serialise spans as "span <id> <parent> <start> <end> <name>". */
    void writeLines(std::ostream &os) const;

    /** Parse one writeLines line; false when it is not a span line. */
    static bool parseLine(const std::string &line, Span *out);

    /** Chrome trace-event JSON (load in chrome://tracing or Perfetto). */
    void writeChromeTrace(const std::string &path) const;

    /**
     * Self time per span name, summed over spans: each span's duration
     * minus the part of it its children cover. Sorted by self time.
     */
    std::vector<std::pair<std::string, double>> selfSeconds() const;

  private:
    bool enabled_;
    long pid_;
    std::vector<Span> spans_;
    std::vector<int> stack_; ///< indices into spans_ of open spans
};

/**
 * Measured cost of one span (open + close) in seconds, for the
 * trace-overhead estimate.
 */
double spanCostSeconds();

} // namespace perf

#endif // GRAPHPORT_PERF_SPANS_HPP
