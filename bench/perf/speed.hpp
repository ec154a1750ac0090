/**
 * @file
 * The machine's speed, measured beside the program.
 *
 * The benchmark was defined on a VM that shares its host with other
 * tenants. Throughput-bound code there runs, from one moment to the
 * next, at full speed or at about two thirds of it, while a
 * latency-bound loop hardly slows, as when another tenant keeps the
 * sibling hyperthread of a vCPU busy. How much of the time that
 * happens drifts over minutes, and it moved every timing of the
 * program by 10-30% between runs of the same code.
 *
 * MachineSpeed times a fixed kernel of the harness's own: string
 * hashing, probes of an open-addressing table, key copies and
 * floating-point dot products, the kinds of work the program does, on
 * its own data and without heap allocation, so no change to the
 * program or to its allocator changes it. It is timed for a few
 * milliseconds before each serve pass and trial, while the program is
 * idle. The median over a run, relative to a fixed nominal rate, is the
 * run's speed; the harness reports every timing at nominal speed: times
 * multiplied by the run's speed, rates divided by it.
 */
#ifndef GRAPHPORT_PERF_SPEED_HPP
#define GRAPHPORT_PERF_SPEED_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perf {

class MachineSpeed
{
  public:
    MachineSpeed();

    /**
     * Run the kernel on @p threads threads for @p seconds; returns its
     * rate per thread over the nominal rate (1: as fast as the machine
     * the benchmark was defined on usually is; below 1: slower). Every
     * result is kept for samples().
     */
    double measure(unsigned threads, double seconds);

    /** Every speed kept so far, in order. */
    const std::vector<double> &samples() const { return samples_; }

  private:
    /** The kernel's speed on the calling thread over @p seconds. */
    double measureHere(double seconds) const;

    /** One unit of work: 64 key lookups and one dot product. */
    std::uint64_t unit(std::size_t &key) const;

    std::string keyBytes_;
    std::vector<std::uint32_t> keyStart_;
    /** Open addressing: key index + 1 per slot, 0 when empty. */
    std::vector<std::uint32_t> slots_;
    std::vector<double> a_, b_;
    std::vector<double> samples_;
};

} // namespace perf

#endif // GRAPHPORT_PERF_SPEED_HPP
