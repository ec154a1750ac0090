#include "speed.hpp"

#include <atomic>
#include <cstring>

#include "common.hpp"

namespace perf {

namespace {

/**
 * Units per microsecond per thread of the kernel on the machine the
 * benchmark was defined on (a 4-vCPU KVM guest at 2.1 GHz, GCC 12.2,
 * Release), measured on 2 threads while the program is idle: the median
 * over the runs that set the bounds.
 */
constexpr double kNominalRate = 0.32;

constexpr std::size_t kKeys = 2048;
constexpr std::size_t kSlots = 4096; // a power of two, twice kKeys
constexpr std::size_t kDot = 2048;

std::uint64_t
fnv1a(const char *p, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(p[i]);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Keeps the kernel's results observable, so no loop is elided. */
std::atomic<std::uint64_t> g_sink{0};

} // namespace

MachineSpeed::MachineSpeed() : slots_(kSlots, 0), a_(kDot), b_(kDot)
{
    // Keys shaped like the program's (app|input|chip); fixed, so every
    // run and every commit times the same work.
    Rng rng(0x7265666572656e63ull);
    for (std::size_t k = 0; k < kKeys; ++k) {
        keyStart_.push_back(static_cast<std::uint32_t>(keyBytes_.size()));
        keyBytes_ += "app" + std::to_string(rng.below(20)) + "|input-" +
                     std::to_string(rng.below(1000000)) + "|chip" +
                     std::to_string(k);
    }
    keyStart_.push_back(static_cast<std::uint32_t>(keyBytes_.size()));
    for (std::size_t k = 0; k < kKeys; ++k) {
        const char *p = keyBytes_.data() + keyStart_[k];
        std::size_t s = fnv1a(p, keyStart_[k + 1] - keyStart_[k]) &
                        (kSlots - 1);
        while (slots_[s] != 0)
            s = (s + 1) & (kSlots - 1);
        slots_[s] = static_cast<std::uint32_t>(k + 1);
    }
    for (std::size_t i = 0; i < kDot; ++i) {
        a_[i] = 0.5 * static_cast<double>(i);
        b_[i] = 1.0 / static_cast<double>(i + 1);
    }
    (void)measureHere(0.005); // fault in and warm the kernel's data
}

std::uint64_t
MachineSpeed::unit(std::size_t &key) const
{
    std::uint64_t sum = 0;
    char out[96];
    for (int i = 0; i < 64; ++i) {
        const char *p = keyBytes_.data() + keyStart_[key];
        const std::size_t n = keyStart_[key + 1] - keyStart_[key];
        std::size_t s = fnv1a(p, n) & (kSlots - 1);
        while (slots_[s] != 0) {
            const std::size_t k = slots_[s] - 1;
            if (keyStart_[k + 1] - keyStart_[k] == n &&
                std::memcmp(keyBytes_.data() + keyStart_[k], p, n) == 0)
                break;
            s = (s + 1) & (kSlots - 1);
        }
        std::memcpy(out, p, n);
        std::memcpy(out + n, "/answer", 7);
        sum += slots_[s] + static_cast<unsigned char>(out[n / 2]);
        key = (key * 7 + 13) % kKeys;
    }
    double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
    for (std::size_t i = 0; i < kDot; i += 4) {
        d0 += a_[i] * b_[i];
        d1 += a_[i + 1] * b_[i + 1];
        d2 += a_[i + 2] * b_[i + 2];
        d3 += a_[i + 3] * b_[i + 3];
    }
    return sum + static_cast<std::uint64_t>(d0 + d1 + d2 + d3);
}

double
MachineSpeed::measureHere(double seconds) const
{
    const std::uint64_t budgetNs = static_cast<std::uint64_t>(seconds * 1e9);
    std::size_t key = static_cast<std::size_t>(nowNs() % kKeys);
    std::uint64_t sum = 0;
    std::uint64_t units = 0;
    const std::uint64_t t0 = nowNs();
    std::uint64_t now = t0;
    do {
        for (int i = 0; i < 8; ++i)
            sum += unit(key);
        units += 8;
        now = nowNs();
    } while (now - t0 < budgetNs);
    g_sink.store(sum, std::memory_order_relaxed);
    const double rate = static_cast<double>(units) /
                        (static_cast<double>(now - t0) * 1e-3);
    return rate / kNominalRate;
}

double
MachineSpeed::measure(unsigned threads, double seconds)
{
    std::vector<double> speed(threads, 0.0);
    onThreads(threads, [&](unsigned t) { speed[t] = measureHere(seconds); });
    double mean = 0.0;
    for (const double s : speed)
        mean += s / threads;
    samples_.push_back(mean);
    return mean;
}

} // namespace perf
