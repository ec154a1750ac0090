#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/stat.h>

namespace perf {

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

double
MetricSet::get(const std::string &name) const
{
    for (const Metric &m : metrics_) {
        if (m.name == name)
            return m.value;
    }
    return 0.0;
}

void
Tally::fail(const std::string &cause, std::uint64_t n)
{
    failed += n;
    if (std::find(causes.begin(), causes.end(), cause) == causes.end())
        causes.push_back(cause);
}

std::uint64_t
digestBytes(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
digestFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    failIf(!in.good(), "cannot read " + path);
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::vector<char> buf(1 << 16);
    while (in) {
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        h = digestBytes(buf.data(), static_cast<std::size_t>(in.gcount()),
                        h);
    }
    return h;
}

std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

double
selfPeakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
        in.ignore(1 << 20, '\n');
    }
    failIf(true, "no VmHWM in /proc/self/status");
    return 0.0;
}

double
childrenPeakRssMb()
{
    struct rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    return n == 0 ? 0 : next() % n;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t k = std::min(
        v.size() - 1,
        static_cast<std::size_t>(std::max(1.0, rank)) - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

void
failIf(bool cond, const std::string &what)
{
    if (cond)
        throw std::runtime_error(what);
}

} // namespace perf
