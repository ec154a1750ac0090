#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <unistd.h>

namespace perf {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), pid_(static_cast<long>(::getpid()))
{}

SpanRecorder::Token
SpanRecorder::open(const std::string &name)
{
    Token t;
    t.startNs = nowNs();
    if (!enabled_)
        return t;
    Span s;
    s.name = name;
    s.startNs = t.startNs;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : spans_[stack_.back()].id;
    s.pid = pid_;
    t.index = s.id;
    spans_.push_back(std::move(s));
    stack_.push_back(t.index);
    return t;
}

double
SpanRecorder::close(const Token &t)
{
    const std::uint64_t end = nowNs();
    if (t.index >= 0) {
        spans_[static_cast<std::size_t>(t.index)].endNs = end;
        // Spans close in reverse order of opening; a span closed out
        // of order would corrupt the nesting, so pop exactly it.
        const auto it = std::find(stack_.begin(), stack_.end(), t.index);
        if (it != stack_.end())
            stack_.erase(it, stack_.end());
    }
    return secondsBetween(t.startNs, end);
}

void
SpanRecorder::adopt(const std::vector<Span> &spans, long pid)
{
    if (!enabled_)
        return;
    const int base = static_cast<int>(spans_.size());
    const int root = stack_.empty() ? -1 : spans_[stack_.back()].id;
    std::map<int, int> idOf;
    for (std::size_t k = 0; k < spans.size(); ++k)
        idOf[spans[k].id] = base + static_cast<int>(k);
    for (const Span &s : spans) {
        Span copy = s;
        copy.id = idOf.at(s.id);
        const auto p = idOf.find(s.parent);
        copy.parent = p == idOf.end() ? root : p->second;
        copy.pid = pid;
        spans_.push_back(std::move(copy));
    }
}

void
SpanRecorder::writeLines(std::ostream &os) const
{
    for (const Span &s : spans_) {
        os << "span " << s.id << ' ' << s.parent << ' ' << s.startNs
           << ' ' << s.endNs << ' ' << s.name << '\n';
    }
}

bool
SpanRecorder::parseLine(const std::string &line, Span *out)
{
    std::istringstream in(line);
    std::string tag;
    Span s;
    if (!(in >> tag >> s.id >> s.parent >> s.startNs >> s.endNs >>
          s.name) ||
        tag != "span")
        return false;
    *out = std::move(s);
    return true;
}

void
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    failIf(!os.good(), "cannot write " + path);
    std::uint64_t origin = ~0ull;
    for (const Span &s : spans_)
        origin = std::min(origin, s.startNs);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t k = 0; k < spans_.size(); ++k) {
        const Span &s = spans_[k];
        char buf[512];
        std::snprintf(
            buf, sizeof buf,
            "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
            "\"dur\": %.3f, \"pid\": %ld, \"tid\": %ld, "
            "\"args\": {\"id\": %d, \"parent\": %d}}%s\n",
            s.name.c_str(),
            static_cast<double>(s.startNs - origin) * 1e-3,
            static_cast<double>(s.endNs - s.startNs) * 1e-3, s.pid,
            s.pid, s.id, s.parent,
            k + 1 < spans_.size() ? "," : "");
        os << buf;
    }
    os << "]}\n";
}

std::vector<std::pair<std::string, double>>
SpanRecorder::selfSeconds() const
{
    std::vector<double> childNs(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.endNs - s.startNs);
    }
    std::map<std::string, double> self;
    for (std::size_t k = 0; k < spans_.size(); ++k) {
        const Span &s = spans_[k];
        self[s.name] +=
            (static_cast<double>(s.endNs - s.startNs) - childNs[k]) *
            1e-9;
    }
    std::vector<std::pair<std::string, double>> out(self.begin(),
                                                    self.end());
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    return out;
}

double
spanCostSeconds()
{
    constexpr int kSpans = 20000;
    SpanRecorder probe(true);
    const std::uint64_t t0 = nowNs();
    for (int i = 0; i < kSpans; ++i)
        probe.close(probe.open("serve.index_build"));
    return secondsBetween(t0, nowNs()) / kSpans;
}

} // namespace perf
