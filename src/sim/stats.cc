#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"

namespace snpu::stats
{

StatBase::StatBase(Group &group, std::string name, std::string desc)
    : _group(&group), _name(std::move(name)), _desc(std::move(desc))
{
    group.add(this);
}

StatBase::~StatBase()
{
    _group->remove(this);
}

namespace
{

std::string
formatNumber(double v)
{
    std::ostringstream os;
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        os << static_cast<long long>(v);
    } else {
        os << std::setprecision(6) << v;
    }
    return os.str();
}

/**
 * JSON has no NaN/inf literals; non-finite values become null so the
 * output always parses.
 */
void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        os << static_cast<long long>(v);
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

} // namespace

void
jsonEscape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char raw : s) {
        const auto c = static_cast<unsigned char>(raw);
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << raw;
            }
        }
    }
    os << '"';
}

std::string
Scalar::render() const
{
    return formatNumber(_value);
}

void
Scalar::json(std::ostream &os) const
{
    jsonNumber(os, _value);
}

bool
Scalar::captureDelta(StatDelta &out) const
{
    if (_value == cap_value)
        return false;
    out.kind = 0;
    out.a = _value - cap_value;
    return true;
}

void
Average::sampleWindow(double v)
{
    if (_count == cap_count) {
        win_min = v;
        win_max = v;
    } else {
        win_min = std::min(win_min, v);
        win_max = std::max(win_max, v);
    }
}

void
Average::captureBegin()
{
    cap_armed = true;
    cap_count = _count;
    cap_sum = _sum;
    win_min = 0;
    win_max = 0;
}

bool
Average::captureDelta(StatDelta &out) const
{
    if (_count == cap_count)
        return false;
    out.kind = 1;
    out.a = static_cast<double>(_count - cap_count);
    out.b = _sum - cap_sum;
    out.c = win_min;
    out.d = win_max;
    return true;
}

void
Average::applyDelta(const StatDelta &d)
{
    if (_count == 0) {
        _min = d.c;
        _max = d.d;
    } else {
        _min = std::min(_min, d.c);
        _max = std::max(_max, d.d);
    }
    _count += static_cast<std::uint64_t>(d.a);
    _sum += d.b;
}

std::string
Average::render() const
{
    std::ostringstream os;
    os << "mean=" << formatNumber(mean()) << " min=" << formatNumber(_min)
       << " max=" << formatNumber(_max) << " n=" << _count;
    return os.str();
}

void
Average::json(std::ostream &os) const
{
    os << "{\"count\": " << _count << ", \"mean\": ";
    jsonNumber(os, mean());
    os << ", \"min\": ";
    jsonNumber(os, _min);
    os << ", \"max\": ";
    jsonNumber(os, _max);
    os << '}';
}

void
Average::reset()
{
    _count = 0;
    _sum = 0;
    _min = 0;
    _max = 0;
}

Histogram::Histogram(Group &group, std::string name, std::string desc,
                     double lo, double hi, std::size_t buckets)
    : StatBase(group, std::move(name), std::move(desc)),
      lo(lo), hi(hi), counts(buckets, 0)
{
    if (buckets == 0 || hi <= lo)
        panic("histogram needs hi > lo and at least one bucket");
}

void
Histogram::sample(double v)
{
    ++_count;
    if (!std::isfinite(v)) {
        // NaN fails every ordered comparison, so without this guard
        // it would fall through both range checks into the cast
        // below — static_cast of NaN to an integer is UB. Bucket
        // non-finite samples by sign (NaN pessimistically as an
        // overflow) and keep them out of the mean.
        ++_nonfinite;
        if (v < 0)
            ++_underflow;
        else
            ++_overflow;
        return;
    }
    _sum += v;
    if (v < lo) {
        ++_underflow;
    } else if (v >= hi) {
        ++_overflow;
    } else {
        auto idx = static_cast<std::size_t>(
            (v - lo) / (hi - lo) * counts.size());
        if (idx >= counts.size())
            idx = counts.size() - 1;
        ++counts[idx];
    }
}

double
Histogram::percentile(double q) const
{
    if (_count == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    // Rank in (0, count]: the sample the quantile falls on.
    const double rank = std::max(1.0, q * static_cast<double>(_count));

    double cum = static_cast<double>(_underflow);
    if (rank <= cum)
        return lo;

    const double width =
        (hi - lo) / static_cast<double>(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const auto c = static_cast<double>(counts[i]);
        if (c > 0 && rank <= cum + c) {
            // Linear interpolation inside the bucket.
            const double frac = (rank - cum) / c;
            return lo + (static_cast<double>(i) + frac) * width;
        }
        cum += c;
    }
    return hi;
}

std::string
Histogram::render() const
{
    std::ostringstream os;
    os << "n=" << _count << " mean=" << formatNumber(mean()) << " [";
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i)
            os << ' ';
        os << counts[i];
    }
    os << "] uf=" << _underflow << " of=" << _overflow;
    return os.str();
}

void
Histogram::json(std::ostream &os) const
{
    os << "{\"count\": " << _count << ", \"mean\": ";
    jsonNumber(os, mean());
    os << ", \"lo\": ";
    jsonNumber(os, lo);
    os << ", \"hi\": ";
    jsonNumber(os, hi);
    os << ", \"underflow\": " << _underflow
       << ", \"overflow\": " << _overflow << ", \"buckets\": [";
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i)
            os << ", ";
        os << counts[i];
    }
    os << "], \"p50\": ";
    jsonNumber(os, percentile(0.50));
    os << ", \"p95\": ";
    jsonNumber(os, percentile(0.95));
    os << ", \"p99\": ";
    jsonNumber(os, percentile(0.99));
    os << '}';
}

void
Histogram::reset()
{
    std::fill(counts.begin(), counts.end(), 0);
    _underflow = 0;
    _overflow = 0;
    _count = 0;
    _nonfinite = 0;
    _sum = 0;
}

void
Histogram::captureBegin()
{
    cap_counts = counts;
    cap_underflow = _underflow;
    cap_overflow = _overflow;
    cap_count = _count;
    cap_nonfinite = _nonfinite;
    cap_sum = _sum;
}

bool
Histogram::captureDelta(StatDelta &out) const
{
    if (_count == cap_count)
        return false;
    out.kind = 2;
    out.a = static_cast<double>(_count - cap_count);
    out.b = _sum - cap_sum;
    out.c = static_cast<double>(_underflow - cap_underflow);
    out.d = static_cast<double>(_overflow - cap_overflow);
    out.e = static_cast<double>(_nonfinite - cap_nonfinite);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const std::uint64_t before =
            i < cap_counts.size() ? cap_counts[i] : 0;
        if (counts[i] != before)
            out.buckets.emplace_back(
                static_cast<std::uint32_t>(i), counts[i] - before);
    }
    return true;
}

void
Histogram::applyDelta(const StatDelta &d)
{
    _count += static_cast<std::uint64_t>(d.a);
    _sum += d.b;
    _underflow += static_cast<std::uint64_t>(d.c);
    _overflow += static_cast<std::uint64_t>(d.d);
    _nonfinite += static_cast<std::uint64_t>(d.e);
    for (const auto &[idx, delta] : d.buckets) {
        if (idx < counts.size())
            counts[idx] += delta;
    }
}

Group::Group(Group &parent, std::string name)
    : _name(std::move(name)), parent_(&parent)
{
    parent.adopt(this);
}

Group::~Group()
{
    if (parent_ == nullptr)
        return;
    auto &siblings = parent_->children_;
    siblings.erase(
        std::remove(siblings.begin(), siblings.end(), this),
        siblings.end());
}

void
Group::adopt(Group *child)
{
    for (const auto *g : children_) {
        if (g->_name == child->_name)
            panic("stat group '", _name,
                  "' already has a child group '", child->_name, "'");
    }
    for (const auto *s : stats_) {
        if (s->name() == child->_name)
            panic("stat group '", _name, "' already has a stat '",
                  child->_name, "'");
    }
    children_.push_back(child);
}

void
Group::add(StatBase *stat)
{
    // Silent duplicates would make find() ambiguous and dump lines
    // collide; an instance registered twice is a wiring bug.
    for (const auto *s : stats_) {
        if (s->name() == stat->name())
            panic("stat group '", _name,
                  "' already has a stat named '", stat->name(), "'");
    }
    for (const auto *g : children_) {
        if (g->_name == stat->name())
            panic("stat group '", _name,
                  "' already has a child group '", stat->name(), "'");
    }
    stats_.push_back(stat);
}

void
Group::remove(StatBase *stat)
{
    stats_.erase(std::remove(stats_.begin(), stats_.end(), stat),
                 stats_.end());
}

const StatBase *
Group::find(const std::string &name) const
{
    for (const auto *s : stats_) {
        if (s->name() == name)
            return s;
    }
    const auto dot = name.find('.');
    if (dot != std::string::npos) {
        const std::string head = name.substr(0, dot);
        for (const auto *g : children_) {
            if (g->_name == head)
                return g->find(name.substr(dot + 1));
        }
        return nullptr;
    }
    for (const auto *g : children_) {
        if (const StatBase *s = g->find(name))
            return s;
    }
    return nullptr;
}

void
Group::dump(std::ostream &os) const
{
    dumpPrefixed(os, _name);
}

void
Group::dumpPrefixed(std::ostream &os, const std::string &prefix) const
{
    for (const auto *s : stats_) {
        os << prefix << '.' << s->name() << " = " << s->render()
           << "    # " << s->desc() << '\n';
    }
    for (const auto *g : children_)
        g->dumpPrefixed(os, prefix + '.' + g->_name);
}

void
Group::dumpJson(std::ostream &os) const
{
    jsonBody(os, 0);
    os << '\n';
}

void
Group::jsonBody(std::ostream &os, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string in(static_cast<std::size_t>(indent + 1) * 2,
                         ' ');
    os << "{\n" << in << "\"name\": ";
    jsonEscape(os, _name);
    os << ",\n" << in << "\"stats\": {";
    for (std::size_t i = 0; i < stats_.size(); ++i) {
        os << (i ? ",\n" : "\n") << in << "  ";
        jsonEscape(os, stats_[i]->name());
        os << ": ";
        stats_[i]->json(os);
    }
    os << (stats_.empty() ? "}" : "\n" + in + "}");
    if (!children_.empty()) {
        os << ",\n" << in << "\"groups\": [";
        for (std::size_t i = 0; i < children_.size(); ++i) {
            os << (i ? ", " : "");
            children_[i]->jsonBody(os, indent + 1);
        }
        os << ']';
    }
    os << '\n' << pad << '}';
}

void
Group::resetAll()
{
    for (auto *s : stats_)
        s->reset();
    for (auto *g : children_)
        g->resetAll();
}

void
Registry::add(Group &group)
{
    for (const auto *g : groups_) {
        if (g == &group)
            panic("stat registry: group '", group.name(),
                  "' registered twice");
    }
    groups_.push_back(&group);
}

void
Registry::remove(Group &group)
{
    groups_.erase(
        std::remove(groups_.begin(), groups_.end(), &group),
        groups_.end());
}

void
Registry::dump(std::ostream &os) const
{
    for (const auto *g : groups_)
        g->dump(os);
}

void
Registry::dumpJson(std::ostream &os) const
{
    os << "{\"groups\": [";
    for (std::size_t i = 0; i < groups_.size(); ++i) {
        os << (i ? ", " : "");
        groups_[i]->jsonBody(os, 1);
    }
    os << "]}\n";
}

void
Registry::resetAll()
{
    for (auto *g : groups_)
        g->resetAll();
}

std::uint64_t
DeltaCapture::hashPath(const std::string &path)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : path) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace
{

void
walkStats(
    const Group &g, const std::string &prefix,
    std::vector<std::pair<std::uint64_t, StatBase *>> &out)
{
    for (StatBase *s : g.all()) {
        out.emplace_back(DeltaCapture::hashPath(prefix + s->name()),
                         s);
    }
    for (const Group *child : g.children())
        walkStats(*child, prefix + child->name() + '.', out);
}

} // namespace

DeltaCapture::DeltaCapture(Group &root)
{
    walkStats(root, "", in_order);
    by_path = in_order;
    std::sort(by_path.begin(), by_path.end(),
              [](const auto &l, const auto &r) {
                  return l.first < r.first;
              });
    for (std::size_t i = 1; i < by_path.size(); ++i) {
        if (by_path[i].first == by_path[i - 1].first)
            panic("stat path hash collision under group '",
                  root.name(), "'");
    }
}

void
DeltaCapture::begin()
{
    for (auto &[hash, stat] : in_order)
        stat->captureBegin();
}

void
DeltaCapture::collect(std::vector<StatDelta> &out) const
{
    for (const auto &[hash, stat] : in_order) {
        StatDelta d;
        if (stat->captureDelta(d)) {
            d.path = hash;
            out.push_back(std::move(d));
        }
    }
}

void
DeltaCapture::apply(const std::vector<StatDelta> &deltas)
{
    for (const StatDelta &d : deltas) {
        const auto it = std::lower_bound(
            by_path.begin(), by_path.end(), d.path,
            [](const auto &entry, std::uint64_t hash) {
                return entry.first < hash;
            });
        if (it == by_path.end() || it->first != d.path)
            panic("stat delta replay: no stat with path hash ",
                  d.path);
        it->second->applyDelta(d);
    }
}

} // namespace snpu::stats
