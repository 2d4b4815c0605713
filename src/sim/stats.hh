/**
 * @file
 * Minimal statistics package: named scalar counters, averages, and
 * histograms that register with a per-experiment StatGroup and can be
 * dumped as aligned text or machine-readable JSON.
 *
 * Groups form a tree: a subsystem that exists N times per SoC (NPU
 * cores, per-tile guarders) registers its stats into a uniquely
 * named child group, so the same stat name can exist once per
 * instance without colliding. Dump lines carry the full dotted path
 * ("soc.core0.spad.spad_reads"); duplicate names within one group
 * are a programming error and panic at registration time.
 */

#ifndef SNPU_SIM_STATS_HH
#define SNPU_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace snpu::stats
{

class Group;

/** Write @p s as a JSON string literal (quotes + escapes). */
void jsonEscape(std::ostream &os, const std::string &s);

/**
 * Sparse, replayable change record for one stat: everything that
 * happened to it between captureBegin() and captureDelta(), in a
 * form that applyDelta() can replay onto a stat in any prior state
 * and land on the exact value a live run would have produced. All
 * recorded quantities are integer tick/count sums (exact in a double
 * below 2^53), so replay reproduces JSON output byte for byte.
 */
struct StatDelta
{
    /** FNV-1a hash of the dotted path below the capture root. */
    std::uint64_t path = 0;
    /** 0 = Scalar, 1 = Average, 2 = Histogram. */
    std::uint8_t kind = 0;
    /**
     * Kind-specific payload:
     *  - Scalar:    a = value delta
     *  - Average:   a = count delta, b = sum delta,
     *               c/d = min/max over the captured window
     *  - Histogram: a = count delta, b = sum delta, c = underflow
     *               delta, d = overflow delta, e = nonfinite delta
     */
    double a = 0, b = 0, c = 0, d = 0, e = 0;
    /** Histogram only: sparse (bucket index, count delta) pairs. */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
};

/** Common interface for all statistics. */
class StatBase
{
  public:
    StatBase(Group &group, std::string name, std::string desc);
    /** Deregisters from the owning group (no dangling pointers). */
    virtual ~StatBase();
    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Render the value portion of a dump line. */
    virtual std::string render() const = 0;

    /** Write the value as a JSON value (number or object). */
    virtual void json(std::ostream &os) const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

    /** Arm delta capture: the current state becomes the baseline. */
    virtual void captureBegin() = 0;

    /**
     * Fill @p out (except the path) with the change since the last
     * captureBegin(); false when the stat did not change.
     */
    virtual bool captureDelta(StatDelta &out) const = 0;

    /** Replay a captured delta onto the current state. */
    virtual void applyDelta(const StatDelta &d) = 0;

  private:
    Group *_group = nullptr;
    std::string _name;
    std::string _desc;
};

/** A monotonically growing (or explicitly set) scalar. */
class Scalar : public StatBase
{
  public:
    Scalar(Group &group, std::string name, std::string desc)
        : StatBase(group, std::move(name), std::move(desc))
    {}

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }
    std::string render() const override;
    void json(std::ostream &os) const override;
    void reset() override { _value = 0; }

    void captureBegin() override { cap_value = _value; }
    bool captureDelta(StatDelta &out) const override;
    void applyDelta(const StatDelta &d) override { _value += d.a; }

  private:
    double _value = 0;
    double cap_value = 0;
};

/** Streaming mean/min/max over observed samples. */
class Average : public StatBase
{
  public:
    Average(Group &group, std::string name, std::string desc)
        : StatBase(group, std::move(name), std::move(desc))
    {}

    /**
     * Record one sample. Inline: the DRAM model samples its queue
     * delay once per line, so this sits on the DMA packet path.
     */
    void
    sample(double v)
    {
        if (_count == 0) {
            _min = v;
            _max = v;
        } else {
            _min = std::min(_min, v);
            _max = std::max(_max, v);
        }
        if (cap_armed)
            sampleWindow(v);
        _sum += v;
        ++_count;
    }

    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double min() const { return _min; }
    double max() const { return _max; }
    double sum() const { return _sum; }

    std::string render() const override;
    void json(std::ostream &os) const override;
    void reset() override;

    void captureBegin() override;
    bool captureDelta(StatDelta &out) const override;
    void applyDelta(const StatDelta &d) override;

  private:
    /** Track the capture window's extrema (before _count moves). */
    void sampleWindow(double v);

    std::uint64_t _count = 0;
    double _sum = 0;
    double _min = 0;
    double _max = 0;
    /**
     * Capture window: min/max cannot be recovered from before/after
     * snapshots (the replay target may already hold tighter extrema
     * than the capture-time state did), so sample() keeps window
     * extrema while a capture is armed.
     */
    bool cap_armed = false;
    std::uint64_t cap_count = 0;
    double cap_sum = 0;
    double win_min = 0;
    double win_max = 0;
};

/** Fixed-width bucket histogram with underflow/overflow buckets. */
class Histogram : public StatBase
{
  public:
    Histogram(Group &group, std::string name, std::string desc,
              double lo, double hi, std::size_t buckets);

    /**
     * Record one sample. Non-finite samples cannot be bucketed: NaN
     * and +inf count into the overflow bucket, -inf into underflow,
     * and none of them contribute to the mean (which therefore
     * covers finite samples only).
     */
    void sample(double v);

    std::uint64_t count() const { return _count; }
    std::uint64_t bucket(std::size_t i) const { return counts.at(i); }
    std::size_t buckets() const { return counts.size(); }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    double mean() const
    {
        const std::uint64_t finite = _count - _nonfinite;
        return finite ? _sum / static_cast<double>(finite) : 0.0;
    }
    double rangeLo() const { return lo; }
    double rangeHi() const { return hi; }

    /**
     * Interpolated quantile @p q in [0, 1] over all samples,
     * assuming a uniform spread within each bucket. Samples in the
     * underflow bucket are treated as sitting at @c lo and samples
     * in the overflow bucket at @c hi (the histogram retains no
     * detail beyond its range) — so with a nonzero overflow bucket a
     * high quantile silently clamps to @c hi; callers reporting
     * tails should check overflow() and say so. Returns 0 with no
     * samples.
     */
    double percentile(double q) const;

    std::string render() const override;
    void json(std::ostream &os) const override;
    void reset() override;

    void captureBegin() override;
    bool captureDelta(StatDelta &out) const override;
    void applyDelta(const StatDelta &d) override;

  private:
    double lo;
    double hi;
    std::vector<std::uint64_t> counts;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t _count = 0;
    std::uint64_t _nonfinite = 0;
    double _sum = 0;
    /** Capture baseline (bucket snapshot is lazy-allocated). */
    std::vector<std::uint64_t> cap_counts;
    std::uint64_t cap_underflow = 0;
    std::uint64_t cap_overflow = 0;
    std::uint64_t cap_count = 0;
    std::uint64_t cap_nonfinite = 0;
    double cap_sum = 0;
};

/**
 * Owner of a set of statistics. Subsystems embed a Group (or accept
 * one) and construct their stats against it; experiments dump or
 * reset the whole group at once. A Group constructed against a
 * parent becomes that parent's child: its stats dump under the
 * parent's dotted path and reset with the parent.
 */
class Group
{
  public:
    explicit Group(std::string name) : _name(std::move(name)) {}
    /** A child group named @p name under @p parent. */
    Group(Group &parent, std::string name);
    ~Group();
    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return _name; }

    /** Register a stat; panics on a duplicate name in this group. */
    void add(StatBase *stat);

    /** Deregister a stat (called from ~StatBase). */
    void remove(StatBase *stat);

    /**
     * Look up a stat: an exact name in this group, a dotted path
     * ("core0.spad.spad_reads") descending through child groups, or
     * — failing both — the first depth-first match of a bare name
     * anywhere in the subtree. nullptr when absent.
     */
    const StatBase *find(const std::string &name) const;

    /** Write "path.stat = value    # desc" lines, subtree-wide. */
    void dump(std::ostream &os) const;

    /** Write the subtree as one JSON object. */
    void dumpJson(std::ostream &os) const;

    /** Reset every stat in the subtree. */
    void resetAll();

    const std::vector<StatBase *> &all() const { return stats_; }
    const std::vector<Group *> &children() const { return children_; }

  private:
    void adopt(Group *child);
    friend class Registry;

    void dumpPrefixed(std::ostream &os,
                      const std::string &prefix) const;
    void jsonBody(std::ostream &os, int indent) const;

    std::string _name;
    Group *parent_ = nullptr;
    std::vector<StatBase *> stats_;
    std::vector<Group *> children_;
};

/**
 * A flat registry of root stat groups, so one dump call covers every
 * group an experiment created (the SoC's own tree plus any benches'
 * side groups). Holds non-owning pointers: a registered group must
 * outlive the registry or remove() itself first.
 */
class Registry
{
  public:
    void add(Group &group);
    void remove(Group &group);

    const std::vector<Group *> &groups() const { return groups_; }

    /** Text dump of every registered group, in add order. */
    void dump(std::ostream &os) const;

    /** One JSON object: {"groups": [group, ...]}. */
    void dumpJson(std::ostream &os) const;

    /** Reset every stat in every registered group. */
    void resetAll();

  private:
    std::vector<Group *> groups_;
};

/**
 * Delta capture over a whole stat tree. Built once per tree, it
 * walks the subtree and indexes every stat by the FNV-1a hash of its
 * dotted path below the root (the path, not the pointer, so a delta
 * captured on one SoC instance replays onto any identically shaped
 * one). begin()/collect() bracket a simulated operation on a miss;
 * apply() replays the collected deltas on a hit.
 */
class DeltaCapture
{
  public:
    explicit DeltaCapture(Group &root);

    /** Arm every stat in the tree (baseline = current state). */
    void begin();

    /** Append one StatDelta per stat that changed since begin(). */
    void collect(std::vector<StatDelta> &out) const;

    /** Replay deltas; panics on a path with no stat in this tree. */
    void apply(const std::vector<StatDelta> &deltas);

    /** FNV-1a hash of a dotted stat path (exposed for tests). */
    static std::uint64_t hashPath(const std::string &path);

  private:
    /** (path hash, stat) sorted by hash for binary-search apply. */
    std::vector<std::pair<std::uint64_t, StatBase *>> by_path;
    /** Registration-order walk, for deterministic collect order. */
    std::vector<std::pair<std::uint64_t, StatBase *>> in_order;
};

} // namespace snpu::stats

#endif // SNPU_SIM_STATS_HH
