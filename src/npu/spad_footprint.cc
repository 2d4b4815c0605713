#include "npu/spad_footprint.hh"

#include <algorithm>
#include <limits>

namespace snpu
{

namespace
{

/**
 * Builds a footprint one instruction range at a time: add() each
 * piece of code, cut() at every tile and layer end. A compiled tile
 * — contiguous loads, reads of rows it loaded, the same accumulator
 * rows read and rewritten — takes only constant-time fast paths.
 */
class SpadFootprintBuilder
{
  public:
    /** Append the stretches of @p code to @p fp. */
    SpadFootprintBuilder(SpadFootprint &fp, const Instr *code)
        : fp(fp), code(code)
    {}

    /** Add instructions [@p begin_index, @p end_index). */
    void add(std::size_t begin_index, std::size_t end_index);

    /** Close the open stretch, if any, after the last add(). */
    void cut();

  private:
    using Run = SpadFootprint::Run;

    /** The open stretch's rows on one pad. */
    struct PadRows
    {
        std::vector<Run> read_first;
        std::vector<Run> written;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        /** The last range written: a repeat adds no row. */
        Run last_write;
        /**
         * Up to two growing streams of reads (a tile reads its
         * activation and its weight rows in step) not yet checked
         * against `written`, which no write has changed since.
         */
        Run reading[2];
    };

    void addRange(PadId pad, std::uint32_t first, std::uint32_t count,
                  bool is_write);
    /** Add the rows of @p read no write of the stretch covers. */
    static void settleRead(PadRows &p, Run read);
    /** Add rows [first, end) to @p set: sorted runs, none touching. */
    static void addRows(std::vector<Run> &set, std::uint64_t first,
                        std::uint64_t end);
    /** addRows() of rows that start before @p set's last run. */
    static void mergeRows(std::vector<Run> &set, std::uint64_t first,
                          std::uint64_t end);

    SpadFootprint &fp;
    const Instr *code;
    PadRows pads[2];
    /** stretchHashStep() state of the open stretch. */
    std::uint64_t hash[2] = {};
    std::size_t begin = 0;
    std::size_t next = 0;
    bool open = false;
};

void
SpadFootprintBuilder::add(std::size_t begin_index, std::size_t end_index)
{
    for (std::size_t i = begin_index; i < end_index; ++i) {
        const Instr &in = code[i];
        if (endsStretch(in.op)) {
            cut();
            continue;
        }
        if (!open) {
            open = true;
            begin = i;
            hash[0] = stretch_hash_seed[0];
            hash[1] = stretch_hash_seed[1];
        }
        stretchHashStep(hash, in);
        forEachRowRange(in, fp.dim,
                        [this](PadId pad, std::uint32_t first,
                               std::uint32_t count, bool is_write) {
                            addRange(pad, first, count, is_write);
                        });
        next = i + 1;
    }
}

inline void
SpadFootprintBuilder::addRange(PadId pad, std::uint32_t first,
                               std::uint32_t count, bool is_write)
{
    PadRows &p = pads[static_cast<std::size_t>(pad)];
    (is_write ? p.writes : p.reads) += count;
    if (count == 0)
        return;
    // A range past the last u32 row is out of range on every pad, and
    // still is when cut off there: the stretch fails its check.
    const std::uint64_t end =
        std::min<std::uint64_t>(std::uint64_t{first} + count,
                                std::numeric_limits<std::uint32_t>::max());
    const Run rows{first, static_cast<std::uint32_t>(end - first)};

    if (is_write) {
        if (first == p.last_write.first && rows.count == p.last_write.count)
            return;
        p.last_write = rows;
        // Reads so far saw the written rows before this write.
        for (Run &r : p.reading) {
            settleRead(p, r);
            r = Run{};
        }
        addRows(p.written, first, end);
        return;
    }
    for (Run &r : p.reading) {
        if (r.count && first >= r.first && first <= r.first + r.count) {
            r.count = static_cast<std::uint32_t>(
                std::max<std::uint64_t>(r.count, end - r.first));
            return;
        }
    }
    settleRead(p, p.reading[1]);
    p.reading[1] = p.reading[0];
    p.reading[0] = rows;
}

inline void
SpadFootprintBuilder::addRows(std::vector<Run> &set, std::uint64_t first,
                              std::uint64_t end)
{
    // Rows at or past the start of the last run extend or follow it.
    if (set.empty() ||
        first > std::uint64_t{set.back().first} + set.back().count) {
        set.push_back({static_cast<std::uint32_t>(first),
                       static_cast<std::uint32_t>(end - first)});
    } else if (first >= set.back().first) {
        Run &last = set.back();
        last.count = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(last.count, end - last.first));
    } else {
        mergeRows(set, first, end);
    }
}

void
SpadFootprintBuilder::mergeRows(std::vector<Run> &set, std::uint64_t first,
                                std::uint64_t end)
{
    // The first run that ends at or after `first` is the first one
    // the new rows overlap or touch; merge every such run.
    auto it = std::lower_bound(set.begin(), set.end(), first,
                               [](const Run &r, std::uint64_t row) {
                                   return std::uint64_t{r.first} +
                                              r.count <
                                          row;
                               });
    auto last = it;
    while (last != set.end() && last->first <= end) {
        first = std::min<std::uint64_t>(first, last->first);
        end = std::max<std::uint64_t>(end,
                                      std::uint64_t{last->first} +
                                          last->count);
        ++last;
    }
    const Run merged{static_cast<std::uint32_t>(first),
                     static_cast<std::uint32_t>(end - first)};
    if (it == last) {
        set.insert(it, merged);
    } else {
        *it = merged;
        set.erase(it + 1, last);
    }
}

void
SpadFootprintBuilder::settleRead(PadRows &p, Run read)
{
    // A read needs the row's ID only where the stretch has not
    // already forced it by a write.
    std::uint64_t cur = read.first;
    const std::uint64_t end = cur + read.count;
    for (const Run &w : p.written) {
        const std::uint64_t w_end = std::uint64_t{w.first} + w.count;
        if (w_end <= cur)
            continue;
        if (w.first >= end)
            break;
        if (w.first > cur)
            addRows(p.read_first, cur, w.first);
        cur = w_end;
    }
    if (cur < end)
        addRows(p.read_first, cur, end);
}

void
SpadFootprintBuilder::cut()
{
    if (!open)
        return;
    open = false;
    constexpr std::uint64_t u32_max =
        std::numeric_limits<std::uint32_t>::max();
    SpadFootprint::Stretch s;
    s.begin = static_cast<std::uint32_t>(begin);
    s.end = static_cast<std::uint32_t>(next);
    s.run_begin = static_cast<std::uint32_t>(fp.runs.size());
    s.code_hash[0] = hash[0];
    s.code_hash[1] = hash[1];
    // A stretch whose row counts overflow 32 bits (no compiled tile
    // comes near) is left out: its instructions go row by row.
    bool fits = true;
    for (const PadId pad : {PadId::spad, PadId::acc}) {
        PadRows &p = pads[static_cast<std::size_t>(pad)];
        const auto idx = static_cast<std::size_t>(pad);
        for (Run &r : p.reading) {
            settleRead(p, r);
            r = Run{};
        }
        fits = fits && p.reads <= u32_max && p.writes <= u32_max;
        s.reads[idx] = static_cast<std::uint32_t>(p.reads);
        s.writes[idx] = static_cast<std::uint32_t>(p.writes);
        for (const auto list :
             {SpadFootprint::read_first, SpadFootprint::written}) {
            std::vector<Run> &set = list == SpadFootprint::read_first
                                        ? p.read_first
                                        : p.written;
            s.run_counts[SpadFootprint::listIndex(pad, list)] =
                static_cast<std::uint32_t>(set.size());
            if (fits)
                fp.runs.insert(fp.runs.end(), set.begin(), set.end());
            set.clear();
        }
        p.reads = p.writes = 0;
        p.last_write = Run{};
    }
    if (fits)
        fp.stretches.push_back(s);
    else
        fp.runs.resize(s.run_begin);
}

/** Derive @p prog's footprint for array dimension @p dim. */
SpadFootprint
deriveFootprint(const NpuProgram &prog, std::uint32_t dim)
{
    SpadFootprint fp;
    fp.dim = dim;
    fp.code_size = prog.code.size();
    // Stretch bounds and run offsets are 32-bit, and an instruction
    // adds at most three runs; a longer program (none comes near)
    // keeps the per-row checks.
    if (prog.code.size() >
        std::numeric_limits<std::uint32_t>::max() / 4)
        return fp;

    // Cut after every tile and layer end, so no flush point lies
    // inside a stretch whatever order the lists come in.
    std::vector<std::size_t> cuts(prog.tile_ends);
    cuts.insert(cuts.end(), prog.layer_ends.begin(),
                prog.layer_ends.end());
    std::sort(cuts.begin(), cuts.end());
    cuts.push_back(prog.code.size());

    SpadFootprintBuilder b(fp, prog.code.data());
    std::size_t from = 0;
    for (const std::size_t cut : cuts) {
        const std::size_t to = std::min(cut + 1, prog.code.size());
        if (to <= from)
            continue;
        b.add(from, to);
        b.cut();
        from = to;
    }
    fp.stretches.shrink_to_fit();
    fp.runs.shrink_to_fit();
    return fp;
}

} // namespace

FootprintMemo::FootprintMemo() = default;
FootprintMemo::~FootprintMemo() = default;
FootprintMemo::FootprintMemo(const FootprintMemo &) {}

FootprintMemo &
FootprintMemo::operator=(const FootprintMemo &other)
{
    if (this != &other) {
        fp.reset();
        sealed = false;
    }
    return *this;
}

FootprintMemo::FootprintMemo(FootprintMemo &&) noexcept = default;
FootprintMemo &FootprintMemo::operator=(FootprintMemo &&) noexcept =
    default;

const SpadFootprint &
programFootprint(const NpuProgram &prog, std::uint32_t dim, bool *trusted)
{
    std::unique_ptr<const SpadFootprint> &memo = prog.spad_footprint.fp;
    const bool stale =
        !memo || memo->dim != dim || memo->code_size != prog.code.size();
    if (stale)
        memo = std::make_unique<const SpadFootprint>(
            deriveFootprint(prog, dim));
    if (trusted)
        *trusted = stale || prog.spad_footprint.sealed;
    return *memo;
}

void
sealFootprint(const NpuProgram &prog, std::uint32_t dim, FootprintSeal)
{
    programFootprint(prog, dim);
    prog.spad_footprint.sealed = true;
}

} // namespace snpu
