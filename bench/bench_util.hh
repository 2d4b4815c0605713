/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: banners,
 * aligned tables and number formatting. Command lines are parsed by
 * ArgSpec (sim/args.hh).
 */

#ifndef SNPU_BENCH_BENCH_UTIL_HH
#define SNPU_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace snpu::bench
{

/** Print a banner naming the experiment being regenerated. */
inline void
banner(const char *id, const char *title)
{
    std::printf("================================================="
                "=============\n");
    std::printf("%s — %s\n", id, title);
    std::printf("================================================="
                "=============\n");
}

/** Simple aligned table writer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    void
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    const std::vector<std::string> &headers() const
    {
        return headers_;
    }

    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

    void
    print() const
    {
        std::vector<std::size_t> widths(headers_.size(), 0);
        for (std::size_t c = 0; c < headers_.size(); ++c)
            widths[c] = headers_[c].size();
        for (const auto &r : rows_) {
            for (std::size_t c = 0;
                 c < r.size() && c < widths.size(); ++c) {
                widths[c] = std::max(widths[c], r[c].size());
            }
        }
        auto print_row = [&](const std::vector<std::string> &r) {
            for (std::size_t c = 0; c < headers_.size(); ++c) {
                const std::string &cell = c < r.size() ? r[c] : "";
                std::printf("%-*s  ",
                            static_cast<int>(widths[c]),
                            cell.c_str());
            }
            std::printf("\n");
        };
        print_row(headers_);
        std::vector<std::string> rule;
        for (std::size_t c = 0; c < headers_.size(); ++c)
            rule.push_back(std::string(widths[c], '-'));
        print_row(rule);
        for (const auto &r : rows_)
            print_row(r);
        std::printf("\n");
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits decimals. */
inline std::string
num(double v, int digits = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

/** Format an integer with thousands grouping. */
inline std::string
big(std::uint64_t v)
{
    std::string raw = std::to_string(v);
    std::string out;
    int count = 0;
    for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
        if (count && count % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++count;
    }
    return std::string(out.rbegin(), out.rend());
}

} // namespace snpu::bench

#endif // SNPU_BENCH_BENCH_UTIL_HH
