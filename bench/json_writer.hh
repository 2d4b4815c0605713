/**
 * @file
 * Machine-readable output for the bench binaries: a small streaming
 * JSON writer behind the shared `--json=FILE` convention (declared
 * through ArgSpec::json in sim/args.hh). Every bench keeps its
 * human-readable stdout untouched and, when the flag is given,
 * additionally writes one JSON document mirroring the printed tables
 * and headline metrics. The "wrote ..." note goes to stderr so
 * stdout stays byte-identical with and without the flag.
 */

#ifndef SNPU_BENCH_JSON_WRITER_HH
#define SNPU_BENCH_JSON_WRITER_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"

namespace snpu::bench
{

/**
 * Streaming JSON writer with automatic comma placement. The caller
 * provides the structure (begin/end calls must balance); the writer
 * handles separators, string escaping and number formatting, so no
 * bench hand-assembles JSON syntax.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::FILE *f) : f(f) {}

    void
    beginObject()
    {
        sep();
        std::fputc('{', f);
        first.push_back(true);
    }

    void
    endObject()
    {
        first.pop_back();
        std::fputc('}', f);
    }

    void
    beginArray()
    {
        sep();
        std::fputc('[', f);
        first.push_back(true);
    }

    void
    endArray()
    {
        first.pop_back();
        std::fputc(']', f);
    }

    void
    key(const std::string &k)
    {
        sep();
        string(k);
        std::fputs(": ", f);
        keyed = true;
    }

    void value(const std::string &v) { sep(); string(v); }
    void value(const char *v) { sep(); string(v); }
    void value(bool v) { sep(); std::fputs(v ? "true" : "false", f); }

    void
    value(std::uint64_t v)
    {
        sep();
        std::fprintf(f, "%llu", static_cast<unsigned long long>(v));
    }

    void
    value(std::int64_t v)
    {
        sep();
        std::fprintf(f, "%lld", static_cast<long long>(v));
    }

    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }

    /** JSON has no NaN/inf literals: non-finite becomes null. */
    void
    value(double v)
    {
        sep();
        if (!std::isfinite(v)) {
            std::fputs("null", f);
        } else if (v == std::floor(v) && std::abs(v) < 1e15) {
            std::fprintf(f, "%lld", static_cast<long long>(v));
        } else {
            std::fprintf(f, "%.17g", v);
        }
    }

  private:
    void
    sep()
    {
        if (keyed) {
            keyed = false;
            return;
        }
        if (first.empty())
            return;
        if (first.back())
            first.back() = false;
        else
            std::fputs(", ", f);
    }

    void
    string(const std::string &s)
    {
        std::fputc('"', f);
        for (const char raw : s) {
            const auto c = static_cast<unsigned char>(raw);
            switch (c) {
              case '"': std::fputs("\\\"", f); break;
              case '\\': std::fputs("\\\\", f); break;
              case '\n': std::fputs("\\n", f); break;
              case '\r': std::fputs("\\r", f); break;
              case '\t': std::fputs("\\t", f); break;
              default:
                if (c < 0x20)
                    std::fprintf(f, "\\u%04x", c);
                else
                    std::fputc(raw, f);
            }
        }
        std::fputc('"', f);
    }

    std::FILE *f;
    std::vector<bool> first;
    bool keyed = false;
};

/**
 * Collected report for one table-printing bench: named tables
 * (mirroring the printed ones cell-for-cell) plus headline metrics.
 * write() is a no-op without a path, so benches call it
 * unconditionally with whatever jsonPathArg() returned.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string bench) : bench(std::move(bench)) {}

    void
    metric(const std::string &key, double v)
    {
        metrics.push_back({key, v, false, ""});
    }

    void
    metric(const std::string &key, const std::string &v)
    {
        metrics.push_back({key, 0.0, true, v});
    }

    void
    table(const std::string &key, const Table &t)
    {
        tables_.emplace_back(key, t);
    }

    /** Write the document to @p path; true on success or no path. */
    bool
    write(const std::string &path) const
    {
        if (path.empty())
            return true;
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "%s: cannot write %s\n",
                         bench.c_str(), path.c_str());
            return false;
        }
        JsonWriter w(f);
        w.beginObject();
        w.key("bench");
        w.value(bench);
        w.key("tables");
        w.beginObject();
        for (const auto &[name, t] : tables_) {
            w.key(name);
            w.beginObject();
            w.key("headers");
            w.beginArray();
            for (const auto &h : t.headers())
                w.value(h);
            w.endArray();
            w.key("rows");
            w.beginArray();
            for (const auto &r : t.rows()) {
                w.beginArray();
                for (const auto &cell : r)
                    w.value(cell);
                w.endArray();
            }
            w.endArray();
            w.endObject();
        }
        w.endObject();
        w.key("metrics");
        w.beginObject();
        for (const auto &m : metrics) {
            w.key(m.key);
            if (m.is_string)
                w.value(m.text);
            else
                w.value(m.number);
        }
        w.endObject();
        w.endObject();
        std::fputc('\n', f);
        std::fclose(f);
        std::fprintf(stderr, "%s: wrote %s\n", bench.c_str(),
                     path.c_str());
        return true;
    }

  private:
    struct Metric
    {
        std::string key;
        double number;
        bool is_string;
        std::string text;
    };

    std::string bench;
    std::vector<std::pair<std::string, Table>> tables_;
    std::vector<Metric> metrics;
};

} // namespace snpu::bench

#endif // SNPU_BENCH_JSON_WRITER_HH
