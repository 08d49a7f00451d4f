#include "table.hh"

#include <cmath>
#include <cstdio>

#include "logging.hh"

namespace mmxdsp {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty())
        mmxdsp_panic("table must have at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size()) {
        mmxdsp_panic("row has %zu cells, table has %zu columns",
                     cells.size(), headers_.size());
    }
    rows_.push_back(std::move(cells));
}

void
Table::addSeparator()
{
    rows_.emplace_back();
}

std::string
Table::render() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto emit_row = [&](const std::vector<std::string> &cells,
                        std::string &out) {
        for (size_t c = 0; c < cells.size(); ++c) {
            out += cells[c];
            if (c + 1 < cells.size())
                out.append(widths[c] - cells[c].size() + 2, ' ');
        }
        out += '\n';
    };

    auto emit_separator = [&](std::string &out) {
        for (size_t c = 0; c < widths.size(); ++c) {
            out.append(widths[c], '-');
            if (c + 1 < widths.size())
                out.append(2, ' ');
        }
        out += '\n';
    };

    std::string out;
    emit_row(headers_, out);
    emit_separator(out);
    for (const auto &row : rows_) {
        if (row.empty())
            emit_separator(out);
        else
            emit_row(row, out);
    }
    return out;
}

void
Table::print() const
{
    std::fputs(render().c_str(), stdout);
}

std::string
Table::fmtInt(int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
}

std::string
Table::fmtCount(int64_t v)
{
    std::string digits = fmtInt(v < 0 ? -v : v);
    std::string out;
    int run = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (run > 0 && run % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++run;
    }
    if (v < 0)
        out.push_back('-');
    return {out.rbegin(), out.rend()};
}

std::string
Table::fmtFixed(double v, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
Table::fmtPercent(double fraction, int decimals)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
    return buf;
}

std::string
Table::fmtRatio(double v, int decimals)
{
    if (std::isnan(v))
        return "n/a";
    return fmtFixed(v, decimals);
}

} // namespace mmxdsp
