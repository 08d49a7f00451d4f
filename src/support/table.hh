/**
 * @file
 * ASCII table formatting for benchmark and profiler reports.
 *
 * Every bench binary prints the paper's tables side by side with measured
 * values; this class keeps the formatting consistent.
 */

#ifndef MMXDSP_SUPPORT_TABLE_HH
#define MMXDSP_SUPPORT_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mmxdsp {

/**
 * A simple right-padded ASCII table with a header row and separator.
 */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append a data row; must have exactly as many cells as headers. */
    void addRow(std::vector<std::string> cells);

    /** Append a horizontal separator row. */
    void addSeparator();

    /** Render the whole table, each line terminated by '\n'. */
    std::string render() const;

    /** Render and write to stdout. */
    void print() const;

    // Cell formatting helpers used throughout the bench binaries.
    static std::string fmtInt(int64_t v);
    /** Integer with thousands separators, e.g. 12,953,062. */
    static std::string fmtCount(int64_t v);
    static std::string fmtFixed(double v, int decimals);
    static std::string fmtPercent(double fraction, int decimals = 2);
    /** Render "n/a" for NaN, else fixed decimals. */
    static std::string fmtRatio(double v, int decimals = 2);

  private:
    std::vector<std::string> headers_;
    /** Rows; an empty row vector denotes a separator. */
    std::vector<std::vector<std::string>> rows_;
};

} // namespace mmxdsp

#endif // MMXDSP_SUPPORT_TABLE_HH
