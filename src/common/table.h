/**
 * @file
 * Console table and CSV emission used by the benchmark harness to
 * print paper-style rows/series (Figures 5-8, Tables II-IV).
 */

#ifndef MOCA_COMMON_TABLE_H
#define MOCA_COMMON_TABLE_H

#include <string>
#include <vector>

namespace moca {

/**
 * A simple row/column table with aligned console rendering and CSV
 * export.  Cells are strings; numeric helpers format on insertion.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Begin a new row; subsequent cell() calls append to it. */
    Table &row();

    /** Append a string cell to the current row. */
    Table &cell(const std::string &value);

    /** Append a formatted numeric cell to the current row. */
    Table &cell(double value, int precision = 3);

    /** Append an integer cell. */
    Table &cell(long long value);

    /** Render with aligned columns, a header rule, and 2-space gaps. */
    std::string render() const;

    /** Render as CSV (RFC-4180-ish; quotes cells containing commas). */
    std::string csv() const;

    /** Print render() to stdout with an optional title line. */
    void print(const std::string &title = "") const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace moca

#endif // MOCA_COMMON_TABLE_H
