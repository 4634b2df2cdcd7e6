/**
 * @file
 * A plain-text table formatter used by the benchmark harnesses to print
 * paper-style tables and figure series.
 */

#ifndef CWSIM_SIM_TABLE_HH
#define CWSIM_SIM_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace cwsim
{

class TextTable
{
  public:
    /** Set the column headers; fixes the column count. */
    void setHeader(std::vector<std::string> header);

    /** Append a fully formatted row (must match the column count). */
    void addRow(std::vector<std::string> row);

    /** Insert a separator rule before the next row. */
    void addSeparator();

    /** Render with per-column alignment (left col 0, right others). */
    void print(std::ostream &os) const;

    std::string toString() const;

    size_t numRows() const { return rows.size(); }

  private:
    struct Row
    {
        std::vector<std::string> cells;
        bool separator = false;
    };

    std::vector<std::string> headers;
    std::vector<Row> rows;
};

} // namespace cwsim

#endif // CWSIM_SIM_TABLE_HH
