/**
 * @file
 * Run-cache file check shared by the sweep test binaries.
 */

#ifndef CWSIM_TESTS_CACHE_LINES_HH
#define CWSIM_TESTS_CACHE_LINES_HH

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "base/jsonl.hh"
#include "sweep/run_cache.hh"

namespace cwsim
{

/**
 * Expect the run-cache file at @p path to end in '\n' and every one of
 * its lines to parse through runRecordParse() — what a torn tail looks
 * like once append() has repaired it. Returns the number of lines.
 */
inline size_t
expectEveryCacheLineParses(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string text{std::istreambuf_iterator<char>(in), {}};
    EXPECT_FALSE(text.empty());
    if (!text.empty()) {
        EXPECT_EQ(text.back(), '\n');
    }
    std::istringstream lines(text);
    std::string line;
    size_t count = 0;
    while (std::getline(lines, line)) {
        std::map<std::string, std::string> fields;
        harness::RunResult r;
        EXPECT_TRUE(parseFlatJson(line, fields) &&
                    sweep::runRecordParse(fields, r))
            << line.substr(0, 80);
        ++count;
    }
    return count;
}

} // namespace cwsim

#endif // CWSIM_TESTS_CACHE_LINES_HH
