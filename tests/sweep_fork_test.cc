/**
 * @file
 * Sweep tests that fork(): two processes appending to one run cache,
 * and the bench CLI's exit on retired flags (EXPECT_EXIT forks a death
 * child). They live apart from sweep_test because the TSan CI shard
 * builds only test_sweep and test_base, and must not fork.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cache_lines.hh"
#include "harness/harness.hh"
#include "sweep/bench_cli.hh"
#include "sweep/run_cache.hh"

namespace cwsim
{
namespace
{

using harness::RunResult;

struct ScratchDir
{
    explicit ScratchDir(const std::string &tag)
        : path(tag + "." + std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~ScratchDir() { std::filesystem::remove_all(path); }

    std::string path;
};

TEST(RunCacheConcurrency, TwoProcessesAppendWithoutCorruption)
{
    // A parent and a forked child hammer the same cache file through
    // independent RunCache instances (separate open file descriptions,
    // so only O_APPEND atomicity and flock protect the bytes). Every
    // record from both writers must survive, parseable, no torn lines.
    ScratchDir dir("sweep_fork_flock_test");
    constexpr uint64_t per_side = 50;

    auto hammer = [&](uint64_t fpBase) {
        sweep::RunCache cache(dir.path);
        RunResult r;
        r.workload = "129.compress";
        r.config = "NAS/NAV W128";
        // A fat diagnostic makes each record big enough that a torn
        // interleave could not be mistaken for luck.
        r.diagnostic = std::string(2048, 'x');
        for (uint64_t i = 0; i < per_side; ++i) {
            r.cycles = fpBase + i;
            cache.append(fpBase + i, 3000, r);
        }
    };

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        hammer(1'000'000);
        _exit(0);
    }
    hammer(2'000'000);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    EXPECT_EQ(expectEveryCacheLineParses(dir.path + "/runs.jsonl"),
              2 * per_side);

    sweep::RunCache reload(dir.path);
    EXPECT_EQ(reload.size(), 2 * per_side);
    RunResult out;
    ASSERT_TRUE(reload.lookup(1'000'000 + 7, out));
    EXPECT_EQ(out.cycles, 1'000'000u + 7);
    ASSERT_TRUE(reload.lookup(2'000'000 + 49, out));
    EXPECT_EQ(out.cycles, 2'000'000u + 49);
}

TEST(BenchCliDeathTest, RetiredFlagsAreUnknownOptions)
{
    // The forked-run executor's flags and the cache maintenance
    // actions are gone; each must now be rejected like any typo.
    const std::vector<std::vector<const char *>> retired = {
        {"--isolate"},          {"--timeout", "1"},
        {"--mem-limit", "1"},   {"--retries", "0"},
        {"--cache-fsck"},       {"--cache-compact"},
    };
    for (const auto &flag : retired) {
        std::vector<const char *> argv = {"bench"};
        argv.insert(argv.end(), flag.begin(), flag.end());
        EXPECT_EXIT(sweep::parseBenchArgs(
                        static_cast<int>(argv.size()),
                        const_cast<char **>(argv.data())),
                    ::testing::ExitedWithCode(1), "unknown option")
            << flag[0];
    }
}

} // anonymous namespace
} // namespace cwsim
