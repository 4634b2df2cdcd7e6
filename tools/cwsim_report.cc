/**
 * @file
 * cwsim-report: render a sweep JSONL file (the run-cache / --json
 * export format) as a markdown or HTML report, or diff two JSONL
 * files field-by-field to flag simulated-stat drift.
 *
 * Exit codes: 0 success (diff clean), 1 drift detected, 2 usage or
 * I/O error. The CI stats-diff job relies on this split to tell
 * "stats changed" apart from "the tool broke".
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "mdp/dep_profile.hh"
#include "sweep/report.hh"
#include "sweep/run_cache.hh"

#ifndef CWSIM_BUILD_TYPE
#define CWSIM_BUILD_TYPE "unknown"
#endif

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--format md|html] [--out PATH] [--top N] "
        "SWEEP.jsonl\n"
        "       %s --diff BASELINE.jsonl CURRENT.jsonl\n"
        "       %s --depprof PROFILE.depprof.jsonl [--format md|html]\n"
        "\n"
        "Render a cwsim sweep JSONL file as a report, or compare two\n"
        "sweep files and flag any drift in simulated stats\n"
        "(host-profiling fields are ignored; failed runs compare by\n"
        "fail-kind class, not the host-dependent detail text).\n"
        "\n"
        "  --format md|html  report output format (default: md)\n"
        "  --out PATH        write the report to PATH (default: stdout)\n"
        "  --top N           cap the open-ended tables (hot edges,\n"
        "                    per-PC detail) at N rows, 0 = unlimited\n"
        "                    (default: 20)\n"
        "  --diff            compare two files instead of rendering\n"
        "  --depprof FILE    render a .depprof.jsonl dependence\n"
        "                    profile (validates it first; exit 2 on\n"
        "                    validation errors)\n"
        "  --version         print record-schema version and build type\n"
        "  --help            show this message\n",
        argv0, argv0, argv0);
    return 2;
}

bool
load(const std::string &path,
     std::vector<cwsim::sweep::ReportRecord> &out)
{
    std::string err;
    size_t rejected = 0;
    if (!cwsim::sweep::loadRunRecords(path, out, &err, &rejected)) {
        std::fprintf(stderr, "cwsim-report: %s\n", err.c_str());
        return false;
    }
    if (rejected > 0) {
        std::fprintf(stderr,
                     "cwsim-report: warning: skipped %zu unparseable "
                     "record(s) in %s\n",
                     rejected, path.c_str());
    }
    if (out.empty()) {
        std::fprintf(stderr, "cwsim-report: no parseable records in %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool diff = false;
    cwsim::sweep::ReportFormat format =
        cwsim::sweep::ReportFormat::Markdown;
    std::string out_path, depprof_path;
    size_t top = 20;
    std::vector<std::string> inputs;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else if (std::strcmp(arg, "--version") == 0) {
            const char *build = CWSIM_BUILD_TYPE;
            std::printf("cwsim-report (cwsim record-schema v%llu, %s "
                        "build)\n",
                        static_cast<unsigned long long>(
                            cwsim::sweep::run_record_version),
                        build[0] ? build : "unknown");
            return 0;
        } else if (std::strcmp(arg, "--diff") == 0) {
            diff = true;
        } else if (std::strcmp(arg, "--format") == 0 && i + 1 < argc) {
            std::string value = argv[++i];
            if (value == "md") {
                format = cwsim::sweep::ReportFormat::Markdown;
            } else if (value == "html") {
                format = cwsim::sweep::ReportFormat::Html;
            } else {
                std::fprintf(stderr,
                             "cwsim-report: unknown format '%s'\n",
                             value.c_str());
                return usage(argv[0]);
            }
        } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(arg, "--top") == 0 && i + 1 < argc) {
            const char *value = argv[++i];
            char *end = nullptr;
            top = std::strtoull(value, &end, 10);
            if (end == value || *end != '\0') {
                std::fprintf(stderr,
                             "cwsim-report: --top wants a number, "
                             "got '%s'\n", value);
                return usage(argv[0]);
            }
        } else if (std::strcmp(arg, "--depprof") == 0 &&
                   i + 1 < argc) {
            depprof_path = argv[++i];
        } else if (arg[0] == '-' && arg[1] != '\0') {
            std::fprintf(stderr, "cwsim-report: unknown flag '%s'\n",
                         arg);
            return usage(argv[0]);
        } else {
            inputs.push_back(arg);
        }
    }

    if (!depprof_path.empty()) {
        if (diff || !inputs.empty()) {
            std::fprintf(stderr,
                         "cwsim-report: --depprof wants a profile "
                         "file and nothing else\n");
            return usage(argv[0]);
        }
        cwsim::mdp::DepProfileFile profile;
        std::string err;
        if (!profile.load(depprof_path, &err) &&
            profile.errors().empty()) {
            // The file itself could not be read.
            std::fprintf(stderr, "cwsim-report: %s\n", err.c_str());
            return 2;
        }
        if (!profile.valid()) {
            for (const std::string &e : profile.errors())
                std::fprintf(stderr, "cwsim-report: %s: %s\n",
                             depprof_path.c_str(), e.c_str());
            std::fprintf(stderr,
                         "cwsim-report: %s failed validation (%zu "
                         "error(s); %zu run block(s) salvaged)\n",
                         depprof_path.c_str(), profile.errors().size(),
                         profile.runs().size());
            return 2;
        }
        std::string report =
            cwsim::sweep::renderDepProfile(profile, format, top);
        if (out_path.empty()) {
            std::fputs(report.c_str(), stdout);
        } else {
            std::ofstream out(out_path);
            if (!out) {
                std::fprintf(stderr, "cwsim-report: cannot write %s\n",
                             out_path.c_str());
                return 2;
            }
            out << report;
        }
        return 0;
    }

    if (diff) {
        if (inputs.size() != 2)
            return usage(argv[0]);
        std::vector<cwsim::sweep::ReportRecord> baseline, current;
        if (!load(inputs[0], baseline) || !load(inputs[1], current))
            return 2;
        cwsim::sweep::DiffResult result =
            cwsim::sweep::diffRunRecords(baseline, current);
        std::fputs(cwsim::sweep::formatDiff(result).c_str(), stdout);
        return result.clean() ? 0 : 1;
    }

    if (inputs.size() != 1)
        return usage(argv[0]);
    std::vector<cwsim::sweep::ReportRecord> records;
    if (!load(inputs[0], records))
        return 2;
    std::string report =
        cwsim::sweep::renderReport(records, format, top);
    if (out_path.empty()) {
        std::fputs(report.c_str(), stdout);
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "cwsim-report: cannot write %s\n",
                         out_path.c_str());
            return 2;
        }
        out << report;
    }
    return 0;
}
