/**
 * @file
 * detlint CLI.
 *
 *   detlint [--config FILE] [--root DIR] [--format=text|json]
 *           [--output FILE] [--list-rules] [path...]
 *
 * With no paths, scans the config's [paths] include roots (default:
 * src bench tests examples).  Exit 0 clean, 1 findings, 2 usage/IO
 * errors — the contract the lint CI job gates on.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "tools/detlint/detlint.h"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--config FILE] [--root DIR] "
        "[--format=text|json] [--output FILE] [--list-rules] "
        "[path...]\n",
        argv0);
    return 2;
}

void
listRules()
{
    std::printf(
        "R1   iteration over std::unordered_map/set (order feeds "
        "decisions)\n"
        "R2   banned nondeterminism sources: rand/srand, "
        "std::random_device,\n"
        "     time(), std::chrono::*::now() outside src/common/, "
        "pthread_self,\n"
        "     thread-id logic\n"
        "R3   pointer-valued ordering/hash keys (std::map<T*, ...>)\n"
        "R4   static/mutable shared state without adjacent "
        "mutex/atomic (src/)\n"
        "R5   uninitialized POD members in *Config/*Spec structs\n"
        "SUP  suppression-grammar errors (allow() without a reason)\n"
        "\n"
        "suppress with: // detlint: allow(R1) <reason>\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string configPath;
    std::string root;
    std::string format = "text";
    std::string output;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "detlint: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--config") {
            configPath = value("--config");
        } else if (arg == "--root") {
            root = value("--root");
        } else if (arg.compare(0, 9, "--format=") == 0) {
            format = arg.substr(9);
        } else if (arg == "--format") {
            format = value("--format");
        } else if (arg == "--output") {
            output = value("--output");
        } else if (arg == "--list-rules") {
            listRules();
            return 0;
        } else if (arg == "-h" || arg == "--help") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
    }
    if (format != "text" && format != "json") {
        std::fprintf(stderr, "detlint: unknown format '%s'\n",
                     format.c_str());
        return 2;
    }

    if (!root.empty()) {
        std::error_code ec;
        std::filesystem::current_path(root, ec);
        if (ec) {
            std::fprintf(stderr, "detlint: cannot chdir to %s\n",
                         root.c_str());
            return 2;
        }
    }

    detlint::Config cfg = detlint::defaultConfig();
    if (configPath.empty() &&
        std::filesystem::exists("detlint.toml"))
        configPath = "detlint.toml";
    if (!configPath.empty()) {
        std::ifstream in(configPath);
        if (!in) {
            std::fprintf(stderr, "detlint: cannot read %s\n",
                         configPath.c_str());
            return 2;
        }
        std::ostringstream body;
        body << in.rdbuf();
        std::string err;
        if (!detlint::Config::parseToml(body.str(), cfg, &err)) {
            std::fprintf(stderr, "detlint: %s\n", err.c_str());
            return 2;
        }
    }

    // Explicit paths mean "scan exactly this" — the [paths] exclude
    // globs only prune the default roots, so fixtures and vendored
    // files can still be linted by naming them.
    const bool explicitPaths = !paths.empty();
    if (paths.empty())
        paths = cfg.include;
    const std::vector<std::string> files = detlint::expandPaths(
        paths, explicitPaths ? std::vector<std::string>{}
                             : cfg.exclude);
    if (files.empty()) {
        std::fprintf(stderr, "detlint: no source files under:");
        for (const std::string &p : paths)
            std::fprintf(stderr, " %s", p.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    const detlint::Engine engine(cfg);
    const detlint::Report report = engine.scanFiles(files);
    const std::string rendered = format == "json"
                                     ? detlint::formatJson(report)
                                     : detlint::formatText(report);
    if (output.empty()) {
        std::fputs(rendered.c_str(), stdout);
    } else {
        if (!moca::writeTextFile(output, rendered)) {
            std::fprintf(stderr, "detlint: cannot write %s\n",
                         output.c_str());
            return 2;
        }
        // Keep the human-readable summary on stdout even when the
        // JSON report goes to a file.
        if (format == "json")
            std::fputs(detlint::formatText(report).c_str(), stdout);
    }
    return detlint::exitCode(report);
}
