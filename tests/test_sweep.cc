/**
 * @file
 * Tests for the parallel experiment engine: determinism (parallel ==
 * serial, cell for cell), the low-level indexed pool, per-cell seed
 * derivation, `--jobs` parsing, the CSV/JSON records' round-trip
 * fidelity, the results-file writer's format, and the fatal
 * unwritable `--csv`/`--json` file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "common/log.h"
#include "exp/sweep/options.h"
#include "exp/sweep/records.h"
#include "exp/sweep/sweep.h"

namespace moca::exp {
namespace {

/** A small but non-trivial grid: 2 scenarios x all 4 policies on
 *  shared traces, plus one mixed-config cell. */
std::vector<SweepCell>
smallGrid(int tasks = 16)
{
    const sim::SocConfig cfg;
    std::vector<SweepCell> grid;
    int scenario = 0;
    for (auto qos :
         {workload::QosLevel::Light, workload::QosLevel::Hard}) {
        workload::TraceConfig trace;
        trace.set = workload::WorkloadSet::C;
        trace.qos = qos;
        trace.numTasks = tasks;
        trace.seed = deriveCellSeed(7, static_cast<std::size_t>(scenario));
        auto specs = std::make_shared<const std::vector<sim::JobSpec>>(
            makeTrace(trace, cfg));
        for (const std::string &spec : allPolicySpecs()) {
            SweepCell cell;
            cell.label = strprintf("scenario-%d", scenario);
            cell.policy = spec;
            cell.trace = trace;
            cell.soc = cfg;
            cell.specs = specs;
            grid.push_back(std::move(cell));
        }
        ++scenario;
    }

    // One cell with a different SoC configuration, to exercise the
    // config-keyed oracle cache under concurrency.
    SweepCell mixed;
    mixed.label = "mixed-config";
    mixed.policy = "moca";
    mixed.trace.set = workload::WorkloadSet::A;
    mixed.trace.numTasks = tasks;
    mixed.trace.seed = 3;
    mixed.soc.numTiles = 4;
    mixed.trace.numTiles = 4;
    grid.push_back(std::move(mixed));
    return grid;
}

void
expectResultsIdentical(const ScenarioResult &a, const ScenarioResult &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.totalMigrations, b.totalMigrations);
    EXPECT_EQ(a.totalPreemptions, b.totalPreemptions);
    EXPECT_EQ(a.totalThrottleReconfigs, b.totalThrottleReconfigs);
    // Bit-identical, not approximately equal: the same cells must
    // compute the same doubles regardless of worker interleaving.
    EXPECT_EQ(a.metrics.slaRate, b.metrics.slaRate);
    EXPECT_EQ(a.metrics.stp, b.metrics.stp);
    EXPECT_EQ(a.metrics.fairness, b.metrics.fairness);
    EXPECT_EQ(a.dramBusyFraction, b.dramBusyFraction);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t j = 0; j < a.jobs.size(); ++j) {
        EXPECT_EQ(a.jobs[j].spec.id, b.jobs[j].spec.id);
        EXPECT_EQ(a.jobs[j].firstStart, b.jobs[j].firstStart);
        EXPECT_EQ(a.jobs[j].finish, b.jobs[j].finish);
        EXPECT_EQ(a.jobs[j].stallCycles, b.jobs[j].stallCycles);
    }
}

TEST(DeriveCellSeed, DeterministicAndDistinct)
{
    EXPECT_EQ(deriveCellSeed(1, 0), deriveCellSeed(1, 0));
    EXPECT_NE(deriveCellSeed(1, 0), deriveCellSeed(1, 1));
    EXPECT_NE(deriveCellSeed(1, 0), deriveCellSeed(2, 0));
    // No trivial collisions across a realistic grid size.
    std::vector<std::uint64_t> seen;
    for (std::size_t i = 0; i < 1000; ++i)
        seen.push_back(deriveCellSeed(42, i));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(SweepRunner, ParallelMatchesSerialCellForCell)
{
    const auto grid = smallGrid();

    SweepOptions serial;
    serial.jobs = 1;
    const auto r1 = SweepRunner(serial).run(grid);

    SweepOptions parallel;
    parallel.jobs = 4;
    const auto r4 = SweepRunner(parallel).run(grid);

    ASSERT_EQ(r1.size(), grid.size());
    ASSERT_EQ(r4.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectResultsIdentical(r1[i], r4[i]);
}

TEST(SweepRunner, RunIndexedExecutesEveryTaskExactlyOnce)
{
    const std::size_t n = 200;
    std::vector<std::atomic<int>> hits(n);
    SweepRunner::runIndexed(n, 8, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(SweepRunner, RunIndexedPropagatesExceptions)
{
    EXPECT_THROW(
        SweepRunner::runIndexed(50, 4,
                                [&](std::size_t i) {
                                    if (i == 13)
                                        throw std::runtime_error("boom");
                                }),
        std::runtime_error);
}

TEST(SweepOptions, JobsFlagParsesAndRejectsNegative)
{
    auto parse = [](const char *jobs) {
        const char *argv[] = {"prog", "--jobs", jobs};
        return sweepOptionsFromArgs(ArgMap(3, const_cast<char **>(argv)));
    };
    EXPECT_EQ(parse("4").jobs, 4);
    EXPECT_EQ(parse("0").jobs, 0); // 0 = hardware concurrency
    EXPECT_DEATH((void)parse("-2"), "--jobs -2: must be >= 0");
}

TEST(SweepRecords, CsvRoundTrip)
{
    const auto grid = smallGrid(8);
    SweepOptions opts;
    opts.jobs = 2;
    const auto results = SweepRunner(opts).run(grid);

    std::istringstream in(sweepCsv(grid, results));
    std::string line;
    ASSERT_TRUE(std::getline(in, line));

    // Header matches the published field list.
    std::string header;
    for (const auto &f : sweepRecordFields())
        header += (header.empty() ? "" : ",") + f;
    EXPECT_EQ(line, header);

    // One row per cell, index and sla_rate faithful to the results.
    std::size_t row = 0;
    while (std::getline(in, line)) {
        std::stringstream ss(line);
        std::string field;
        std::vector<std::string> fields;
        while (std::getline(ss, field, ','))
            fields.push_back(field);
        ASSERT_EQ(fields.size(), sweepRecordFields().size());
        EXPECT_EQ(fields[0], strprintf("%zu", row));
        EXPECT_EQ(fields[2], results[row].policy);
        EXPECT_NEAR(std::stod(fields[10]),
                    results[row].metrics.slaRate, 1e-6);
        ++row;
    }
    EXPECT_EQ(row, grid.size());
}

TEST(SweepRecords, JsonRoundTrip)
{
    const auto grid = smallGrid(8);
    SweepOptions opts;
    opts.jobs = 2;
    const auto results = SweepRunner(opts).run(grid);
    const std::string text =
        recordsText(runMeta("test", 2), sweepRecords(grid, results));

    // The meta line, then one line per cell with every field present.
    std::istringstream in(text);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), grid.size() + 1);
    EXPECT_EQ(lines[0].rfind("{\"kind\": \"meta\", \"bench\": \"test\"", 0),
              0u);
    for (std::size_t i = 1; i < lines.size(); ++i)
        for (const auto &f : sweepRecordFields())
            EXPECT_NE(lines[i].find("\"" + f + "\": "), std::string::npos)
                << "field " << f;

    // Spot-check values: numeric fields unquoted, strings quoted.
    EXPECT_EQ(lines[1].rfind("{\"index\": 0, ", 0), 0u);
    EXPECT_NE(text.find(strprintf("\"sla_rate\": %.6f",
                                  results[0].metrics.slaRate)),
              std::string::npos);
    EXPECT_NE(text.find("\"policy\": \"moca\""), std::string::npos);
}

TEST(SweepRecords, WriterEmitsMetaThenOneFlatObjectPerLine)
{
    const Record meta = runMeta("bench_x", 1, {{"seed", 7}});
    const std::string text = recordsText(
        meta, {{{"kind", "cell"},
                {"label", "a \"b\"\n\\c"},
                {"tasks", 250},
                {"sla_rate", jsonFixed(0.5, 6)},
                {"goodput", jsonFixed(133.85218, 4)},
                {"latency_p99", jsonFixed(292361657.94, 1)},
                {"wall_s", jsonFixed(0.0, 6)}},
               {{"kind", "total"}, {"ok", true}}});

    std::istringstream in(text);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(text.back(), '\n');

    // meta first: kind, bench, the run parameters, then the host.
    EXPECT_EQ(lines[0].rfind("{\"kind\": \"meta\", \"bench\": \"bench_x\", "
                             "\"seed\": 7, \"jobs\": 1, \"nproc\": ",
                             0),
              0u);
    for (const char *host : {"compiler", "build_type", "flags", "commit"})
        EXPECT_NE(lines[0].find(strprintf("\"%s\": \"", host)),
                  std::string::npos)
            << host;

    // Fields in the given order; strings through jsonEscape; the
    // jsonFixed widths unchanged.
    EXPECT_EQ(lines[1],
              "{\"kind\": \"cell\", \"label\": \"" +
                  jsonEscape("a \"b\"\n\\c") +
                  "\", \"tasks\": 250, \"sla_rate\": 0.500000, "
                  "\"goodput\": 133.8522, \"latency_p99\": 292361657.9, "
                  "\"wall_s\": 0.000000}");
    EXPECT_EQ(lines[2], "{\"kind\": \"total\", \"ok\": true}");

    // Nothing nested: one '{' and one '}' per line, no arrays.
    for (const auto &line : lines) {
        EXPECT_EQ(std::count(line.begin(), line.end(), '{'), 1) << line;
        EXPECT_EQ(std::count(line.begin(), line.end(), '}'), 1) << line;
        EXPECT_EQ(line.find('['), std::string::npos) << line;
    }
    EXPECT_DEATH((void)recordsText(meta, {{{"cells", JsonValue::raw("[]")}}}),
                 "record field cells is not a scalar");
    EXPECT_DEATH(
        (void)recordsText(meta, {{{"total", JsonValue::raw("{\"a\": 1}")}}}),
        "record field total is not a scalar");
}

TEST(SweepFiles, UnwritableFileIsFatal)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full not available";
    auto write = [](const char *flag) {
        const char *argv[] = {"prog", flag, "/dev/full"};
        writeSweepFiles(
            outputFilesFromArgs(ArgMap(3, const_cast<char **>(argv))),
            runMeta("test", 1), {}, {});
    };
    EXPECT_DEATH(write("--csv"), "cannot write /dev/full");
    EXPECT_DEATH(write("--json"), "cannot write /dev/full");
}

} // namespace
} // namespace moca::exp
