#include "exp/sweep/sweep.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/log.h"

namespace moca::exp {

std::uint64_t
deriveCellSeed(std::uint64_t base, std::size_t index)
{
    // splitmix64: well-distributed, cheap, and stable across
    // platforms — adjacent cell indices yield uncorrelated streams.
    std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

ScenarioResult
runCell(const SweepCell &cell)
{
    if (cell.specs)
        return runTrace(cell.policy, *cell.specs, cell.trace, cell.soc);
    return runScenario(cell.policy, cell.trace, cell.soc);
}

void
appendPolicyCells(std::vector<SweepCell> &grid,
                  const std::string &label,
                  const std::vector<std::string> &specs,
                  const workload::TraceConfig &trace,
                  const sim::SocConfig &soc)
{
    auto stream = std::make_shared<const std::vector<sim::JobSpec>>(
        makeTrace(trace, soc));
    for (const std::string &spec : specs) {
        SweepCell cell;
        cell.label = label;
        cell.policy = spec;
        cell.trace = trace;
        cell.soc = soc;
        cell.specs = stream;
        grid.push_back(std::move(cell));
    }
}

int
resolveJobs(int jobs)
{
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

void
SweepRunner::runIndexed(std::size_t n, int jobs,
                        const std::function<void(std::size_t)> &task)
{
    const int workers =
        static_cast<int>(std::min<std::size_t>(
            n, static_cast<std::size_t>(resolveJobs(jobs))));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            task(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex err_mutex;
    std::exception_ptr first_error;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                task(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                next.store(n); // Drain remaining work.
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<ScenarioResult>
SweepRunner::run(const std::vector<SweepCell> &cells) const
{
    std::vector<ScenarioResult> results(cells.size());
    runIndexed(cells.size(), opts_.jobs, [&](std::size_t i) {
        if (opts_.verbose)
            inform("sweep: running cell %zu/%zu (%s / %s)...", i + 1,
                   cells.size(), cells[i].label.c_str(),
                   cells[i].policy.c_str());
        results[i] = runCell(cells[i]);
    });
    return results;
}

} // namespace moca::exp
