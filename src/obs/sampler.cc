#include "obs/sampler.h"

#include "common/json.h"
#include "common/log.h"
#include "common/table.h"

namespace moca::obs {

Sampler::Sampler(const Registry &reg, Cycles every)
    : reg_(reg), every_(every), next_(every)
{
    if (every_ == 0)
        fatal("sampler interval must be nonzero");
    series_.columns = reg_.columns();
}

void
Sampler::tick(Cycles now)
{
    while (next_ <= now) {
        series_.rows.push_back({next_, reg_.snapshot()});
        next_ += every_;
    }
}

std::string
timeseriesCsv(const Timeseries &ts)
{
    std::vector<std::string> headers;
    headers.reserve(ts.columns.size() + 1);
    headers.push_back("cycle");
    headers.insert(headers.end(), ts.columns.begin(),
                   ts.columns.end());
    Table table(std::move(headers));
    for (const auto &row : ts.rows) {
        table.row().cell(static_cast<long long>(row.at));
        for (double v : row.values)
            table.cell(v, 6);
    }
    return table.csv();
}

std::string
timeseriesJson(const Timeseries &ts)
{
    std::string out = "{\n  \"columns\": [\"cycle\"";
    for (const auto &c : ts.columns)
        out += ", \"" + c + "\"";
    out += "],\n  \"rows\": [\n";
    for (std::size_t i = 0; i < ts.rows.size(); i++) {
        const auto &row = ts.rows[i];
        out += strprintf("    [%llu",
                         static_cast<unsigned long long>(row.at));
        for (double v : row.values)
            out += strprintf(", %.6f", v);
        out += i + 1 < ts.rows.size() ? "],\n" : "]\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
writeTimeseries(const Timeseries &ts, const std::string &path)
{
    const bool json = path.size() >= 5 &&
        path.compare(path.size() - 5, 5, ".json") == 0;
    if (!writeTextFile(path,
                       json ? timeseriesJson(ts) : timeseriesCsv(ts)))
        fatal("cannot write %s", path.c_str());
    inform("wrote %zu telemetry samples to %s", ts.rows.size(),
           path.c_str());
}

} // namespace moca::obs
