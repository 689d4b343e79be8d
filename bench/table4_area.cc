/**
 * @file
 * Table IV reproduction: area breakdown of a MoCA-enabled accelerator
 * tile in the GlobalFoundries 12 nm process.  Fixed component areas
 * reproduce the paper's synthesis results; the MoCA hardware entry is
 * additionally derived from the gate-count model so the overhead
 * claim (< 0.1 Kum^2, 0.02% of the tile, 1.7%-grade memory-interface
 * delta) is recomputed rather than transcribed.  A counter-width
 * sensitivity grid (16..48-bit counters, evaluated on the sweep
 * engine) shows how far the width can grow before the overhead claim
 * breaks.
 *
 * Usage: table4_area [--list-policies] [--jobs N]
 */

#include <cstdio>
#include <vector>

#include "area/area_model.h"
#include "common/argparse.h"
#include "common/log.h"
#include "common/table.h"
#include "exp/registry.h"
#include "exp/sweep/options.h"

int
main(int argc, char **argv)
{
    using namespace moca;

    ArgMap args(argc, argv);
    // Area accounting is policy-independent; --list-policies still
    // works, and any --policy selection is rejected rather than
    // ignored.
    if (exp::specsFromArgs<exp::PolicyRegistry>(args, {"moca"}) !=
        std::vector<std::string>{"moca"})
        fatal("table4_area models the MoCA hardware area; --policy "
              "cannot change what it measures");
    const int jobs = exp::sweepOptionsFromArgs(args).jobs;
    args.requireAllRead();

    std::printf("== Table IV: area breakdown of an accelerator tile "
                "with MoCA ==\n\n");

    const area::MocaHwModel hw;
    const area::TileAreaBreakdown b = area::tileAreaBreakdown(hw);

    Table t({"Component", "Area (um^2)", "% of tile"});
    for (const auto &c : b.components) {
        t.row().cell(c.name).cell(c.areaUm2, 1)
            .cell(100.0 * c.areaUm2 / b.tileTotalUm2, 2);
    }
    t.row().cell("Tile (total)").cell(b.tileTotalUm2, 1).cell(100.0, 2);
    t.print();

    std::printf("\nMoCA hardware gate-count model: %.1f um^2 "
                "(paper reports ~0.1 Kum^2)\n", hw.areaUm2());
    std::printf("MoCA vs. memory interface: +%.1f%% "
                "(paper: ~1.7%% of the memory interface)\n",
                100.0 * b.mocaVsMemIf());
    std::printf("MoCA vs. tile: +%.3f%% (paper: 0.02%%)\n",
                100.0 * b.mocaVsTile());

    // ---- counter-width sensitivity (gate-count model) ----------------
    const std::vector<int> widths = {16, 24, 32, 48};
    std::vector<area::TileAreaBreakdown> breakdowns(widths.size());
    exp::SweepRunner::runIndexed(
        widths.size(), jobs, [&](std::size_t i) {
            area::MocaHwModel m;
            m.accessCounterBits = widths[i];
            m.thresholdRegBits = widths[i];
            m.windowCounterBits = widths[i];
            m.windowRegBits = widths[i];
            breakdowns[i] = area::tileAreaBreakdown(m);
        });

    Table s({"Counter width (bits)", "MoCA HW (um^2)",
             "% of mem IF", "% of tile"});
    for (std::size_t i = 0; i < widths.size(); ++i) {
        s.row().cell(static_cast<long long>(widths[i]))
            .cell(breakdowns[i].mocaHwUm2, 1)
            .cell(100.0 * breakdowns[i].mocaVsMemIf(), 2)
            .cell(100.0 * breakdowns[i].mocaVsTile(), 3);
    }
    s.print("MoCA hardware area vs. counter width");
    return 0;
}
