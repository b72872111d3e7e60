"""Bench: PUNCH vs baseline partitioners (Section 6 context).

The paper's conclusion: PUNCH finds better partitions of road networks
than generic approaches at acceptable cost.  Shape checks on a road-like
instance: PUNCH's cut beats the multilevel baseline and crushes region
growing, and PUNCH keeps cells connected.  The conclusion's Buffoon-style
hybrid (PUNCH's filtering, then a multilevel assembly of the fragment
graph) runs as the ``filter+multilevel`` row and must respect U.
"""

from repro.analysis import render_table
from repro.analysis.experiments import baseline_comparison

from .conftest import QUICK, write_result

NAME = "small_like" if QUICK else "belgium_like"


def _run():
    return baseline_comparison(NAME, U=256)


def test_baseline_comparison(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    out = render_table(
        ["method", "cut", "cells", "max cell", "connected", "time [s]"],
        [
            (
                r["method"],
                r["cost"],
                r["cells"],
                r["max_cell"],
                "yes" if r["connected"] else "no",
                round(r["time"], 1),
            )
            for r in rows
        ],
        title=f"PUNCH vs baselines on {NAME}, U=256",
    )
    write_result("baseline_comparison", out)

    by = {r["method"].split(" ")[0]: r for r in rows}
    assert by["PUNCH"]["cost"] <= by["multilevel"]["cost"]
    assert by["PUNCH"]["cost"] < by["region-growing"]["cost"] / 2
    assert by["PUNCH"]["connected"]
    assert by["filter+multilevel"]["max_cell"] <= 256
