"""Ablation: split policies (§2.4 and DESIGN.md design choices).

Expected shape: the NCP-driven min-margin policies beat the Mondrian-like
widest-dimension midpoint heuristic on certainty; searching all axes costs
build time for little quality; the zipcode-weighted policy trades general
quality for its target attribute.
"""

from conftest import run_figure

from repro.bench.figures import ablation_split

RECORDS = 12_000


def test_ablation_split(benchmark) -> None:
    table = run_figure(benchmark, lambda: ablation_split(records=RECORDS, k=10))
    certainty = {str(row[0]): row[2] for row in table.rows}
    build = {str(row[0]): row[1] for row in table.rows}

    assert certainty["min-margin (top-3 axes)"] < certainty["midpoint (Mondrian-like)"]
    # Axis preselection costs little quality...
    assert certainty["min-margin (top-3 axes)"] < 1.10 * certainty["min-margin (all axes)"]
    # ...and buys measurable build time.
    assert build["min-margin (top-3 axes)"] < build["min-margin (all axes)"]
