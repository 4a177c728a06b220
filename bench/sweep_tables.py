#!/usr/bin/env python3
"""Print README's Reproduction tables from io_sweep's output.

Usage: sweep_tables.py SWEEP_JSON

SWEEP_JSON is the `{"benchmarks": [...]}` file that bench/io_sweep.cc
writes (bench/baselines/io_sweep.json is the committed one): one row per
(graph, M, B) cell and registered algorithm. Three markdown tables go to
stdout, in this order:

  1. measured block I/Os over the paper's E^{3/2}/(sqrt(M)B), per cell;
  2. the crossover: per cell, the algorithm that moves the fewest blocks,
     and the best paper algorithm's multiple of that;
  3. each algorithm's least-squares slope of log block I/Os against log E,
     log M and log B, beside the paper's exponents.

An axis is a set of at least three cells that differ only in E (within one
generator family), only in M or only in B, so the tables follow whatever
grid io_sweep.cc defines. Ties go to the algorithm that comes first in the
file, which is registry order. A cell without a row for every algorithm is
an error, so no table is ever partial.
"""
import dataclasses
import json
import math
import sys

PAPER_ALGOS = ("ps-cache-aware", "ps-cache-oblivious", "ps-deterministic")
# Exponents of E, M and B in the paper's bounds: E^{3/2}/(sqrt(M)B) for
# sections 2-4, E^2/(MB) for mgt.
PAPER_SLOPES = {algo: (1.5, -0.5, -1.0) for algo in PAPER_ALGOS}
PAPER_SLOPES["mgt"] = (2.0, -1.0, -1.0)
PARAMS = ("E", "M", "B")


@dataclasses.dataclass
class Cell:
    graph: str
    params: dict  # "E", "M", "B" -> int
    ps_bound: float
    ios: dict = dataclasses.field(default_factory=dict)  # algorithm -> int

    def columns(self):
        return [f"`{self.graph}`"] + [str(self.params[p]) for p in PARAMS]


def load_cells(rows):
    """(algorithms in file order, cells in file order). Raises ValueError if
    a cell lacks a row for some algorithm or has two for one."""
    algos = []
    grid = {}
    for r in rows:
        if r["algorithm"] not in algos:
            algos.append(r["algorithm"])
        cell = grid.setdefault(
            (r["graph"], r["M"], r["B"]),
            Cell(r["graph"], {p: r[p] for p in PARAMS}, r["ps_bound"]))
        if r["algorithm"] in cell.ios:
            raise ValueError(f"{r['name']}: a second row for its cell")
        cell.ios[r["algorithm"]] = r["ios"]
    for cell in grid.values():
        missing = [a for a in algos if a not in cell.ios]
        if missing:
            raise ValueError(f"{cell.graph} at M={cell.params['M']}, "
                             f"B={cell.params['B']} has no row for "
                             f"{', '.join(missing)}")
    return algos, list(grid.values())


def fit_slope(points):
    """Least-squares slope of log y against log x over (x, y) points."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys)) /
            sum((x - mx) ** 2 for x in xs))


def fewest(algos, cell):
    """The algorithm with the fewest block I/Os; the first in `algos` wins
    a tie."""
    return min(algos, key=lambda a: cell.ios[a])


def axes(cells):
    """[(param, label, cells sorted by param)] for every axis of the grid."""
    found = []
    for param in PARAMS:
        groups = {}
        for cell in cells:
            graph = cell.graph.split(":", 1)[0] if param == "E" else cell.graph
            fixed = tuple(cell.params[p] for p in PARAMS if p != param)
            groups.setdefault((graph, fixed), []).append(cell)
        for (graph, _), members in groups.items():
            if len({c.params[param] for c in members}) >= 3:
                members.sort(key=lambda c: c.params[param])
                name = graph.split(":", 1)[0]
                found.append((param, f"{param}, {name}", members))
    return found


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines)


def render(rows):
    algos, cells = load_cells(rows)
    paper = [a for a in algos if a in PAPER_ALGOS]
    out = ["**Measured block I/Os over E<sup>3/2</sup>/(√M·B)** per cell:\n"]
    out.append(table(["graph"] + list(PARAMS) + algos, [
        c.columns() + [f"{c.ios[a] / c.ps_bound:.1f}" for a in algos]
        for c in cells]))

    out.append("\n**Crossover**: the algorithm that moves the fewest "
               "blocks, and the best paper algorithm's multiple of it:\n")
    body = []
    for c in cells:
        best, ours = fewest(algos, c), fewest(paper, c)
        body.append(c.columns() + [best, str(c.ios[best]), ours,
                                   f"{c.ios[ours] / c.ios[best]:.2f}"])
    out.append(table(["graph"] + list(PARAMS) +
                     ["fewest blocks", "block I/Os", "best paper algorithm",
                      "multiple"], body))

    found = axes(cells)
    out.append("\n**Exponents**: the slope of log block I/Os against log E, "
               "log M and log B along each axis, and the paper's:\n")
    body = []
    for a in algos:
        slopes = [f"{fit_slope([(c.params[p], c.ios[a]) for c in members]):.2f}"
                  for p, _, members in found]
        paper_slopes = PAPER_SLOPES.get(a)
        body.append([a] + slopes + [
            " / ".join(f"{s:g}" for s in paper_slopes) if paper_slopes
            else "-"])
    out.append(table(["algorithm"] + [label for _, label, _ in found] +
                     ["paper (E / M / B)"], body))
    out.append("")
    for p, label, members in found:
        first, last = members[0], members[-1]
        fixed = ", ".join(f"{q} = {first.params[q]}" for q in PARAMS if q != p)
        out.append(f"- {label}: {p} = {first.params[p]} to {last.params[p]} "
                   f"({len(members)} cells) at {fixed}.")
    return "\n".join(out) + "\n"


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: sweep_tables.py SWEEP_JSON")
    with open(sys.argv[1]) as f:
        rows = json.load(f)["benchmarks"]
    try:
        sys.stdout.write(render(rows))
    except ValueError as e:
        sys.exit(f"sweep_tables.py: {e}")


if __name__ == "__main__":
    main()
