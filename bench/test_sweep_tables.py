#!/usr/bin/env python3
"""Tests of sweep_tables.py on synthetic sweep rows.

    python3 bench/test_sweep_tables.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import sweep_tables  # noqa: E402


def row(graph, e, m, b, algo, ios):
    return {"name": f"{graph}/M={m}/B={b}/{algo}", "algorithm": algo,
            "graph": graph, "E": e, "M": m, "B": b, "triangles": 0,
            "reads": ios, "writes": 0, "ios": ios, "work": 0,
            "ps_bound": e ** 1.5 / (m ** 0.5 * b), "lower_bound": 0.0}


def gnm(e):
    return f"gnm:n={e // 4},m={e},seed=1"


def exponent_row(text, algo):
    """The cells of `algo`'s row in the exponent table."""
    table = text.split("**Exponents**")[1]
    for line in table.splitlines():
        if line.startswith(f"| {algo} |"):
            return [c.strip() for c in line.strip("|").split("|")]
    raise AssertionError(f"no exponent row for {algo}")


class Slopes(unittest.TestCase):
    def test_e_axis_fits_three_halves(self):
        rows = [row(gnm(1 << lg), 1 << lg, 1024, 16, "ps-cache-oblivious",
                    3 * (1 << lg) ** 1.5) for lg in range(12, 17)]
        _, cells = sweep_tables.load_cells(rows)
        (param, label, members), = sweep_tables.axes(cells)
        self.assertEqual((param, label, len(members)), ("E", "E, gnm", 5))
        slope = sweep_tables.fit_slope(
            [(c.params["E"], c.ios["ps-cache-oblivious"]) for c in members])
        self.assertAlmostEqual(slope, 1.5, places=9)
        self.assertEqual(
            exponent_row(sweep_tables.render(rows), "ps-cache-oblivious"),
            ["ps-cache-oblivious", "1.50", "1.5 / -0.5 / -1"])

    def test_m_axis_fits_minus_one_half(self):
        rows = [row(gnm(1 << 14), 1 << 14, m, 16, "ps-cache-aware",
                    7e5 * m ** -0.5) for m in (256, 512, 1024, 2048, 4096)]
        _, cells = sweep_tables.load_cells(rows)
        (param, label, members), = sweep_tables.axes(cells)
        self.assertEqual((param, len(members)), ("M", 5))
        slope = sweep_tables.fit_slope(
            [(c.params["M"], c.ios["ps-cache-aware"]) for c in members])
        self.assertAlmostEqual(slope, -0.5, places=9)
        self.assertEqual(
            exponent_row(sweep_tables.render(rows), "ps-cache-aware"),
            ["ps-cache-aware", "-0.50", "1.5 / -0.5 / -1"])

    def test_two_cells_make_no_axis(self):
        rows = [row(gnm(1 << lg), 1 << lg, 1024, 16, "a", 100)
                for lg in (12, 13)]
        _, cells = sweep_tables.load_cells(rows)
        self.assertEqual(sweep_tables.axes(cells), [])


class Crossover(unittest.TestCase):
    def crossover_line(self, ios_by_algo):
        rows = [row(gnm(4096), 4096, 1024, 16, a, ios)
                for a, ios in ios_by_algo]
        text = sweep_tables.render(rows).split("**Crossover**")[1]
        return [line for line in text.splitlines()
                if line.startswith("| `gnm")][0]

    def test_picks_the_minimum(self):
        line = self.crossover_line([("ps-cache-aware", 90), ("mgt", 70),
                                    ("edge-iterator", 30)])
        self.assertIn("| edge-iterator | 30 | ps-cache-aware | 3.00 |", line)

    def test_ties_go_to_registry_order(self):
        algos = ["mgt", "edge-iterator", "bnl"]
        rows = [row(gnm(4096), 4096, 1024, 16, a, ios)
                for a, ios in zip(algos, (50, 20, 20))]
        _, (cell,) = sweep_tables.load_cells(rows)
        self.assertEqual(sweep_tables.fewest(algos, cell), "edge-iterator")
        # The file's order is the registry order, whatever the names.
        rows.reverse()
        order, (cell,) = sweep_tables.load_cells(rows)
        self.assertEqual(order, ["bnl", "edge-iterator", "mgt"])
        self.assertEqual(sweep_tables.fewest(order, cell), "bnl")

    def test_best_paper_algorithm_ties_in_registry_order(self):
        line = self.crossover_line([("ps-cache-aware", 40),
                                    ("ps-cache-oblivious", 40),
                                    ("ps-deterministic", 10)])
        self.assertIn("| ps-deterministic | 10 | ps-deterministic | 1.00 |",
                      line)
        line = self.crossover_line([("ps-cache-aware", 40),
                                    ("ps-cache-oblivious", 40),
                                    ("edge-iterator", 10)])
        self.assertIn("| edge-iterator | 10 | ps-cache-aware | 4.00 |", line)


class Incomplete(unittest.TestCase):
    def rows(self):
        rows = [row(gnm(4096), 4096, 1024, 16, a, 10) for a in ("a", "b")]
        rows.append(row(gnm(8192), 8192, 1024, 16, "a", 20))
        return rows

    def test_missing_algorithm_raises(self):
        with self.assertRaisesRegex(ValueError, "has no row for b"):
            sweep_tables.render(self.rows())

    def test_duplicate_row_raises(self):
        rows = self.rows()[:2] + [row(gnm(4096), 4096, 1024, 16, "a", 11)]
        with self.assertRaisesRegex(ValueError, "a second row"):
            sweep_tables.load_cells(rows)

    def test_script_prints_no_partial_table(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sweep.json")
            with open(path, "w") as f:
                json.dump({"benchmarks": self.rows()}, f)
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "sweep_tables.py"), path],
                capture_output=True, text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")
        self.assertIn("has no row for b", done.stderr)


if __name__ == "__main__":
    unittest.main()
