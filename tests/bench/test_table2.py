"""The Table 2 regeneration driver (smoke-level: tiny scale)."""

import pytest

from repro.bench.table2 import PAPER_TABLE2, render, run_row, run_table2


class TestPaperReference:
    def test_all_rows_recorded(self):
        assert len(PAPER_TABLE2) == 7
        assert "DynamicEndpointSnitch" in PAPER_TABLE2

    def test_reference_row_shape(self):
        row = PAPER_TABLE2["ComplexConcurrency"]
        assert row == ("2011 qps", "685 qps", "425 qps",
                       "1784 (26)", "200 (2)")


class TestRunRow:
    def test_h2_row(self):
        row = run_row("ComplexConcurrency", scale=0.1, seed=0)
        assert row.application == "H2 database"
        assert not row.timed_in_seconds
        assert set(row.measurements) == {"uninstrumented", "fasttrack",
                                         "rd2"}
        assert row.measurements["uninstrumented"].operations > 0
        assert "qps" in row.performance("rd2")

    def test_snitch_row_timed_in_seconds(self):
        row = run_row("DynamicEndpointSnitch", scale=0.1, seed=0)
        assert row.application == "Cassandra"
        assert row.timed_in_seconds
        assert row.performance("rd2").endswith("s")

    def test_races_accessor(self):
        row = run_row("ComplexConcurrency", scale=0.15, seed=0)
        rd2 = row.races("rd2")
        fasttrack = row.races("fasttrack")
        assert rd2.total >= 1
        assert fasttrack.total >= 1

    def test_custom_configs(self):
        row = run_row("ComplexConcurrency", scale=0.1,
                      configs=("uninstrumented",))
        assert set(row.measurements) == {"uninstrumented"}


class TestShapeClaims:
    """The qualitative claims the reproduction makes about Table 2."""

    @pytest.fixture(scope="class")
    def rows(self):
        # Best-of-3 per cell, the three configurations interleaved in each
        # round and every run timed with the collector off: the shape
        # claims compare wall-clock numbers of about 0.05 s, which a GC
        # pause or a slow stretch of a loaded full-suite run can flip.
        return {row.benchmark: row
                for row in run_table2(scale=0.15, seed=0, repeats=3)}

    def test_uninstrumented_is_fastest(self, rows):
        for row in rows.values():
            uninstrumented = row.measurements["uninstrumented"]
            for config in ("fasttrack", "rd2"):
                other = row.measurements[config]
                if row.timed_in_seconds:
                    assert uninstrumented.elapsed <= other.elapsed
                else:
                    assert uninstrumented.qps >= other.qps

    def test_clean_rows_have_zero_rd2_races(self, rows):
        for name in ("QueryCentricConcurrency", "Complex", "NestedLists"):
            assert rows[name].races("rd2").total == 0, name

    def test_concurrency_rows_have_rd2_races_on_few_objects(self, rows):
        for name in ("ComplexConcurrency", "ComplexConcurrency-alt",
                     "InsertCentricConcurrency"):
            tally = rows[name].races("rd2")
            assert tally.total >= 1, name
            assert tally.distinct <= 3, name

    def test_fasttrack_flags_every_h2_row(self, rows):
        for name, row in rows.items():
            assert row.races("fasttrack").total >= 1, name

    def test_snitch_rd2_races_on_two_objects(self, rows):
        tally = rows["DynamicEndpointSnitch"].races("rd2")
        assert tally.total >= 1
        assert tally.distinct == 2


class TestRender:
    def test_render_includes_measured_and_paper(self):
        rows = [run_row("Complex", scale=0.1)]
        text = render(rows)
        assert "measured on this machine" in text
        assert "paper, JVM testbed" in text
        assert "Complex" in text

    def test_render_without_paper(self):
        rows = [run_row("Complex", scale=0.1)]
        text = render(rows, with_paper=False)
        assert "JVM testbed" not in text

    def test_cli_main(self, capsys):
        from repro.bench.table2 import main
        code = main(["--scale", "0.05", "--benchmark", "Complex",
                     "--no-paper"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Complex" in out
