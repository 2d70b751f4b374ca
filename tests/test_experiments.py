"""Tests for the experiment harness (fast experiments only).

The heavy figure reproductions run as benchmarks; here we validate the
harness machinery and the cheap runners end to end.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentTable,
    default_timeline,
    fig2_sizing,
    fig5_regulators,
    fig7_solar,
    table2_migration,
    training_trace,
)
from repro.experiments.common import evaluation_suite
from repro.solar import FOUR_DAYS


class TestExperimentTable:
    def test_render_alignment(self):
        table = ExperimentTable(
            title="t", headers=["a", "bb"], rows=[["1", "2"], ["33", "4"]]
        )
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5  # title, header, separator, two rows

    def test_render_with_notes(self):
        table = ExperimentTable("t", ["a"], [["1"]], notes=["hello"])
        assert "hello" in table.render()

    def test_cell_lookup(self):
        table = ExperimentTable("t", ["a", "b"], [["1", "2"]])
        assert table.cell(0, "b") == "2"


class TestCommon:
    def test_default_timeline_structure(self):
        tl = default_timeline(3)
        assert tl.num_days == 3
        assert tl.periods_per_day == 144
        assert tl.slots_per_period == 20
        assert tl.period_seconds == 600.0

    def test_training_trace_includes_extremes(self):
        trace = training_trace(num_days=8)
        assert trace.timeline.num_days == 8
        # The last four days are the archetypes, ordered by energy.
        tail = [trace.daily_energy(d) for d in range(4, 8)]
        assert tail == sorted(tail, reverse=True)

    def test_training_trace_short_horizon(self):
        trace = training_trace(num_days=3)
        assert trace.timeline.num_days == 3

    def test_evaluation_suite_unknown_key(self):
        from repro.tasks import wam

        with pytest.raises(ValueError):
            evaluation_suite(wam(), training_trace(3), include=("nope",))

    def test_evaluation_suite_rejects_key_before_training(self, monkeypatch):
        """A bad key fails fast: nothing is trained before it is rejected."""
        import repro.experiments.common as common
        from repro.tasks import wam

        def no_training(*args, **kwargs):
            raise AssertionError("trained a policy before validating")

        monkeypatch.setattr(common, "train_policy", no_training)
        with pytest.raises(ValueError, match="unknown scheduler key 'nope'"):
            evaluation_suite(wam(), training_trace(3), include=("nope",))


class TestCheapExperiments:
    def test_fig5_shape(self):
        table = fig5_regulators.run(points=5)
        assert len(table.rows) == 5
        assert "OK" in table.notes[0]

    def test_fig7_shape(self):
        table = fig7_solar.run()
        assert len(table.rows) == 25  # 24 hours + totals
        assert "OK" in table.notes[-1]
        energies = [float(c) for c in table.rows[-1][1:]]
        assert energies == sorted(energies, reverse=True)

    def test_fig2_optimum_moves(self):
        table = fig2_sizing.run()
        assert "OK" in table.notes[0]

    def test_table2_shape(self):
        table = table2_migration.run()
        # Model columns: 1F best small-pattern, 10F best large-pattern.
        small = {r[0]: float(r[1].rstrip("%")) for r in table.rows}
        large = {r[0]: float(r[4].rstrip("%")) for r in table.rows}
        assert max(small, key=small.get) == "1F"
        assert max(large, key=large.get) == "10F"
