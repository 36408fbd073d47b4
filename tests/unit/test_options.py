"""Unit tests for the consolidated :class:`AnalysisOptions` record:
eager construction-time validation, the JSON round-trip used by
``repro serve``, and the CLI flags that build it.
"""

import pytest

from repro.cli import main
from repro.options import AnalysisOptions, options_from_args

#: Solver knobs the options record (and the CLI) no longer accept.
REMOVED_KNOBS = {"tier": "full", "jobs": 2, "storage": "int", "schedule": "wave"}


class TestValidation:
    def test_defaults_are_all_none(self):
        options = AnalysisOptions()
        assert options.as_dict() == {}

    def test_bad_tier_fails_at_construction(self):
        # The solver knobs are gone: naming one is a construction error.
        with pytest.raises(TypeError, match="tier"):
            AnalysisOptions(tier="warp")

    def test_bad_jobs_fails_at_construction(self):
        with pytest.raises(TypeError, match="jobs"):
            AnalysisOptions(jobs=0)

    def test_bad_resolver_and_schedule(self):
        with pytest.raises(ValueError):
            AnalysisOptions(resolver="psychic")
        with pytest.raises(TypeError, match="schedule"):
            AnalysisOptions(schedule="lifo")

    def test_bad_demand_and_context_depth(self):
        # Γ has one resolution path: ``demand`` is no option any more.
        with pytest.raises(TypeError, match="demand"):
            AnalysisOptions(demand=True)
        with pytest.raises(ValueError):
            AnalysisOptions(context_depth=-1)

    def test_frozen(self):
        options = AnalysisOptions(resolver="summary")
        with pytest.raises(AttributeError):
            options.resolver = "callstring"

    def test_three_fields(self):
        options = AnalysisOptions(
            resolver="summary", config="usher", context_depth=2
        )
        assert set(options.as_dict()) == {"resolver", "config", "context_depth"}


class TestCombinators:
    def test_merged_applies_only_non_none(self):
        base = AnalysisOptions(resolver="summary", context_depth=2)
        merged = base.merged(resolver=None, context_depth=3, config="usher")
        assert merged == AnalysisOptions(
            resolver="summary", context_depth=3, config="usher"
        )
        # No overrides → the same (immutable) record comes back.
        assert base.merged() is base

    def test_dict_round_trip(self):
        options = AnalysisOptions(resolver="summary", context_depth=3, config="usher")
        assert AnalysisOptions.from_dict(options.as_dict()) == options

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown analysis option"):
            AnalysisOptions.from_dict({"resolver": "summary", "turbo": True})
        for knob, value in REMOVED_KNOBS.items():
            with pytest.raises(
                ValueError, match=f"^unknown analysis option\\(s\\): {knob}$"
            ):
                AnalysisOptions.from_dict({knob: value})

    def test_from_dict_rejects_demand(self):
        with pytest.raises(
            ValueError, match="^unknown analysis option\\(s\\): demand$"
        ):
            AnalysisOptions.from_dict({"demand": True})

    def test_from_dict_empty(self):
        assert AnalysisOptions.from_dict(None) == AnalysisOptions()
        assert AnalysisOptions.from_dict({}) == AnalysisOptions()


class TestCliBoundary:
    def test_options_from_args(self):
        class Args:
            config = "usher"

        options = options_from_args(Args())
        assert options == AnalysisOptions(config="usher")

        class Bare:
            pass

        assert options_from_args(Bare()) == AnalysisOptions()

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "prog.tc", "--tier", "full"],
            ["check", "prog.tc", "--storage", "int"],
            ["report", "--storage", "int"],
            ["serve", "--storage", "int"],
        ],
    )
    def test_removed_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
