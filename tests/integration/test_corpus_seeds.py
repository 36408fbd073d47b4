"""The permanent-corpus loader contract: every committed ``.ir`` seed
parses, verifies, honors the soundness oracle under all four base
configurations, and reproduces its manifest-pinned warning set, plan
counts and solver work.  ``repro promote`` adds seeds to the corpus.

This is the satellite guarantee of the corpus: a pipeline change that
shifts behavior on any oracle-bred shape — the distilled programs
where real bugs hid — fails here the moment it lands, not on the next
nightly fuzz campaign.
"""

import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import run_usher
from repro.ir.parser import parse_ir
from repro.ir.verifier import verify_module
from repro.oracle.differ import build_config_matrix
from repro.oracle.harness import FUZZ_PIPELINE, _prepare_text, examine_text
from repro.runtime import run_instrumented, run_native
from repro.workloads.corpus import (
    BASE_CONFIG_SPECS,
    CorpusError,
    CorpusSeed,
    default_corpus_dir,
    load_corpus,
    pin_text,
)

CORPUS_DIR = Path(__file__).resolve().parents[1] / "data" / "corpus"

SEEDS = load_corpus(CORPUS_DIR)

#: Per seed and base config: the plan's static (checks, propagations).
PLAN_COUNTS = {
    "seed185": {"tl": (15, 22), "tl_at": (15, 22), "opt_i": (15, 16), "full": (15, 14)},
    "seed44": {"tl": (6, 18), "tl_at": (6, 18), "opt_i": (6, 5), "full": (5, 3)},
    "seed63": {"tl": (8, 42), "tl_at": (7, 32), "opt_i": (7, 23), "full": (7, 23)},
}

#: Per seed: the pointer solver's (pops, facts_propagated).
SOLVER_COUNTS = {"seed185": (0, 0), "seed44": (6, 3), "seed63": (0, 0)}


class TestCorpusShape:
    def test_corpus_has_at_least_two_bred_seeds_plus_seed185(self):
        names = {seed.name for seed in SEEDS}
        assert "seed185" in names
        assert len(names - {"seed185"}) >= 2

    def test_default_dir_resolves_to_the_checkout(self):
        assert default_corpus_dir() == CORPUS_DIR

    def test_manifest_covers_every_committed_ir_file(self):
        files = {path.name for path in CORPUS_DIR.glob("*.ir")}
        listed = {Path(seed.path).name for seed in SEEDS}
        assert files == listed

    def test_every_seed_pins_all_four_base_configs(self):
        for seed in SEEDS:
            assert set(dict(seed.pinned)) == set(BASE_CONFIG_SPECS)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: s.name)
class TestEverySeed:
    def test_parses_and_verifies(self, seed):
        module = parse_ir(seed.text())
        verify_module(module)

    def test_oracle_contract_holds(self, seed):
        matrix = build_config_matrix(list(BASE_CONFIG_SPECS))
        status, divergences = examine_text(seed.text(), seed.name, matrix)
        assert status == "ok", [d.describe() for d in divergences]

    def test_native_ground_truth_matches_manifest(self, seed):
        prepared = _prepare_text(seed.text(), seed.name)
        native = run_native(prepared.module)
        assert tuple(sorted(native.true_bug_set())) == seed.true_bugs

    def test_pinned_warning_sets_reproduce(self, seed):
        matrix = build_config_matrix(list(BASE_CONFIG_SPECS))
        prepared = _prepare_text(seed.text(), seed.name)
        solver = prepared.solver_stats
        assert (solver.pops, solver.facts_propagated) == SOLVER_COUNTS[seed.name]
        for spec, config in matrix:
            plan = run_usher(prepared, config).plan
            report = run_instrumented(prepared.module, plan)
            assert (
                tuple(sorted(report.warning_set()))
                == seed.pinned_warnings(spec)
            ), f"{seed.name} under {spec}"
            assert (
                (plan.count_checks(), plan.count_propagations())
                == PLAN_COUNTS[seed.name][spec]
            ), f"{seed.name} under {spec}"


class TestLoaderErrors:
    def test_absent_directory_is_an_empty_corpus(self, tmp_path):
        assert load_corpus(tmp_path / "nowhere") == []

    def test_bad_json_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{broken")
        with pytest.raises(CorpusError, match="bad JSON"):
            load_corpus(tmp_path)

    def test_unknown_schema_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"schema": "nope/9"}')
        with pytest.raises(CorpusError, match="unknown schema"):
            load_corpus(tmp_path)

    def test_missing_file_raises(self, tmp_path):
        import json

        (tmp_path / "manifest.json").write_text(json.dumps({
            "schema": "repro.corpus/1",
            "seeds": [{
                "name": "ghost", "file": "ghost.ir", "true_bugs": [],
                "pinned": {s: [] for s in BASE_CONFIG_SPECS},
            }],
        }))
        with pytest.raises(CorpusError, match="missing"):
            load_corpus(tmp_path)

    def test_missing_pinned_config_raises(self, tmp_path):
        import json

        (tmp_path / "partial.ir").write_text("; empty\n")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "schema": "repro.corpus/1",
            "seeds": [{
                "name": "partial", "file": "partial.ir", "true_bugs": [],
                "pinned": {"tl": []},
            }],
        }))
        with pytest.raises(CorpusError, match="lacks pinned"):
            load_corpus(tmp_path)

    def test_seed_accessors(self):
        seed = next(s for s in SEEDS if s.name == "seed185")
        assert isinstance(seed, CorpusSeed)
        assert seed.description == seed.origin
        assert seed.text().startswith(";")
        assert seed.pinned_warnings("tl") == seed.pinned_warnings("full")


def test_corpus_pipeline_level_matches_the_oracle():
    """Promotion and the loader both replay seeds at the oracle's
    pipeline level; a drift here would un-pin everything."""
    assert FUZZ_PIPELINE == "O0+IM"


class TestPromotion:
    """``repro promote FILE.ir... [--dry-run] [--corpus-dir DIR]``."""

    @pytest.fixture
    def sandbox_corpus(self, tmp_path):
        """A private corpus dir seeded with the committed manifest."""
        dst = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, dst)
        return dst

    @pytest.fixture
    def reproducer(self, tmp_path):
        """A sound single-bug module in printed-IR form."""
        from repro.ir.printer import module_to_str
        from repro.opt import run_pipeline
        from repro.tinyc import compile_source

        module = compile_source(
            """
            def main() {
              var x;
              if (0) { x = 1; }
              output(x);
              return 0;
            }
            """,
            "candidate",
        )
        run_pipeline(module, "O0")
        path = tmp_path / "seed_candidate.ir"
        path.write_text(module_to_str(module))
        return path

    def test_dry_run_validates_without_writing(
        self, sandbox_corpus, reproducer, capsys
    ):
        before = [seed.name for seed in load_corpus(sandbox_corpus)]
        code = main([
            "promote", str(reproducer),
            "--corpus-dir", str(sandbox_corpus), "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "validated 1 reproducer(s)" in out
        assert [s.name for s in load_corpus(sandbox_corpus)] == before
        assert not (sandbox_corpus / "seed_candidate.ir").exists()

    def test_promotion_adds_a_loadable_pinned_seed(
        self, sandbox_corpus, reproducer
    ):
        code = main([
            "promote", str(reproducer), "--corpus-dir", str(sandbox_corpus),
        ])
        assert code == 0
        seeds = {seed.name: seed for seed in load_corpus(sandbox_corpus)}
        promoted = seeds.pop("seed_candidate")
        # The committed seeds keep their pins through the manifest rewrite.
        assert [(s.name, s.true_bugs, s.pinned) for s in seeds.values()] == [
            (s.name, s.true_bugs, s.pinned) for s in SEEDS
        ]
        assert set(dict(promoted.pinned)) == set(BASE_CONFIG_SPECS)
        # The loaded pins are the ones the committed pipeline produces.
        assert {
            "true_bugs": list(promoted.true_bugs),
            "pinned": {spec: list(uids) for spec, uids in promoted.pinned},
        } == pin_text(promoted.text(), promoted.name)

    def test_name_collision_is_refused(self, sandbox_corpus, tmp_path):
        # Promotion names seeds by file stem; "seed185" is taken.
        collider = tmp_path / "seed185.ir"
        collider.write_text(
            (sandbox_corpus / "seed185_opt1_grouping.ir").read_text()
        )
        code = main([
            "promote", str(collider), "--corpus-dir", str(sandbox_corpus),
        ])
        assert code == 2

    def test_divergent_reproducer_is_refused(
        self, sandbox_corpus, tmp_path, capsys
    ):
        """A reproducer whose divergence is NOT yet fixed must not be
        enshrined: promotion re-runs the oracle and refuses."""
        from repro.oracle import legacy_opt1

        # seed185's minimized shape still diverges under the legacy
        # (ungrouped) Opt I, which legacy_opt1 re-enables.
        text = (sandbox_corpus / "seed185_opt1_grouping.ir").read_text()
        candidate = tmp_path / "seed_still_bites.ir"
        candidate.write_text(text)
        with legacy_opt1():
            code = main([
                "promote", str(candidate),
                "--corpus-dir", str(sandbox_corpus),
            ])
        assert code == 2
        assert "diverges" in capsys.readouterr().err
