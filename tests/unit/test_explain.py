"""Unit tests for the undefined-value flow explanations."""

import pytest

from repro.api import analyze
from repro.core import UsherConfig, run_usher
from repro.options import AnalysisOptions
from repro.service.session import AnalysisSession
from repro.vfg.explain import FlowTree, explain_undefined
from repro.vfg.graph import BOT, Root
from tests.helpers import analyzed

SOURCE = """
def classify(v) {
  var bin;
  if (v < 5) { bin = 0; }
  return bin;
}
def main() {
  var b = classify(9);
  if (b) { output(1); }
  return 0;
}
"""


@pytest.fixture(scope="module")
def setup():
    prepared = analyzed(SOURCE)
    result = run_usher(prepared, UsherConfig.tl_at())
    return prepared, result


class TestExplain:
    def _bottom_site(self, result):
        return next(
            s
            for s in result.vfg.check_sites
            if s.node is not None and not result.gamma.is_defined(s.node)
        )

    def test_path_starts_at_f_root(self, setup):
        prepared, result = setup
        site = self._bottom_site(result)
        steps = explain_undefined(result.vfg, prepared.module, site.node)
        assert steps is not None
        assert isinstance(steps[0].node, Root)
        assert "originates" in steps[0].description

    def test_path_ends_at_target(self, setup):
        prepared, result = setup
        site = self._bottom_site(result)
        steps = explain_undefined(result.vfg, prepared.module, site.node)
        assert steps[-1].node == site.node

    def test_mentions_read_before_assignment(self, setup):
        prepared, result = setup
        site = self._bottom_site(result)
        steps = explain_undefined(result.vfg, prepared.module, site.node)
        assert any("read before any assignment" in s.description for s in steps)

    def test_crosses_the_return(self, setup):
        prepared, result = setup
        site = self._bottom_site(result)
        steps = explain_undefined(result.vfg, prepared.module, site.node)
        assert any(s.edge_kind == "ret" for s in steps)

    def test_defined_node_yields_none(self, setup):
        prepared, result = setup
        defined = next(
            s.node
            for s in result.vfg.check_sites
            if s.node is not None and result.gamma.is_defined(s.node)
        )
        assert explain_undefined(result.vfg, prepared.module, defined) is None

    def test_by_check_site_uid(self, setup):
        prepared, result = setup
        site = self._bottom_site(result)
        steps = FlowTree(result.vfg).explain_site(
            prepared.module, site.instr_uid
        )
        assert steps is not None
        assert steps[-1].node == site.node

    def test_render_includes_lines(self, setup):
        prepared, result = setup
        site = self._bottom_site(result)
        steps = explain_undefined(result.vfg, prepared.module, site.node)
        rendered = "\n".join(s.render() for s in steps)
        assert "line" in rendered

    def test_cli_explain_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.tc"
        path.write_text(SOURCE)
        assert main(["check", str(path), "--explain"]) == 1
        out = capsys.readouterr().out
        assert "how the undefined value reaches" in out
        assert "originates" in out


#: ⊥ at call-string depth 0 only: ``u`` and ``1`` merge inside ``id``.
MERGED_AT_DEPTH_0 = """
def id(x) { return x; }
def main() {
  var u;
  var a = id(u);
  var b = id(1);
  if (b) { return 1; }
  return 0;
}
"""


class TestExplainDepth:
    """Every uid a verdict calls undefined has an explanation."""

    OPTIONS = [
        AnalysisOptions(config="usher_tl_at", context_depth=depth)
        for depth in (0, 1, 2)
    ] + [AnalysisOptions(config="usher_tl_at", resolver="summary")]

    @pytest.mark.parametrize(
        "source", [MERGED_AT_DEPTH_0, SOURCE], ids=["merged", "classify"]
    )
    @pytest.mark.parametrize(
        "options", OPTIONS, ids=["k0", "k1", "k2", "summary"]
    )
    def test_session_explains_its_bottom_verdicts(self, source, options):
        session = AnalysisSession.from_source(source, options=options)
        undefined = [
            uid for uid, ok in session.query_sites().items() if not ok
        ]
        for uid in undefined:
            assert session.explain(uid) is not None, uid
        analysis = analyze(source=source, options=options)
        for uid in undefined:
            assert analysis.explain(uid) is not None, uid

    def test_depth_0_has_a_bottom_verdict(self):
        session = AnalysisSession.from_source(
            MERGED_AT_DEPTH_0, options=self.OPTIONS[0]
        )
        assert not all(session.query_sites().values())
