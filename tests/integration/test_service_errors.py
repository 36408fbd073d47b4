"""The service error contract, route by route.

Every error path of the live daemon, pinned down: each digest-taking
route (``/update``, ``/query_sites``, ``/explain``, ``/stats``)
answers the same one-line 404 on an unknown digest; a *known* digest
with bad arguments (unknown function, missing field) is a 400;
unknown routes, ``GET /metrics`` among them, are 404 on both GET and
POST.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import ServiceClient
from repro.service.server import ServiceError

REPO = Path(__file__).resolve().parents[2]

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
def server():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline().strip()
        match = re.search(r"http://([\d.]+):(\d+)$", banner)
        assert match, f"no listening banner, got {banner!r}"
        yield ServiceClient(f"http://{match.group(1)}:{match.group(2)}")
    finally:
        proc.terminate()
        proc.wait(timeout=10)


@pytest.fixture(scope="module")
def opened(server):
    return server.open(source=SOURCE, name="classify")


def _expect(status, call, *args, **kwargs):
    with pytest.raises(ServiceError) as err:
        call(*args, **kwargs)
    assert err.value.status == status
    message = err.value.message
    assert "\n" not in message, f"error not one line: {message!r}"
    return message


class TestUnknownDigestIs404Everywhere:
    """The uniform contract: same status, same one-line shape."""

    def test_update(self, server):
        message = _expect(
            404, server.update, "feedfacecafebeef", "main", "main:\n  ret 0"
        )
        assert "feedfacecafebeef" in message

    def test_query_sites(self, server):
        message = _expect(404, server.query_sites, "feedfacecafebeef")
        assert "feedfacecafebeef" in message

    def test_explain(self, server):
        message = _expect(404, server.explain, "feedfacecafebeef", 1)
        assert "feedfacecafebeef" in message

    def test_stats(self, server):
        message = _expect(404, server.stats, "feedfacecafebeef")
        assert "feedfacecafebeef" in message

    def test_all_four_share_one_message_shape(self, server):
        messages = {
            _expect(404, server.update, "00", "f", "x"),
            _expect(404, server.query_sites, "00"),
            _expect(404, server.explain, "00", 1),
            _expect(404, server.stats, "00"),
        }
        assert len(messages) == 1  # identical text on every route


class TestKnownDigestBadInputIs400:
    def test_unknown_function_on_known_digest(self, server, opened):
        message = _expect(
            400, server.update, opened["digest"], "no_such_fn", "x:\n  ret 0"
        )
        assert "no_such_fn" in message

    def test_failed_update_keeps_the_session_usable(self, server, opened):
        digest = opened["digest"]
        broken = "\n".join(
            line for line in _const_edit().splitlines()
            if not line.lstrip().startswith("ret ")
        )
        message = _expect(400, server.update, digest, "main", broken)
        assert "terminator" in message
        # The failed edit is not kept: another function updates cleanly.
        stats = server.update(digest, "classify", _const_edit("classify"))
        assert stats["function"] == "classify"

    def test_update_missing_body(self, server, opened):
        _expect(400, server.update, opened["digest"], "main", None)

    def test_explain_missing_uid(self, server, opened):
        _expect(400, server.explain, opened["digest"], None)

    def test_open_with_both_source_and_ir(self, server):
        _expect(400, server.open, source=SOURCE, ir="def main:\n  ret 0")

    def test_open_with_neither(self, server):
        _expect(400, server.open)

    def test_parse_error_is_one_line_400(self, server):
        message = _expect(400, server.open, source="def main( {")
        assert "\n" not in message

    def test_demand_option_is_400(self, server):
        message = _expect(
            400, server.open, source=SOURCE, options={"demand": True}
        )
        assert message == "unknown analysis option(s): demand"


class TestUnknownRouteIs404:
    def test_post(self, server):
        _expect(404, server._call, "/no_such_route", {})

    @pytest.mark.parametrize("route", ["/no_such_route", "/metrics"])
    def test_get(self, server, route):
        _expect(404, server._call, route)


def _const_edit(fname="main"):
    """A semantics-preserving edit of ``fname`` (dead constant copy).

    The service has no function_text route, so reconstruct the
    function's printed IR through an in-process session over the same
    source.
    """
    from repro.service import AnalysisSession

    session = AnalysisSession.from_source(SOURCE, name="classify")
    lines = session.function_text(fname).splitlines()
    for index, line in enumerate(lines):
        if line.rstrip().endswith(":"):
            lines.insert(index + 1, "    %__m0 := 0")
            break
    return "\n".join(lines)
