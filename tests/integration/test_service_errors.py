"""The service error contract and ``/metrics``, route by route.

Every error path of the live daemon, pinned down: each digest-taking
route (``/update``, ``/query_sites``, ``/explain``, ``/stats``)
answers the same one-line 404 on an unknown digest; a *known* digest
with bad arguments (unknown function, missing field) is a 400;
unknown routes are 404 on both GET and POST.  ``GET /metrics`` must
return parseable Prometheus text whose request counters reflect the
traffic this suite just generated.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.metrics import parse_prometheus_text
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


class TestUnknownRouteIs404:
    def test_post(self, server):
        _expect(404, server._call, "/no_such_route", {})

    def test_get(self, server):
        _expect(404, server._call, "/no_such_route")


class TestMetricsEndpoint:
    def test_parseable_prometheus_text(self, server, opened):
        server.ping()
        parsed = parse_prometheus_text(server.metrics())
        assert parsed["repro_sessions"][()] >= 1
        ping_ok = parsed["repro_requests_total"][
            (("route", "/ping"), ("status", "200"))
        ]
        assert ping_ok >= 1

    def test_latency_histogram_present(self, server, opened):
        parsed = parse_prometheus_text(server.metrics())
        buckets = parsed["repro_request_seconds_bucket"]
        open_buckets = {
            labels: value
            for labels, value in buckets.items()
            if ("route", "/open") in labels
        }
        assert open_buckets, "no latency series for /open"
        assert any(("le", "+Inf") in labels for labels in open_buckets)
        assert parsed["repro_request_seconds_count"][
            (("route", "/open"),)
        ] >= 1

    def test_error_traffic_is_counted(self, server, opened):
        _expect(404, server.stats, "feedfacecafebeef")
        parsed = parse_prometheus_text(server.metrics())
        assert parsed["repro_requests_total"][
            (("route", "/stats"), ("status", "404"))
        ] >= 1

    def test_update_publishes_session_gauges(self, server, opened):
        digest = opened["digest"]
        server.update(digest, "main", _const_edit())
        parsed = parse_prometheus_text(server.metrics())
        assert (("digest", digest),) in parsed["repro_session_dirty_fraction"]
        carried = parsed["repro_session_memos_carried_total"]
        assert (("digest", digest),) in carried


def _const_edit():
    """A semantics-preserving edit of main (dead constant copy).

    The service has no function_text route, so reconstruct main's
    printed IR through an in-process session over the same source.
    """
    from repro.service import AnalysisSession

    session = AnalysisSession.from_source(SOURCE, name="classify")
    lines = session.function_text("main").splitlines()
    for index, line in enumerate(lines):
        if line.rstrip().endswith(":"):
            lines.insert(index + 1, "    %__m0 := 0")
            break
    return "\n".join(lines)
