"""Live ``repro serve`` lane: a real daemon process, a real client.

Boots ``python -m repro serve --port 0`` as a subprocess, parses the
printed port, and drives it with :class:`ServiceClient`: verdict
parity against an in-process session, digest caching, incremental
updates, explain traces, and the error contract (404 for unknown
digests, 400 with a one-line message for malformed requests — never a
hung connection or an HTML traceback).
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.options import AnalysisOptions
from repro.service import AnalysisSession
from repro.service.server import ServiceClient, ServiceError

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


def start_server(**env_overrides):
    """Boot ``repro serve --port 0``: ``(process, client)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.update(env_overrides)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline().strip()
    match = re.search(r"http://([\d.]+):(\d+)$", banner)
    if not match:
        proc.kill()
        proc.wait(timeout=10)
        raise AssertionError(f"no listening banner, got {banner!r}")
    return proc, ServiceClient(f"http://{match.group(1)}:{match.group(2)}")


@pytest.fixture(scope="module")
def server():
    proc, client = start_server()
    try:
        yield client
    finally:
        proc.terminate()
        proc.wait(timeout=10)


@pytest.fixture(scope="module")
def opened(server):
    return server.open(source=SOURCE, name="classify")


def _const_edit(text):
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line.rstrip().endswith(":"):
            lines.insert(index + 1, "    %__e0 := 0")
            break
    return "\n".join(lines)


class TestServeParity:
    def test_ping(self, server):
        assert server.ping()["ok"] is True

    def test_open_reports_shape(self, opened):
        assert opened["cached"] is False
        assert opened["generation"] == 0
        assert opened["functions"] == ["classify", "main"]
        assert opened["check_sites"] > 0

    def test_reopen_hits_the_digest_cache(self, server, opened):
        again = server.open(source=SOURCE, name="classify")
        assert again["digest"] == opened["digest"]
        assert again["cached"] is True

    def test_query_parity_with_in_process_session(self, server, opened):
        local = AnalysisSession.from_source(SOURCE, name="classify")
        assert server.query_sites(opened["digest"]) == local.query_sites()

    def test_update_then_parity(self, server, opened):
        local = AnalysisSession.from_source(SOURCE, name="classify")
        body = _const_edit(local.function_text("classify"))
        stats = server.update(opened["digest"], "classify", body)
        assert stats["function"] == "classify"
        assert stats["generation"] >= 1
        local.update("classify", body)
        assert server.query_sites(opened["digest"]) == local.query_sites()

    def test_explain_and_stats(self, server, opened):
        verdicts = server.query_sites(opened["digest"])
        undefined = [uid for uid, ok in verdicts.items() if not ok]
        assert undefined, "the classify program must warn"
        steps = server.explain(opened["digest"], undefined[0])
        assert steps, "an undefined site must have a flow trace"
        assert all(isinstance(step, str) for step in steps)
        stats = server.stats(opened["digest"])
        assert stats["generation"] >= 1

    def test_distinct_options_get_distinct_sessions(self, server, opened):
        other = server.open(
            source=SOURCE,
            name="classify",
            options=AnalysisOptions(context_depth=1).as_dict(),
        )
        assert other["digest"] != opened["digest"]
        assert server.query_sites(other["digest"]) == server.query_sites(
            opened["digest"]
        )


class TestServeErrors:
    def test_unknown_digest_is_404(self, server):
        with pytest.raises(ServiceError) as exc:
            server.query_sites("feedfacedeadbeef")
        assert exc.value.status == 404

    def test_source_and_ir_together_is_400(self, server):
        with pytest.raises(ServiceError) as exc:
            server.open(source=SOURCE, ir="def main() {\n}")
        assert exc.value.status == 400

    def test_unknown_option_is_400(self, server):
        with pytest.raises(ServiceError) as exc:
            server.open(source=SOURCE, options={"turbo": True})
        assert exc.value.status == 400
        assert "turbo" in exc.value.message
        # The removed solver knobs are unknown options too.
        for knob, value in (("jobs", 2), ("tier", "full"),
                            ("storage", "int"), ("schedule", "wave")):
            with pytest.raises(ServiceError) as exc:
                server.open(source=SOURCE, options={knob: value})
            assert exc.value.status == 400
            assert exc.value.message == f"unknown analysis option(s): {knob}"

    def test_parse_error_is_400_one_line(self, server):
        with pytest.raises(ServiceError) as exc:
            server.open(source="def main( {")
        assert exc.value.status == 400
        assert "\n" not in exc.value.message

    def test_unknown_route_is_404(self, server):
        with pytest.raises(ServiceError) as exc:
            server._call("/teapot", {})
        assert exc.value.status == 404


def child_pids(pid):
    """Live processes whose parent is ``pid``, read from ``/proc``."""
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[1]) == pid and fields[0] != "Z":
            children.add(int(entry))
    return children


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_sigterm_shuts_down_pool_workers():
    """SIGTERM takes the Ctrl-C path: exit 0, and no process the server
    started outlives it."""
    proc, client = start_server()
    workers = set()
    try:
        opened = client.open(source=SOURCE, name="classify")
        client.query_sites(opened["digest"])
        workers = child_pids(proc.pid)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert not {pid for pid in workers if os.path.exists(f"/proc/{pid}")}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for pid in workers:  # reap what a failed shutdown left behind
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
