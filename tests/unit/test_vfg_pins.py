"""VFG equivalence pins: the shape and order of every built graph.

Every row of ``tests/data/vfg_pins.json`` records, for one module and
one graph flavour (``tl``: top-level only, ``tl_at``: with address-taken
memory, ``array_init``: ``tl_at`` plus the initialization-loop cuts),
the node and edge counts and three digests:

- ``deps``: each node's ``deps_of`` list, in order;
- ``def_site``: each node's defining uid and kind;
- ``check_sites``: the check sites, in order.

Node ids depend on the order of a set iteration in the builder, which
follows ``PYTHONHASHSEED``, so the digests are keyed by the nodes'
printed names, sorted, never by id.  The inliner tags the names it
creates from a process-wide counter (``x.inl7``), so the tags are
renumbered by first appearance in the module's text.  The modules are
the ones ``test_opt2_pins.py`` pins.  Any change to VFG construction or storage
must reproduce every row exactly.

Regenerate (only for a change that is meant to alter the graphs)::

    PYTHONPATH=src python -m tests.unit.test_vfg_pins --write
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from repro.api import analyze
from repro.ir.printer import module_to_str
from repro.vfg import build_vfg
from tests.unit.test_opt2_pins import module_sources

PINS = Path(__file__).resolve().parents[1] / "data" / "vfg_pins.json"

#: flavour -> build_vfg keyword arguments.
FLAVOURS = {
    "tl": {"address_taken": False},
    "tl_at": {"address_taken": True},
    "array_init": {"address_taken": True, "array_init": True},
}


_INLINE_TAG = re.compile(r"\binl\d+\b")


def inline_renumbering(module):
    """A function that rewrites the inliner's tags in a text as
    ``inline<n>``, numbered by first appearance in ``module``'s text."""
    tags: dict = {}
    for tag in _INLINE_TAG.findall(module_to_str(module)):
        tags.setdefault(tag, f"inline{len(tags)}")
    return lambda text: _INLINE_TAG.sub(lambda m: tags.get(m[0], m[0]), text)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def graph_row(vfg, canon) -> dict:
    """The pinned observables of one graph; ``canon`` maps each printed
    line to its process-independent form."""
    return {
        "nodes": vfg.num_nodes,
        "edges": vfg.num_edges,
        "deps": digest(sorted(
            canon(f"{node} <- " + " | ".join(str(e) for e in vfg.deps_of(node)))
            for node in vfg.nodes()
        )),
        "def_site": digest(sorted(
            canon(f"{node} = {uid}:{kind}")
            for node, (uid, kind) in vfg.def_site.items()
        )),
        "check_sites": digest(
            canon(f"{site.instr_uid} {site.func} {site.node} {site.operand}")
            for site in vfg.check_sites
        ),
    }


def vfg_rows(name: str, source: str) -> dict:
    prepared = analyze(source=source, name=name, configs=["msan"]).prepared
    canon = inline_renumbering(prepared.module)
    return {
        flavour: graph_row(build_vfg(
            prepared.module,
            prepared.pointers,
            prepared.callgraph,
            prepared.modref,
            **kwargs,
        ), canon)
        for flavour, kwargs in FLAVOURS.items()
    }


def _pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize(
    "name,source", [pytest.param(*pair, id=pair[0]) for pair in module_sources()]
)
def test_vfg_matches_pins(name, source):
    assert vfg_rows(name, source) == _pins()[name]


def test_pins_cover_every_module():
    assert sorted(_pins()) == sorted(name for name, _ in module_sources())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.unit.test_vfg_pins --write")
    pins = {name: vfg_rows(name, source) for name, source in module_sources()}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} modules to {PINS}")
