"""The permanent oracle-bred corpus: minimized ``.ir`` seeds as
first-class workloads.

The random generator draws program shapes from one distribution — and
the soundness bugs that actually shipped (seed 185) hid in shapes it
underweights.  Whenever a fuzz campaign minimizes a divergence, the
resulting ``.ir`` reproducer is the *distilled* shape that mattered;
``repro promote`` (:func:`promote`) lifts such reproducers into
``tests/data/corpus/`` where they load as permanent regression seeds.

Each seed is pinned: ``manifest.json`` records, per base configuration,
the exact warned-uid set the committed pipeline produces, plus the
native ground truth.  The loader test
(``tests/integration/test_corpus_seeds.py``) re-derives all of it on
every run, so a behavior change on any bred shape is caught the moment
it lands.

Manifest shape (``repro.corpus/1``)::

    {"schema": "repro.corpus/1",
     "seeds": [{"name": ..., "file": ..., "origin": ...,
                "true_bugs": [...], "pinned": {"tl": [...], ...}}]}
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The four base configurations every corpus seed is pinned under
#: (differ spec names; see :func:`repro.oracle.differ.build_config`).
BASE_CONFIG_SPECS = ("tl", "tl_at", "opt_i", "full")

#: Manifest schema marker.
CORPUS_SCHEMA = "repro.corpus/1"

#: Manifest file name inside the corpus directory.
MANIFEST = "manifest.json"


class CorpusError(Exception):
    """A missing, malformed or internally inconsistent corpus."""


@dataclass(frozen=True)
class CorpusSeed:
    """One committed reproducer, loaded as a workload.

    ``pinned`` maps each base config spec to the exact warned-uid
    tuple the committed pipeline must reproduce; ``true_bugs`` is the
    native interpreter's ground truth.
    """

    name: str
    path: str
    origin: str
    true_bugs: Tuple[int, ...]
    pinned: Tuple[Tuple[str, Tuple[int, ...]], ...]

    @property
    def description(self) -> str:
        return self.origin

    def text(self) -> str:
        return Path(self.path).read_text()

    def pinned_warnings(self, spec: str) -> Tuple[int, ...]:
        return dict(self.pinned)[spec]


def default_corpus_dir() -> Optional[Path]:
    """Resolve the corpus directory: the repo-checkout location
    relative to this package, then the current working directory.
    ``None`` when neither exists (``repro promote --corpus-dir`` names
    another one)."""
    checkout = Path(__file__).resolve().parents[3] / "tests" / "data" / "corpus"
    if checkout.is_dir():
        return checkout
    local = Path.cwd() / "tests" / "data" / "corpus"
    if local.is_dir():
        return local
    return None


def load_corpus(directory: "Optional[os.PathLike]" = None) -> List[CorpusSeed]:
    """Load every committed seed from the manifest, sorted by name.

    An absent directory (or manifest) is an empty corpus, not an
    error — fresh checkouts before the first promotion, and test
    sandboxes, simply have no bred seeds yet.  A *malformed* manifest
    or a manifest entry whose file is missing raises
    :class:`CorpusError`.
    """
    base = Path(directory) if directory is not None else default_corpus_dir()
    if base is None or not (base / MANIFEST).exists():
        return []
    try:
        data = json.loads((base / MANIFEST).read_text())
    except json.JSONDecodeError as error:
        raise CorpusError(f"{base / MANIFEST}: bad JSON ({error})")
    if data.get("schema") != CORPUS_SCHEMA:
        raise CorpusError(
            f"{base / MANIFEST}: unknown schema {data.get('schema')!r} "
            f"(expected {CORPUS_SCHEMA})"
        )
    seeds: List[CorpusSeed] = []
    for entry in data.get("seeds", []):
        try:
            name = entry["name"]
            path = base / entry["file"]
            pinned = tuple(
                (spec, tuple(int(u) for u in uids))
                for spec, uids in sorted(entry["pinned"].items())
            )
            seed = CorpusSeed(
                name=name,
                path=str(path),
                origin=entry.get("origin", ""),
                true_bugs=tuple(int(u) for u in entry["true_bugs"]),
                pinned=pinned,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CorpusError(f"{base / MANIFEST}: malformed entry ({error})")
        if not path.exists():
            raise CorpusError(f"{path}: listed in manifest but missing")
        missing = [s for s in BASE_CONFIG_SPECS if s not in dict(seed.pinned)]
        if missing:
            raise CorpusError(
                f"{name}: manifest lacks pinned warnings for {missing}"
            )
        seeds.append(seed)
    seeds.sort(key=lambda s: s.name)
    names = [s.name for s in seeds]
    if len(set(names)) != len(names):
        raise CorpusError(f"duplicate seed names in manifest: {names}")
    return seeds


def pin_text(text: str, name: str) -> Dict[str, object]:
    """Derive a seed's manifest payload from its IR text.

    Runs the committed pipeline: the module must parse, verify, pass
    the soundness oracle's contract diff under every base config
    (status ``ok``), and execute natively.  Returns ``{"true_bugs":
    [...], "pinned": {spec: [...]}}``.  Raises :class:`CorpusError`
    when the text diverges or cannot be executed — a reproducer that
    still bites must be *fixed*, not enshrined.
    """
    from repro.oracle.differ import build_config_matrix
    from repro.oracle.harness import _prepare_text, examine_text
    from repro.core import run_usher
    from repro.runtime import (
        RuntimeFault,
        StepLimitExceeded,
        run_instrumented,
        run_native,
    )

    matrix = build_config_matrix(list(BASE_CONFIG_SPECS))
    status, divergences = examine_text(text, name, matrix)
    if status == "divergent":
        details = "; ".join(d.describe() for d in divergences)
        raise CorpusError(
            f"{name}: still diverges under the committed pipeline "
            f"({details}) — fix the pipeline before promoting"
        )
    if status == "skipped":
        raise CorpusError(
            f"{name}: native run faulted or exceeded the step limit "
            "(no stable ground truth to pin)"
        )
    prepared = _prepare_text(text, name)
    try:
        native = run_native(prepared.module)
    except (StepLimitExceeded, RuntimeFault) as error:
        raise CorpusError(f"{name}: native run failed ({error})")
    pinned: Dict[str, List[int]] = {}
    for spec, config in matrix:
        plan = run_usher(prepared, config).plan
        report = run_instrumented(prepared.module, plan)
        pinned[spec] = sorted(report.warning_set())
    return {
        "true_bugs": sorted(native.true_bug_set()),
        "pinned": pinned,
    }


def write_manifest(
    directory: "os.PathLike", entries: List[Dict[str, object]]
) -> Path:
    """Write (replace) the manifest for ``entries``, sorted by name."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": CORPUS_SCHEMA,
        "seeds": sorted(entries, key=lambda e: e["name"]),
    }
    path = base / MANIFEST
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def promote(
    paths: List[str],
    corpus_dir: "Optional[os.PathLike]" = None,
    dry_run: bool = False,
) -> List[str]:
    """Validate reproducers and add them to the corpus (``repro promote``).

    A minimized reproducer is worth keeping once the divergence it
    reproduced is fixed: each file is re-derived from scratch through
    :func:`pin_text`, named by its file stem, copied into the corpus
    directory and added to the manifest with its freshly pinned sets.
    ``dry_run=True`` validates without touching the corpus.  Progress
    goes to stdout.

    Returns the promoted seed names.  Raises :class:`CorpusError` on a
    reproducer that fails validation (still divergent, unparsable,
    natively faulting) or whose name a committed seed already has.
    Promotion is all-or-nothing: a batch with one bad file changes
    nothing.
    """
    base = Path(corpus_dir) if corpus_dir is not None else default_corpus_dir()
    if base is None:
        raise CorpusError(
            "no corpus directory (pass --corpus-dir or run from a checkout)"
        )
    entries = [
        {
            "name": seed.name,
            "file": Path(seed.path).name,
            "origin": seed.origin,
            "true_bugs": list(seed.true_bugs),
            "pinned": {spec: list(uids) for spec, uids in seed.pinned},
        }
        for seed in load_corpus(base)
    ]
    taken = {entry["name"] for entry in entries}
    staged: List[Dict[str, object]] = []
    promoted: List[str] = []
    for path in paths:
        source = Path(path)
        name = source.stem
        if name in taken:
            raise CorpusError(
                f"{name}: a corpus seed of that name already exists "
                f"(rename the reproducer to promote it)"
            )
        print(f"validating {name} ({source})...")
        payload = pin_text(source.read_text(), name)
        print(
            f"  ok: true bugs {payload['true_bugs']}, pinned "
            + ", ".join(
                f"{spec}={uids}" for spec, uids in payload["pinned"].items()
            )
        )
        staged.append({
            "name": name,
            "file": source.name,
            "origin": f"promoted by `repro promote` from {source}",
            **payload,
        })
        taken.add(name)
        promoted.append(name)
    if dry_run:
        print(f"validated {len(promoted)} reproducer(s); {base} unchanged (dry run)")
        return promoted
    for path in paths:
        shutil.copyfile(path, base / Path(path).name)
    write_manifest(base, entries + staged)
    print(f"promoted {len(promoted)} reproducer(s) into {base}")
    return promoted


__all__ = [
    "BASE_CONFIG_SPECS",
    "CORPUS_SCHEMA",
    "MANIFEST",
    "CorpusError",
    "CorpusSeed",
    "default_corpus_dir",
    "load_corpus",
    "pin_text",
    "promote",
    "write_manifest",
]
