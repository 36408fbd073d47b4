"""Resident analysis service: long-lived sessions, incremental
re-analysis and the ``repro serve`` front end.

The one-shot pipeline (:func:`repro.api.analyze`) re-runs every phase
from scratch on each call.  This package keeps the analysis *resident*:

* :class:`repro.service.session.AnalysisSession` — parsed module,
  points-to solver state, VFG and demand memos held across edits;
  :meth:`~repro.service.session.AnalysisSession.update` re-analyzes one
  function incrementally (cached constraint tapes, warm-started solver,
  closure-tracked memo carryover) with results bit-identical to a cold
  :func:`~repro.api.analyze`.
* :func:`repro.service.server.serve` — the localhost HTTP/JSON server
  behind ``repro serve`` (``open`` / ``update`` / ``query_sites`` /
  ``explain`` / ``stats``), with sessions cached per source digest.
"""

from repro.service.session import AnalysisSession, UpdateStats, plan_signature
from repro.service.server import ServiceClient, serve

__all__ = [
    "AnalysisSession",
    "ServiceClient",
    "UpdateStats",
    "plan_signature",
    "serve",
]
