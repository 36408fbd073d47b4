"""Resident analysis service: long-lived sessions and the
``repro serve`` front end.

The one-shot pipeline (:func:`repro.api.analyze`) returns its results
and forgets the module.  This package keeps the analysis *resident*:

* :class:`repro.service.session.AnalysisSession` — one module and its
  analysis held between queries;
  :meth:`~repro.service.session.AnalysisSession.update` replaces one
  function body and re-analyzes the module cold, keeping the uids of
  unchanged instructions, with results identical to a cold
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
