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

Import ``serve`` and ``ServiceClient`` from :mod:`repro.service.server`:
this package does not load the HTTP stack, which no analysis needs.
"""

from repro.service.session import AnalysisSession, UpdateStats, plan_signature

__all__ = [
    "AnalysisSession",
    "UpdateStats",
    "plan_signature",
]
