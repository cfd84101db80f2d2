"""Service mode: an async MVCC daemon over one :class:`XMLSource`.

``repro.serve`` turns the batch engine into a long-running JSON/HTTP
service (``dtdevolve serve``): ``/classify`` requests run on one reader
thread against an immutable, versioned in-process snapshot of the DTD
set while deposits, forced evolutions and drains funnel through a
single writer that applies them serially — exactly the order a batch
run would — and atomically publishes the next snapshot version.  See
:mod:`repro.serve.service` for the concurrency model,
:mod:`repro.serve.holder` for the MVCC epoch holder, and DESIGN.md
decision 13 for why single-writer + snapshot swap preserves the batch
path's bit-identity.
"""

from repro.serve.holder import ServeSnapshot, SnapshotHolder
from repro.serve.runner import ServiceRunner, serve_forever
from repro.serve.service import ReproService, ServeConfig

__all__ = [
    "ReproService",
    "ServeConfig",
    "ServeSnapshot",
    "ServiceRunner",
    "SnapshotHolder",
    "serve_forever",
]
