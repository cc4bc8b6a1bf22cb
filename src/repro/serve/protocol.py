"""The serve API's version and path prefix, shared by server and client.

:mod:`repro.serve.http` answers under :data:`API_PREFIX` and
:mod:`repro.serve.client` calls it there.  The constants live here so
the client reads them without importing the HTTP server, the service
and everything those load.
"""

__all__ = ["API_VERSION", "API_PREFIX"]

#: Current (only) API version; the canonical path prefix is ``/v1``.
API_VERSION = "v1"

#: Path prefix every canonical endpoint lives under.
API_PREFIX = f"/{API_VERSION}"
