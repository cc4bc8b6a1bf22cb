"""The historical name of the JSON result store.

``DiskCache`` is :class:`~repro.store.jsondir.JsonDirStore`: same
``<root>/v<schema>-<version>/<key>.json`` layout, same class.  New
code should build stores with :func:`repro.store.make_store`.
"""

from repro.store.base import SCHEMA_VERSION, default_cache_dir
from repro.store.jsondir import JsonDirStore

__all__ = ["DiskCache", "SCHEMA_VERSION", "default_cache_dir"]

DiskCache = JsonDirStore
