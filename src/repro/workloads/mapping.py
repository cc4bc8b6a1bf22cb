"""Physical-address to module mapping (Section III-C).

The paper maps the *i*-th contiguous 4 GB of physical pages to HMC *i*
for the small-network study and the *i*-th contiguous 1 GB to HMC *i*
for the big-network study.  Section VII-A's static baseline instead
interleaves pages across all modules; both mappings are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.registry import Registry
from repro.units import GB

__all__ = [
    "AddressMapping",
    "contiguous_mapping",
    "page_interleaved_mapping",
    "modules_for_footprint",
    "make_mapping",
    "MAPPINGS",
    "MAPPING_NAMES",
    "SMALL_SLICE_BYTES",
    "BIG_SLICE_BYTES",
    "PAGE_BYTES",
]

#: Contiguous slice per HMC in the small-network study (4 GB HMCs).
SMALL_SLICE_BYTES: int = 4 * GB
#: Contiguous slice per HMC in the big-network study.
BIG_SLICE_BYTES: int = 1 * GB
#: OS page size used by the interleaved mapping.
PAGE_BYTES: int = 4096


@dataclass(frozen=True)
class AddressMapping:
    """Maps physical byte addresses to module ids.

    ``granularity_bytes`` is the contiguous run mapped to one module
    before moving to the next; with ``interleaved=False`` the address
    space is striped in ``num_modules`` huge slices instead.
    """

    num_modules: int
    granularity_bytes: int
    interleaved: bool = False

    def __post_init__(self) -> None:
        if self.num_modules < 1:
            raise ValueError("need at least one module")
        if self.granularity_bytes < 1:
            raise ValueError("granularity must be positive")

    def module_of(self, address: int) -> int:
        """Module id holding ``address``."""
        if address < 0:
            raise ValueError(f"negative address {address:#x}")
        index = address // self.granularity_bytes
        if self.interleaved:
            return index % self.num_modules
        if index >= self.num_modules:
            raise ValueError(
                f"address {address:#x} beyond the last module "
                f"({self.num_modules} x {self.granularity_bytes} bytes)"
            )
        return index

    @property
    def capacity_bytes(self) -> int:
        """Total mappable bytes (interleaved mappings are unbounded)."""
        return self.num_modules * self.granularity_bytes


def modules_for_footprint(footprint_gb: float, scale: str) -> int:
    """Network size for a workload footprint: ceil(footprint / slice).

    ``scale`` is ``"small"`` (4 GB per HMC) or ``"big"`` (1 GB per HMC).
    """
    slice_bytes = _slice_bytes(scale)
    return max(1, math.ceil(footprint_gb * GB / slice_bytes))


#: Registry of mapping factories (``(footprint_gb, scale) -> AddressMapping``).
MAPPINGS: Registry = Registry("mapping")


@MAPPINGS.register("contiguous")
def contiguous_mapping(footprint_gb: float, scale: str) -> AddressMapping:
    """The paper's default mapping: contiguous slices, one per HMC."""
    return AddressMapping(
        num_modules=modules_for_footprint(footprint_gb, scale),
        granularity_bytes=_slice_bytes(scale),
        interleaved=False,
    )


@MAPPINGS.register("interleaved", aliases=("page_interleaved",))
def page_interleaved_mapping(footprint_gb: float, scale: str) -> AddressMapping:
    """Section VII-A's mapping: 4 KB pages striped across all modules."""
    return AddressMapping(
        num_modules=modules_for_footprint(footprint_gb, scale),
        granularity_bytes=PAGE_BYTES,
        interleaved=True,
    )


#: Recognized mapping names (canonical spellings).
MAPPING_NAMES = MAPPINGS.names()


def make_mapping(name: str, footprint_gb: float, scale: str) -> AddressMapping:
    """Build the address mapping ``name`` (ValueError when unknown)."""
    return MAPPINGS.get(name)(footprint_gb, scale)


def _slice_bytes(scale: str) -> int:
    if scale == "small":
        return SMALL_SLICE_BYTES
    if scale == "big":
        return BIG_SLICE_BYTES
    raise ValueError(f"scale must be 'small' or 'big', got {scale!r}")
