"""DRAM substrate: HMC vault timing model with Table I parameters."""

from repro._lazy import lazy_exports

__all__ = ["DramTiming", "DEFAULT_TIMING", "Vault", "VaultAccess", "VaultSet"]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "DramTiming": "repro.dram.timing",
    "DEFAULT_TIMING": "repro.dram.timing",
    "Vault": "repro.dram.vault",
    "VaultAccess": "repro.dram.vault",
    "VaultSet": "repro.dram.vault",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
