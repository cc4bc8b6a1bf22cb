"""Power substrate: HMC power model and energy accounting."""

from repro._lazy import lazy_exports

__all__ = ["HmcPowerModel", "DEFAULT_POWER_MODEL", "EnergyLedger", "PowerBreakdown"]

#: Each public name's defining module, imported on first use.
_EXPORTS = {
    "HmcPowerModel": "repro.power.hmc_power",
    "DEFAULT_POWER_MODEL": "repro.power.hmc_power",
    "EnergyLedger": "repro.power.accounting",
    "PowerBreakdown": "repro.power.accounting",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
