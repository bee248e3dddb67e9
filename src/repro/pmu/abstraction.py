"""The Abstraction Layer (§IV-A): generic event names → vendor formulas.

PMUs differ per vendor and per microarchitecture; the Abstraction Layer
"maps generic event names to concealed HW-specific PMU event names" via
plain-text configuration files following the paper's grammar::

    [pmu_name | alias]
    <generic_event>:<hardware_event_1> [op]
    [op] : ((+|-|*|/) (<hw_event> | <const>)) [op]

``pmu_utils.get(HW_PMU_NAME, COMMON_EVENT_NAME)`` returns the token-list
form of the formula — the paper's own example::

    >pmu_utils.get("skl", "TOTAL_MEMORY_OPERATIONS")
    >[ "MEM_INST_RETIRED:ALL_LOADS", "+", "MEM_INST_RETIRED:ALL_STORES" ]

Built-in configurations cover the four experiment platforms.  Events a PMU
cannot express are declared ``NOT_SUPPORTED`` (Table I's Intel "L3 Hit").
"""

from __future__ import annotations

from collections.abc import Callable

from .events import catalog_for
from .formulas import Formula, FormulaError

__all__ = [
    "AbstractionLayer",
    "UnsupportedEventError",
    "pmu_utils",
    "DEFAULT_CONFIGS",
    "TABLE1_EVENTS",
    "COMMON_EVENTS",
]

#: What the end-to-end benchmark times here, as data: {breakdown group:
#: {class, or None for module functions: (names…)}}.
__traced__ = {
    "pmu": {
        "AbstractionLayer": ("formula", "get", "hw_events_needed", "evaluate"),
    },
}

_NOT_SUPPORTED = "NOT_SUPPORTED"


class UnsupportedEventError(KeyError):
    """A generic event has no mapping (or an explicit NOT_SUPPORTED) on a PMU."""


#: Common events every commodity CPU is assumed to support (§IV-A), plus the
#: generic events live-CARM and the Fig 7 monitoring panels rely on.
COMMON_EVENTS = (
    "CYCLES",
    "INSTRUCTIONS",
    "TOTAL_MEMORY_OPERATIONS",
    "TOTAL_MEMORY_INSTRUCTIONS",
    "L1_CACHE_DATA_MISS",
    "RAPL_ENERGY_PKG",
    "FLOPS_DP",
    "SCALAR_DOUBLE_INSTRUCTIONS",
    "AVX512_DOUBLE_INSTRUCTIONS",
    "DATA_VOLUME_BYTES",
)


_INTEL_BODY = """
CYCLES: UNHALTED_CORE_CYCLES
INSTRUCTIONS: INSTRUCTION_RETIRED
TOTAL_MEMORY_OPERATIONS: MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES
TOTAL_MEMORY_INSTRUCTIONS: MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES
LOADS: MEM_INST_RETIRED:ALL_LOADS
STORES: MEM_INST_RETIRED:ALL_STORES
L1_CACHE_DATA_MISS: L1D:REPLACEMENT
L2_CACHE_MISS: L2_RQSTS:MISS
L3_MISS: LONGEST_LAT_CACHE:MISS
L3_ACCESS: LONGEST_LAT_CACHE:REFERENCE
L3_HIT: NOT_SUPPORTED
RAPL_ENERGY_PKG: RAPL_ENERGY_PKG
RAPL_ENERGY_DRAM: RAPL_ENERGY_DRAM
RAPL_POWER_PACKAGE: RAPL_ENERGY_PKG
SCALAR_DOUBLE_INSTRUCTIONS: FP_ARITH:SCALAR_DOUBLE
SSE_DOUBLE_INSTRUCTIONS: FP_ARITH:128B_PACKED_DOUBLE
AVX2_DOUBLE_INSTRUCTIONS: FP_ARITH:256B_PACKED_DOUBLE
AVX512_DOUBLE_INSTRUCTIONS: FP_ARITH:512B_PACKED_DOUBLE
FLOPS_DP: FP_ARITH:SCALAR_DOUBLE + FP_ARITH:128B_PACKED_DOUBLE * 2 + FP_ARITH:256B_PACKED_DOUBLE * 4 + FP_ARITH:512B_PACKED_DOUBLE * 8
FLOPS_SP: FP_ARITH:SCALAR_SINGLE + FP_ARITH:128B_PACKED_SINGLE * 4 + FP_ARITH:256B_PACKED_SINGLE * 8 + FP_ARITH:512B_PACKED_SINGLE * 16
DATA_VOLUME_BYTES: MEM_INST_RETIRED:ALL_LOADS * 8 + MEM_INST_RETIRED:ALL_STORES * 8
FP_DIV_RETIRED: FP_ARITH:SCALAR_DOUBLE
"""

_ZEN3_BODY = """
CYCLES: CYCLES_NOT_IN_HALT
INSTRUCTIONS: RETIRED_INSTRUCTIONS
TOTAL_MEMORY_OPERATIONS: LS_DISPATCH:STORE_DISPATCH + LS_DISPATCH:LD_DISPATCH
TOTAL_MEMORY_INSTRUCTIONS: LS_DISPATCH:STORE_DISPATCH + LS_DISPATCH:LD_DISPATCH
LOADS: LS_DISPATCH:LD_DISPATCH
STORES: LS_DISPATCH:STORE_DISPATCH
L1_CACHE_DATA_MISS: L1_DATA_CACHE_REFILLS:ALL
L2_CACHE_MISS: L2_CACHE_MISS_FROM_DC_MISS
L3_MISS: LONGEST_LAT_CACHE:MISS
L3_ACCESS: LONGEST_LAT_CACHE:MISS + LONGEST_LAT_CACHE:RETIRED
L3_HIT: LONGEST_LAT_CACHE:MISS + LONGEST_LAT_CACHE:RETIRED
RAPL_ENERGY_PKG: RAPL_ENERGY_PKG
RAPL_ENERGY_DRAM: RAPL_ENERGY_DRAM
RAPL_POWER_PACKAGE: RAPL_ENERGY_PKG
SCALAR_DOUBLE_INSTRUCTIONS: NOT_SUPPORTED
AVX512_DOUBLE_INSTRUCTIONS: NOT_SUPPORTED
FLOPS_DP: RETIRED_SSE_AVX_FLOPS:ANY
FLOPS_SP: RETIRED_SSE_AVX_FLOPS:ANY
DATA_VOLUME_BYTES: MEM_UOPS:LOADS * 8 + MEM_UOPS:STORES * 8
FP_DIV_RETIRED: RETIRED_SSE_AVX_FLOPS:MULT_FLOPS
"""

#: Built-in configuration files, in the paper's text format, one per
#: experiment platform.  Header aliases let callers use Table II hostnames.
DEFAULT_CONFIGS = (
    "[skl | skylakex skx]" + _INTEL_BODY,
    "[clx | cascadelake csl]" + _INTEL_BODY,
    "[icx | icelake icl]" + _INTEL_BODY,
    "[zen3 | amd_zen3 milan]" + _ZEN3_BODY,
)

#: Table I of the paper: how the same generic event maps per vendor, with
#: the paper's same/similar/different/exclusive classification.
TABLE1_EVENTS = {
    "Energy": {
        "intel": "RAPL_ENERGY_PKG",
        "amd": "RAPL_ENERGY_PKG + RAPL_ENERGY_DRAM",
        "relation": "same",
    },
    "Instructions": {
        "intel": "INSTRUCTION_RETIRED",
        "amd": "RETIRED_INSTRUCTIONS",
        "relation": "similar",
    },
    "Tot. Mem. Op.": {
        "intel": "MEM_INST_RETIRED:ALL_LOADS + MEM_INST_RETIRED:ALL_STORES",
        "amd": "LS_DISPATCH:STORE_DISPATCH + LS_DISPATCH:LD_DISPATCH",
        "relation": "different",
    },
    "L3 Hit": {
        "intel": None,  # Not Supported
        "amd": "LONGEST_LAT_CACHE:MISS + LONGEST_LAT_CACHE:RETIRED",
        "relation": "exclusive",
    },
}


class AbstractionLayer:
    """Registry of PMU configuration files and the ``get`` lookup."""

    def __init__(self) -> None:
        # canonical name -> {generic: Formula | None}
        self._maps: dict[str, dict[str, Formula | None]] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Config registration
    # ------------------------------------------------------------------
    def register_config(self, text: str) -> str:
        """Parse one configuration file; returns the canonical PMU name."""
        name: str | None = None
        mapping: dict[str, Formula | None] = {}
        aliases: list[str] = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                if name is not None:
                    raise FormulaError(f"line {lineno}: second [header] in config")
                if not line.endswith("]"):
                    raise FormulaError(f"line {lineno}: unterminated header")
                head = line[1:-1]
                parts = [p.strip() for p in head.split("|")]
                name = parts[0]
                if not name:
                    raise FormulaError(f"line {lineno}: empty pmu name")
                if len(parts) > 1:
                    aliases = parts[1].split()
                continue
            if name is None:
                raise FormulaError(f"line {lineno}: mapping before [header]")
            if ":" not in line:
                raise FormulaError(f"line {lineno}: expected GENERIC: formula")
            generic, _, body = line.partition(":")
            generic = generic.strip()
            body = body.strip()
            if not generic or not body:
                raise FormulaError(f"line {lineno}: empty mapping")
            if body == _NOT_SUPPORTED:
                mapping[generic] = None
            else:
                mapping[generic] = Formula.parse(body)
        if name is None:
            raise FormulaError("config has no [header]")
        self._maps[name] = mapping
        self._aliases[name] = name
        for a in aliases:
            self._aliases[a] = name
        return name

    def _resolve_pmu(self, pmu_name: str) -> str:
        try:
            return self._aliases[pmu_name]
        except KeyError:
            raise KeyError(
                f"no PMU config registered for {pmu_name!r}; "
                f"known: {sorted(self._aliases)}"
            ) from None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def pmus(self) -> list[str]:
        return sorted(self._maps)

    def generic_events(self, pmu_name: str) -> list[str]:
        return sorted(self._maps[self._resolve_pmu(pmu_name)])

    def supported(self, pmu_name: str, generic_event: str) -> bool:
        mapping = self._maps[self._resolve_pmu(pmu_name)]
        return mapping.get(generic_event) is not None

    def formula(self, pmu_name: str, generic_event: str) -> Formula:
        mapping = self._maps[self._resolve_pmu(pmu_name)]
        if generic_event not in mapping:
            raise UnsupportedEventError(
                f"{generic_event!r} is not mapped for PMU {pmu_name!r}"
            )
        f = mapping[generic_event]
        if f is None:
            raise UnsupportedEventError(
                f"{generic_event!r} is declared NOT_SUPPORTED on {pmu_name!r}"
            )
        return f

    def get(self, pmu_name: str, generic_event: str) -> list[str]:
        """The paper's ``pmu_utils.get``: formula as a token list."""
        return list(self.formula(pmu_name, generic_event).tokens)

    def hw_events_needed(self, pmu_name: str, generic_events: list[str]) -> list[str]:
        """Deduplicated hardware events required to evaluate a set of
        generic events — what Scenario B programs into the PMU."""
        seen: list[str] = []
        for g in generic_events:
            for e in self.formula(pmu_name, g).events:
                if e not in seen:
                    seen.append(e)
        return seen

    def evaluate(
        self, pmu_name: str, generic_event: str, resolve: Callable[[str], float]
    ) -> float:
        """Evaluate a generic event given a resolver of hardware readings."""
        return self.formula(pmu_name, generic_event).evaluate(resolve)

    def validate_against_catalog(self, pmu_name: str, uarch: str) -> list[str]:
        """Check every mapped hardware event exists in ``uarch``'s catalog;
        returns the list of unknown event names (empty = fully valid)."""
        cat = catalog_for(uarch)
        missing: list[str] = []
        mapping = self._maps[self._resolve_pmu(pmu_name)]
        for f in mapping.values():
            if f is None:
                continue
            for e in f.events:
                if e not in cat and e not in missing:
                    missing.append(e)
        return missing


def _default_layer() -> AbstractionLayer:
    layer = AbstractionLayer()
    for cfg in DEFAULT_CONFIGS:
        layer.register_config(cfg)
    return layer


#: The module-level instance the paper's API examples use
#: (``pmu_utils.get("skl", "TOTAL_MEMORY_OPERATIONS")``).
pmu_utils = _default_layer()
