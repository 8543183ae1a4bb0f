"""Power subsystem: node voltage rails and electronic circuit breakers.

The paper's Fig. 5 shows node voltage faults (NVF) are rare but, when they
occur, correspond to failures 67--97 % of the time -- the strongest
external indicator it finds.  ECB (electronic circuit breaker) trips are
part of the blade-controller power-monitoring vocabulary (Table III).

:class:`PowerModel` owns per-node rail state and produces the controller
records; whether an NVF actually fails the node is decided by the fault
chain that injected the sag (so the correspondence ratio is a scenario
parameter, matching the paper's measurement rather than hard-coding it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import NodeName
from repro.logs.record import LogRecord, LogSource, Severity
from repro.simul.rng import RngStream

__all__ = ["RailSpec", "PowerModel", "RAILS"]


@dataclass(frozen=True)
class RailSpec:
    """One supply rail with its regulation window."""

    name: str
    nominal: float
    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.nominal < self.high:
            raise ValueError(f"rail {self.name}: need low < nominal < high")


RAILS: tuple[RailSpec, ...] = (
    RailSpec("VDD_0.9", 0.90, 0.82, 0.98),
    RailSpec("VDDQ_1.35", 1.35, 1.26, 1.45),
    RailSpec("VCC_1.8", 1.80, 1.70, 1.92),
    RailSpec("V12_BUS", 12.0, 11.2, 12.8),
)


class PowerModel:
    """Node power rails and breaker behaviour for one machine."""

    def __init__(self, rng: RngStream) -> None:
        self.rng = rng

    def sag_voltage(self, rail: RailSpec) -> float:
        """A plausible out-of-range low reading for a sagging rail."""
        return round(rail.low - self.rng.uniform(0.02, 0.12) * rail.nominal, 3)

    def nvf_record(self, time: float, node: NodeName, rail: RailSpec | None = None) -> LogRecord:
        """Blade-controller ``ec_node_voltage_fault`` record for a node."""
        rail = rail or self.rng.choice(RAILS)
        return LogRecord(
            time=time,
            source=LogSource.CONTROLLER,
            component=node.blade.cname,
            event="nvf",
            attrs={
                "node": node.cname,
                "rail": rail.name,
                "volts": f"{self.sag_voltage(rail):.2f}",
            },
            severity=Severity.CRITICAL,
        )

    def ecb_record(self, time: float, node: NodeName) -> LogRecord:
        """Blade-controller ECB overcurrent trip record."""
        fet = f"VRM{self.rng.integer(1, 8):02d}"
        return LogRecord(
            time=time,
            source=LogSource.CONTROLLER,
            component=node.blade.cname,
            event="ecb_fault",
            attrs={"node": node.cname, "fet": fet},
            severity=Severity.CRITICAL,
        )
