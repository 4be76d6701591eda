"""Hardware substrate simulator.

This subpackage models the rack the paper assumes: memory devices
(:mod:`repro.sim.memory`), links and PCIe/CXL ports
(:mod:`repro.sim.interconnect`), rack topology with CXL switches
(:mod:`repro.sim.topology`), directory-based coherence
(:mod:`repro.sim.coherence`), NUMA systems (:mod:`repro.sim.numa`), the
RDMA baseline fabric (:mod:`repro.sim.rdma`), failure/RAS behaviour
(:mod:`repro.sim.ras`), a discrete-event core
(:mod:`repro.sim.clock`, :mod:`repro.sim.events`), and the
instrumentation spine (:mod:`repro.sim.context`,
:mod:`repro.sim.trace`) that unifies timing and accounting.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it, imported on first use.
_SOURCES = {
    "AddressSpace": "address",
    "Region": "address",
    "SharedChannel": "bandwidth",
    "SimClock": "clock",
    "SimContext": "context",
    "ambient_instrumentation": "context",
    "set_ambient": "context",
    "Event": "events",
    "Simulator": "events",
    "AccessPath": "interconnect",
    "Link": "interconnect",
    "InterleaveSet": "interleave",
    "MemoryDevice": "memory",
    "NUMANode": "numa",
    "NUMASystem": "numa",
    "CXLSwitch": "topology",
    "Host": "topology",
    "MemoryPoolDevice": "topology",
    "RackTopology": "topology",
    "ChromeTraceSink": "trace",
    "JsonLinesTraceSink": "trace",
    "MemoryTraceSink": "trace",
    "NULL_SINK": "trace",
    "NullTraceSink": "trace",
    "SpanRecord": "trace",
    "TraceSink": "trace",
    "sink_for_path": "trace",
}

__getattr__, __dir__, __all__ = attach(__name__, _SOURCES)
