"""The Sec 4 operator library: where does each operator belong?"""

import pytest

from repro import config
from repro.core.ndp import (
    NDP_OPERATORS,
    NDPOperatorLibrary,
    NDPOpSpec,
)
from repro.errors import ConfigError
from repro.sim.interconnect import AccessPath, Link
from repro.sim.memory import MemoryDevice

MIB = 1024 * 1024


@pytest.fixture
def library() -> NDPOperatorLibrary:
    path = AccessPath(device=MemoryDevice(config.cxl_expander_ddr5()),
                      links=(Link(config.cxl_port()),))
    return NDPOperatorLibrary(path)


class TestOpSpecs:
    def test_paper_candidates_present(self):
        # Sec 4: "compression and decompression, encryption and
        # decryption, selection, projection, and filtering with LIKE".
        for op in ("compression", "decompression", "encryption",
                   "decryption", "selection", "projection",
                   "like_filter"):
            assert op in NDP_OPERATORS

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            NDPOpSpec("bad", controller_rate=0, host_rate=1,
                      output_ratio=1)
        with pytest.raises(ConfigError):
            NDPOpSpec("bad", controller_rate=1, host_rate=1,
                      output_ratio=0)

    def test_unknown_op_rejected(self, library):
        with pytest.raises(ConfigError):
            library.place("teleportation", MIB)


class TestPlacements:
    def test_shrinking_ops_offload(self, library):
        """Selection/LIKE/compression shrink data: near-data wins."""
        for op in ("selection", "like_filter", "compression"):
            placement = library.place(op, 256 * MIB)
            assert placement.offload, op
            assert placement.ndp_fabric_bytes < \
                placement.host_fabric_bytes

    def test_expanding_op_stays_on_host(self, library):
        """Decompression triples the bytes: shipping the expanded
        output erases the near-data win (the Sec 4 question has a
        non-trivial answer)."""
        placement = library.place("decompression", 256 * MIB)
        assert not placement.offload
        assert placement.ndp_fabric_bytes > placement.host_fabric_bytes

    def test_crypto_offloads_on_compute(self, library):
        """Encryption moves the same bytes either way; the dedicated
        crypto engine wins on compute throughput."""
        placement = library.place("encryption", 256 * MIB)
        assert placement.offload
        assert placement.ndp_fabric_bytes == placement.host_fabric_bytes

    def test_speedup_definition(self, library):
        placement = library.place("like_filter", 64 * MIB)
        assert placement.speedup == pytest.approx(
            placement.host_time_ns / placement.ndp_time_ns
        )

    def test_tiny_inputs_prefer_host(self, library):
        """Offload invocation latency dominates small inputs."""
        placement = library.place("selection", 4 * 1024)
        assert not placement.offload

    def test_costs_scale_with_input(self, library):
        small = library.offload_time_ns("selection", MIB)
        large = library.offload_time_ns("selection", 64 * MIB)
        assert large > small
