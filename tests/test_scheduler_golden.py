"""Golden artifact digests of from-scratch compiles.

Pins ``artifact_digest(compile_kernel(...))`` for six Table I kernels
on ``softbrain`` at scale 0.1, so any change to the scheduler's search
trajectory, its timing, or the delay-FIFO table shows up as a digest
change. The pinned values are stable across ``PYTHONHASHSEED``; qr and
pb_2mm are left out because their mappings depend on string hashing.
"""

import pytest

from repro.adg import topologies
from repro.compiler import compile_kernel
from repro.server.jobs import artifact_digest
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel

GOLDEN = {
    "mm": "81fd61ebb9814e047eaa76d1880a1f44"
          "4461a71638a4b8e2a3c4829dfce8d1bd",
    "crs": "a6b5a16ad54d11bd944e36d329e2aaf4"
           "ada9e36ce410ca8254e7e29bc3f7d814",
    "histogram": "2afa4df2209ea117aad3071eb4874b80"
                 "01ec6e76dadf8aeca534fdeddd2c9d40",
    "fft": "70904e0de042d3d86db528457329b4c5"
           "c5e98be7f3f6050bdb99748df2411167",
    "md": "424356fc5bd833f8b387c9e18936fb10"
          "2451072d513be71b5f70accdf5c0de88",
    "conv": "3e1ed9e7d57eca5192d5b6e256cf47e6"
            "2ec2365c9ed1b94c5fab976c3c61ec2d",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compile_digest_is_pinned(name):
    compiled = compile_kernel(
        make_kernel(name, 0.1), topologies.softbrain(),
        rng=DeterministicRng((1, name)), max_iters=120,
    )
    assert compiled.ok
    assert artifact_digest(compiled) == GOLDEN[name]
