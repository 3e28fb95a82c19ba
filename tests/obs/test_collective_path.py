"""The ``collective`` span names the executor that actually ran.

Intra-node aggregation is a request, not a guarantee: with fault
machinery armed (``failover=True``) the engine runs the plain lockstep
path instead.  The span's ``path`` argument makes that fallback visible
in the trace without changing what is simulated.
"""

import pytest

from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.request import AccessPattern, StridedSegment
from repro.obs import Tracer

from tests.helpers import make_stack, rank_payload

N_RANKS, N_NODES, CORES = 8, 2, 4
BLOCK = 64


@pytest.mark.parametrize(
    "failover,path", [(False, "intra-node"), (True, "lockstep")]
)
def test_span_names_executor(failover, path):
    stack = make_stack(n_ranks=N_RANKS, n_nodes=N_NODES, cores=CORES)
    tracer = Tracer().install(stack.env)
    engine = MemoryConsciousCollectiveIO(
        stack.comm, stack.pfs,
        MCIOConfig(
            msg_group=16 * 1024, msg_ind=2 * 1024, mem_min=0, nah=2,
            cb_buffer_size=1024, min_buffer=1,
            intra_node_aggregation=True, failover=failover,
        ),
    )

    def main(ctx):
        pattern = AccessPattern(
            (StridedSegment(ctx.rank * BLOCK, BLOCK, BLOCK * N_RANKS, 8),)
        )
        yield from engine.write(
            ctx, pattern, rank_payload(ctx.rank, pattern.nbytes)
        )

    stack.run_spmd(main)
    spans = [
        ev for ev in tracer.events()
        if ev.cat == "collective" and ev.ph == "B"
    ]
    assert len(spans) == N_RANKS
    assert {ev.args["path"] for ev in spans} == {path}
    assert all("granularity" not in ev.args for ev in spans)
