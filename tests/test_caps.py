"""Every explicit size cap refuses with ``CapExceededError``, a ``ValueError``
whose message names the limit, before any enumeration starts."""

import numpy as np
import pytest

from clusterexp import graphs as G
from clusterexp import ising as I
from clusterexp import mayer as M
from clusterexp import oracles as O
from clusterexp import polymer as PL
from clusterexp import potentials as P
from clusterexp import ursell as U


def free_polymers(count):
    return PL.PolymerSystem({k: 0.01 for k in range(count)}, [])


REFUSALS = [
    ("graphs-connected", lambda: G.count_connected(G.GRAPH_CAP + 1), "cap is 7"),
    ("graphs-trees", lambda: G.tree_table(G.TREE_CAP + 1), "cap is 9"),
    ("graphs-enumerate", lambda: next(O.enumerate_graphs(G.GRAPH_CAP + 1)), "cap is 7"),
    ("graphs-alternating", lambda: G.alternating_connected_sum(G.GRAPH_CAP + 1), "cap is 7"),
    ("graphs-verify-scheme",
     lambda: G.verify_partition_scheme(G.GRAPH_CAP + 1, np.zeros((0, 0), dtype=bool)), "cap is 7"),
    ("ising-brute-force", lambda: I.brute_force_Z(I.TRANSFER_CAP + 1, 0.3), "capped at L=7"),
    ("ising-sweep", lambda: O._sweep_density_of_states(O.BRUTE_CAP + 1, "free"),
     "capped at L=5"),
    ("ising-even-subgraphs", lambda: I.even_subgraph_size_counts(I.HIGH_T_CAP + 1),
     "capped at L=6"),
    ("ising-contours", lambda: I.low_T_contour_Z(I.TRANSFER_CAP + 1, 0.3), "capped at L=7"),
    ("ising-magnetization", lambda: I.magnetization(I.TRANSFER_CAP + 1, 0.3), "capped at L=7"),
    ("ursell-partition", lambda: U.ursell_partition_formula(U.InteractionMatrix(11, {})),
     "cap is 10"),
    ("ursell-graph-sum", lambda: U.ursell_graph_sum(U.InteractionMatrix(G.GRAPH_CAP + 1, {})),
     "cap is 7"),
    ("polymer-volume", lambda: PL.partition_function(free_polymers(PL.VOLUME_CAP + 1)),
     "capped at 128 polymers"),
    ("polymer-polynomial", lambda: PL.xi_polynomial(free_polymers(PL.POLYNOMIAL_CAP + 1)),
     "capped at 20 polymers"),
    ("polymer-cluster-order",
     lambda: PL.cluster_log_truncated(free_polymers(2), order=PL.CLUSTER_ORDER_CAP + 1),
     "order capped at 6"),
    ("polymer-cluster-volume",
     lambda: PL.cluster_log_truncated(free_polymers(PL.CLUSTER_VOLUME_CAP + 1), order=1),
     "capped at 12 polymers"),
    ("polymer-pinned-order",
     lambda: PL.pinned_series(free_polymers(1), 0, PL.PINNED_ORDER_CAP + 1, 0.5),
     "order capped at 16"),
    ("polymer-subset-vertices",
     lambda: PL.subset_gas_check(PL.subset_gas_system(range(13), {frozenset(range(13)): 0.01})),
     "capped at 12"),
    ("mayer-n-max",
     lambda: M.mayer_coefficients(M.DiscreteVolume.path(2), P.hard_core(1.0), 1.0,
                                  M.N_MAX_CAP + 1),
     "n_max capped at 16"),
    ("mayer-ks", lambda: M.ks_recursion(M.KS_CAP + 1, 1.0, 0.0, 0.5), "M_max capped at 40"),
    ("mayer-volume",
     lambda: M.mayer_coefficients(M.DiscreteVolume.grid(9, 9), P.hard_core(1.0), 1.0, 2),
     "1 to 64 sites"),
]


@pytest.mark.parametrize("call,message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_cap_refusal_is_cap_exceeded(call, message):
    with pytest.raises(G.CapExceededError, match=message) as exc:
        call()
    assert isinstance(exc.value, ValueError)


def test_cap_is_read_when_the_table_is_built(monkeypatch):
    G.connected_masks.cache_clear()
    monkeypatch.setattr(G, "GRAPH_CAP", 4)
    with pytest.raises(G.CapExceededError, match="n=5: cap is 4"):
        G.count_connected(5)
    assert G.count_connected(4) == 38
