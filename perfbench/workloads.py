"""Workload definitions shared by run.py and its child processes (child.py).

Each workload names the input it runs on, the library calls it makes (in
the order the CLI makes them) and the RunConfig fields it sets. The "toy"
size shrinks every input so the smoke test runs in seconds.
"""

from __future__ import annotations

# Inputs. "csbm" is a PubMed-shaped contextual stochastic block model
# written to disk in the dataset format; "er" is a planted-label feature
# matrix for a G(n, p) graph that the child builds with erdos_renyi.
INPUTS = {
    "full": {
        "csbm": dict(nodes=19_717, dim=500, density=0.1, classes=3,
                     edges=44_338, homophily=0.8, signal=0.35,
                     per_class=20, val=500, test=1000, oracle_depth=20,
                     feature_norm="l1"),
        "er": dict(nodes=30_000, edge_prob=1e-4, dim=64, classes=10,
                   signal=0.3, train=500, val=250, test=500,
                   oracle_depth=12, feature_norm="none"),
    },
    "toy": {
        "csbm": dict(nodes=600, dim=40, density=0.1, classes=3,
                     edges=1_400, homophily=0.8, signal=0.35,
                     per_class=20, val=100, test=200, oracle_depth=6,
                     feature_norm="l1"),
        "er": dict(nodes=800, edge_prob=4e-3, dim=16, classes=4,
                   signal=0.5, train=100, val=100, test=200,
                   oracle_depth=4, feature_norm="none"),
    },
}

# command: which runner entry point and which writers the CLI uses.
# config: RunConfig fields beyond the defaults.
# accuracy_floor: a run whose test accuracy falls below this fails its
# checks (train workloads only).
WORKLOADS = {
    "full": {
        "pubmed-train": dict(
            input="csbm", command="train",
            config=dict(dp=20),
            accuracy_floor=0.75),
        "pubmed-profile": dict(
            input="csbm", command="profile",
            config=dict(dp=12, temperature=0.2, caps=[0, 6, 12]),
            accuracy_floor=None),
        "er-deep-head": dict(
            input="er", command="train",
            config=dict(dp=12, dt=6, hidden=512, dropout=0.5, lr=1e-3,
                        epochs=50),
            accuracy_floor=0.62),
    },
    "toy": {
        "pubmed-train": dict(
            input="csbm", command="train",
            config=dict(dp=4, epochs=30),
            accuracy_floor=0.34),
        "pubmed-profile": dict(
            input="csbm", command="profile",
            config=dict(dp=6, temperature=0.2, caps=[0, 3, 6]),
            accuracy_floor=None),
        "er-deep-head": dict(
            input="er", command="train",
            config=dict(dp=4, dt=3, hidden=32, dropout=0.5, lr=1e-2,
                        epochs=10),
            accuracy_floor=0.0),
    },
}
