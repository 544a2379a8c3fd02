import random

import pytest

from realcubic.atlas import build_atlas
from realcubic.topology import propagate
from realcubic.walls import MoveKind, cusp_stratum


@pytest.fixture(scope="session")
def k4():
    return build_atlas("K4")


@pytest.fixture(scope="session")
def k3():
    return build_atlas("K3")


@pytest.fixture(scope="session")
def edge_verdicts(k4):
    """Verdicts for all 117 edges, L and R, keyed by edge."""
    return {e: cusp_stratum((k4.vertex(e.source), k4.vertex(e.target)))
            for e in k4.edges}


@pytest.fixture(scope="session")
def cusp_verdicts(edge_verdicts):
    """Verdicts for every R-edge, keyed by (source id, target id)."""
    return {(e.source, e.target): v for e, v in edge_verdicts.items()
            if e.move == MoveKind.R}


@pytest.fixture(scope="session")
def propagation(k4):
    return propagate(k4)


@pytest.fixture()
def rng():
    return random.Random(0)
