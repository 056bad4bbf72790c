import pytest

import hybridte as ht
from hybridte.errors import InvalidPathError, ValidationError


@pytest.fixture
def topo():
    return ht.reference_topology()


def test_build_lsp_basics(topo):
    l = ht.build_lsp(topo, [0, 4, 6, 2], 25.0, 3)
    assert l.id == 3
    assert (l.src, l.dst) == (0, 2)
    assert l.links == ((0, 4), (4, 6), (6, 2))
    assert l.prop_delay == 3.0
    assert len(l.links) == 3


@pytest.mark.parametrize("path", [
    [0],
    [0, 6],           # no such link
    [0, 4, 0],        # repeated node
    [0, 4, 6, 4, 1],  # repeated node mid-path
])
def test_build_lsp_rejects_bad_paths(topo, path):
    with pytest.raises(InvalidPathError):
        ht.build_lsp(topo, path, 5.0)


def test_build_lsp_rejects_bad_capacity(topo):
    with pytest.raises(ValidationError):
        ht.build_lsp(topo, [0, 4, 1], 0.0)


def test_routing_tensor(topo):
    # The re-routing problem's routing is read from its LSPs, keyed by id;
    # the ids need not be 0..n-1.
    lsps = (ht.build_lsp(topo, [0, 4, 1], 5.0, 0), ht.build_lsp(topo, [0, 5, 7, 2], 5.0, 3))
    problem = ht.ReroutingProblem(flows=(), lsps=lsps, fr_old={})
    assert problem.routing == {0: ((0, 4), (4, 1)), 3: ((0, 5), (5, 7), (7, 2))}
    with pytest.raises(AttributeError):
        problem.routing = {}
    with pytest.raises(TypeError):
        ht.ReroutingProblem(flows=(), lsps=lsps, fr_old={}, routing=problem.routing)
