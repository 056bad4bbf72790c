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
    lsps = [ht.build_lsp(topo, [0, 4, 1], 5.0, 0), ht.build_lsp(topo, [0, 5, 7, 2], 5.0, 1)]
    routing = ht.routes_of(lsps)
    assert routing[1] == ((0, 5), (5, 7), (7, 2))


def test_routing_requires_dense_ids(topo):
    lsps = [ht.build_lsp(topo, [0, 4, 1], 5.0, 0), ht.build_lsp(topo, [0, 5, 1], 5.0, 2)]
    with pytest.raises(ValidationError):
        ht.routes_of(lsps)
