"""Build the reference eight-node topology, look around, and round-trip it
through its JSON form."""

import json

import hybridte as ht

topo = ht.reference_topology()

print(f"nodes: {topo.node_count}")
print(f"edge nodes (flow endpoints): {sorted(topo.edge_nodes)}")
print(f"core nodes: {sorted(set(range(topo.node_count)) - topo.edge_nodes)}")
print(f"directed links: {len(topo.links)}")
print(f"mean link bandwidth: {topo.mean_bandwidth}")

# Every link is symmetric here: the reverse direction always exists.
for link in topo.links:
    assert (link.dst, link.src) in topo.by_pair

# Shortest propagation delays from edge node 0 to everything else.
dist = topo.delay_distances(0)
print("\ndelay from node 0:")
for node in range(topo.node_count):
    print(f"  -> {node}: {dist[node]:.0f}")

# Edge nodes talk through the core: two hops when they share a core pair
# (0 with 1 on cores 4/5, 2 with 3 on cores 6/7), three hops across planes.
assert dist[1] == 2.0 and dist[2] == 3.0
assert topo.delay_distances(2)[3] == 2.0
assert topo.delay_distances(1)[3] == 3.0

# The JSON form is canonical: parse(serialize(t)) == t, byte-stable.
text = ht.serialize_topology(topo)
again = ht.load_topology(json.loads(text))
assert again == topo
assert ht.serialize_topology(again) == text
print(f"\nserialized form: {len(text)} bytes, round-trips exactly")
