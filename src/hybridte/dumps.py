"""The `--dump-lp` format: `rerouting_to_json` and `recreation_to_json`, one instance
(and its solution) per file. Each dump has a fixed schema, written from templates with keys
in sorted order: byte for byte what `json.dumps(doc, indent=2, sort_keys=True)` writes,
without json's pure-Python encoder, which it uses whenever `indent` is set.

Text that repeats from round to round is kept (`_memo`) in the memo dict (`_kept`) of
each of the run's objects that has one, built from its values on first use: a flow
population's `flows` list around the rates and, per indent, the key order of a map keyed
by its flow ids (`traffic.FlowPopulation`, shared by the run's slots); a plan's `lsps`
list (`lsp.LspPlan`); and the plan's old routing, also one level deeper as a solution
that keeps it (`lsp.PlanRouting`). A plain tuple from an API caller has no memo, so its
text is built on each call. A round formats only its numbers.

Two bounded `lru_cache`s keep, keyed by value, text that no object holds: re-creation
requests (`_request_record`) and link lists (`_cached_pairs`). A key must fix its text,
though equal values need not (5 == 5.0 == True, 0.0 == -0.0). A link list is looked up
only when each node is an exact int. A request's key is typed (`typed=True` tells types
apart at its top level), and its text is not kept when the key holds a zero other than
an exact int 0 (`_Unkept`). Exact ints and finite exact floats fill by `str` or `repr`,
which is json's text, other values by `scalar`.
"""

import math
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import attrgetter

_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_by_id = attrgetter("id")


def scalar(v) -> str:
    """One JSON constant or number by json's rules: bool before int, ints and
    finite floats by their base type's repr, NaN and the infinities by name."""
    if isinstance(v, float):  # first, the common case: no bool or None is a float
        text = float.__repr__(v)
        return _FLOAT_NAMES.get(text, text)
    if type(v) is int:
        return repr(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


class _Unkept(Exception):
    """A flat-keyed renderer's text for a key that does not fix it."""


def _kept(text, *key):
    """`text`, for the cache to keep under `key`; raises _Unkept(text) when the
    key holds a zero other than an exact int 0 (0.0 == -0.0 within one type)."""
    if 0.0 in key and not all([type(v) is int for v in key if v == 0]):
        raise _Unkept(text)
    return text


def _memo(obj, key, build, *args):
    """`build(*args)`, kept under `key` in `obj`'s memo dict (`_kept`), so built once per
    object; an object without one, such as a plain tuple, gets it built on every call."""
    kept = getattr(obj, "_kept", {})
    if key not in kept:
        kept[key] = build(*args)
    return kept[key]


def block(items: str, ind: str) -> str:
    """A list of records already joined by ",\\n", closed at indent `ind`."""
    return f"[\n{items}\n{ind}]" if items else "[]"


def fill(pieces: tuple, texts) -> str:
    """`pieces` with one of `texts` between each two. Not a `%` fill: CPython 3.11 never
    reuses a freed tuple of exactly 20 items, and keeps up to 2,000 of them (0.37 MB)."""
    parts = [None] * (2 * len(pieces) - 1)
    parts[::2], parts[1::2] = pieces, texts
    return "".join(parts)


def pairs(links, ind: str) -> str:
    """A list of (a, b) link pairs, closed at indent `ind`."""
    i1, i2 = ind + "  ", ind + "    "
    return block(",\n".join(f"{i1}[\n{i2}{scalar(a)},\n{i2}{scalar(b)}\n{i1}]"
                            for a, b in links), ind)


_cached_pairs = lru_cache(maxsize=1024)(pairs)


def _link_list(links, ind: str) -> str:
    """`pairs`, kept in a cache when `links` is a tuple of (int, int) tuples."""
    return (_cached_pairs if type(links) is tuple and all(
        [type(p) is tuple and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
         for p in links]) else pairs)(links, ind)


def lsp_record(l) -> str:
    """One LSP's entry in a re-routing dump's `lsps` list."""
    return (f'    {{\n      "capacity": {scalar(l.capacity)},\n      "dst": {scalar(l.dst)},\n'
            f'      "id": {scalar(l.id)},\n      "links": {_link_list(l.links, "      ")},\n'
            f'      "prop_delay": {scalar(l.prop_delay)},\n      "src": {scalar(l.src)}\n    }}')


def lsp_records(lsps) -> str:
    """A re-routing dump's `lsps` list, in id order."""
    return block(",\n".join([lsp_record(l) for l in sorted(lsps, key=_by_id)]), "  ")


def flow_pieces(ordered) -> tuple[str, ...]:
    """A re-routing dump's `flows` list around its rates (`fill`), from the flows `ordered`
    by id."""
    return tuple(block(",\n".join([f'    {{\n      "dst": {scalar(f.dst)},\n      "id": {scalar(f.id)},\n'
                                   f'      "max_delay": {scalar(f.max_delay)},\n      "rate": %s,\n'
                                   f'      "src": {scalar(f.src)}\n    }}' for f in ordered]),
                       "  ").split("%s"))  # no scalar text holds a "%"


def flow_records(pieces: tuple, rates: list) -> str:
    """A re-routing dump's `flows` list: its `flow_pieces` filled with the rates in id
    order, by `repr` when all are finite exact floats, json's text for them."""
    return fill(pieces, map(repr if {*map(type, rates)} <= {float}
                            and all(map(math.isfinite, rates)) else scalar, rates))


@lru_cache(maxsize=1024, typed=True)
def _request_record(i, src, dst, capacity, delay_budget) -> str:
    budget = "null" if delay_budget == math.inf else scalar(delay_budget)
    return _kept(f'    {{\n      "capacity": {scalar(capacity)},\n      "delay_budget": {budget},'
                 f'\n      "dst": {scalar(dst)},\n      "id": {i},\n      "src": {scalar(src)}\n    }}',
                 i, src, dst, capacity, delay_budget)


def request_records(requests) -> str:
    """A re-creation dump's `requests` list, each with its position as id."""
    items = []
    for i, r in enumerate(requests):
        try:
            items.append(_request_record(i, r.src, r.dst, r.capacity, r.delay_budget))
        except _Unkept as unkept:
            items.append(unkept.args[0])
    return block(",\n".join(items), "  ")


def routes(routing, ind: str) -> str:
    """A list of routes, each a list of link pairs, closed at indent `ind`; a route's
    link list is cached when it is a tuple of (int, int) tuples."""
    i1 = ind + "  "
    return block(",\n".join([i1 + _link_list(links, i1) for links in routing]), ind)


def key_order(keys, ind: str) -> tuple[tuple, tuple[str, ...]]:
    """The keys in their names' string order, and the text of an object with those
    names around its values, closed at indent `ind`."""
    keys = sorted(keys, key=str)
    heads = [f'{ind}  {encode_basestring_ascii(name)}: ' for name in map(str, keys)]
    return tuple(keys), ("{\n" + heads[0], *[",\n" + h for h in heads[1:]], f"\n{ind}}}")


def id_map(mapping, ind: str, flows, ids) -> str:
    """An object keyed by str(key), in string order ("10" before "2"), closed at indent
    `ind`; its `key_order` is kept per indent for `flows` when its keys are exactly their
    `ids`, unique exact ints. Exact-int values fill its pieces by `str`."""
    if not mapping:
        return "{}"
    # Other names may repeat: the last value under each is written, as json does.
    keys, pieces = (_memo(flows, ind, key_order, ids, ind)
                    if mapping.keys() == ids and {*map(type, mapping)} == {int}
                    else key_order({str(k): k for k in mapping}.values(), ind))
    values = [*map(mapping.__getitem__, keys)]
    return fill(pieces, map(str if set(map(type, values)) == {int} else scalar, values))


def _id_facts(flows) -> tuple:
    """The flows' positions in id order (None when that is their order), and their ids
    when those are unique exact ints (else None)."""
    ids = [f.id for f in flows]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    unique = {*ids}
    return (None if order == [*range(len(ids))] else order,
            unique if len(unique) == len(ids) and {*map(type, ids)} <= {int} else None)


def rerouting_to_json(problem, solution=None) -> str:
    """Deterministic JSON dump of one re-routing instance (and optionally its solution)."""
    flows, lsps = problem.flows, problem.lsps
    order, ids = _memo(flows, "ids", _id_facts, flows)
    ordered = flows if order is None else [flows[i] for i in order]
    records = flow_records(_memo(flows, "flows", flow_pieces, ordered), [f.rate for f in ordered])
    text = (f'{{\n  "flows": {records},\n  "lsps": {_memo(lsps, "lsps", lsp_records, lsps)},\n'
            f'  "mode": "{problem.mode.value}",\n  "mu": {scalar(problem.mu)},\n'
            f'  "node_budget": {scalar(problem.node_budget)},\n'
            f'  "old_assignment": {id_map(problem.fr_old, "  ", flows, ids)}')
    if solution is not None:
        text += (f',\n  "solution": {{\n'
                 f'    "assignment": {id_map(solution.assignment, "    ", flows, ids)},\n'
                 f'    "changes": {scalar(solution.changes)},\n'
                 f'    "nodes_explored": {scalar(solution.nodes_explored)},\n'
                 f'    "optimal": {scalar(solution.optimal)}\n  }}')
    return text + ',\n  "type": "flow_rerouting"\n}\n'


def recreation_to_json(problem, solution=None) -> str:
    """Deterministic JSON dump of one re-creation instance (and optionally its solution). A
    solution whose routing is the old routing itself is written as its text one level deeper."""
    old = problem.lr_old or ()
    old_text = _memo(old, "  ", routes, old, "  ")
    text = (f'{{\n  "mu": {scalar(problem.mu)},\n  "node_budget": {scalar(problem.node_budget)},\n'
            f'  "old_routing": {old_text},\n'
            f'  "path_limit": {scalar(problem.path_limit)},\n'
            f'  "requests": {request_records(problem.requests)}')
    if solution is not None:
        routing = (_memo(old, "    ", str.replace, old_text, "\n", "\n  ")
                   if solution.routing is problem.lr_old else routes(solution.routing, "    "))
        text += (f',\n  "solution": {{\n    "changed_entries": {scalar(solution.changed_entries)},\n'
                 f'    "nodes_explored": {scalar(solution.nodes_explored)},\n'
                 f'    "optimal": {scalar(solution.optimal)},\n'
                 f'    "routing": {routing}\n  }}')
    return text + ',\n  "type": "lsp_recreation"\n}\n'
