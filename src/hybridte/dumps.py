"""Pieces of the `--dump-lp` JSON text. Each dump has a fixed schema, written
from templates with keys in sorted order: byte for byte what
`json.dumps(doc, indent=2, sort_keys=True)` writes, without json's pure-Python
encoder, which it uses whenever `indent` is set.

Text that repeats from round to round is kept on the run's own objects, built from
their values on first use: each LSP's record and a plan's `lsps` list
(`Lsp.dump_record`, `LspPlan.dump_records`), a plan's old routing (`LspPlan.routing`, a
`recreation.Routing`), and a flow population's `flows` list around the rates and, per
indent, the key order of a map keyed by its flow ids (`traffic.FlowPopulation`). A round
formats only its numbers: rates, assignments, requests and the solution. A plain tuple
from an API caller is made such an object on each call, its text built and dropped.

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
from itertools import chain
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
    return (_cached_pairs if type(links) is tuple and {*map(type, links)} <= {tuple}
            and {*map(len, links)} <= {2} and {*map(type, chain.from_iterable(links))} <= {int}
            else pairs)(links, ind)


def lsp_record(l) -> str:
    """One LSP's entry in a re-routing dump's `lsps` list."""
    return (f'    {{\n      "capacity": {scalar(l.capacity)},\n      "dst": {scalar(l.dst)},\n'
            f'      "id": {scalar(l.id)},\n      "links": {_link_list(l.links, "      ")},\n'
            f'      "prop_delay": {scalar(l.prop_delay)},\n      "src": {scalar(l.src)}\n    }}')


def lsp_records(lsps) -> str:
    """A re-routing dump's `lsps` list, in id order."""
    return block(",\n".join([l.dump_record for l in sorted(lsps, key=_by_id)]), "  ")


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


def id_map(mapping, ind: str, order: tuple | None = None) -> str:
    """An object keyed by str(key), in string order ("10" before "2"), closed at indent
    `ind`: `order`, when given, is the `key_order` of the mapping's keys; exact-int values
    fill its pieces by `str`."""
    if not mapping:
        return "{}"
    # Other names may repeat: the last value under each is written, as json does.
    keys, pieces = order or key_order({str(k): k for k in mapping}.values(), ind)
    values = [*map(mapping.__getitem__, keys)]
    return fill(pieces, map(str if set(map(type, values)) == {int} else scalar, values))
