"""Pieces of the `--dump-lp` JSON text. Each dump has a fixed schema, written
from templates with keys in sorted order: byte for byte what
`json.dumps(doc, indent=2, sort_keys=True)` writes, without json's pure-Python
encoder, which it uses whenever `indent` is set.

Text that repeats from call to call is kept in bounded `lru_cache`s beside
`Lsp.dump_record` and `LspPlan.dump_records`: the text around a population's rates
and around the values of an id map with exact-int keys, re-creation requests and
link lists; a call formats only the rates, the assignments and the solution. A key
must fix its text, though equal values need not (5 == 5.0 == True, 0.0 == -0.0).
Nested keys are looked up only when each leaf has one exact type (int, or a nonzero
float for a delay bound); exact ints and finite exact floats fill by `str`, which is
json's text, other values by `scalar`. A request's key is typed (`typed=True` tells
types apart at its top level), and its text is not kept when the key holds a zero
other than an exact int 0 (`_Unkept`). Other keys render uncached.
"""

import math
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter

_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_by_id = attrgetter("id")
_columns = [attrgetter(name) for name in ("id", "src", "dst", "max_delay", "rate")]


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


@lru_cache(maxsize=64)
def _flow_pieces(fixed: tuple) -> tuple[str, ...]:
    """The `flows` list of a population around its rates (`fill`), given the number of
    flows and then their ids, sources, destinations and delay bounds in id order."""
    n = fixed[0]
    return tuple(block(",\n".join([f'    {{\n      "dst": {scalar(dst)},\n      "id": {scalar(fid)},\n'
                                   f'      "max_delay": {scalar(delay)},\n      "rate": %s,\n'
                                   f'      "src": {scalar(src)}\n    }}' for fid, src, dst, delay
                                   in zip(*[fixed[1 + k * n:1 + (k + 1) * n] for k in range(4)])]),
                       "  ").split("%s"))  # no scalar text holds a "%"


def flow_records(flows) -> str:
    """A re-routing dump's `flows` list, in id order: its population's pieces and rates."""
    ordered = sorted(flows, key=_by_id)
    ids, srcs, dsts, delays, rates = ([*map(get, ordered)] for get in _columns)
    fixed = (len(ordered), *ids, *srcs, *dsts, *delays)  # 4n + 1 items, never 20 (`fill`)
    if ({*map(type, ids), *map(type, srcs), *map(type, dsts)} <= {int}
            and {*map(type, delays), *map(type, rates)} <= {float} and 0.0 not in delays
            and all(map(math.isfinite, rates))):
        return fill(_flow_pieces(fixed), map(repr, rates))
    return fill(_flow_pieces.__wrapped__(fixed), map(scalar, rates))


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


@lru_cache(maxsize=64)
def _key_order(keys: tuple, ind: str) -> tuple[tuple, tuple[str, ...]]:
    """The keys in their names' string order, and the object's text around its values."""
    keys = sorted(keys, key=str)
    heads = [f'{ind}{encode_basestring_ascii(name)}: ' for name in map(str, keys)]
    return tuple(keys), ("{\n" + heads[0], *[",\n" + h for h in heads[1:]], f"\n{ind[2:]}}}")


def id_map(mapping, ind: str) -> str:
    """An object keyed by str(key), in string order ("10" before "2"), closed at indent
    `ind`; exact-int keys have their pieces cached, and exact-int values fill them by `str`."""
    if not mapping:
        return "{}"
    ints = set(map(type, mapping)) == {int}
    # Other names may repeat: the last value under each is written, as json does.
    keys = tuple(mapping) if ints else tuple({str(k): k for k in mapping}.values())
    keys, pieces = (_key_order if ints else _key_order.__wrapped__)(keys, ind + "  ")
    values = [*map(mapping.__getitem__, keys)]
    return fill(pieces, map(str if set(map(type, values)) == {int} else scalar, values))
