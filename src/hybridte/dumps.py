"""Pieces of the `--dump-lp` JSON text. Each dump has a fixed schema, written
from templates with keys in sorted order: byte for byte what
`json.dumps(doc, indent=2, sort_keys=True)` writes, without json's pure-Python
encoder, which it uses whenever `indent` is set.

Text that repeats from call to call is kept in bounded `lru_cache`s beside
`Lsp.dump_record`: flow records but their rates, re-creation requests, link
lists and the string order of id-map keys. So a call formats only the rates,
the assignments and the solution. A key must fix its text, though equal values
need not (5 == 5.0 == True, 0.0 == -0.0), and `typed=True` tells types apart
only at a key's top level. So flat keys are typed, and for a key holding a zero
other than an exact int 0 the renderer raises `_Unkept` with its text, which
lru_cache does not keep; a key found later has a kept key's types and equal
values, so the same text (a NaN finds only its own entry). Nested keys are
looked up only when every leaf is an exact int. Other keys render uncached.
"""

import math
from functools import lru_cache
from itertools import chain
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


def pairs(links, ind: str) -> str:
    """A list of (a, b) link pairs, closed at indent `ind`."""
    i1, i2 = ind + "  ", ind + "    "
    return block(",\n".join(f"{i1}[\n{i2}{scalar(a)},\n{i2}{scalar(b)}\n{i1}]"
                            for a, b in links), ind)


_cached_pairs = lru_cache(maxsize=1024)(pairs)


def lsp_record(l) -> str:
    """One LSP's entry in a re-routing dump's `lsps` list."""
    return (f'    {{\n      "capacity": {scalar(l.capacity)},\n      "dst": {scalar(l.dst)},\n'
            f'      "id": {scalar(l.id)},\n      "links": {pairs(l.links, "      ")},\n'
            f'      "prop_delay": {scalar(l.prop_delay)},\n      "src": {scalar(l.src)}\n    }}')


def lsp_records(lsps) -> str:
    """A re-routing dump's `lsps` list, in id order."""
    return block(",\n".join([l.dump_record for l in sorted(lsps, key=_by_id)]), "  ")


@lru_cache(maxsize=1024, typed=True)
def _flow_parts(fid, src, dst, max_delay) -> tuple[str, str]:
    """A flow record's text before and after its rate."""
    return _kept((f'    {{\n      "dst": {scalar(dst)},\n      "id": {scalar(fid)},\n'
                  f'      "max_delay": {scalar(max_delay)},\n      "rate": ',
                  f',\n      "src": {scalar(src)}\n    }}'), fid, src, dst, max_delay)


def flow_records(flows) -> str:
    """A re-routing dump's `flows` list, in id order; only the rates are formatted."""
    items = []
    for f in sorted(flows, key=_by_id):
        try:
            head, tail = _flow_parts(f.id, f.src, f.dst, f.max_delay)
        except _Unkept as unkept:
            head, tail = unkept.args[0]
        items.append(head + scalar(f.rate) + tail)
    return block(",\n".join(items), "  ")


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
    """A list of routes, each a list of link pairs, closed at indent `ind`; the
    link lists are cached when every one is a tuple of (int, int) tuples."""
    every = tuple(chain.from_iterable(routing))  # every route's pairs in turn
    ints = ({*map(type, routing), *map(type, every)} <= {tuple} and {*map(len, every)} <= {2}
            and {*map(type, chain.from_iterable(every))} <= {int})
    render = _cached_pairs if ints else pairs
    i1 = ind + "  "
    return block(",\n".join([i1 + render(links, i1) for links in routing]), ind)


@lru_cache(maxsize=64)
def _key_order(keys: tuple, ind: str) -> tuple[tuple, tuple[str, ...]]:
    """The keys in the string order of their names, and each one's `"name": ` text."""
    keys = sorted(keys, key=str)
    return tuple(keys), tuple(f'{ind}"{name}": ' for name in map(str, keys))


def id_map(mapping, ind: str) -> str:
    """An object keyed by str(key), in string order ("10" before "2"),
    closed at indent `ind`; the order of exact-int keys is cached."""
    if not mapping:
        return "{}"
    if set(map(type, mapping)) == {int}:
        keys, names = _key_order(tuple(mapping), ind + "  ")
    else:  # names may repeat: the last value under each is written, as json does
        keys, names = _key_order.__wrapped__(tuple({str(k): k for k in mapping}.values()),
                                             ind + "  ")
    texts = map(scalar, map(mapping.__getitem__, keys))
    return "{\n" + ",\n".join(map(str.__add__, names, texts)) + f"\n{ind}}}"
