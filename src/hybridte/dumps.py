"""Pieces of the `--dump-lp` JSON text. Each dump has a fixed schema, written
from templates with keys in sorted order: byte for byte what
`json.dumps(doc, indent=2, sort_keys=True)` writes, without json's pure-Python
encoder, which it uses whenever `indent` is set."""

_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def scalar(v) -> str:
    """One JSON constant or number by json's rules: bool before int, ints and
    finite floats by their base type's repr, NaN and the infinities by name."""
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        text = float.__repr__(v)
        return _FLOAT_NAMES.get(text, text)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def block(items: str, ind: str) -> str:
    """A list of records already joined by ",\\n", closed at indent `ind`."""
    return f"[\n{items}\n{ind}]" if items else "[]"


def pairs(links, ind: str) -> str:
    """A list of (a, b) link pairs, closed at indent `ind`."""
    i1, i2 = ind + "  ", ind + "    "
    return block(",\n".join(f"{i1}[\n{i2}{scalar(a)},\n{i2}{scalar(b)}\n{i1}]"
                            for a, b in links), ind)


def lsp_record(l) -> str:
    """One LSP's entry in a re-routing dump's `lsps` list."""
    return (f'    {{\n      "capacity": {scalar(l.capacity)},\n      "dst": {scalar(l.dst)},\n'
            f'      "id": {scalar(l.id)},\n      "links": {pairs(l.links, "      ")},\n'
            f'      "prop_delay": {scalar(l.prop_delay)},\n      "src": {scalar(l.src)}\n    }}')


def routes(routing, ind: str) -> str:
    """A list of routes, each a list of link pairs, closed at indent `ind`."""
    i1 = ind + "  "
    return block(",\n".join(i1 + pairs(links, i1) for links in routing), ind)


def id_map(mapping, ind: str) -> str:
    """An object keyed by str(key), in string order ("10" before "2"),
    closed at indent `ind`."""
    if not mapping:
        return "{}"
    items = sorted({str(k): v for k, v in mapping.items()}.items())
    i1 = ind + "  "
    return "{\n" + ",\n".join(f'{i1}"{k}": {scalar(v)}' for k, v in items) + f"\n{ind}}}"
