"""Code-descriptor files: JSON documents that pin down a field and one code
construction, plus a content digest that keys the simulator's cache.

Schema:
    {"field": {"p": 13, "m": 1, "modulus": [c0, c1, ...]?},
     "construction": "rs" | "lrcrs" | "generator",
     ... construction fields ...}

rs:        "points": [ints] or "all", "k": int
lrcrs:     "p_poly": [ints, lowest degree first], "l": [ints]
generator: "rows": [[ints], ...]

Integer symbols may be negative; they are normalized into the field.  JSON
booleans are rejected wherever an integer is expected, and a key that
nothing reads, in the descriptor or its field, is refused by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# The builtin SHA-256 where there is one: importing hashlib maps OpenSSL.
try:
    from _sha2 import sha256                       # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256                 # Python 3.10 and 3.11
    except ImportError:                            # built without builtin hashes
        from hashlib import sha256

from . import codeops, rscodes
from .galois import Field, _checked_order, _is_int, find_irreducible


class DescriptorError(ValueError):
    """Malformed descriptor; the message names the offending field."""


@dataclass(frozen=True)
class CodeBundle:
    """A parsed descriptor together with the objects it constructs: a spec,
    whose code is built on first use, or a generator code."""
    digest: str
    field: Field
    kind: str                      # "rs" | "lrcrs" | "generator"
    spec: object | None            # RsSpec | LrcRsSpec | None
    generator_code: codeops.LinearCode | None = None

    @property
    def code(self) -> codeops.LinearCode:
        return self.generator_code if self.spec is None else self.spec.code


def parse_descriptor(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(
            f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}")
    if not isinstance(obj, dict):
        raise DescriptorError("descriptor must be a JSON object")
    return obj


def load_descriptor(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_descriptor(fh.read())


def descriptor_digest(desc: dict) -> str:
    """SHA-256 of the descriptor with default-valued field keys ("m": 1, a
    null or default modulus) dropped, so equal codes written with and
    without the defaults share a digest, and minimal ones keep theirs."""
    return sha256(_canonical(desc).encode("utf-8")).hexdigest()


# The writer of the canonical text, built once: json.dumps with these
# options builds a new encoder on every call.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(desc: dict) -> str:
    """The JSON text descriptor_digest hashes: sorted keys, no spaces, the
    default-valued field keys dropped."""
    frag = desc.get("field")
    if isinstance(frag, dict):
        frag = {key: value for key, value in frag.items()
                if not (key == "m" and _is_int(value) and value == 1)
                and not (key == "modulus"
                         and (value is None or _is_default_modulus(frag)))}
        desc = {**desc, "field": frag}
    try:
        return _CANONICAL_JSON.encode(desc)
    except (TypeError, ValueError) as exc:
        raise DescriptorError(f"descriptor: not a JSON document: {exc}") from None


def _is_default_modulus(frag: dict) -> bool:
    """True when the fragment's modulus, reduced mod p, is the irreducible
    Field picks without one; False for any fragment Field would reject."""
    p, m, modulus = frag.get("p"), frag.get("m"), frag["modulus"]
    try:
        _checked_order(p, m)
    except ValueError:
        return False
    return (m > 1 and isinstance(modulus, list) and all(_is_int(c) for c in modulus)
            and tuple(c % p for c in modulus) == find_irreducible(p, m))


def _require(obj: dict, key: str, kinds, where: str, default=...):
    """obj[key], type-checked against kinds (JSON booleans never pass), or the
    default, when one is given, for a missing key: the one field reader."""
    if not isinstance(obj, dict):
        raise DescriptorError(f"{where}: expected an object")
    if key not in obj:
        if default is not ...:
            return default
        raise DescriptorError(f"{where}: missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise DescriptorError(f"{where}.{key}: unexpected type {type(value).__name__}")
    return value


def _refuse_unknown_keys(obj, known: tuple, where: str):
    """Raise a DescriptorError naming every key of obj outside known, which
    nothing would read; an obj that is not an object is left to _require."""
    if isinstance(obj, dict):
        unknown = ", ".join(repr(key) for key in obj if key not in known)
        if unknown:
            raise DescriptorError(f"{where}: unknown field {unknown}")


def _integers(values, where: str, field: Field | None = None) -> list:
    """values, a list of integers, normalized into field when one is given."""
    if not isinstance(values, list):
        raise DescriptorError(f"{where}: expected a list of integers")
    for v in values:
        if not _is_int(v):
            raise DescriptorError(f"{where}: expected integers, got {json.dumps(v)}")
    if field is None:
        return values
    try:
        return [field.normalize(v) for v in values]
    except ValueError as exc:
        raise DescriptorError(f"{where}: {exc}") from None


def build_field(desc: dict) -> Field:
    frag = _require(desc, "field", dict, "descriptor")
    _refuse_unknown_keys(frag, ("p", "m", "modulus"), "field")
    p = _require(frag, "p", int, "field")
    m = _require(frag, "m", int, "field", 1)
    modulus = _require(frag, "modulus", (list, type(None)), "field", None)
    if modulus is not None:
        _integers(modulus, "field.modulus")
    try:
        return Field(p, m, modulus)
    except ValueError as exc:
        raise DescriptorError(f"field: {exc}") from None


def build_code(desc: dict) -> CodeBundle:
    """Construct the field and code a descriptor describes, refusing any key
    its construction does not read before building anything."""
    kind = _require(desc, "construction", str, "descriptor")
    keys = {"rs": ("points", "k"), "lrcrs": ("p_poly", "l"),
            "generator": ("rows",)}.get(kind)
    if keys is None:
        raise DescriptorError(f"construction: unknown kind {kind!r}")
    _refuse_unknown_keys(desc, ("field", "construction", *keys), "descriptor")
    field = build_field(desc)
    digest = descriptor_digest(desc)
    if kind == "rs":
        points = _require(desc, "points", (list, str), "rs")
        if isinstance(points, str) and points != "all":
            raise DescriptorError('rs.points: expected a list or "all"')
        points = (list(field.elements()) if points == "all"
                  else _integers(points, "rs.points", field))
        make, args = rscodes.rs_make, (points, _require(desc, "k", int, "rs"))
    elif kind == "lrcrs":
        p_poly = _integers(_require(desc, "p_poly", list, "lrcrs"), "lrcrs.p_poly", field)
        l = _integers(_require(desc, "l", list, "lrcrs"), "lrcrs.l")
        make, args = rscodes.lrcrs_make, (p_poly, l)
    else:
        rows = [_integers(row, "generator.rows", field)
                for row in _require(desc, "rows", list, "generator")]
        make, args = codeops.code_from_rows, (rows,)
    try:
        built = make(field, *args)
    except ValueError as exc:
        raise DescriptorError(f"{kind}: {exc}") from None
    if kind == "generator":
        return CodeBundle(digest, field, kind, None, built)
    return CodeBundle(digest, field, kind, built)
