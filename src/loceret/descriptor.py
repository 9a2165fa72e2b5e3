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
booleans are rejected wherever an integer is expected.
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
from .galois import DEFAULT_MAX_ORDER, Field, _is_int, find_irreducible, is_prime


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
    return (_is_int(p) and _is_int(m) and 1 < m < DEFAULT_MAX_ORDER.bit_length()
            and 1 < p ** m <= DEFAULT_MAX_ORDER and is_prime(p)
            and isinstance(modulus, list) and all(_is_int(c) for c in modulus)
            and tuple(c % p for c in modulus) == find_irreducible(p, m))


def _require(desc: dict, key: str, kinds, where: str):
    if not isinstance(desc, dict):
        raise DescriptorError(f"{where}: expected an object")
    if key not in desc:
        raise DescriptorError(f"{where}: missing field {key!r}")
    value = desc[key]
    if kinds is not None and (isinstance(value, bool) or not isinstance(value, kinds)):
        raise DescriptorError(f"{where}.{key}: unexpected type {type(value).__name__}")
    return value


def _int_list(values: list, where: str) -> list:
    for v in values:
        if not _is_int(v):
            raise DescriptorError(f"{where}: expected integers, got {json.dumps(v)}")
    return values


def build_field(desc: dict) -> Field:
    frag = _require(desc, "field", dict, "descriptor")
    p = _require(frag, "p", int, "field")
    m = frag.get("m", 1)
    if not _is_int(m):
        raise DescriptorError("field.m: must be an integer")
    modulus = frag.get("modulus")
    if modulus is not None:
        if not isinstance(modulus, list) or not all(_is_int(c) for c in modulus):
            raise DescriptorError("field.modulus: must be a list of integers")
    try:
        return Field(p, m, modulus)
    except ValueError as exc:
        raise DescriptorError(f"field: {exc}") from None


def build_code(desc: dict) -> CodeBundle:
    """Construct the field and code a descriptor describes."""
    field = build_field(desc)
    kind = _require(desc, "construction", str, "descriptor")
    digest = descriptor_digest(desc)
    if kind == "rs":
        points = _require(desc, "points", (list, str), "rs")
        if points == "all":
            points = list(field.elements())
        elif isinstance(points, str):
            raise DescriptorError('rs.points: expected a list or "all"')
        else:
            _int_list(points, "rs.points")
            try:
                points = [field.normalize(v) for v in points]
            except ValueError as exc:
                raise DescriptorError(f"rs.points: {exc}") from None
        k = _require(desc, "k", int, "rs")
        try:
            spec = rscodes.rs_make(field, points, k)
        except ValueError as exc:
            raise DescriptorError(f"rs: {exc}") from None
        return CodeBundle(digest, field, kind, spec)
    if kind == "lrcrs":
        p_poly = _int_list(_require(desc, "p_poly", list, "lrcrs"), "lrcrs.p_poly")
        l = _int_list(_require(desc, "l", list, "lrcrs"), "lrcrs.l")
        try:
            p_poly = [field.normalize(v) for v in p_poly]
            spec = rscodes.lrcrs_make(field, p_poly, l)
        except ValueError as exc:
            raise DescriptorError(f"lrcrs: {exc}") from None
        return CodeBundle(digest, field, kind, spec)
    if kind == "generator":
        rows = _require(desc, "rows", list, "generator")
        for row in rows:
            if not isinstance(row, list):
                raise DescriptorError("generator.rows: each row must be a list")
            _int_list(row, "generator.rows")
        try:
            rows = [[field.normalize(v) for v in row] for row in rows]
            code = codeops.code_from_rows(field, rows)
        except ValueError as exc:
            raise DescriptorError(f"generator: {exc}") from None
        return CodeBundle(digest, field, kind, None, code)
    raise DescriptorError(f"construction: unknown kind {kind!r}")
