"""JSON wire formats for matrices, operator families, models, and chains.

Matrix schema: {"rows": int, "cols": int, "re": [row-major], "im": [row-major]}.
Schema violations raise :class:`ConfigError` with a JSON-path-style location,
which the CLI maps to exit code 2.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

from .clifford import curvature_defect
from .grassmann import MultiVector
from .jlo import DGAElement
from .linalg import hermitian
from .phi_core import OperatorFamily
from .stochastic_mc import PerturbationSpec, TorusModel


class ConfigError(ValueError):
    """Configuration file violates a schema; carries a location string."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }


def matrix_from_json(obj, location: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ConfigError(location, "expected an object with rows/cols/re/im")
    for key in ("rows", "cols", "re", "im"):
        if key not in obj:
            raise ConfigError(location, f"missing field '{key}'")
    rows, cols = obj["rows"], obj["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise ConfigError(location, "rows/cols must be positive integers")
    re, im = obj["re"], obj["im"]
    if not (isinstance(re, list) and isinstance(im, list)):
        raise ConfigError(location, "re/im must be arrays")
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ConfigError(
            location,
            f"re/im must each have rows*cols = {rows * cols} entries, "
            f"got {len(re)}/{len(im)}",
        )
    try:
        data = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(location, f"non-numeric entry: {exc}") from None
    return data.reshape(rows, cols)


def family_from_json(obj, location: str = "family") -> OperatorFamily:
    if not isinstance(obj, dict):
        raise ConfigError(location, "expected an object")
    if "H" not in obj:
        raise ConfigError(location, "missing field 'H'")
    h_mat = matrix_from_json(obj["H"], f"{location}.H")
    try:
        h = hermitian(h_mat, require_nonneg=True)
    except ValueError as exc:
        raise ConfigError(f"{location}.H", str(exc)) from None
    perts = []
    for i, p in enumerate(obj.get("P", [])):
        perts.append(matrix_from_json(p, f"{location}.P[{i}]"))
    try:
        return OperatorFamily(h, tuple(perts))
    except ValueError as exc:
        raise ConfigError(location, str(exc)) from None


def form_from_json(obj, d: int, location: str = "form") -> MultiVector:
    """Form schema: list of {"indices": [..], "re": x, "im": y} terms."""
    if obj is None:
        return MultiVector.zero(d)
    if not isinstance(obj, list):
        raise ConfigError(location, "expected a list of terms")
    acc = MultiVector.zero(d)
    for i, term in enumerate(obj):
        loc = f"{location}[{i}]"
        if not isinstance(term, dict) or "indices" not in term:
            raise ConfigError(loc, "term needs an 'indices' field")
        coeff = complex(term.get("re", 0.0), term.get("im", 0.0))
        try:
            acc = acc + MultiVector.monomial(d, term["indices"], coeff)
        except ValueError as exc:
            raise ConfigError(loc, str(exc)) from None
    return acc


def curvature_from_json(obj, location: str = "config"):
    """(d, omega) from {"d": positive even int, "omega": square list of
    lists of forms-or-null}, an antisymmetric matrix of degree-2 forms."""
    if not isinstance(obj, dict) or "d" not in obj or "omega" not in obj:
        raise ConfigError(location, "expected an object with 'd' and 'omega'")
    d, rows = obj["d"], obj["omega"]
    if not isinstance(d, int) or d % 2 or d < 2:
        raise ConfigError(f"{location}.d", "d must be a positive even integer")
    if not isinstance(rows, list) or any(
        not isinstance(row, list) or len(row) != len(rows) for row in rows
    ):
        raise ConfigError(f"{location}.omega", "expected a square list of lists")
    omega = [
        [form_from_json(e, d, f"{location}.omega[{i}][{j}]") for j, e in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    defect = curvature_defect(omega)
    if defect:
        i, j, reason = defect
        raise ConfigError(f"{location}.omega[{i}][{j}]", reason)
    return d, omega


def chain_from_json(obj, location: str = "chain"):
    if not isinstance(obj, dict) or "d" not in obj or "chain" not in obj:
        raise ConfigError(location, "expected an object with 'd' and 'chain'")
    d = obj["d"]
    if not isinstance(d, int) or d <= 0 or d % 2:
        raise ConfigError(f"{location}.d", "d must be a positive even integer")
    chain = []
    for i, entry in enumerate(obj["chain"]):
        loc = f"{location}.chain[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(loc, "expected an object")
        prime = form_from_json(entry.get("prime"), d, f"{loc}.prime")
        # the small-time prefactor (t/2)^(-n/2 + sum deg w_j' / 2) matches the
        # localization target only when every w_j' past w_0' has degree 1
        degrees = prime.degrees()
        if i >= 1 and degrees and degrees != {1}:
            raise ConfigError(
                f"{loc}.prime",
                f"w_{i}' must be zero or of pure degree 1, got degrees {sorted(degrees)}",
            )
        chain.append(
            DGAElement(prime, form_from_json(entry.get("doubleprime"), d, f"{loc}.doubleprime"))
        )
    if not chain:
        raise ConfigError(f"{location}.chain", "chain must be nonempty")
    return d, tuple(chain)


def torus_model_from_json(obj, location: str = "model") -> TorusModel:
    if not isinstance(obj, dict):
        raise ConfigError(location, "expected an object")
    for key in ("d", "r"):
        if key not in obj or not isinstance(obj[key], int) or obj[key] < 1:
            raise ConfigError(location, f"'{key}' must be a positive integer")
    d, r = obj["d"], obj["r"]
    conn = tuple(
        matrix_from_json(a, f"{location}.A[{i}]") for i, a in enumerate(obj.get("A", []))
    )
    pot = matrix_from_json(obj["W"], f"{location}.W") if "W" in obj else None
    perts = []
    for i, p in enumerate(obj.get("perturbations", [])):
        loc = f"{location}.perturbations[{i}]"
        if not isinstance(p, dict):
            raise ConfigError(loc, "expected an object with 'S' and/or 'V'")
        s_list = p.get("S")
        if s_list is None:
            s = tuple(np.zeros((r, r), dtype=complex) for _ in range(d))
        else:
            s = tuple(
                matrix_from_json(m, f"{loc}.S[{j}]") for j, m in enumerate(s_list)
            )
            if len(s) != d:
                raise ConfigError(f"{loc}.S", f"need {d} symbol matrices")
        v = (
            matrix_from_json(p["V"], f"{loc}.V")
            if "V" in p
            else np.zeros((r, r), dtype=complex)
        )
        perts.append(PerturbationSpec(s, v))
    try:
        return TorusModel(d, r, conn, pot, tuple(perts))
    except (ValueError, TypeError) as exc:
        raise ConfigError(location, str(exc)) from None


def point_from_json(obj, d: int, location: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != d:
        raise ConfigError(location, f"expected a list of {d} reals")
    try:
        point = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        point = None
    if point is None or not np.all(np.isfinite(point)):
        raise ConfigError(location, "entries must be finite reals")
    return point


_BLANK_CONTROLS = bytes.maketrans(b"\r\n\t", b"   ")
_NON_ASCII = re.compile("[^\x00-\x7f]")


def _echo_text(data: bytes) -> str:
    """A config file's JSON text ``data`` on one ASCII line: CR, LF and tab,
    which strict JSON admits only between tokens, become spaces, the ends are
    stripped and non-ASCII characters, which it admits only inside strings,
    become ``\\uXXXX`` escapes (surrogate pairs above U+FFFF).  ``json.loads``
    of it equals ``json.loads`` of the file."""
    data = data.translate(_BLANK_CONTROLS).strip(b" ")
    if data.isascii():
        return data.decode("ascii")
    return _NON_ASCII.sub(lambda m: json.dumps(m.group())[1:-1], data.decode("utf-8"))


def read_config(path: str) -> tuple[dict, bytes]:
    """The JSON object in the UTF-8 file ``path`` and the file's bytes, from
    one read of the file.  A report that is given the bytes as its config
    echoes what was parsed, even if the file changes later."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise ConfigError(path, "file not found") from None
    try:
        # decoded first: ``json.loads`` of bytes would accept a BOM and UTF-16/32
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(path, f"not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected a JSON object")
    return obj, data


def load_config(path: str) -> dict:
    """The JSON object in the UTF-8 file ``path``, as :func:`read_config`
    parses it, for callers that echo no config."""
    return read_config(path)[0]


def _json_default(o):
    """``json.dumps`` hook for the values reports carry: complex numbers as
    {"re", "im"}, 2-D arrays in the matrix schema, other arrays as lists and
    numpy scalars as Python numbers."""
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    if isinstance(o, np.ndarray):
        return matrix_to_json(o) if o.ndim == 2 else o.tolist()
    if isinstance(o, np.generic):
        return o.item()
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """The canonical JSON text of ``obj``: sorted keys, the default
    separators, ``_json_default`` for the values reports carry, ASCII only,
    and no indent, so ``json`` runs its C encoder.  Reports write every field
    this way except a config file's echo."""
    return json.dumps(obj, sort_keys=True, default=_json_default)


def _object_text(texts: dict) -> str:
    """The canonical JSON text of an object whose values are given as their
    canonical texts: ``canonical_json`` of the object, without encoding the
    values again."""
    return "{" + ", ".join(f"{json.dumps(key)}: {texts[key]}" for key in sorted(texts)) + "}"


def _digest(texts: dict) -> str:
    return hashlib.sha256(_object_text(texts).encode()).hexdigest()


def digest_of(payload: dict) -> str:
    """SHA-256 of the canonical JSON of ``payload``, encoded as reports are."""
    return _digest({key: canonical_json(value) for key, value in payload.items()})


def write_report(fields: dict, path: str | None) -> str:
    """The report of ``fields`` with its ``results_digest``, as one line of
    JSON, written to ``path`` when given.

    Each field is encoded once: ``bytes`` (a config file as
    :func:`read_config` returns it) as the file's own JSON text on one line
    (:func:`_echo_text`, keys in the file's order), every other value by
    :func:`canonical_json`.  The fields follow in sorted key order.  The
    digest is :func:`digest_of` {"results": ..., "verdicts": ...}, taken
    from those two fields' texts, so the config echo never enters it.
    """
    texts = {
        key: _echo_text(value) if isinstance(value, bytes) else canonical_json(value)
        for key, value in fields.items()
    }
    digest = _digest({key: texts[key] for key in ("results", "verdicts")})
    texts["results_digest"] = json.dumps(digest)
    text = _object_text(texts)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
