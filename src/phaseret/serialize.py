"""JSON and CSV formats for frames, projection families, and witnesses.

JSON is the primary format: objects carry an explicit "field" tag and
complex scalars are stored as [re, im] pairs, so files stay diffable and
hand-editable.  Every array goes through one codec, encode_array and
decode_array: a frame is its list of vectors, a family its list of
row-major matrices.  CSV is accepted for real frames only, one vector
per line.  All human-facing indices are 1-based (one_based).
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .certify import PrWitness, Verdict
from .frames import Frame, PartitionWitness, ProjectionFamily
from .linalg import DEFAULT_TOL, Field, Tolerances


def encode_array(a, field: Field) -> list:
    """a as nested lists of floats; complex entries become [re, im] pairs
    on a last axis."""
    a = np.asarray(a)
    parts = np.stack([a.real, a.imag], axis=-1) if field is Field.COMPLEX else a.real
    return parts.astype(np.float64).tolist()


def decode_array(obj, field: Field, ndim: int, name: str) -> np.ndarray:
    """The inverse of encode_array: a nonempty, finite ndim-axis array, or
    a ValueError that names the field for anything else (a null, a string,
    ragged lists, the wrong depth, a pair that is not two numbers)."""
    try:
        arr = np.array(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        arr = None
    pairs = field is Field.COMPLEX
    if arr is None or arr.ndim != ndim + pairs or not arr.size or (pairs and arr.shape[-1] != 2):
        entry = "[re, im] pairs" if pairs else "real numbers"
        raise ValueError(f"{name}: expected lists nested {ndim} deep of {entry}, none empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: entries must be finite numbers")
    return arr.view(np.complex128)[..., 0] if pairs else arr


def _read(d: dict, name: str, ndim: int, *keys: str) -> tuple[Field, list[np.ndarray]]:
    """d's field tag and its arrays at keys, each checked against its 'dim'."""
    if "field" not in d:
        raise ValueError(f"{name}: missing 'field' tag")
    field = Field.parse(str(d["field"]))
    arrays = []
    for key in keys:
        if key not in d:
            raise ValueError(f"{name}: missing '{key}'")
        arrays.append(decode_array(d[key], field, ndim, f"{name} '{key}'"))
        if "dim" in d and d["dim"] != arrays[-1].shape[-1]:
            raise ValueError(f"{name}: declared dim {d['dim']!r} but '{key}' has length "
                             f"{arrays[-1].shape[-1]}")
    return field, arrays


def one_based(idx) -> list[int]:
    """Human-facing indices: every index in a file or a message is 1-based."""
    return [i + 1 for i in idx]


def frame_to_dict(f: Frame) -> dict:
    return {"field": f.field.value, "dim": f.dim, "vectors": encode_array(f.vectors.T, f.field)}


def frame_from_dict(d: dict) -> Frame:
    field, (vectors,) = _read(d, "frame", 2, "vectors")
    return Frame(vectors.T, field)


def family_to_dict(p: ProjectionFamily) -> dict:
    return {"field": p.field.value, "dim": p.dim,
            "projections": encode_array(p.projections, p.field)}


def family_from_dict(d: dict, tol: Tolerances = DEFAULT_TOL) -> ProjectionFamily:
    field, (mats,) = _read(d, "projection family", 3, "projections")
    return ProjectionFamily.from_projections(mats, field, tol)


def pair_to_dict(u: np.ndarray, v: np.ndarray, field: Field) -> dict:
    return {"field": field.value, "dim": int(np.asarray(u).size),
            "u": encode_array(u, field), "v": encode_array(v, field)}


def pair_from_dict(d: dict) -> tuple[np.ndarray, np.ndarray, Field]:
    field, (u, v) = _read(d, "witness pair", 1, "u", "v")
    if u.size != v.size:
        raise ValueError("witness pair: u and v have different lengths")
    return u, v, field


def witness_to_dict(w: PrWitness, field: Field) -> dict:
    d = pair_to_dict(w.u, w.v, field)
    d["max_mismatch"] = float(w.max_mismatch)
    d["phase_gap"] = float(w.phase_gap)
    return d


def partition_to_dict(w: PartitionWitness) -> dict:
    return {
        "side_I": one_based(w.side_I),
        "side_Ic": one_based(w.side_Ic),
        "rank_I": w.rank_I,
        "rank_Ic": w.rank_Ic,
    }


def verdict_to_dict(v: Verdict, field: Field) -> dict:
    return {
        "status": v.status.value,
        "method": v.method,
        "witness": None if v.witness is None else witness_to_dict(v.witness, field),
        "partition": None if v.partition is None else partition_to_dict(v.partition),
        "point": None if v.point is None else encode_array(v.point, field),
    }


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                             f"{exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top-level JSON object expected")
    return obj


def save_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def frame_from_csv(path: str) -> Frame:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric entry") from None
    if not rows:
        raise ValueError(f"{path}: no vectors found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: lines have differing lengths")
    return Frame(np.array(rows, dtype=np.float64).T, Field.REAL)


def frame_to_csv(path: str, f: Frame) -> None:
    if f.field is not Field.REAL:
        raise ValueError("CSV output supports real frames only")
    np.savetxt(path, f.vectors.T, delimiter=",", fmt="%.17g")


def load_frame(path: str) -> Frame:
    if path.lower().endswith(".csv"):
        return frame_from_csv(path)
    return frame_from_dict(load_json(path))


def load_family(path: str, tol: Tolerances = DEFAULT_TOL) -> ProjectionFamily:
    """Projection family from file; a frame file yields its rank-1 family."""
    if path.lower().endswith(".csv"):
        return ProjectionFamily.from_frame(frame_from_csv(path), tol)
    d = load_json(path)
    if "projections" in d:
        return family_from_dict(d, tol)
    if "vectors" in d:
        return ProjectionFamily.from_frame(frame_from_dict(d), tol)
    raise ValueError(f"{path}: neither 'projections' nor 'vectors' present")
