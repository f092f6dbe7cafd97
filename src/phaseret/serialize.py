"""JSON and CSV formats for frames, projection families, and witnesses.

JSON is the primary format: objects carry an explicit "field" tag and
complex scalars are stored as [re, im] pairs, so files stay diffable and
hand-editable.  Vectors are stored as lists of columns; matrices are
row-major nested lists.  CSV is accepted for real frames only, one
vector per line.  All human-facing indices are 1-based.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .certify import PrWitness, Verdict
from .frames import Frame, PartitionWitness, ProjectionFamily
from .linalg import DEFAULT_TOL, Field, Tolerances


def encode_scalar(z, field: Field):
    if field is Field.COMPLEX:
        z = complex(z)
        return [z.real, z.imag]
    return float(np.real(z))


def decode_scalar(obj, field: Field, name: str = "entry"):
    if field is Field.COMPLEX:
        if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
            raise ValueError(f"{name}: complex scalar must be a [re, im] pair, got {obj!r}")
        return complex(float(obj[0]), float(obj[1]))
    if isinstance(obj, (list, tuple)):
        raise ValueError(f"{name}: real scalar expected, got pair {obj!r}")
    return float(obj)


def encode_vector(v: np.ndarray, field: Field) -> list:
    return [encode_scalar(z, field) for z in np.asarray(v).reshape(-1)]


def decode_vector(obj, field: Field, name: str = "vector") -> np.ndarray:
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"{name}: expected a list of scalars")
    return np.array([decode_scalar(z, field, name) for z in obj], dtype=field.dtype)


def encode_matrix(a: np.ndarray, field: Field) -> list:
    return [[encode_scalar(z, field) for z in row] for row in np.asarray(a)]


def decode_matrix(obj, field: Field, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ValueError(f"{name}: expected a nonempty nested list")
    rows = [decode_vector(row, field, f"{name} row {i + 1}") for i, row in enumerate(obj)]
    widths = {r.size for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{name}: ragged rows")
    return np.stack(rows)


def _field_of(d: dict, name: str) -> Field:
    if "field" not in d:
        raise ValueError(f"{name}: missing 'field' tag")
    return Field.parse(str(d["field"]))


def frame_to_dict(f: Frame) -> dict:
    return {
        "field": f.field.value,
        "dim": f.dim,
        "vectors": [encode_vector(f.vectors[:, i], f.field) for i in range(f.size)],
    }


def frame_from_dict(d: dict) -> Frame:
    field = _field_of(d, "frame")
    if "vectors" not in d:
        raise ValueError("frame: missing 'vectors'")
    cols = [decode_vector(v, field, f"vector {i + 1}") for i, v in enumerate(d["vectors"])]
    dims = {c.size for c in cols}
    if len(dims) != 1:
        raise ValueError("frame: vectors have mixed lengths")
    arr = np.stack(cols, axis=1)
    if "dim" in d and int(d["dim"]) != arr.shape[0]:
        raise ValueError(f"frame: declared dim {d['dim']} but vectors have length {arr.shape[0]}")
    return Frame(arr, field)


def family_to_dict(p: ProjectionFamily) -> dict:
    return {
        "field": p.field.value,
        "dim": p.dim,
        "projections": [encode_matrix(p.projections[i], p.field) for i in range(p.size)],
    }


def family_from_dict(d: dict, tol: Tolerances = DEFAULT_TOL) -> ProjectionFamily:
    field = _field_of(d, "projection family")
    if "projections" not in d:
        raise ValueError("projection family: missing 'projections'")
    mats = [decode_matrix(m, field, f"projection {i + 1}")
            for i, m in enumerate(d["projections"])]
    return ProjectionFamily.from_projections(mats, field, tol)


def pair_to_dict(u: np.ndarray, v: np.ndarray, field: Field) -> dict:
    return {
        "field": field.value,
        "dim": int(np.asarray(u).size),
        "u": encode_vector(u, field),
        "v": encode_vector(v, field),
    }


def pair_from_dict(d: dict) -> tuple[np.ndarray, np.ndarray, Field]:
    field = _field_of(d, "witness pair")
    for key in ("u", "v"):
        if key not in d:
            raise ValueError(f"witness pair: missing '{key}'")
    u = decode_vector(d["u"], field, "u")
    v = decode_vector(d["v"], field, "v")
    if u.size != v.size:
        raise ValueError("witness pair: u and v have different lengths")
    return u, v, field


def witness_to_dict(w: PrWitness, field: Field) -> dict:
    d = pair_to_dict(w.u, w.v, field)
    d["max_mismatch"] = float(w.max_mismatch)
    d["phase_gap"] = float(w.phase_gap)
    return d


def partition_to_dict(w: PartitionWitness) -> dict:
    # 1-based for human-facing output
    return {
        "side_I": [i + 1 for i in w.side_I],
        "side_Ic": [i + 1 for i in w.side_Ic],
        "rank_I": w.rank_I,
        "rank_Ic": w.rank_Ic,
    }


def verdict_to_dict(v: Verdict, field: Field) -> dict:
    return {
        "status": v.status.value,
        "method": v.method,
        "witness": None if v.witness is None else witness_to_dict(v.witness, field),
        "partition": None if v.partition is None else partition_to_dict(v.partition),
        "point": None if v.point is None else encode_vector(v.point, field),
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
