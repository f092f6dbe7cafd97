import numpy as np
import pytest

import phaseret as pr
from phaseret import Field, Frame, ProjectionFamily
from phaseret.serialize import (
    decode_array,
    encode_array,
    family_from_dict,
    family_to_dict,
    frame_from_csv,
    frame_from_dict,
    frame_to_csv,
    frame_to_dict,
    load_family,
    load_frame,
    load_json,
    pair_from_dict,
    pair_to_dict,
    partition_to_dict,
    save_json,
    verdict_to_dict,
    witness_to_dict,
)


def test_scalar_codec():
    # a scalar is a 0-axis array: a float, or one [re, im] pair
    assert encode_array(1.5, Field.REAL) == 1.5
    assert encode_array(1 + 2j, Field.COMPLEX) == [1.0, 2.0]
    assert decode_array([1.0, 2.0], Field.COMPLEX, 0, "z") == 1 + 2j
    assert decode_array(3, Field.REAL, 0, "x") == 3.0
    with pytest.raises(ValueError, match="^z:"):
        decode_array([1.0], Field.COMPLEX, 0, "z")


def test_vector_matrix_roundtrip():
    v = np.array([1.0 - 1j, 2.0])
    assert decode_array(encode_array(v, Field.COMPLEX), Field.COMPLEX, 1, "v").tolist() == \
        v.tolist()
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(decode_array(encode_array(m, Field.REAL), Field.REAL, 2, "m"), m)


def test_complex_frame_golden_bytes(tmp_path):
    # the file format to the byte: columns of [re, im] pairs, signed zeros
    # and the shortest repr of every float kept, and read back bit for bit
    cols = np.array([[complex(-0.0, 0.1), complex(1e-300, -0.0)],
                     [complex(0.1, -0.0), complex(-0.0, 1e-300)]])
    path = tmp_path / "frame.json"
    save_json(str(path), frame_to_dict(Frame(cols, Field.COMPLEX)))
    assert path.read_bytes() == (
        b'{\n  "dim": 2,\n  "field": "complex",\n  "vectors": [\n'
        b'    [\n      [\n        -0.0,\n        0.1\n      ],\n'
        b'      [\n        0.1,\n        -0.0\n      ]\n    ],\n'
        b'    [\n      [\n        1e-300,\n        -0.0\n      ],\n'
        b'      [\n        -0.0,\n        1e-300\n      ]\n    ]\n  ]\n}\n')
    back = load_frame(str(path)).vectors
    assert back.tobytes() == cols.tobytes()


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_frame_dict_roundtrip(field, rng):
    cols = rng.standard_normal((3, 5))
    if field is Field.COMPLEX:
        cols = cols + 1j * rng.standard_normal((3, 5))
    f = Frame(cols, field)
    d = frame_to_dict(f)
    assert d["field"] == field.value and d["dim"] == 3 and len(d["vectors"]) == 5
    g = frame_from_dict(d)
    assert g.field is field
    np.testing.assert_array_equal(g.vectors, f.vectors)


def test_frame_dict_validates_dim():
    with pytest.raises(ValueError):
        frame_from_dict({"field": "real", "dim": 3, "vectors": [[1.0, 0.0]]})


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_family_dict_roundtrip(field, rng):
    from conftest import random_projection_stack
    stack = random_projection_stack(rng, 3, [1, 2], field)
    p = ProjectionFamily.from_projections(stack, field)
    q = family_from_dict(family_to_dict(p))
    assert q.ranks == p.ranks and q.field is field
    np.testing.assert_allclose(q.projections, p.projections, atol=1e-15)


def test_pair_dict_roundtrip():
    u = np.array([1.0, 1j])
    v = np.array([1.0, -1j])
    d = pair_to_dict(u, v, Field.COMPLEX)
    u2, v2, field = pair_from_dict(d)
    assert field is Field.COMPLEX
    np.testing.assert_array_equal(u2, u)
    np.testing.assert_array_equal(v2, v)


def test_partition_dict_is_one_based():
    d = partition_to_dict(pr.PartitionWitness((0,), (1, 2), 1, 1))
    assert d["side_I"] == [1] and d["side_Ic"] == [2, 3]


def test_verdict_dict_shape():
    v = pr.decide_real_rank1(Frame(np.eye(2), Field.REAL))
    d = verdict_to_dict(v, Field.REAL)
    assert d["status"] == "certified-fails"
    assert d["method"] == "complement-property"
    assert d["witness"]["max_mismatch"] < 1e-12
    assert d["partition"]["side_I"] == [1]


def test_save_load_json_roundtrip(tmp_path):
    path = str(tmp_path / "frame.json")
    f = Frame(np.eye(2, dtype=complex) * (1 + 1j), Field.COMPLEX)
    save_json(path, frame_to_dict(f))
    g = frame_from_dict(load_json(path))
    np.testing.assert_array_equal(g.vectors, f.vectors)


def test_load_json_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"field": "real",, }')
    with pytest.raises(ValueError, match="line 1, column"):
        load_json(str(path))


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "frame.csv")
    f = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), Field.REAL)
    frame_to_csv(path, f)
    g = frame_from_csv(path)
    np.testing.assert_allclose(g.vectors, f.vectors)
    assert g.field is Field.REAL


def test_csv_rejects_complex(tmp_path):
    f = Frame(np.eye(2, dtype=complex), Field.COMPLEX)
    with pytest.raises(ValueError, match="real"):
        frame_to_csv(str(tmp_path / "x.csv"), f)


def test_load_frame_sniffs_format(tmp_path):
    f = Frame(np.eye(2), Field.REAL)
    csv_path = str(tmp_path / "f.csv")
    json_path = str(tmp_path / "f.json")
    frame_to_csv(csv_path, f)
    save_json(json_path, frame_to_dict(f))
    np.testing.assert_allclose(load_frame(csv_path).vectors, f.vectors)
    np.testing.assert_allclose(load_frame(json_path).vectors, f.vectors)


def test_load_family_accepts_frames_and_projections(tmp_path):
    f = Frame(np.array([[1.0, 0.0], [0.0, 1.0]]), Field.REAL)
    fp = str(tmp_path / "frame.json")
    save_json(fp, frame_to_dict(f))
    p = load_family(fp)
    assert p.ranks == (1, 1)
    pp = str(tmp_path / "family.json")
    save_json(pp, family_to_dict(p))
    q = load_family(pp)
    np.testing.assert_allclose(q.projections, p.projections, atol=1e-15)
