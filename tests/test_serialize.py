import json

import numpy as np
import pytest

from specrad import Constant, FiniteMatrix, OperatorSet, shift_family
from specrad.errors import InputFormatError
from specrad.serialize import (
    digest,
    element_from_json,
    family_from_json,
    family_to_json,
    matrix_from_json,
    matrix_to_json,
    set_from_json,
    set_to_json,
)


def test_matrix_roundtrip():
    m = FiniteMatrix([[1.5, 0.0], [2.25, 3.0]])
    obj = matrix_to_json(m)
    assert obj == {"rows": 2, "cols": 2, "entries": [1.5, 0.0, 2.25, 3.0]}
    assert matrix_from_json(obj) == m


def test_matrix_json_is_the_per_entry_float_form_byte_for_byte():
    """``entries`` is ``ravel().tolist()``: the JSON is byte-equal to that of
    ``float`` taken entry by entry, on -0.0, a subnormal, 1e308 and a
    Fortran-ordered matrix."""
    a = np.array([[-0.0, 5e-324, 1e308], [0.1, 2.0 ** -1030, 3.0]])
    for m in (FiniteMatrix(a), FiniteMatrix(np.asfortranarray(a)), FiniteMatrix(a.T)):
        want = {"rows": m.rows, "cols": m.cols, "entries": [float(v) for v in m.a.ravel()]}
        got = matrix_to_json(m)
        assert json.dumps(got) == json.dumps(want)
        assert all(type(v) is float for v in got["entries"])
    assert json.dumps(matrix_to_json(FiniteMatrix(a))["entries"][:3]) == "[-0.0, 5e-324, 1e+308]"


def test_matrix_errors():
    with pytest.raises(InputFormatError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [1, 2, 3]})
    with pytest.raises(InputFormatError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [-1.0]})
    with pytest.raises(InputFormatError):
        matrix_from_json({"cols": 1, "entries": [1.0]})
    for bad in (1.5, True, "2", None):
        with pytest.raises(InputFormatError, match="JSON integer"):
            matrix_from_json({"rows": bad, "cols": 2, "entries": [1, 2]})
        with pytest.raises(InputFormatError, match="JSON integer"):
            matrix_from_json({"rows": 1, "cols": bad, "entries": [1, 2]})


@pytest.mark.parametrize("obj, kind", [
    (3, "number"), (2.5, "number"), (True, "boolean"), ("x", "string"),
    (None, "null"), ([1, 2], "array")])
def test_non_objects_name_the_expected_object_and_json_type(obj, kind):
    with pytest.raises(InputFormatError, match=f"^matrix object must be a JSON object, got {kind}$"):
        matrix_from_json(obj)
    with pytest.raises(InputFormatError, match=f"^family object must be a JSON object, got {kind}$"):
        family_from_json(obj)
    with pytest.raises(InputFormatError, match=(
            f"^set element must be a matrix object or a family object, got {kind}$")):
        element_from_json(obj)


def test_malformed_matrix_fields_are_typed():
    with pytest.raises(InputFormatError, match="missing 'entries'"):
        matrix_from_json({"rows": 1, "cols": 1})
    with pytest.raises(InputFormatError, match="entries must be a JSON array, got number"):
        matrix_from_json({"rows": 1, "cols": 1, "entries": 3})
    for bad, kind in (({}, "object"), ([1.0], "array"), ("1", "string"), ("x", "string"),
                      (True, "boolean"), (None, "null")):
        with pytest.raises(InputFormatError, match=f"entries must be JSON numbers, got {kind}$"):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [bad]})
    with pytest.raises(InputFormatError, match="band must be a JSON object, got number"):
        family_from_json({"bands": [3]})


def test_family_roundtrip():
    f = shift_family(Constant(0.7), offset=2, finite_rank=[[1.0, 2.0]])
    obj = family_to_json(f)
    assert obj["bands"][0]["offset"] == 2
    back = family_from_json(obj)
    assert np.allclose(back.truncate(6).a, f.truncate(6).a)
    rational = family_from_json({
        "diagonal": {"kind": "rational", "p": [1.0, 1.0], "q": [0.0, 1.0]}})
    assert rational.entry(2, 2) == pytest.approx(1.5)
    full = family_to_json(family_from_json({
        "bands": [{"offset": -1, "weights": {"kind": "constant", "c": 0.5}}],
        "diagonal": {"kind": "eventually_constant", "prefix": [2.0], "tail": 1.0},
        "finite_rank": {"rows": 1, "cols": 2, "entries": [1.0, 3.0]}}))
    assert set(full) == {"bands", "diagonal", "finite_rank"}
    assert family_to_json(family_from_json(full)) == full


def test_unknown_keys_are_refused():
    weights = {"kind": "constant", "c": 1.0}
    with pytest.raises(InputFormatError, match="^matrix object has unexpected key 'entrys'"):
        matrix_from_json({"rows": 2, "cols": 2, "entrys": [1, 1, 0, 1]})
    with pytest.raises(InputFormatError, match="^matrix object has unexpected key 'extra'"):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [1.0], "extra": 0})
    with pytest.raises(InputFormatError, match="^family object has unexpected key 'rows'"):
        family_from_json({"rows": 2, "cols": 2, "entrys": [1, 1, 0, 1]})
    with pytest.raises(InputFormatError, match="^family object has unexpected key 'diagnal'"):
        family_from_json({"bands": [{"offset": 0, "weights": weights}], "diagnal": weights})
    with pytest.raises(InputFormatError, match="^band has unexpected key 'offest'"):
        family_from_json({"bands": [{"offset": 1, "weights": weights, "offest": 2}]})
    with pytest.raises(InputFormatError, match="^matrix object has unexpected key 'entrys'"):
        family_from_json({"finite_rank": {"rows": 1, "cols": 1, "entrys": [1.0]}})
    with pytest.raises(InputFormatError, match="^constant weight sequence has unexpected key "
                                               "'cc'; expected keys: kind, c$"):
        family_from_json({"diagonal": {"kind": "constant", "c": 1.0, "cc": 3}})
    with pytest.raises(InputFormatError,
                       match="^eventually_constant weight sequence has unexpected key 'tial'"):
        family_from_json({"bands": [{"offset": 1, "weights": {
            "kind": "eventually_constant", "prefix": [1], "tial": 3}}]})


def test_family_errors():
    with pytest.raises(InputFormatError):
        family_from_json({"bands": [{"offset": 1}]})
    with pytest.raises(InputFormatError):
        family_from_json({"diagonal": {"kind": "nope"}})
    with pytest.raises(InputFormatError, match="unknown weight-sequence kind"):
        family_from_json({"diagonal": {"kind": ["constant"], "c": 1.0}})
    for seq, key in (({"kind": "constant"}, "c"),
                     ({"kind": "eventually_constant", "prefix": [1]}, "tail"),
                     ({"kind": "rational", "p": [1.0]}, "q"),
                     ({"kind": "prefix_with_limit", "limit": 1.0}, "prefix")):
        with pytest.raises(InputFormatError,
                           match=f"^{seq['kind']} weight sequence needs key '{key}'$"):
            family_from_json({"diagonal": seq})
    for seq, key, message in (
            ({"kind": "constant", "c": "1.5"}, "c", "a JSON number, got string"),
            ({"kind": "constant", "c": True}, "c", "a JSON number, got boolean"),
            ({"kind": "constant", "c": [1]}, "c", "a JSON number, got array"),
            ({"kind": "eventually_constant", "prefix": [1], "tail": None}, "tail",
             "a JSON number, got null"),
            ({"kind": "prefix_with_limit", "prefix": [1], "limit": {}}, "limit",
             "a JSON number, got object"),
            ({"kind": "eventually_constant", "prefix": 1, "tail": 1}, "prefix",
             "a JSON array, got number"),
            ({"kind": "prefix_with_limit", "prefix": [1, "2"], "limit": 1}, "prefix",
             "JSON numbers, got string"),
            ({"kind": "rational", "p": 3, "q": [1.0]}, "p", "a JSON array, got number"),
            ({"kind": "rational", "p": [1.0], "q": [False]}, "q", "JSON numbers, got boolean")):
        with pytest.raises(InputFormatError,
                           match=f"^{seq['kind']} weight sequence key '{key}' must be {message}$"):
            family_from_json({"diagonal": seq})
    with pytest.raises(InputFormatError):
        family_from_json([1, 2, 3])
    for bad, kind in ((3, "number"), ({}, "object"), ("x", "string"), (None, "null")):
        with pytest.raises(InputFormatError,
                           match=f"^family bands must be a JSON array, got {kind}$"):
            family_from_json({"bands": bad})
    weights = {"kind": "constant", "c": 0.5}
    for bad in (1.5, True, "2", None):
        with pytest.raises(InputFormatError, match="JSON integer"):
            family_from_json({"bands": [{"offset": bad, "weights": weights}]})
    assert tuple(family_from_json({"bands": [{"offset": -2, "weights": weights}]}).bands) == (-2,)


def test_repeated_band_offset_is_refused():
    """Two bands at one offset are an input error, not the last band alone."""
    bands = [{"offset": 1, "weights": {"kind": "constant", "c": 1.0}},
             {"offset": -1, "weights": {"kind": "constant", "c": 3.0}},
             {"offset": 1, "weights": {"kind": "constant", "c": 2.0}}]
    with pytest.raises(InputFormatError, match="^family has two bands at offset 1$"):
        family_from_json({"bands": bands})
    assert tuple(family_from_json({"bands": bands[:2]}).bands) == (-1, 1)


def test_set_roundtrip_and_digest():
    s = OperatorSet([FiniteMatrix([[1, 2], [3, 4]]), FiniteMatrix([[0, 1], [1, 0]])])
    obj = set_to_json(s)
    back = set_from_json(obj)
    assert len(back) == 2 and back[0] == s[0]
    assert digest(obj) == digest(set_to_json(s))
    with pytest.raises(InputFormatError):
        set_from_json([])
