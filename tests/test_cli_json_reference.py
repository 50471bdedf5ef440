"""The CLI's one-walk JSON writer against the encoding it replaced.

``cli._json_text`` writes each JSON data and meta file in one recursive
walk.  The reference here is the encoding as it was: ``reference_jsonable``
made keys str, numpy scalars Python numbers and non-finite floats their
repr, and ``json.dumps(..., indent=2, sort_keys=True)`` wrote the result.
The texts must be equal, and what json refused must still raise
TypeError.  Every scenario's written data and meta files are compared
with the reference encoding of the rows and meta ``_emit`` was given.
"""
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import cli


def reference_jsonable(obj):
    """Recursively convert to strict-JSON values (no bare inf/nan)."""
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def reference_text(obj):
    return json.dumps(reference_jsonable(obj), indent=2, sort_keys=True)


SPECIAL_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]

leaves = st.one_of(
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.text(),
    st.text(alphabet="é∂\U0001d4b3\"\\\n\t\x00"),
)
keys = st.one_of(st.text(), st.integers(), st.booleans())
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(x=values)
def test_the_walk_writes_what_json_dumps_wrote(x):
    assert cli._json_text(x) == reference_text(x)


@pytest.mark.parametrize("x", [{}, [], (), "", {"": []}, [[], {}], {1: "a", "1": "b"}])
def test_empty_containers_and_keys_that_meet_as_str(x):
    assert cli._json_text(x) == reference_text(x)


@pytest.mark.parametrize(
    "bad", [np.bool_(True), object(), np.longdouble(1.0), {1.5}, b"bytes"], ids=repr
)
def test_what_json_refused_still_raises_type_error(bad):
    with pytest.raises(TypeError):
        reference_text({"a": [bad]})
    with pytest.raises(TypeError, match="is not JSON serializable"):
        cli._json_text({"a": [bad]})


SCENARIOS = [[name] for name in cli._SCENARIOS if name != "oracle-check"]
# oracle-check at its defaults runs for seconds; a small run writes the
# same shape of rows (a bool column among them) and meta
SCENARIOS.append(["oracle-check", "--count", "5", "--envelopes", "1", "--h", "0.01"])
FAMILY_SCENARIOS = ["condition", "truncate-analyze", "weak-converge", "maximality", "membership"]
FAMILIES = [
    ["--family", "log"],
    ["--family", "maxconst"],
    ["--family", "powertail"],
    ["--family", "linearcap"],
    ["--family", "random", "--seed", "3"],
]
CONFIGS = SCENARIOS + [[s, *f] for s in FAMILY_SCENARIOS for f in FAMILIES]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", CONFIGS, ids=" ".join)
def test_scenario_files_hold_the_reference_encoding(tmp_path, monkeypatch, capsys, fmt, argv):
    given_to_emit = []
    emit = cli._emit

    def spy(outdir, scenario, fmt, columns, rows, meta):
        given_to_emit.append((columns, rows, meta))
        return emit(outdir, scenario, fmt, columns, rows, meta)

    monkeypatch.setattr(cli, "_emit", spy)
    assert cli.main(["--output-dir", str(tmp_path), "--format", fmt, *argv]) == 0
    (columns, rows, meta), = given_to_emit
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([cli._cell(v) for v in r])
        data = buf.getvalue()
    else:
        payload = {"columns": list(columns), "rows": reference_jsonable([list(r) for r in rows])}
        data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / f"{argv[0]}.{fmt}").read_bytes() == data.encode()
    assert (tmp_path / f"{argv[0]}.meta.json").read_bytes() == (
        reference_text(meta) + "\n"
    ).encode()
