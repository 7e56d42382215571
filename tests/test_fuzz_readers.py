"""Malformed documents through the CLI: every one maps to a documented exit code.

Documents are valid seeds from ``data/`` with one field replaced, dropped,
made ragged or nested deeper, or are arbitrary JSON. Whatever the input,
``cli.main`` must return 0, 2, 3, 4 or 5 and never raise. The hex register
reader, which no subcommand reads from a file, is fuzzed directly.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiprover.cli import main
from multiprover.encoding import description_from_hex

DATA = Path(__file__).resolve().parents[1] / "data"
EXIT_CODES = {0, 2, 3, 4, 5}

# Small workloads, so that a document that stays valid still runs fast.
COMMANDS = {
    "operator": ["optimize", "--restarts", "2", "--max-dim", "16"],
    "oracle": ["oracle", "--samples", "50", "--max-dim", "16"],
    "state": ["encode", "--bits", "6", "--plan", "--max-dim", "64"],
    "separable": ["parrep", "--max-dim", "16"],
    "protocol": ["bellqma", "--trials", "2", "--k", "40", "--q", "2", "--p", "2", "--alpha", "8"],
}
SEEDS = {
    "operator": "entangled_accept.json",
    "oracle": "entangled_accept.json",
    "state": "plus_state.json",
    "separable": "classical_corr.json",
    "protocol": "protocol_m2r2.json",
}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.sampled_from([0, 1, 2, 4, 2 ** 31, 10 ** 20, -(10 ** 20)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "2", "accept_all", "table", "dims"]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["dims", "re", "im", "terms", "kind", "table", "n"]), inner, max_size=3),
    ),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    """Every (container, key) location in a JSON document."""
    out = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_paths(value, prefix + (key,)))
    return out


def _at(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


@st.composite
def mutated(draw, kind):
    doc = json.loads((DATA / SEEDS[kind]).read_text())
    for _ in range(draw(st.integers(1, 3))):
        paths = _paths(doc)
        if not paths:
            break
        parent, key = _at(doc, draw(st.sampled_from(paths)))
        how = draw(st.sampled_from(["replace", "drop", "ragged", "nest", "wrap"]))
        if how == "replace":
            parent[key] = draw(json_values)
        elif how == "drop":
            if isinstance(parent, dict):
                del parent[key]
            else:
                parent.pop(key)
        elif how == "ragged":
            if isinstance(parent[key], list):
                parent[key] = parent[key] + [draw(json_values)]
            else:
                parent[key] = [parent[key], [parent[key]]]
        elif how == "nest":
            parent[key] = [parent[key]] * draw(st.integers(1, 3))
        else:
            depth = draw(st.integers(1, 40))
            parent[key] = json.loads("[" * depth + json.dumps(parent[key]) + "]" * depth)
    return doc


def _run(tmp_path, kind, doc):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))  # NaN/Infinity tokens are kept
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([COMMANDS[kind][0], str(path), *COMMANDS[kind][1:], "--no-meta"])
    assert code in EXIT_CODES, err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: "), err.getvalue()


FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(st.data())
def test_mutated_operator_documents(tmp_path, data):
    kind = data.draw(st.sampled_from(["operator", "oracle"]))
    _run(tmp_path, kind, data.draw(mutated(kind)))


@FUZZ
@given(doc=mutated("state"))
def test_mutated_state_documents(tmp_path, doc):
    _run(tmp_path, "state", doc)


@FUZZ
@given(doc=mutated("separable"))
def test_mutated_separable_documents(tmp_path, doc):
    _run(tmp_path, "separable", doc)


@FUZZ
@given(doc=mutated("protocol"))
def test_mutated_protocol_documents(tmp_path, doc):
    _run(tmp_path, "protocol", doc)


@FUZZ
@given(kind=st.sampled_from(sorted(COMMANDS)), doc=json_values)
def test_arbitrary_json_documents(tmp_path, kind, doc):
    _run(tmp_path, kind, doc)


@FUZZ
@given(
    dimension=st.integers(-2, 6),
    bits=st.integers(-2, 70),
    text=st.one_of(st.text(max_size=40), st.binary(max_size=24).map(bytes.hex)),
)
def test_hex_register_reader_raises_only_value_error(dimension, bits, text):
    try:
        desc = description_from_hex(dimension, bits, text)
    except ValueError:
        return
    assert (desc.dimension, desc.precision_bits) == (dimension, bits)
