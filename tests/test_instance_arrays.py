"""The array instance layer against the per-edge reference in
`reference_instance`: parsing and the constructor fail with the same
message at the same first bad row, and otherwise give the same edges,
validation report, internal coordinates, symmetry set and edge arrays."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_instance as reference
from dmdgp import DmdgpInstance, ParseError, generate, parse_document, serialize_instance, validate
from dmdgp.bp import symmetry_set
from dmdgp.geometry import edge_arrays, extract_internal

#: Stands in for a weight and is replaced by the text 1e400 (a JSON number
#: that parses to inf) after the document is dumped.
_HUGE_MARKER = 7.25e300

_ENDPOINTS = (True, False, 1.0, "1", None, 0, -1, 10**30, -(10**30))
_WEIGHTS = (0, 0.0, -1.5, -0.0, float("nan"), _HUGE_MARKER, float("-inf"), 6.5, True, "1.0", None, 2)


@st.composite
def edge_rows(draw, shapes=True):
    """(n, rows) of a generated instance, shuffled, with a few mutations."""
    n = draw(st.integers(4, 14))
    inst, _ = generate(n, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.0, 1.0)))
    rows = [list(e) for e in inst.edge_list()]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        row = rows[r]
        kind = draw(st.sampled_from(
            ["swap", "self-loop", "repeat", "endpoint", "range", "weight", "drop",
             "triangle", "ceiling"]))
        if kind == "swap":
            row[0], row[1] = row[1], row[0]
        elif kind == "self-loop":
            row[1] = row[0]
        elif kind == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        elif kind == "endpoint":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from(_ENDPOINTS))
        elif kind == "range":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from((0, -3, n + 1, n + 7)))
        elif kind == "weight":
            row[2] = draw(st.sampled_from(_WEIGHTS))
        elif kind == "drop":
            del rows[r]
        elif kind == "triangle":
            # d(j, j+2) = d(j, j+1) + d(j+1, j+2) or |d(j, j+1) - d(j+1, j+2)|:
            # degenerate, not strict
            j = draw(st.integers(1, n - 2))
            w = {(a, b): d for a, b, d in inst.edge_list()}
            a, b = w[(j, j + 1)], w[(j + 1, j + 2)]
            for other in rows:
                if other[:2] == [j, j + 2]:
                    other[2] = draw(st.sampled_from((a + b, abs(a - b))))
        elif kind == "ceiling":
            row[2] = draw(st.floats(6.0, 40.0))
    if shapes and rows and draw(st.booleans()):
        r = draw(st.integers(0, len(rows) - 1))
        rows[r] = draw(st.sampled_from((rows[r][:2], rows[r] + [1.0], {"u": 1}, 3, "1 2 3", [])))
    return draw(st.sampled_from((n, n, n, n - 1, 3, -2))), rows


def _document(n, rows):
    return json.dumps({"n": n, "edges": rows}).replace(repr(_HUGE_MARKER), "1e400")


def _same_outcome(call, reference_call):
    """Both raise the same ValueError, or both return internal coordinates
    that agree bit for bit."""
    try:
        want = reference_call()
    except ValueError as exc:
        with pytest.raises(type(exc)) as raised:
            call()
        assert str(raised.value) == str(exc)
        return
    got = call()
    for name in ("bonds", "angles", "torsion_cosines"):
        _assert_same_arrays(getattr(got, name), getattr(want, name))


def _same_instance(inst, n, edges):
    assert inst.n == n
    assert list(inst.edges.items()) == list(edges.items())
    report = reference.validate(n, edges)
    assert validate(inst) == report
    # extract_internal reads every clique pair, and takes weights under the
    # ceiling, whose squares cannot overflow
    if not {"clique", "weight-ceiling"} & {v.rule for v in report.violations}:
        _same_outcome(lambda: extract_internal(inst), lambda: reference.extract_internal(n, edges))


@settings(max_examples=400, deadline=None)
@given(edge_rows())
@example((4, [[1, 10**30, 1.0], [1, 10**30, 1.0]]))
@example((4, [[1, 2, 1.0], [10**30, 10**30, 1.0]]))
@example((4, []))
@example((4, [[1, 2, 1.5], [1, 3, _HUGE_MARKER]]))
@example((4, [[1, 2, 2.0], [1, 3, 1.0], [1, 4, 2.0], [2, 3, 3.0], [2, 4, 2.0], [3, 4, 2.0]]))
def test_parse_matches_the_per_row_loop(case):
    text = _document(*case)
    try:
        n, edges = reference.parse_edges(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            parse_document(text)
        assert str(raised.value) == str(exc)
        return
    inst, _ = parse_document(text)
    _same_instance(inst, n, edges)


@settings(max_examples=300, deadline=None)
@given(edge_rows(shapes=False))
def test_constructor_matches_the_per_key_loop(case):
    n, rows = case
    # the reference takes a bool for an int; the constructor does not
    rows = [r for r in rows if bool not in map(type, r)
            and type(r[2]) in (int, float)]
    mapping = {}
    for u, v, d in rows:
        mapping[(u, v)] = d
    try:
        edges = reference.construct(n, mapping)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            DmdgpInstance(n, mapping)
        assert str(raised.value) == str(exc)
        return
    _same_instance(DmdgpInstance(n, mapping), n, edges)


def _assert_same_arrays(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.builds(generate, n=st.integers(4, 60), seed=st.integers(0, 2**32 - 1),
                 long_edge_prob=st.floats(0.0, 1.0)))
@example(generate(600, 2018, 0.5))
@example(generate(450, 7, 0.05))
def test_derived_arrays_are_the_references_bit_for_bit(generated):
    inst, gt = generated
    edges = dict(inst.edges)
    for parsed in (inst, parse_document(serialize_instance(inst, gt))[0]):
        _same_outcome(lambda: extract_internal(parsed),
                      lambda: reference.extract_internal(inst.n, edges))
        assert symmetry_set(parsed).vertices == reference.symmetry_set(inst.n, edges)
    for got, want in zip(edge_arrays(inst), reference.edge_arrays(edges)):
        _assert_same_arrays(got, want)
