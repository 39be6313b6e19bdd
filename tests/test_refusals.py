"""Each library refusal that no other test reaches, with its exact message."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from dmdgp import (
    DmdgpInstance,
    branch_and_prune,
    demo7_instance,
    extract_internal,
)
from dmdgp.bitstrings import bits_to_int, int_to_bits
from dmdgp.cli import run_search
from dmdgp.geometry import Conformation, InternalCoords, b_matrix
from dmdgp.grover import Statevector, iteration_count, success_probability
from dmdgp.instance import (
    ValidationReport,
    Violation,
    clique_pairs,
    demo7_edges,
    generate_from_topology,
)
from dmdgp.metrics import total_variation
from dmdgp.oracle import marked_set, oracle_params


def _demo():
    inst, _ = demo7_instance()
    return inst, extract_internal(inst)


def _ic(bonds=(1.5, 1.5, 1.5), angles=(1.9, 1.9), cosines=(0.5,)):
    return InternalCoords(np.array(bonds), np.array(angles), np.array(cosines))


def _report(**changes):
    return dataclasses.replace(run_search(*_demo(), None, "nearest", 100, 0, 0.0), **changes)


def _marked_set_of_another_n():
    inst, internal = _demo()
    return marked_set(inst, internal, oracle_params(8))


REFUSALS = {
    "int-to-bits-too-wide": (lambda: int_to_bits(8, 3), "index 8 does not fit in 3 bits"),
    "bits-to-int-digit-2": (lambda: bits_to_int("012"), "not a binary string: '012'"),
    "bp-delta-0": (lambda: branch_and_prune(*_demo(), delta=0.0),
                   "delta must be positive, got 0.0"),
    "internal-two-bonds": (lambda: _ic(bonds=(1.5, 1.5), angles=(1.9,), cosines=()),
                           "need at least 4 vertices (3 bonds)"),
    "internal-lengths": (lambda: _ic(angles=(1.9,)),
                         "inconsistent lengths: 3 bonds, 1 angles, 1 torsion cosines"),
    "internal-bond-0": (lambda: _ic(bonds=(1.5, 0.0, 1.5)), "bond lengths must be positive"),
    "internal-angle-pi": (lambda: _ic(angles=(1.9, math.pi)),
                          "planar angles must lie strictly inside (0, pi)"),
    "internal-cosine-1.1": (lambda: _ic(cosines=(1.1,)),
                            "torsion cosine outside [-1, 1] beyond tolerance"),
    "conformation-2-columns": (lambda: Conformation(np.zeros((3, 2))),
                               "points must be an (n, 3) array"),
    "b-matrix-vertex-0": (lambda: b_matrix(0, _ic()), "vertex 0 out of range 1..4"),
    "b-matrix-sign-0": (lambda: b_matrix(5, _demo()[1], 0), "sign must be +1 or -1"),
    "extract-internal-no-clique": (
        lambda: extract_internal(DmdgpInstance(5, {(1, 2): 1.5})),
        "instance lacks a clique pair: validate it first"),
    "statevector-empty": (lambda: Statevector(np.array([])),
                          "amplitudes must be a non-empty 1-D array"),
    "iteration-mode-floor": (lambda: iteration_count(8, 1, "floor"),
                             "mode must be one of ('paper_floor', 'nearest'), got 'floor'"),
    "success-probability-iters--1": (lambda: success_probability(8, 1, -1),
                                     "iteration count must be nonnegative"),
    "validation-report-ok-with-violation": (
        lambda: ValidationReport(ok=True, violations=(Violation("rule", "message", (1,)),)),
        "ok must be true exactly when no violation is listed or counted"),
    "run-report-N": (lambda: _report(N=32), "search space size inconsistent with vertex count"),
    "run-report-marked": (lambda: _report(marked=np.arange(1)),
                          "plan marked count inconsistent with marked set"),
    "topology-self-loop": (lambda: generate_from_topology([*clique_pairs(5), (3, 3)], "00", 0),
                           "self-loop at vertex 3"),
    "topology-3-vertices": (lambda: generate_from_topology(clique_pairs(3), "", 0),
                            "topology must span at least 4 vertices"),
    # 30 points pairwise within the 6 A window: none of the 1000 draws fits
    "topology-unrealizable": (
        lambda: generate_from_topology(itertools.combinations(range(1, 31), 2), "0" * 27, 0),
        "could not realize the topology inside the distance window after 1000 draws"),
    "total-variation-2d": (lambda: total_variation(np.full((2, 2), 0.25), np.full(4, 0.25)),
                           "expected a non-empty 1-D probability vector"),
    "oracle-params-n3": (lambda: oracle_params(3), "vertex count must be >= 4, got 3"),
    "marked-set-params-n8": (_marked_set_of_another_n, "params built for n=8, instance has n=7"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_reversed_topology_pair_is_accepted():
    edges = [(v, u) if (u, v) == (1, 6) else (u, v) for u, v in demo7_edges()]
    inst, ground = generate_from_topology(edges, "0101", 1)
    demo, demo_ground = demo7_instance()
    assert dict(inst.edges) == dict(demo.edges)
    assert ground.bits == demo_ground.bits
    assert ground.conformation.points.tobytes() == demo_ground.conformation.points.tobytes()
