"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS line with its measured figures so a run of
`pytest tests/test_acceptance.py -s` doubles as a checklist.
"""

import math
import time

import numpy as np
import pytest

from dmdgp import (
    branch_and_prune,
    data_file,
    demo7_edges,
    expand_symmetry,
    extract_internal,
    generate,
    generate_from_topology,
    grover_distribution,
    grover_state,
    int_to_bits,
    iteration_count,
    marked_set,
    oracle_params,
    oracle_value,
    penalty,
    random_internal_coords,
    sample,
    selectivity,
    symmetry_set,
    total_variation,
    validate,
)
from dmdgp.cli import load_distribution_csv
from dmdgp.grover import evolve, uniform_state
from reference_geometry import realize

LONG_EDGE_PROBS = (0.0, 0.3, 0.7, 1.0)


def instance_grid():
    """108 seeded instances covering n = 4..12 and all edge densities."""
    grid = []
    for n in range(4, 13):
        for seed in range(12):
            grid.append((n, seed, LONG_EDGE_PROBS[seed % len(LONG_EDGE_PROBS)]))
    return grid


@pytest.fixture(scope="module")
def generated_instances():
    return [(n, seed, p, *generate(n, seed, p)) for n, seed, p in instance_grid()]


def test_criterion_1_grover_closed_form_reproduction():
    exact_one = 25 / 32
    exact_two = 121 / 128
    for iters, exact, device_refs in [
        (1, exact_one, (0.783, 0.785)),
        (2, exact_two, (0.941, 0.943)),
    ]:
        dist = grover_distribution(8, {2}, iters)
        statevector_p = float(dist.probabilities[2])
        assert abs(statevector_p - exact) < 1e-9
        counts = sample(dist, 8196, seed=42)
        empirical = counts.counts[2] / 8196
        for ref in device_refs:
            assert abs(exact - ref) <= 0.02
            assert abs(empirical - ref) <= 0.02
    print(
        f"\nPASS criterion 1: N=8 M=1 success probability "
        f"{exact_one} after 1 call and {exact_two} after 2 "
        f"(statevector within 1e-9; reference values within 0.02 at 8196 shots)"
    )


def test_criterion_2_iteration_formula():
    plan = iteration_count(8, 1)
    arccos_form = math.acos(1 / math.sqrt(8)) / math.acos(6 / 8)
    assert abs(plan.k_raw - arccos_form) < 1e-9
    assert abs(plan.k_raw - 1.6734) < 1e-3

    plan_large = iteration_count(1024, 1)
    limit_gap = abs(plan_large.k_raw / math.sqrt(1024) - math.pi / 4)
    assert limit_gap <= 0.06
    print(
        f"\nPASS criterion 2: k_raw(8)={plan.k_raw:.9f} matches the arccos "
        f"form; |k_raw/sqrt(N) - pi/4| = {limit_gap:.4f} <= 0.06 at N=1024"
    )


def test_criterion_3_oracle_property_suite(generated_instances):
    start = time.monotonic()
    assert len(generated_instances) >= 100
    margin = math.inf
    for n, seed, p, inst, ground in generated_instances:
        internal = extract_internal(inst)
        params = oracle_params(n)
        width = n - 3
        marked = []
        for k in range(1 << width):
            g = penalty(realize(internal, int_to_bits(k, width)), inst)
            norm = g / params.p1
            # (a) normalization bound
            assert 0.0 <= norm <= 1.0, (n, seed, p, k, norm)
            # (b) threshold dichotomy at 1 - epsilon
            value = oracle_value(params, g)
            margin = min(margin, abs(value + params.epsilon - 1.0))
            if g < params.delta:
                assert value < 1.0 - params.epsilon, (n, seed, p, k, value)
                marked.append(k)
            else:
                assert 1.0 - params.epsilon - 1e-12 <= value <= 1.0 + 1e-12, (
                    n, seed, p, k, value,
                )
        # (c) oracle enumeration agrees with branch-and-prune
        scanned = marked_set(inst, internal, params)
        assert list(scanned) == marked
        bp_solutions = branch_and_prune(inst, internal)
        assert bp_solutions.index.tolist() == marked, (n, seed, p)
        # (d) cardinality prediction
        assert len(marked) == symmetry_set(inst).expansion_size, (n, seed, p)
        # (e) complement closure
        marked_as_set, top = set(marked), (1 << width) - 1
        for k in marked:
            assert k ^ top in marked_as_set
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 3: {len(generated_instances)} instances (n=4..12), "
        f"exhaustive scans confirm bound, dichotomy, BP agreement, 2^|S| "
        f"cardinality, complement closure in {elapsed:.1f}s; smallest floor "
        f"margin |(g/p1)^(1/p2) + eps - 1| = {margin:.3f}"
    )


def test_criterion_4_demo_topology_reproduction():
    inst, ground = generate_from_topology(demo7_edges(), "0101", seed=1)
    assert validate(inst).ok
    sym = symmetry_set(inst)
    assert sym.vertices == (4, 7)
    solutions = branch_and_prune(inst, extract_internal(inst))
    words = [int_to_bits(k, 4) for k in solutions.index.tolist()]
    assert words == ["0100", "0101", "1010", "1011"]
    assert expand_symmetry("0101", sym) == set(words)
    print(
        "\nPASS criterion 4: 7-vertex demo topology gives S={4,7}, solution "
        "set {0100,0101,1010,1011}, and symmetry expansion of 0101 equals it"
    )


def test_criterion_5_metrics_on_published_data():
    device = load_distribution_csv(
        data_file("santiago_std_1call.csv").read_text(encoding="utf-8")
    )
    simulator = load_distribution_csv(
        data_file("simulator_std_1call.csv").read_text(encoding="utf-8")
    )
    fidelity = 1.0 - total_variation(device, simulator)
    assert abs(fidelity - 0.856) <= 0.001
    sel = selectivity(device, {2})
    assert abs(sel - 9.2) <= 0.1
    print(
        f"\nPASS criterion 5: bundled device vs simulator columns give "
        f"fidelity 1-d = {fidelity:.3f} (0.856 +/- 0.001) and selectivity "
        f"{sel:.2f} (9.2 +/- 0.1)"
    )


def test_criterion_6_geometry_round_trip(generated_instances):
    start = time.monotonic()
    for n, seed, p, inst, ground in generated_instances:
        drawn, drawn_bits = random_internal_coords(n, seed)
        extracted = extract_internal(inst)
        assert np.allclose(extracted.bonds, drawn.bonds, atol=1e-9)
        assert np.allclose(extracted.angles, drawn.angles, atol=1e-9)
        assert np.allclose(
            extracted.torsion_cosines, drawn.torsion_cosines, atol=1e-9
        )
        assert ground.bits == drawn_bits
        g_truth = penalty(realize(extracted, ground.bits), inst)
        assert g_truth < 1e-10
        mirror = int_to_bits(int(ground.bits, 2) ^ (1 << (n - 3)) - 1, n - 3)
        g_mirror = penalty(realize(extracted, mirror), inst)
        assert abs(g_truth - g_mirror) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"\nPASS criterion 6: internal coordinates recovered within 1e-9, "
        f"ground-truth penalty < 1e-10, reflection penalties equal within "
        f"1e-9 on {len(generated_instances)} instances in {elapsed:.1f}s"
    )


def test_criterion_7_statevector_health():
    checked = 0
    for exponent in (2, 4, 8, 11, 14):
        N = 1 << exponent
        m_values = sorted({1, 2, N // 4, N // 2, N - 1} - {0})
        for M in m_values:
            if not 1 <= M < N:
                continue
            rng = np.random.default_rng(N * 1000 + M)
            marked = np.sort(rng.choice(N, size=M, replace=False))
            theta = math.asin(math.sqrt(M / N))
            k_max = int(3 * math.sqrt(N))
            state = uniform_state(N)
            for k in range(1, k_max + 1):
                state = evolve(state, marked)
                assert abs(state.norm() - 1.0) <= 1e-12
                probs = np.abs(state.amplitudes) ** 2
                marked_mass = float(probs[marked].sum())
                expected = math.sin((2 * k + 1) * theta) ** 2
                assert abs(marked_mass - expected) < 1e-9, (N, M, k)
                checked += 1
    print(
        f"\nPASS criterion 7: unit norm within 1e-12 and closed-form marked "
        f"probability within 1e-9 over {checked} (N, M, k) statevector checks "
        f"up to N=2^14"
    )
