import json

import numpy as np
import pytest

from eigenlogic import ClassificationError, DiagObservable, binary_catalog, born_mean
from eigenlogic import verify
from eigenlogic.cli import main
from eigenlogic.fuzzy import product_state, qubit_from_probability

VERIFY_ALL_STDOUT = """\
seed: 1729
table1: algebraic formulas vs synthesized tables (projective)  16/16 pass
table1: isometric formulas vs convention map of projective     16/16 pass
minmax: closed-form polynomial vs maps                         18/18 pass
minmax: interpolation route vs maps                            18/18 pass
minmax: numerical min/max oracle vs maps                       18/18 pass
minmax: binary reduction equals AND/OR                         8/8 pass
minmax: sign-inversion symmetry                                9/9 pass
fuzzy: mean of first dictator equals p                         200/200 pass
fuzzy: mean of second dictator equals q                        200/200 pass
fuzzy: conjunction mean equals p*q                             200/200 pass
fuzzy: disjunction mean equals p+q-p*q                         200/200 pass
fuzzy: exclusive-or mean equals p+q-2*p*q                      200/200 pass
fuzzy: complement mean equals 1-mean                           200/200 pass
bound: projective means within [0, 1]                          16000/16000 pass
oracle: generator enumerates 16 and 27 tables                  2/2 pass
oracle: synthesize/read_table round trips                      527/527 pass
oracle: compiled formulas match classical evaluation           500/500 pass
verify all: PASS (18332 checks)
"""


def test_verify_all_golden_output(capsys):
    assert main(["verify", "all"]) == 0
    assert capsys.readouterr().out == VERIFY_ALL_STDOUT


def test_one_entry_off_fails_its_check_and_exits_1(monkeypatch, capsys):
    real = verify.minmax_interpolation_route

    def one_min_entry_off(name):
        observable = real(name)
        if name != "MIN":
            return observable
        eigenvalues = observable.eigenvalues.copy()
        eigenvalues[4] += 1e-9
        return DiagObservable(observable.arities, eigenvalues)

    monkeypatch.setattr(verify, "minmax_interpolation_route", one_min_entry_off)
    assert main(["verify", "minmax"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "minmax: interpolation route vs maps       17/18 FAIL"
    assert lines[-1] == "verify minmax: FAIL (71 checks)"

    assert main(["verify", "minmax", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert [(s["name"], s["passed"], s["total"]) for s in report["suites"]] == [
        ("minmax", 70, 71)
    ]


def _capture_born_means(monkeypatch):
    """Record every (states, observables) pair the suites pass to born_means."""
    calls = []
    real = verify.born_means

    def recording(states, observables):
        calls.append((list(states), list(observables)))
        return real(states, observables)

    monkeypatch.setattr(verify, "born_means", recording)
    return calls


def _same_states(a, b) -> bool:
    return len(a) == len(b) and all(
        s.arities == t.arities and np.array_equal(s.amplitudes, t.amplitudes)
        for s, t in zip(a, b)
    )


def test_suite_bound_draws_states_in_the_scalar_loop_order(monkeypatch):
    calls = _capture_born_means(monkeypatch)
    verify.suite_bound(samples=40, seed=7)
    rng = np.random.default_rng(7)
    expected = [verify._random_state(rng, (2, 2) if k < 20 else (2, 2, 2)) for k in range(40)]
    assert [len(states) for states, _ in calls] == [20, 20]
    assert _same_states(calls[0][0] + calls[1][0], expected)
    assert [len(obs) for _, obs in calls] == [16, 16]


def test_suite_bound_counts_match_scalar_bound_checks():
    result = verify.suite_bound(samples=10, seed=3)
    assert [(r.passed, r.total) for r in result] == [(160, 160)]


def test_suite_bound_rejects_a_non_projector(monkeypatch):
    catalog = dict(binary_catalog("projective"))
    catalog["AND"] = DiagObservable((2, 2), [0.0, 0.0, 0.0, 2.0])
    monkeypatch.setattr(verify, "binary_catalog", lambda convention: catalog)
    with pytest.raises(ClassificationError):
        verify.suite_bound(samples=4)


def test_suite_fuzzy_draws_states_in_the_scalar_loop_order(monkeypatch):
    calls = _capture_born_means(monkeypatch)
    verify.suite_fuzzy(samples=25, seed=11)
    rng = np.random.default_rng(11)
    expected = []
    for _ in range(25):
        p, q = rng.uniform(0.0, 1.0, size=2)
        phase_p, phase_q = rng.uniform(0.0, 2.0 * np.pi, size=2)
        expected.append(
            product_state([qubit_from_probability(p, phase_p), qubit_from_probability(q, phase_q)])
        )
    (states, observables), = calls
    assert _same_states(states, expected)
    catalog = binary_catalog("projective")
    assert all(a == b for a, b in zip(observables, catalog.values()))
    means = verify.born_means(states, observables)
    scalar = [[born_mean(s, f) for f in observables] for s in states]
    assert np.max(np.abs(means - np.array(scalar))) <= 1e-12


def test_run_timed_reports_each_suite():
    reports = verify.run_timed("minmax")
    assert [r.name for r in reports] == ["minmax"]
    (report,) = reports
    assert (report.passed, report.total, report.ok) == (71, 71, True)
    assert report.seconds >= 0.0
    assert verify.run_suite("minmax") == report.results


def test_run_timed_unknown_suite():
    with pytest.raises(KeyError):
        verify.run_timed("bogus")
