"""Acceptance battery: one test per release criterion, at pinned tolerances.

Criteria 1-10 run the shared verification checks at their full default
sizes; criterion 11 drives the real CLI three times (worker counts 1 and 4)
and byte-compares the written artifacts.  Each test prints a one-line
verdict so `pytest -s` reads as a checklist.
"""
import functools
import json

from entgrover import cli
from entgrover.checks import (
    CheckResult,
    VerifyConfig,
    build_corpus,
    check_closed_form_fidelity,
    check_counting_window,
    check_degenerate_cases,
    check_estimator_bound,
    check_grover_reduction,
    check_p_max_claim,
    check_probability_law,
    check_recurrence_consistency,
    check_sufficient_averages,
    check_variance_conservation,
)

FULL = VerifyConfig()


@functools.cache
def full_corpus():
    """The corpus built once and shared by criteria 1-4, as in ``run_checks``."""
    return build_corpus(FULL)


def report(criterion: str, result: CheckResult) -> None:
    verdict = "PASS" if result.passed else "FAIL"
    line = (
        f"[acceptance] {criterion}: {verdict} "
        f"(max_dev={result.max_deviation:.3e}, tol={result.tolerance:.1e}"
    )
    if result.detail:
        line += f"; {result.detail}"
    print(line + ")")
    assert result.passed, f"{criterion}: deviation {result.max_deviation} vs {result.tolerance}"


def test_criterion_01_closed_form_fidelity():
    report("1 closed-form fidelity", check_closed_form_fidelity(FULL, full_corpus()))


def test_criterion_02_recurrence_consistency():
    report("2 recurrence consistency", check_recurrence_consistency(FULL, full_corpus()))


def test_criterion_03_variance_conservation():
    report("3 variance conservation", check_variance_conservation(FULL, full_corpus()))


def test_criterion_04_probability_law_with_negative_control():
    result = check_probability_law(FULL, full_corpus())
    assert "control" in result.detail
    report("4 probability law (+ N-scaled negative control)", result)


def test_criterion_05_grover_reduction():
    report("5 uniform-state reduction", check_grover_reduction(FULL))


def test_criterion_06_degenerate_cases():
    report("6 degenerate cases", check_degenerate_cases(FULL))


def test_criterion_07_p_max_claim():
    report("7 peak probability vs bad-sector variance", check_p_max_claim(FULL))


def test_criterion_08_counting_window():
    report("8 counting window + kernel-sum bounds", check_counting_window(FULL))


def test_criterion_09_sufficient_averages():
    report("9 sufficient-averages condition", check_sufficient_averages(FULL))


def test_criterion_10_estimator_bound():
    report("10 estimator bound + majority rule", check_estimator_bound(FULL))


def test_criterion_11_verify_determinism(tmp_path):
    cfg_path = tmp_path / "verify.json"
    cfg_path.write_text(json.dumps({"kind": "verify"}))
    blobs = []
    for i, workers in enumerate((1, 1, 4)):
        out = tmp_path / f"report_{i}.json"
        code = cli.main(
            ["verify", "--config", str(cfg_path), "--out", str(out), "--workers", str(workers)]
        )
        assert code == 0, f"verify run {i} (workers={workers}) failed"
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    verdict = "PASS" if identical else "FAIL"
    print(f"[acceptance] 11 determinism: {verdict} (3 runs, workers 1/1/4, byte-compared)")
    assert identical
    obj = json.loads(blobs[0])
    assert obj["passed"] is True
    assert all(c["passed"] for c in obj["criteria"])
