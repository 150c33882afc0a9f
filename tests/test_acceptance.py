"""Acceptance gate: every core guarantee at its stated tolerance.

Each test delegates to the corresponding named check in fedqr.verify (the
same code the ``fedqr verify`` CLI runs) and prints its one-line measurement,
so `pytest -s tests/test_acceptance.py` doubles as a readable report.
"""

import pytest

from fedqr import verify


def _run(check):
    result = check()
    print(result.line())
    assert result.passed, result.detail


def test_01_exact_heterogeneous_aggregation():
    _run(verify.check_exact_reconstruction)


def test_02_truncation_identity():
    _run(verify.check_truncation_identity)


def test_03_factor_averaging_bias_witness():
    _run(verify.check_bias_witness)


def test_04_subspace_preservation():
    _run(verify.check_subspace_preservation)


def test_05_gradient_correctness():
    _run(verify.check_gradient_correctness)


def test_06_first_round_equivalence():
    _run(verify.check_first_round_equivalence)


def test_07_cross_method_equivalence():
    _run(verify.check_cross_method_equivalence)


def test_08_drift_mitigation():
    _run(verify.check_drift_mitigation)


def test_09_convergence_iid():
    _run(verify.check_convergence_iid)


def test_10_communication_accounting():
    _run(verify.check_communication_accounting)


def test_11_split_products(started_threads):
    _run(verify.check_split_products)
    # one helper per cut product: the stack product, qr_compress's projection
    # and residual, base + g*B*A, the hidden map and the frozen logits. A call
    # that stopped going through linalg.product_into would keep its bits and
    # start none
    assert len(started_threads) == 6


def test_verify_suites_cover_all_checks():
    names = {check.__name__ for check in verify.SUITES["all"]}
    assert names == {
        "check_exact_reconstruction",
        "check_truncation_identity",
        "check_split_products",
        "check_bias_witness",
        "check_subspace_preservation",
        "check_gradient_correctness",
        "check_first_round_equivalence",
        "check_cross_method_equivalence",
        "check_drift_mitigation",
        "check_convergence_iid",
        "check_communication_accounting",
    }


def test_unknown_suite_is_typed_error():
    with pytest.raises(verify.UnknownSuiteError):
        verify.run_verify("bogus")
