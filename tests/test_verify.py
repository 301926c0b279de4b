"""The self-verification sweeps themselves, at small scale."""

import pytest

from skewrook import cli, intervals, verify
from skewrook.boards import ones
from skewrook.qalgebra import ONE, Q, BiPoly, LaurentPoly
from skewrook.verify import SUITES, bjorner_ekedahl_violation, run_suite


def test_rank_inequality_helper():
    # palindromic unimodal-start polynomials pass
    assert bjorner_ekedahl_violation(LaurentPoly({0: 1, 1: 3, 2: 5, 3: 4, 4: 1})) is None
    assert bjorner_ekedahl_violation(LaurentPoly({0: 1})) is None
    # a gap in the low coefficients is caught
    assert bjorner_ekedahl_violation(LaurentPoly({0: 1, 2: 1})) == (0, 1)
    assert bjorner_ekedahl_violation(LaurentPoly({0: 2, 1: 1, 2: 2})) == (0, 1)


def test_run_suite_defaults_all_pass():
    results, warnings = run_suite("all")
    assert warnings == []
    assert results, "suites must produce checks"
    failing = [r for r in results if not r.passed]
    assert not failing, failing
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_run_suite_clamps_and_warns():
    results, warnings = run_suite("typeB", max_n=9)
    assert len(warnings) == 1
    assert "exceeds the documented limit 4; clamping" in warnings[0]
    assert all(r.passed for r in results)


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_single_suite_at_reduced_scale():
    results, warnings = run_suite("rook", max_n=2)
    assert warnings == []
    assert all(r.passed for r in results)
    assert {r.name for r in results} <= {r.name for r in SUITES["rook"](2)}


def test_typeB_hull_route_reports_odd_exponent(monkeypatch):
    # one term q^0 t^1 has an odd combined exponent
    odd = BiPoly({1: LaurentPoly({0: 1})})
    monkeypatch.setattr(intervals, "rb_polynomial", lambda board: odd)
    with pytest.raises(RuntimeError):
        intervals.poincare_B_via_rook(2)
    results = {r.name: r for r in SUITES["typeB"](2)}
    assert not results["typeB.hull-route"].passed
    assert "parity" in results["typeB.hull-route"].detail
    assert results["typeB.closed-form"].passed
    assert cli.main(["poincare", "--type", "B", "--n", "2", "--method", "rook"]) == 4


def _wrong_at(monkeypatch, name, point, wrong):
    """Patch verify's binding of `name` to return wrong(value) at `point`."""
    right = getattr(verify, name)

    def patched(*args):
        value = right(*args)
        return wrong(value) if args == point else value

    monkeypatch.setattr(verify, name, patched)


# (suite, scale, route, arguments of the one wrong call, how it is wrong,
#  the check that must fail, its witness)
FAILURES = [
    ("stirling", 3, "t_board_q_rook", (2, 1), lambda v: v + ONE,
     "stirling.staircase", (2, 1)),
    ("rook", 2, "gjw_product", (ones(2, 2), 2, 2), lambda v: v + 1,
     "rook.factored-rook-poly", (ones(2, 2).to_text(), 2)),
    # shifted by q: wrong as a polynomial, the same at q = 1 and in shape,
    # so the counts and the rank inequality downstream still pass
    ("intervals", 5, "theoremA_poincare", (4, 2), lambda v: v * Q,
     "intervals.closed-form-A", (4, 2)),
    ("typeB", 2, "sharp_rb", (ones(1, 1),), lambda v: BiPoly({}),
     "typeB.block-composition", ones(1, 1).to_text()),
]


@pytest.mark.parametrize("suite, scale, route, point, wrong, check, witness", FAILURES)
def test_wrong_route_fails_only_its_check(
    monkeypatch, suite, scale, route, point, wrong, check, witness
):
    clean = {r.name: r for r in SUITES[suite](scale)}
    _wrong_at(monkeypatch, route, point, wrong)
    results = list(SUITES[suite](scale))
    assert [r.name for r in results] == list(clean)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [check]
    assert failed[0].detail.endswith(f"; first failure {witness}")
    assert failed[0].detail.startswith(clean[check].detail)
    assert all(r == clean[r.name] for r in results if r.passed)


@pytest.mark.parametrize("scale", [0, -1])
def test_run_suite_rejects_scale_below_one(scale):
    for suite in ("all", "stirling"):
        with pytest.raises(ValueError, match=f"max_n must be at least 1, got {scale}"):
            run_suite(suite, max_n=scale)
