from fractions import Fraction
from typing import Callable

import pytest

from hopfsmith import GF, QQ, FieldSpec, dual_hopf, resolve_preset
from hopfsmith.integrals import ad_invariant_integral, separability_idempotent
from hopfsmith.presets import preset_sweedler
from hopfsmith.linalg import Certificate
from hopfsmith.smoothness import (check_chi_quotients, check_im_tau,
                                  find_complete_fs_retraction, find_complete_fs_section,
                                  find_fs_retraction, find_fs_section, fs_section_conditions,
                                  verify_fs_section)
from hopfsmith.yd import h_plus_yd

from conftest import F, checked_double


CYCLIC_CASES = [(n, ch) for n in range(1, 7) for ch in (0, 2, 3, 5)]


def _divides(ch, n):
    return ch != 0 and n % ch == 0


@pytest.mark.parametrize("n,ch", CYCLIC_CASES)
def test_cyclic_group_truth_table(n, ch, preset_cache):
    h = preset_cache(f"group:C{n}", ch)
    cert = find_fs_section(h)
    assert (cert is not None) == (not _divides(ch, n))
    if cert is not None:
        assert cert.verified == ["i", "ii"]


def test_trivial_hopf_sections():
    h = resolve_preset("group:C1", QQ)
    assert find_fs_section(h) is not None
    assert find_complete_fs_section(h) is not None
    assert find_fs_retraction(h) is not None
    assert find_complete_fs_retraction(h) is not None


def test_complete_fs_section_cases():
    c = find_complete_fs_section(resolve_preset("group:C2", QQ))
    assert c is not None and c.verified == ["i", "ii", "iii"]
    assert find_complete_fs_section(resolve_preset("group:C2", GF(2))) is None


def test_complete_certificate_passes_plain_checks():
    h = resolve_preset("group:C3", QQ)
    cert = find_complete_fs_section(h)
    assert cert is not None
    plain = verify_fs_section(h.field, cert.kind, cert.tensor,
                              fs_section_conditions(h, *h_plus_yd(h), False))
    assert plain == ["i", "ii"]


def test_separable_implies_fs_section(preset_cache):
    for spec, ch in [("group:C2", 0), ("group:C3", 2), ("group:S3", 5),
                     ("functions:C2", 0), ("group:C4", 3)]:
        h = preset_cache(spec, ch)
        if separability_idempotent(h) is not None:
            assert find_fs_section(h) is not None, (spec, ch)


def test_ad_invariant_collapses_plain_and_complete(preset_cache):
    # with an ad-invariant integral, plain and complete feasibility coincide
    for name in ("C1", "C2", "C3", "C4"):
        for ch in (0, 2, 3):
            h = preset_cache(f"group:{name}", ch)
            assert ad_invariant_integral(h) is not None
            plain = find_fs_section(h) is not None
            complete = find_complete_fs_section(h) is not None
            assert plain == complete, (name, ch)


def test_im_tau_containment_holds_for_solver_output(preset_cache):
    for n in (2, 3, 4):
        h = preset_cache(f"group:C{n}", 0)
        cert = find_fs_section(h)
        assert cert is not None and check_im_tau(h, cert)
    h4 = preset_cache("sweedler", 3)
    # Sweedler in char 3 is still not fs, nothing to check there; use K^C3
    hf = preset_cache("functions:C3", 0)
    cert = find_fs_section(hf)
    assert cert is not None and check_im_tau(hf, cert)


def test_im_tau_can_fail_without_condition_i():
    # hand-built map violating (i): send the single H^+ basis vector of KC2
    # to 1 (x) v, whose first leg has nonzero counit
    h = resolve_preset("group:C2", QQ)
    bad = {(0, 0, 0): F(1)}  # tau(v) = e0 (x) v
    cert = Certificate("fs_section", bad, (2, 1, 1), [])
    assert not check_im_tau(h, cert)
    # and indeed it fails (ii): e0·v = v but the certificate never checked
    conds = fs_section_conditions(h, *h_plus_yd(h), False)
    with pytest.raises(AssertionError, match="^fs_section fails"):
        verify_fs_section(h.field, cert.kind, bad, conds)


def test_formula_maps_are_complete_on_a_hopf_algebra_neither_commutative_nor_cocommutative():
    """D(S3) over F_5 (dimension 36) is semisimple with a semisimple dual, and
    neither commutative nor cocommutative: tau and chi written from its
    normalized integrals meet (i), (ii) and (iii), and no system in their
    44,100 entries is solved."""
    d, _ = checked_double(resolve_preset("group:S3", GF(5)))
    commuted = {(j, i, k): v for (i, j, k), v in d.alg.mult.items()}
    cocommuted = {(k, j, i): v for (k, i, j), v in d.coa.comult.items()}
    assert commuted != d.alg.mult and cocommuted != d.coa.comult
    for finder in (find_complete_fs_section, find_complete_fs_retraction):
        assert finder(d).verified == ["i", "ii", "iii"]


def test_zero_dimensional_hplus_is_vacuous():
    h = resolve_preset("group:C1", GF(5))
    cert = find_fs_section(h)
    assert cert is not None and check_im_tau(h, cert)


def test_fs_retraction_cases():
    assert find_fs_retraction(resolve_preset("functions:C2", QQ)) is not None
    assert find_fs_retraction(resolve_preset("functions:C2", GF(2))) is None
    assert find_fs_retraction(preset_sweedler(QQ)) is None
    r = find_fs_retraction(resolve_preset("functions:C3", QQ))
    assert r is not None and r.verified == ["i", "ii"]
    assert check_chi_quotients(resolve_preset("functions:C3", QQ), r)


def test_complete_fs_retraction_cases():
    r = find_complete_fs_retraction(resolve_preset("functions:C2", QQ))
    assert r is not None and r.verified == ["i", "ii", "iii"]
    assert find_complete_fs_retraction(resolve_preset("functions:C2", GF(2))) is None


@pytest.mark.parametrize("spec,ch", [
    ("group:C2", 0), ("group:C2", 2), ("group:C3", 3), ("group:C4", 2),
    ("functions:C2", 0), ("functions:C2", 2), ("functions:C3", 3),
    ("sweedler", 0), ("sweedler", 5),
])
def test_retraction_section_duality(spec, ch, preset_cache):
    h = preset_cache(spec, ch)
    r = find_fs_retraction(h)
    s = find_fs_section(dual_hopf(h))
    assert (r is None) == (s is None), (spec, ch)
    rc = find_complete_fs_retraction(h)
    sc = find_complete_fs_section(dual_hopf(h))
    assert (rc is None) == (sc is None), (spec, ch)


def test_monotonicity_complete_implies_plain(preset_cache):
    for spec, ch in [("group:C2", 0), ("group:C3", 0), ("group:C2", 2),
                     ("functions:C2", 0), ("sweedler", 0)]:
        h = preset_cache(spec, ch)
        if find_complete_fs_section(h) is not None:
            assert find_fs_section(h) is not None
        if find_complete_fs_retraction(h) is not None:
            assert find_fs_retraction(h) is not None


# ---------------------------------------------------------------------------
# The group algebra of the integers, checked on a finite window.  K[Z] is
# infinite-dimensional, so no query can build it: the check, with its own
# arithmetic of Laurent polynomials, lives with its tests, not in the package.
# ---------------------------------------------------------------------------

def _lmul(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            out[k] = out.get(k, Fraction(0)) + x * y
    return {k: v for k, v in out.items() if v}


def _lsub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) - v
    return {k: v for k, v in out.items() if v}


def _tensor_flatten(pairs: list) -> dict:
    out = {}
    for left, right in pairs:
        for i, x in left.items():
            for j, y in right.items():
                k = (i, j)
                out[k] = out.get(k, Fraction(0)) + x * y
    return {k: v for k, v in out.items() if v}


def _tensor_diff(a: list, b: list) -> bool:
    fa, fb = _tensor_flatten(a), _tensor_flatten(b)
    return any(fa.get(k, Fraction(0)) != fb.get(k, Fraction(0)) for k in set(fa) | set(fb))


def default_laurent_tau(n: int) -> list:
    """tau(g^n - g^{n+1}) = g^n (x) (1 - g), as a list of (left, right) pairs."""
    return [({n: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)})]


def laurent_fs_section_window_check(window: int,
                                    tau: Callable[[int], list] = default_laurent_tau) -> bool:
    """Verify (i), (ii) and cocommutative completeness for the integer group
    algebra on the basis g^n - g^{n+1}, |n| <= window, multipliers g^a,
    |a| <= window.  Exact on the window: all identities are degree shifts."""
    if window < 1:
        raise ValueError("window must be >= 1")

    def basis_elt(n):
        return {n: Fraction(1), n + 1: Fraction(-1)}

    # (ii): multiply-and-sum
    for n in range(-window, window + 1):
        acc = {}
        for left, right in tau(n):
            term = _lmul(left, right)
            for k, v in term.items():
                acc[k] = acc.get(k, Fraction(0)) + v
        if _lsub(acc, basis_elt(n)):
            return False

    # (i): tau(g^a (g^n - g^{n+1})) = (g^a (x) 1) tau(g^n - g^{n+1})
    for a in range(-window, window + 1):
        for n in range(-window, window + 1):
            lhs = tau(a + n)
            rhs = [(_lmul({a: Fraction(1)}, left), right) for left, right in tau(n)]
            if _tensor_diff(lhs, rhs):
                return False

    # (iii) on basis vectors; group-likes collapse the first leg, but the two
    # sides are computed from their own displays
    for n in range(-window, window + 1):
        lhs = {}
        for left, right in tau(n):
            for p, x in left.items():
                for q, y in right.items():
                    # a = g^p, b = g^q: a1 b1 S(a3 b3) (x) a2 (x) b2
                    key = ((p + q) - (p + q), p, q)
                    lhs[key] = lhs.get(key, Fraction(0)) + x * y
        rhs = {}
        # x_1 S(x_3) (x) tau(x_2) with Delta^2(g^k) = g^k (x) g^k (x) g^k
        collected = {}
        for k, v in basis_elt(n).items():
            second = collected.setdefault(k - k, {})
            second[k] = second.get(k, Fraction(0)) + v
        for first, second in collected.items():
            for base_n, lam in _hplus_basis_expand(second).items():
                for left, right in tau(base_n):
                    for p, x in left.items():
                        for q, y in right.items():
                            key = (first, p, q)
                            rhs[key] = rhs.get(key, Fraction(0)) + lam * x * y
        keys = set(lhs) | set(rhs)
        if any(lhs.get(k, Fraction(0)) != rhs.get(k, Fraction(0)) for k in keys):
            return False
    return True


def _hplus_basis_expand(v: dict) -> dict:
    """Coefficients of a zero-augmentation Laurent element over the basis
    (g^n - g^{n+1}), by telescoping partial sums."""
    v = {k: x for k, x in v.items() if x}
    if not v:
        return {}
    if sum(v.values()) != 0:
        raise ValueError("element is not in the augmentation ideal")
    lo, hi = min(v), max(v)
    out = {}
    running = Fraction(0)
    for k in range(lo, hi):
        running += v.get(k, Fraction(0))
        if running:
            out[k] = running
    return out


def test_laurent_window_default():
    assert laurent_fs_section_window_check(1)
    assert laurent_fs_section_window_check(8)


def test_laurent_window_rejects_corruption():
    def corrupted(n):
        return [({n: Fraction(1)}, {0: Fraction(1), 2: Fraction(-1)})]
    assert not laurent_fs_section_window_check(3, corrupted)

    def shifted(n):  # violates condition (i): image does not shift with n
        return [({0: Fraction(1)}, {n: Fraction(1), n + 1: Fraction(-1)})]
    assert not laurent_fs_section_window_check(2, shifted)


def test_laurent_window_validates_input():
    with pytest.raises(ValueError):
        laurent_fs_section_window_check(0)
