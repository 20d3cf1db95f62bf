"""The sparse contraction kernel against brute-force index loops."""

import re
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hopfsmith import FieldSpec
from hopfsmith.linalg import AffineSystem, SparseMat, contract, in_coordinates, sparse

from test_loop_oracles import dense, old_unknowns

FIELDS = [FieldSpec(0), FieldSpec(2), FieldSpec(3), FieldSpec(7)]
LETTERS = "abcde"


def brute_force(field, spec, tensors, size):
    """Sum over every assignment of every index in range(size)."""
    inputs, out = spec.split("->")
    names = inputs.split(",")
    letters = sorted(set("".join(names)))
    result = {}
    for values in product(range(size), repeat=len(letters)):
        at = dict(zip(letters, values))
        term = field.one
        for name, t in zip(names, tensors):
            term = field.mul(term, t.get(tuple(at[c] for c in name), field.zero))
        if term:
            key = tuple(at[c] for c in out)
            result[key] = field.add(result.get(key, field.zero), term)
    return {k: v for k, v in result.items() if v}


# Rationals with real denominators and large numerators: the Q kernels compute
# on scaled integers inside, and every scalar they return must be canonical.
BIG_Q = st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from([1, 2, 3, 7, 12]))


def canonical(values) -> bool:
    """Whether every value is a Fraction in lowest terms with a positive denominator."""
    return all(type(v) is Fraction and v.denominator > 0 and
               gcd(v.numerator, v.denominator) == 1 for v in values)


@st.composite
def contractions(draw, q_scalars=None):
    """A random spec with random operands, over Q with ``q_scalars`` when given."""
    field = FieldSpec(0) if q_scalars is not None else draw(st.sampled_from(FIELDS))
    size = draw(st.integers(1, 3))
    count = draw(st.integers(2, 4))
    names = [draw(st.text(LETTERS, min_size=1, max_size=3).filter(lambda s: len(set(s)) == len(s)))
             for _ in range(count)]
    used = sorted(set("".join(names)))
    out = "".join(draw(st.permutations(used))[:draw(st.integers(0, len(used)))])
    scalars = st.integers(-3, 3) if field.characteristic else \
        st.fractions(min_value=-2, max_value=2, max_denominator=3) if q_scalars is None \
        else q_scalars
    tensors = []
    for name in names:
        entries = draw(st.dictionaries(st.tuples(*[st.integers(0, size - 1)] * len(name)),
                                       scalars, max_size=size ** len(name)))
        t = {k: field.from_int(v) if field.characteristic else Fraction(v)
             for k, v in entries.items()}
        tensors.append({k: v for k, v in t.items() if v})
    return field, f"{','.join(names)}->{out}", tensors, size


@settings(max_examples=300, deadline=None)
@given(contractions())
def test_contract_matches_brute_force(case):
    field, spec, tensors, size = case
    got = contract(field, spec, *tensors)
    assert got == brute_force(field, spec, tensors, size)
    assert all(got.values()), "a zero entry was stored"
    if field.characteristic:
        assert all(0 < v < field.characteristic for v in got.values())
    else:
        assert all(isinstance(v, Fraction) for v in got.values())


@settings(max_examples=200, deadline=None)
@given(contractions(BIG_Q))
def test_contract_matches_brute_force_with_denominators(case):
    field, spec, tensors, size = case
    got = contract(field, spec, *tensors)
    assert got == brute_force(field, spec, tensors, size)
    assert all(got.values()) and canonical(got.values())


def test_contract_summed_shared_and_outer_indices():
    f = FieldSpec(0)
    a = {(0, 1): Fraction(2), (1, 1): Fraction(3)}
    b = {(1, 0): Fraction(5)}
    assert contract(f, "ij,jk->ik", a, b) == {(0, 0): 10, (1, 0): 15}   # shared, summed j
    assert contract(f, "ij,jk->", a, b) == {(): 25}                       # everything summed
    assert contract(f, "i,k->ik", {(0,): f.one}, {(2,): f.one}) == {(0, 2): 1}  # outer
    assert contract(f, "ij->ji", a) == {(1, 0): 2, (1, 1): 3}              # permutation


def test_contract_drops_cancelled_entries():
    f = FieldSpec(3)
    a = {(0,): 1, (1,): 2}
    b = {(0, 0): 1, (1, 0): 1}  # 1·1 + 2·1 = 3 = 0 in F_3
    assert contract(f, "i,ij->j", a, b) == {}


def test_contract_rejects_bad_specs():
    f = FieldSpec(0)
    with pytest.raises(ValueError):
        contract(f, "ij,jk->ik", {})
    with pytest.raises(ValueError):
        contract(f, "ii->i", {})
    with pytest.raises(ValueError):
        contract(f, "ij->k", {})


def test_sparse_and_dense_round_trip():
    f = FieldSpec(5)
    nested = [[[0, 1], [2, 0]], [[0, 0], [0, 4]]]
    t = sparse(nested)
    assert t == {(0, 0, 1): 1, (0, 1, 0): 2, (1, 1, 1): 4}
    assert dense(f, t, (2, 2, 2)) == nested


def test_conditions_keep_the_label_of_a_cancelled_condition():
    f = FieldSpec(0)
    t = {(0, 1): f.one, (1, 0): f.one}
    # "sum" names only the unknown, so its index runs over the whole shape
    sys = AffineSystem.conditions(f, (2,), ("sum", [(1, "j->")], {(): f.one}),
                                  ("cancelled", [(1, "ij,j->i", t), (-1, "ij,j->i", t)], None),
                                  ("empty", [], None))
    assert list(dict.fromkeys(sys.labels)) == ["sum", "cancelled", "empty"]
    assert sys.matrix.data == [[(0, 1), (1, 1)], [], []] and sys.rhs == [1, 0, 0]


def _dict_row_system(field, unknowns, *conds):
    """The system of ``conds`` assembled through per-row ``{column: coefficient}``
    dicts, turned into pair rows with zero coefficients dropped: the route the
    pair rows replaced."""
    rows, rhs, labels = [], [], []
    for t, nrow, const, label in conds:
        const = const or {}
        by_row = {}
        for key, c in t.items():
            by_row.setdefault(key[:nrow], {})[key[nrow]] = c
        keys = sorted(by_row.keys() | const.keys()) or [None]
        rows += [by_row.get(k, {}) for k in keys]
        rhs += [const.get(k, field.zero) for k in keys]
        labels += [label] * len(keys)
    data = [[(j, x) for j, x in row.items() if x] for row in rows]
    return AffineSystem(SparseMat(field, len(data), unknowns, data), rhs, (unknowns,), labels)


@st.composite
def condition_lists(draw):
    field = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(1, 4))
    scalars = st.integers(-3, 3).map(
        field.from_int if field.characteristic else Fraction)
    conds = []
    for label in "abc"[:draw(st.integers(1, 3))]:
        nrow = draw(st.integers(0, 2))
        keys = st.tuples(*[st.integers(0, 2)] * nrow, st.integers(0, width - 1))
        t = {k: v for k, v in draw(st.dictionaries(keys, scalars, max_size=12)).items() if v}
        const = draw(st.none() | st.dictionaries(st.tuples(*[st.integers(0, 2)] * nrow),
                                                 scalars, max_size=4))
        conds.append((t, nrow, const, label))
    return field, width, conds


@pytest.mark.parametrize("shape,term", [
    ((2,), (2, "ij,j->i", {(0, 0): 1})),      # a sign other than 1 or -1
    ((2,), (1, "ij,jk->i", {(0, 0): 1})),     # two unknown indices for a shape of one
    ((2,), (1, "ij,j->ik", {(0, 0): 1})),     # a row index that no operand carries
    ((2,), (1, "ij,j->i")),                   # a known operand missing
    ((2, 2), (1, "jj->j")),                   # an unknown index named twice
    ((2,), (1, "i#,#->i", {(0, 0): 1})),      # the column index that the assembly adds
])
def test_conditions_reject_a_malformed_term(shape, term):
    # the message names the term's spec as the caller wrote it
    with pytest.raises(ValueError, match=re.escape(f"bad condition term {term[1]!r}")):
        AffineSystem.conditions(FieldSpec(5), shape, ("bad", [term], None))


def _one_term(conds):
    """Conditions ``(tensor, nrow, constant, label)`` as one-term conditions on a
    vector unknown, the tensor's last index naming its entry."""
    return [(label, [(1, f"{'ghi'[:nrow]}u,u->{'ghi'[:nrow]}", t)], const)
            for t, nrow, const, label in conds]


@settings(max_examples=200, deadline=None)
@given(condition_lists())
def test_conditions_rows_equal_the_dict_row_assembly(case):
    field, width, conds = case
    got = AffineSystem.conditions(field, (width,), *_one_term(conds))
    want = _dict_row_system(field, width, *conds)
    assert got.matrix.data == want.matrix.data
    assert (got.rhs, got.labels) == (want.rhs, want.labels)


def test_conditions_rows_of_a_double_antipode_system():
    from hopfsmith import resolve_preset
    from hopfsmith.doubles import drinfeld_double
    double, _ = drinfeld_double(resolve_preset("sweedler", FieldSpec(3)))
    f, n = double.field, double.dim
    d, m, x = double.coa.comult, double.alg.mult, old_unknowns(f, n, n)
    unit = contract(f, "K,t->Kt", double.coa.counit, double.alg.unit)
    got = AffineSystem.conditions(f, (n, n), ("S(x1) x2", [(1, "KIJ,TJt,TI->Kt", d, m)], unit),
                                  ("x1 S(x2)", [(1, "KIJ,ITt,TJ->Kt", d, m)], unit))
    want = _dict_row_system(f, n * n,
                            (contract(f, "KIJ,TJt,TIu->Ktu", d, m, x), 2, unit, "S(x1) x2"),
                            (contract(f, "KIJ,ITt,TJu->Ktu", d, m, x), 2, unit, "x1 S(x2)"))
    assert len(got.rhs) == 2 * n * n
    # the order of the pairs inside a row is unspecified; each column appears once
    assert all(len({j for j, _ in r}) == len(r) for r in got.matrix.data)
    assert ([sorted(r) for r in got.matrix.data], got.rhs, got.labels) == \
        ([sorted(r) for r in want.matrix.data], want.rhs, want.labels)


def test_in_coordinates_reads_the_span_and_rejects_what_escapes():
    f = FieldSpec(0)
    basis = {(0, 0): f.one, (1, 0): -f.one}      # the single vector e_0 - e_1 of K^2
    coords = {(0, 0): f.one}                      # a left inverse: read entry 0
    inside = {(5, 0): Fraction(3), (5, 1): Fraction(-3)}
    assert in_coordinates(f, inside, basis, coords, "escaped") == {(5, 0): 3}
    with pytest.raises(AssertionError, match="escaped"):
        in_coordinates(f, {(5, 0): f.one}, basis, coords, "escaped")
