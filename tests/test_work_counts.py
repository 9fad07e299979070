"""Work counts, checked without timing.  In the Wedderburn pipeline: one
exact idempotent check and one recovery per block, wrong gluings of the
product gluing (``dense_oracle``) stopped by the bound or the check mod
q, a block that is no idempotent over the field stopped before its exact
check, pieces with a 1-dimensional ideal never tried again, the lifted
roots of unity computed once per (conductor, prime, exponent), and no
product of two different idempotents, and no echelon basis of a block
that an image x_j e certifies split.  In the integrality layer: one
Casimir minimal polynomial per Frobenius structure, and no product in
A (x) A for the Casimir powers.  In the Schneider check: no product in H
while Psi is proven multiplicative on the blocks.  In the quasitriangular
check: two products in A (x) A per generator of Light's test for the
intertwining, not two per basis element.  In the
scalars: no rational operation inside a product or sum in Q(zeta_n), no
product with an int, rational or unit operand that reaches the
power-basis product or the coercion of operands, and no operation of Q
or Q(zeta_n) in the associativity scan or the Casimir operator, which run
on the integral table.
In the lifting: each block is lifted once per level, in the first
component only, and not at all when the bound allows recovery at p.  In
a whole analysis: no method of the dense ``Matrix``."""

import copy
import json
import sys
from fractions import Fraction

import pytest

import frobdiv.hopf as hopf
import frobdiv.integrality as integrality
import frobdiv.modular as modular
import frobdiv.wedderburn as wedderburn
from frobdiv import (QQ, CyclotomicField, HopfAnalysis, Rat,
                     central_primitive_idempotents, drinfeld_double,
                     frobenius_divisibility_verdict, frobenius_structure,
                     group_algebra, integrals, named_group)
from frobdiv.algebra import (FrobeniusStructure, StructureConstantAlgebra,
                             TensorSquareAlgebra)
from frobdiv.cli import main
from frobdiv.hopf import HopfAlgebraData
from frobdiv.linalg import EchelonSubspace, Matrix, sparse
from frobdiv.scalars import Cyc
from frobdiv.serialize import algebra_to_json, canonical_dumps, hopf_to_json

from conftest import matrix_blocks
from dense_oracle import (carrier_minimal_polynomial, change_basis_algebra,
                          check_components, component_roots, dense_vec,
                          idempotent_mod_q, product_wedderburn, transpose,
                          unimodular_matrix)


def kc4():
    """k[C4] over Q(zeta_4): four 1-dimensional blocks, two components."""
    return group_algebra(named_group("C4"), conductor=4).algebra


def double_c4():
    """D(C4) over Q(zeta_4): sixteen 1-dimensional blocks."""
    G = named_group("C4")
    return drinfeld_double(G, conductor=G.exponent)[0].algebra


def _one_exact_check_per_block(A, monkeypatch):
    checked = []
    original = wedderburn._verify_idempotent

    def counted(algebra, e):
        checked.append(e)
        return original(algebra, e)

    monkeypatch.setattr(wedderburn, "_verify_idempotent", counted)
    data = central_primitive_idempotents(A)
    assert data.num_blocks == A.dim  # both are commutative and split
    assert len(checked) == data.num_blocks
    assert all(e in checked for e in data.idempotents)


def test_one_exact_check_per_block(monkeypatch):
    _one_exact_check_per_block(kc4(), monkeypatch)


def test_one_exact_check_per_block_of_double_c4(monkeypatch):
    _one_exact_check_per_block(double_c4(), monkeypatch)


def _recording_exact_checks(monkeypatch):
    exact = []
    original = wedderburn._verify_idempotent

    def recording(algebra, e):
        exact.append(e)
        return original(algebra, e)

    monkeypatch.setattr(wedderburn, "_verify_idempotent", recording)
    return exact


def test_wrong_gluing_rejected_mod_q(monkeypatch):
    # the product gluing of kC4 at p = 13 (dense_oracle) tries wrong
    # gluings; the bound or the screen mod q stops each, and only the right
    # ones reach the exact check
    A = kc4()
    exact = _recording_exact_checks(monkeypatch)
    screened = []
    idems, _, tried = product_wedderburn(A, 13, screened)
    assert tried > len(idems) == 4
    assert exact == idems
    assert [e for e, ok in screened if ok] == idems
    check = check_components(A, 13)
    for e in central_primitive_idempotents(A).idempotents:
        assert idempotent_mod_q(A, e, check)


def test_screen_stops_gluings_within_the_bound(monkeypatch):
    # kA4 over Q(zeta_12), glued by the product gluing: some wrong gluings
    # have every coefficient within the bound; the screen mod q stops them
    # before the exact check
    A = group_algebra(named_group("A4"), conductor=12).algebra
    p = central_primitive_idempotents(A).prime_used
    exact = _recording_exact_checks(monkeypatch)
    screened = []
    idems, _, _ = product_wedderburn(A, p, screened)
    rejected = [e for e, ok in screened if not ok]
    assert rejected and exact == idems
    assert all(A.multiply(x, x) != x for x in rejected)


def _recording_reductions(monkeypatch):
    """Record the modulus of every ``ComponentAlgebra`` built."""
    moduli = []
    original = modular.ComponentAlgebra.__init__

    def recording(self, algebra, root, M):
        moduli.append(M)
        original(self, algebra, root, M)

    monkeypatch.setattr(modular.ComponentAlgebra, "__init__", recording)
    return moduli


@pytest.mark.parametrize("group,count", [("C4", 2), ("S3", 4)])
def test_at_most_two_reductions_per_split(group, count, monkeypatch):
    # each split reduces the algebra mod its prime p, and once more mod
    # p^k when k > 1; nothing is reduced at a second prime.  D(C4) and its
    # representation ring recover at k = 1, D(S3) and its ring at k > 1
    G = named_group(group)
    H, Q = drinfeld_double(G, conductor=G.exponent)
    moduli = _recording_reductions(monkeypatch)
    S = HopfAnalysis(H, Q.R)
    splits = [S.wedderburn, S.ring.wedderburn]
    assert len(moduli) == count
    assert sorted(moduli) == sorted(
        M for W in splits for M in [W.prime_used]
        + [W.prime_used ** W.precision_used] * (W.precision_used > 1))


def test_block_that_is_no_idempotent_over_the_field_is_rejected(
        monkeypatch):
    # Q[C3] = Q x Q(zeta_3): mod 7 the second factor splits into two
    # blocks whose idempotents are not rational.  Their traces recovered
    # from the one component exceed the bound, so p = 7 fails without an
    # exact check of them, and the split at 11, where the factor stays a
    # field, succeeds
    A = group_algebra(named_group("C3"), field=QQ).algebra
    exact = _recording_exact_checks(monkeypatch)
    with pytest.raises(modular.PrecisionExceeded):
        central_primitive_idempotents(A, prime=7)
    assert len(exact) <= 1
    data = central_primitive_idempotents(A)
    assert data.prime_used == 11 and sorted(data.center_dims) == [1, 2]


def _recording_recoveries(monkeypatch):
    calls = []
    original = wedderburn.reconstruct_element

    def recording(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(wedderburn, "reconstruct_element", recording)
    return calls


def test_one_recovery_per_block(monkeypatch, tmp_path):
    # each block's traces are recovered once, from the first component:
    # D(C4) and its representation ring, 16 blocks each, and kC9 at its
    # own conductor with its ring, 9 blocks each
    calls = _recording_recoveries(monkeypatch)
    G = named_group("C4")
    H, Q = drinfeld_double(G, conductor=G.exponent)
    S = HopfAnalysis(H, Q.R)
    blocks = S.wedderburn.num_blocks + S.ring.wedderburn.num_blocks
    assert blocks == 32 and len(calls) == 32
    calls.clear()
    table = tmp_path / "c9-table.json"
    table.write_text(json.dumps(
        {"table": [[(a + b) % 9 for b in range(9)] for a in range(9)]}))
    doc = tmp_path / "c9.json"
    assert main(["build", "--table", str(table), "--out", str(doc)]) == 0
    assert main(["analyze", str(doc), "--check", "all",
                 "--out", str(tmp_path / "c9-report.txt")]) == 0
    assert len(calls) == 18


def test_roots_of_unity_lifted_once_per_precision(monkeypatch):
    # kS3 over Q(zeta_24): eight components, and a degree-2 block whose
    # split certificate lifts field roots as well as idempotents
    lifted = []
    original = modular.lift_cyclotomic_root

    def recording(n, p, target_modulus):
        lifted.append((n, p, target_modulus))
        return original(n, p, target_modulus)

    monkeypatch.setattr(modular, "lift_cyclotomic_root", recording)
    modular.component_root.cache_clear()
    A = group_algebra(named_group("S3"), conductor=24).algebra
    data = central_primitive_idempotents(A)
    assert data.degrees == [1, 1, 2] and all(data.split_certified)
    assert lifted and len(lifted) == len(set(lifted))
    # a second split in the same process lifts nothing again
    before = len(lifted)
    central_primitive_idempotents(A)
    assert len(lifted) == before


def _recording_try_split(monkeypatch):
    """Record dim e Z of every piece e handed to the splitter: the trace
    of multiplication by e on the centre, read off its table."""
    tried = []
    original = modular._try_split

    def recording(table, e, direction, p, rng):
        tried.append(sum(modular.product_mod(table, e, {j: 1}, p).get(j, 0)
                         for j in range(len(table))) % p)
        return original(table, e, direction, p, rng)

    monkeypatch.setattr(modular, "_try_split", recording)
    return tried


def test_final_pieces_never_split_again(monkeypatch):
    tried = _recording_try_split(monkeypatch)
    A = kc4()
    for w in component_roots(4, 13, 1)[0]:
        blocks = modular.modular_split(modular.ComponentAlgebra(A, w, 13))
        assert [b.center_dim for b in blocks] == [1, 1, 1, 1]
    assert tried and all(d > 1 for d in tried)


def test_piece_with_larger_ideal_stays_in_the_loop(monkeypatch):
    # Z(Q[C3]) = Q x Q(zeta_3); mod 11 the second factor is F_121, a piece
    # with a 2-dimensional ideal that no direction splits
    tried = _recording_try_split(monkeypatch)
    A = group_algebra(named_group("C3"), field=QQ).algebra
    blocks = modular.modular_split(modular.ComponentAlgebra(A, 1, 11))
    assert sorted(b.center_dim for b in blocks) == [1, 2]
    assert 1 not in tried
    assert tried.count(2) > len(blocks)


def test_one_casimir_minimal_polynomial_per_structure(monkeypatch, tmp_path):
    # D(S3) --check all: the verdict needs the Casimir certificate of D(S3)
    # (dim 36), the class-equation and Schneider checks both need that of
    # its representation ring (dim 8)
    dims = []
    original = integrality.minimal_polynomial_over_Q

    def recording(field, dim, unit, times):
        owner = getattr(times, "__self__", None)
        if isinstance(owner, FrobeniusStructure):
            dims.append(owner.algebra.dim)
        return original(field, dim, unit, times)

    monkeypatch.setattr(integrality, "minimal_polynomial_over_Q", recording)
    G = named_group("S3")
    H, Q = drinfeld_double(G, conductor=G.exponent)
    doc = tmp_path / "ds3.json"
    doc.write_text(canonical_dumps(hopf_to_json(H, lam=integrals(H).lam,
                                                R=Q.R)))
    assert main(["analyze", str(doc), "--check", "all",
                 "--out", str(tmp_path / "report.txt")]) == 0
    assert sorted(dims) == [8, 36]


def test_plain_verdict_forms_no_tensor_products(monkeypatch):
    calls = []
    original = TensorSquareAlgebra.mult

    def counted(self, u, v):
        calls.append(1)
        return original(self, u, v)

    monkeypatch.setattr(TensorSquareAlgebra, "mult", counted)
    A = matrix_blocks((3, 2, 1))
    F = frobenius_structure(A, A.regular_character())
    data = central_primitive_idempotents(A, F)
    calls.clear()
    verdict = frobenius_divisibility_verdict(F, data)
    assert calls == []
    # the carrier loop makes one product in A (x) A per power of c
    poly = carrier_minimal_polynomial(TensorSquareAlgebra(A), F.casimir)
    assert poly == verdict.casimir_cert.min_poly
    assert len(calls) == len(poly) - 1 == 6


def test_intertwining_on_the_generating_set(monkeypatch):
    # tau(Delta s) R = R Delta s for the s in the generating set S proves
    # the intertwining: 2 |S| products in A (x) A, besides the two of the
    # invertibility check and the one of b = tau(R) R, and not 2n
    G = named_group("S3")
    H, Q = drinfeld_double(G, conductor=G.exponent)
    S = H.algebra.generating_set
    calls = []
    original = TensorSquareAlgebra.mult

    def counted(self, u, v):
        calls.append(1)
        return original(self, u, v)

    monkeypatch.setattr(TensorSquareAlgebra, "mult", counted)
    assert hopf.quasitriangular_verify(H, Q.R).report.passed
    assert S and len(calls) == 2 * len(S) + 3 < 2 * H.dim


def _recording_multiply(monkeypatch):
    """Record (a, b, calling function) of every ``multiply`` call; a call
    from a comprehension or lambda counts as one from the function around
    it."""
    calls = []
    original = StructureConstantAlgebra.multiply

    def recording(self, a, b):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        calls.append((a, b, frame.f_code))
        return original(self, a, b)

    monkeypatch.setattr(StructureConstantAlgebra, "multiply", recording)
    return calls


def test_split_multiplies_no_two_idempotents(monkeypatch):
    calls = _recording_multiply(monkeypatch)
    checked = []
    original = StructureConstantAlgebra.is_idempotent

    def recording(self, e):
        checked.append(e)
        return original(self, e)

    monkeypatch.setattr(StructureConstantAlgebra, "is_idempotent", recording)
    data = central_primitive_idempotents(kc4())
    idems = data.idempotents
    # the exact check e e = e ran on every idempotent, so the test below
    # cannot pass for want of any product
    assert data.num_blocks == 4 and checked
    assert all(e in checked for e in idems)
    assert not [1 for a, b, _ in calls if a != b and a in idems and b in idems]


@pytest.mark.parametrize("group, build", [("A4", "group-algebra"),
                                          ("S3", "double")])
def test_split_certificate_builds_no_block_echelon(group, build,
                                                    monkeypatch):
    # an image x_j e certifies each block of degree > 1 of kA4 and D(S3),
    # so the echelon basis of the block, built only once every image has
    # failed, is never built (the Krylov relations build their own)
    blocks, built = [], []
    certify = wedderburn.certify_split_block

    def recording_certify(algebra, e, d):
        blocks.append(d)
        return certify(algebra, e, d)

    def recording_echelon(*args):
        built.append(args)
        return EchelonSubspace(*args)

    monkeypatch.setattr(wedderburn, "certify_split_block", recording_certify)
    monkeypatch.setattr(wedderburn, "EchelonSubspace", recording_echelon)
    G = named_group(group)
    H = (drinfeld_double(G, conductor=G.exponent, verify=False)[0]
         if build == "double" else group_algebra(G, conductor=G.exponent))
    data = central_primitive_idempotents(H.algebra)
    assert blocks and all(data.split_certified)
    assert not built


def test_delta_of_the_integral_is_formed_once(monkeypatch):
    # the Casimir and Zhu checks read Delta(Lambda) off the session
    S = HopfAnalysis(group_algebra(named_group("S3")))
    calls = []
    original = HopfAlgebraData.delta_of

    def recording(self, vec):
        calls.append(vec)
        return original(self, vec)

    monkeypatch.setattr(HopfAlgebraData, "delta_of", recording)
    hopf.hopf_casimir(S)
    hopf.zhu_check(S)
    assert calls.count(S.integrals.Lambda) == 1


def test_schneider_check_forms_no_product(monkeypatch):
    G = named_group("S3")
    H, Q = drinfeld_double(G, conductor=G.exponent)
    S = HopfAnalysis(H, Q.R)
    S.quasitriangular = Q
    S.frobenius, S.ring  # built before the products are recorded
    calls = _recording_multiply(monkeypatch)
    assert hopf.schneider_check(S).holds
    # Psi is proven multiplicative on the blocks of H: no product in H
    assert calls == []
    # with two second legs of b swapped, the proof on the blocks fails, and
    # the products of basis pairs name the pair
    n = H.dim
    k1, k2 = [k for k in range(n) if k not in H.counit][:2]
    swap = {k1: k2, k2: k1}
    bad = copy.copy(Q)
    bad.b = {idx - idx % n + swap.get(idx % n, idx % n): c
             for idx, c in Q.b.items()}
    T = copy.copy(S)
    T.quasitriangular = bad
    T.factorizable = hopf.factorizable_check(bad)
    with pytest.raises(integrality.NotASymmetricHomomorphism,
                       match="multiplicativity"):
        hopf.schneider_check(T)
    assert calls
    assert not [1 for _, _, code in calls
                if code is hopf.schneider_check.__code__]


def test_cyclotomic_product_makes_no_fraction_operation(monkeypatch):
    K = CyclotomicField(24)
    a = K.element([Rat(3, 4), 0, -2, Rat(5, 6), 1, 0, Rat(-7, 9), 2])
    b = K.element([1, Rat(-1, 2), 0, 4, Rat(2, 3), -1, 0, Rat(1, 5)])
    ops = []
    for name in ("__mul__", "__add__"):
        original = getattr(Fraction, name)

        def counted(x, y, original=original, name=name):
            ops.append(name)
            return original(x, y)

        monkeypatch.setattr(Fraction, name, counted)
    assert Rat(1, 2) * Rat(2, 3) == Rat(1, 3) and ops  # the counter works
    ops.clear()
    prod = a * b
    total = a + b
    assert ops == []
    monkeypatch.undo()
    assert prod != total and prod * b.inv() == a


def test_short_cut_operands_skip_product_and_coercion(monkeypatch,
                                                     tmp_path):
    # D(S3) --check all: most products have a rational factor, and most
    # of those a factor 1; they scale or return the other factor
    doc = tmp_path / "ds3.json"
    assert main(["build", "--group", "S3", "--as", "double",
                 "--out", str(doc)]) == 0
    products, coerced = [], []
    mul_code = Cyc.__mul__.__code__
    original_mul_nums = CyclotomicField._mul_nums
    original_coerce = Cyc._coerce

    def recording_mul_nums(field, a, b):
        if sys._getframe(1).f_code is mul_code:
            products.append((a, b, field._pad))
        return original_mul_nums(field, a, b)

    def recording_coerce(x, other):
        if sys._getframe(1).f_code is mul_code:
            coerced.append(other)
        return original_coerce(x, other)

    monkeypatch.setattr(CyclotomicField, "_mul_nums", recording_mul_nums)
    monkeypatch.setattr(Cyc, "_coerce", recording_coerce)
    assert main(["analyze", str(doc), "--check", "all",
                 "--out", str(tmp_path / "report.txt")]) == 0
    assert products  # the recorder works: some products are not rational
    assert all(a[1:] != pad and b[1:] != pad for a, b, pad in products)
    assert not [o for o in coerced if type(o) in (int, Cyc)]


def _counted_field_operations(monkeypatch):
    """Record every product, sum and difference of two Fractions or two
    Cycs, reflected ones included."""
    ops = []
    for cls in (Fraction, Cyc):
        for name in ("__mul__", "__rmul__", "__add__", "__radd__",
                     "__sub__", "__rsub__"):
            original = getattr(cls, name)

            def counted(x, y, original=original, name=name):
                ops.append(name)
                return original(x, y)

            monkeypatch.setattr(cls, name, counted)
    return ops


@pytest.mark.parametrize("name", ["M3+M2+Q dense", "kS3/Q(zeta3)"])
def test_integral_loops_make_no_field_operation(monkeypatch, name):
    # the associativity scan and the Casimir operator run on the integral
    # table, over Q and over Q(zeta_n) alike
    if name == "kS3/Q(zeta3)":
        H = group_algebra(named_group("S3"), conductor=3)
        A, lam = H.algebra, integrals(H).lam
    else:
        blocks = matrix_blocks((3, 2, 1))
        P = unimodular_matrix(QQ, blocks.dim, 0)
        A = change_basis_algebra(blocks, P)
        lam = sparse(transpose(P).apply(dense_vec(
            blocks, blocks.regular_character())))
    F = frobenius_structure(A, lam)
    T = TensorSquareAlgebra(A)
    ops = _counted_field_operations(monkeypatch)
    one = A.field.one
    assert one * one == one and one + one != one and ops  # counters work
    ops.clear()
    report = A.verify()
    c = F.casimir_times(T.unit)
    assert ops == []
    monkeypatch.undo()
    assert report.passed and c == F.casimir


def _counted_lifts(monkeypatch):
    lifts = []
    original = wedderburn.hensel_lift_idempotent

    def counted(comp, e, M):
        lifts.append(M)
        return original(comp, e, M)

    monkeypatch.setattr(wedderburn, "hensel_lift_idempotent", counted)
    return lifts


def _levels(data):
    """Lifting steps to the precision p^k of the data: log2 k."""
    return data.precision_used.bit_length() - 1


def test_double_c4_lifts_each_block_once_per_component(monkeypatch):
    # D(C4) over Q(i): 16 one-dimensional blocks in 2 components, and its
    # representation ring (dim 16 too).  Each block is lifted once per
    # level in the first component; under the bound neither needs a lift
    G = named_group("C4")
    H, _ = drinfeld_double(G, conductor=G.exponent)
    lifts = _counted_lifts(monkeypatch)
    data = central_primitive_idempotents(H.algebra)
    assert len(lifts) == data.num_blocks * _levels(data)
    lifts.clear()
    S = HopfAnalysis(H)
    S.wedderburn = data
    ring = hopf.representation_ring(S)
    blocks = ring.wedderburn.num_blocks
    assert blocks == 16
    assert len(lifts) == blocks * _levels(ring.wedderburn)


def test_double_c4_glues_at_p_without_lifting(monkeypatch):
    lifts = _counted_lifts(monkeypatch)
    data = central_primitive_idempotents(double_c4())
    assert data.precision_used == 1 and lifts == []


def test_dense_basis_lifts_each_block_once_per_level(monkeypatch):
    # M3+M2+Q on a dense basis: the bound needs a power of p above p, and
    # each block is lifted once per level in its one component
    A = change_basis_algebra(matrix_blocks((3, 2, 1)),
                             unimodular_matrix(QQ, 14, 3))
    lifts = _counted_lifts(monkeypatch)
    data = central_primitive_idempotents(A)
    assert data.num_blocks == 3 and data.precision_used > 1
    assert len(lifts) == data.num_blocks * _levels(data)


@pytest.mark.parametrize("name", ["D(S3)", "M3+M2+Q dense"])
def test_analysis_calls_no_dense_matrix_method(monkeypatch, tmp_path, name):
    # the library computes on sparse rows and columns only: with the
    # elimination methods of Matrix (which the benchmark's tracer binds)
    # made to raise, `analyze --check all` writes the same report
    doc = tmp_path / "in.json"
    if name == "D(S3)":
        assert main(["build", "--group", "S3", "--as", "double",
                     "--out", str(doc)]) == 0
    else:
        A = change_basis_algebra(matrix_blocks((3, 2, 1)),
                                 unimodular_matrix(QQ, 14, 3))
        doc.write_text(canonical_dumps(algebra_to_json(A)) + "\n")

    def analyze(out):
        code = main(["analyze", str(doc), "--check", "all", "--format",
                     "json", "--out", str(out)])
        return code, out.read_bytes()

    called = []
    for method in ("rref", "kernel", "solve_many", "minimal_polynomial",
                   "apply"):
        def refuse(self, *args, method=method):
            called.append(method)
            raise AssertionError(f"Matrix.{method} called")
        monkeypatch.setattr(Matrix, method, refuse)
    sparse_only = analyze(tmp_path / "sparse.json")
    monkeypatch.undo()
    assert called == []
    assert sparse_only == analyze(tmp_path / "reference.json")
