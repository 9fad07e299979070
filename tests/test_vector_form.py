"""Every vector the library holds or passes is a sparse dict {index:
nonzero scalar}: the elements of H (unit, integrals, idempotents,
Gamma(1), dual combinations, contractions, Psi images, centre and kernel
bases, the witness of a degenerate form) and the linear forms on H
(lambda, chi_reg, rho, eps, the characters, delta), on kS3, k^S3 and
D(S3) over Q(zeta_6)."""

import pytest

from frobdiv import (DegenerateForm, HopfAnalysis, drinfeld_double,
                     dual_hopf, frobenius_structure, group_algebra,
                     named_group)
from frobdiv.algebra import contract_left, contract_right
from frobdiv.linalg import EchelonSubspace
from frobdiv.scalars import Cyc


def session(name):
    G = named_group("S3")
    if name == "D(S3)":
        H, Q = drinfeld_double(G, conductor=6)
        return HopfAnalysis(H, Q.R)
    H = group_algebra(G, conductor=6)
    return HopfAnalysis(dual_hopf(H) if name == "k^S3" else H)


def is_sparse_vector(v, n):
    return (type(v) is dict
            and all(type(k) is int and 0 <= k < n for k in v)
            and all(type(c) is Cyc and c for c in v.values()))


@pytest.mark.parametrize("name", ["kS3", "k^S3", "D(S3)"])
def test_every_vector_is_a_sparse_dict(name):
    S = session(name)
    H, A, n = S.H, S.H.algebra, S.H.dim
    I, F, W, RR = S.integrals, S.frobenius, S.wedderburn, S.ring
    chi = W.characters[-1]
    vectors = {
        "unit": A.unit, "counit": H.counit, "Lambda": I.Lambda,
        "Lambda0": I.Lambda0, "lambda": I.lam, "form": F.lam,
        "chi_reg": A.regular_character(),
        "rho": A.right_regular_character(),
        "Gamma(1)": F.gamma_one(),
        "Gamma(eps)": S.dual_frobenius.gamma_one(),
        "dual combination": F.dual_combination(chi),
        "contract_left": contract_left(chi, F.casimir, n),
        "contract_right": contract_right(chi, F.casimir, n),
        "chi o S": H.after_antipode(chi),
        "S(Lambda)": H.antipode_of(I.Lambda),
        "product": A.multiply(I.Lambda, W.idempotents[-1]),
        "ring unit": RR.ring.unit, "delta": RR.frobenius.lam,
    }
    families = {
        "idempotents": W.idempotents, "characters": W.characters,
        "centre": A.center_basis(),
        "ring idempotents": RR.wedderburn.idempotents,
        "ring characters": RR.wedderburn.characters,
        "kernel": EchelonSubspace(A.field, n, [chi]).kernel().basis,
    }
    if S.R is not None:
        b = S.quasitriangular.b
        families["Psi images"] = [contract_right(c, b, n)
                                  for c in W.characters]
    with pytest.raises(DegenerateForm) as err:
        frobenius_structure(A, H.counit)
    vectors["witness"] = err.value.witness
    for label, v in vectors.items():
        assert is_sparse_vector(v, n if label not in ("ring unit", "delta")
                                else RR.ring.dim), label
    for label, vs in families.items():
        m = RR.ring.dim if label.startswith("ring") else n
        assert vs and all(is_sparse_vector(v, m) for v in vs), label
