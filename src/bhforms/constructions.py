"""The two structural transforms: re-indexing a form so its slots use
pairwise-disjoint variables, and multiplying a polynomial by a power of the
first variable to raise its degree while capping the variable count."""

from __future__ import annotations

from dataclasses import dataclass

from .core import HomogeneousPolynomial, MultiIndex, MultilinearForm, _check_scalar


@dataclass(frozen=True)
class SlotEmbedding:
    """Canonical interleaving of m slots into disjoint variable classes:
    slot i (1-based) sends index j to m*(j-1) + i, so variable v belongs to
    slot ((v-1) mod m) + 1 at original index ((v-1) div m) + 1."""

    m: int

    def apply(self, slot: int, j: int) -> int:
        return self.m * (j - 1) + slot

    def invert(self, v: int) -> tuple[int, int]:
        return (v - 1) % self.m + 1, (v - 1) // self.m + 1

    def to_json(self) -> dict:
        return {
            "kind": "embedding",
            "m": self.m,
            "rule": "slot i, index j -> m*(j-1)+i",
        }


def disjointify(T: MultilinearForm) -> tuple[MultilinearForm, SlotEmbedding]:
    """Re-index each slot into its own residue class mod m.  The new form has
    the same coefficient multiset (hence the same norm); its slots share no
    variable, so the diagonal polynomial below is collision-free."""
    emb = SlotEmbedding(T.m)
    n = T.m * max(T.dims)
    coeffs = {
        tuple(emb.apply(j + 1, i) for j, i in enumerate(t)): c
        for t, c in T.coeffs.items()
    }
    # T is validated and apply is injective per slot: build() would pass
    T1 = MultilinearForm(m=T.m, dims=(n,) * T.m, field=T.field, coeffs=coeffs)
    return T1, emb


def diagonal_polynomial(T1: MultilinearForm) -> HomogeneousPolynomial:
    """P(x) = T1(x, ..., x).  For disjointified input every tuple maps to a
    distinct square-free monomial; otherwise colliding monomials accumulate
    (documented and allowed), and those that cancel are dropped."""
    coeffs: dict[MultiIndex, object] = {}
    for t, c in T1.coeffs.items():
        counts: dict[int, int] = {}
        for i in t:
            counts[i] = counts.get(i, 0) + 1
        alpha = MultiIndex(tuple(sorted(counts.items())))
        coeffs[alpha] = coeffs.get(alpha, 0) + c
    if len(coeffs) < len(T1.coeffs):
        # monomials collided: their sums may cancel, or two finite floats may
        # sum past the float range
        for alpha, c in coeffs.items():
            _check_scalar(c, T1.field, alpha)
        coeffs = {alpha: c for alpha, c in coeffs.items() if c != 0}
    return HomogeneousPolynomial(m=T1.m, n=max(T1.dims), field=T1.field, coeffs=coeffs)


def reconstruct_form(
    P: HomogeneousPolynomial, emb: SlotEmbedding, dims: tuple[int, ...]
) -> MultilinearForm:
    """Invert diagonal_polynomial(disjointify(T)) back to T via the embedding.

    P must have degree ``emb.m``, and every monomial one variable of each
    slot, at an index within ``dims``; otherwise ``ValueError``."""
    dims = tuple(int(d) for d in dims)
    if P.m != emb.m:
        raise ValueError(f"degree {P.m} differs from the {emb.m} slots")
    if len(dims) != emb.m or min(dims) < 1:
        raise ValueError(f"expected {emb.m} slot dimensions >= 1, got {dims}")
    coeffs = {}
    for alpha, c in P.coeffs.items():
        t = [0] * emb.m
        for var, exp in alpha.exponents:
            if exp != 1:
                raise ValueError("disjointified polynomials are square-free")
            slot, j = emb.invert(var)
            if j > dims[slot - 1]:
                raise ValueError(
                    f"index {j} out of range 1..{dims[slot - 1]} in slot {slot}"
                )
            t[slot - 1] = j
        if 0 in t:
            raise ValueError(f"monomial {alpha} does not cover every slot")
        coeffs[tuple(t)] = c
    # P is validated: its coefficients are nonzero scalars of its field
    return MultilinearForm(m=emb.m, dims=dims, field=P.field, coeffs=coeffs)


def lift_polynomial(P: HomogeneousPolynomial, m: int) -> HomogeneousPolynomial:
    """Raise a degree-(M-1) polynomial to degree m by multiplying with
    x_1^(m-M+1).  Coefficients transfer bijectively; every lifted monomial
    uses at most M distinct variables when the original used at most M-1
    (or already contained x_1)."""
    if m <= P.m:
        raise ValueError(f"target degree {m} must exceed the current degree {P.m}")
    boost = m - P.m
    coeffs = {}
    for alpha, c in P.coeffs.items():
        ex = alpha.exponents
        # pairs are sorted by variable, so x_1 comes first if present
        if ex[0][0] == 1:
            ex = ((1, ex[0][1] + boost),) + ex[1:]
        else:
            ex = ((1, boost),) + ex
        coeffs[MultiIndex(ex)] = c
    return HomogeneousPolynomial(m=m, n=max(P.n, 1), field=P.field, coeffs=coeffs)
