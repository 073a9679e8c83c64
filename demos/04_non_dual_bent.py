"""Bent functions whose dual is NOT bent, found via an exact character sum.

For a pair (alpha, beta) in GF(p^m) with {1, alpha, beta} linearly
independent over F_p, the (m+2)-variable function

    F(x, y1, y2) = Tr(x^2) + (y1 + Tr(alpha*x^2)) * (y2 + Tr(beta*x^2))

is bent, and its dual is not bent whenever a certain element S of Z[e]
satisfies |S|^2 != p^2.  That condition is sufficient, not necessary: the
note at the end shows a pair with |S|^2 = p^2 whose dual is not bent either.
This script computes S exactly for the bundled reference pairs and then
cross-checks it against an independent spectral identity.

Run:  python3 demos/04_non_dual_bent.py
"""
from pbent.bent import bent_normalizer, classify
from pbent.constructions import NdCorSpec, ndcor_condition_sum, ndcor_function
from pbent.field import make_field
from pbent.pfunc import parse_coefficient
from pbent.walsh import walsh_fast

PAIRS = [
    (3, 3, "w", "w^2+1"),
    (3, 3, "2w+1", "w^2"),
    (3, 4, "w", "w^2"),
    (5, 3, "w", "w^2"),
]


for p, m, at, bt in PAIRS:
    ctx = make_field(p, m)
    alpha, beta = parse_coefficient(ctx, at), parse_coefficient(ctx, bt)
    spec = NdCorSpec(ctx, alpha, beta)

    S = ndcor_condition_sum(spec)
    s2 = S.abs_sq()
    F = ndcor_function(spec)
    rep = classify(F)

    print(f"GF({p}^{m}), alpha = {alpha}, beta = {beta}  "
          f"(function on {F.domain.size} points)")
    print(f"  S       = {S}")
    print(f"  |S|^2   = {s2}" + ("" if s2.is_rational else "  (irrational)"))
    print(f"  |S|^2 == p^2 = {p * p}?  {s2.is_rational and s2.as_int() == p * p}")
    print(f"  classify: bent={rep.is_bent}, {rep.regularity}, dual bent={rep.dual_is_bent}")

    # Independent cross-check: the dual's Walsh value at 0 recovers S up to
    # the bent normalizer P_m and a sign, entirely inside Z[e].
    W0 = walsh_fast(rep.dual)[0]
    P = bent_normalizer(p, m)
    match = "+1" if W0 == P * S else ("-1" if W0 == -(P * S) else "none")
    print(f"  cross-check: W_dual(0) = {W0} = sign * P_m * S with sign {match}")
    print()

print("note: (3,3) with (w, w^2) has |S|^2 = 9 = p^2, so the criterion does not")
print("fire there, yet the dual still fails bentness at some b — the criterion is")
print("sufficient, not necessary:")
ctx = make_field(3, 3)
spec = NdCorSpec(ctx, ctx.w, ctx.w**2)
S = ndcor_condition_sum(spec)
rep = classify(ndcor_function(spec))
print(f"  |S|^2 = {S.abs_sq()},  dual bent = {rep.dual_is_bent}, "
      f"witness b = {rep.witnesses.get('dual_not_bent_at')}")
