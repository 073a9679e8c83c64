"""Building new bent functions out of old ones.

Run:  python3 demos/05_recursive_constructions.py
"""
from pbent.bent import classify
from pbent.constructions import (
    SdsSpec,
    agw_combine,
    cor1_family,
    coordinate_product,
    direct_sum,
    sds_dual,
    sds_is_bent_condition,
    semi_direct_sum,
    sporadic,
)
from pbent.field import make_field
from pbent.pfunc import Domain, PFunction, from_expr

F9 = make_field(3, 2, (1, 0, 1))
F27 = make_field(3, 3)

# ---- direct sums --------------------------------------------------------------
f = from_expr(F27, "Tr(x^2)")
g = coordinate_product(3)  # y1*y2 on F_3^2
F = direct_sum(f, g)
rep = classify(F)
print(f"direct sum of Tr(x^2) on GF(27) and y1*y2 on F_3^2 -> {F.domain.size} points")
print(f"  bent: {rep.is_bent}, regularity: {rep.regularity}, unit: {rep.zeta}")
print(f"  units multiply: parts have u = -1 and u = +1, the sum has u = {rep.constant_unit}")
print()

# ---- semi-direct sums: bentness is equivalent to a shifted-dual condition -----
sq = PFunction(Domain.vec(3, 1), [0, 1, 1])  # y^2 on F_3
for h_expr in ("Tr(x^2)", "Tr(wx^2)"):
    spec = SdsSpec(f=from_expr(F9, "Tr(x^2)"), g=sq, h=[from_expr(F9, h_expr)])
    cond = sds_is_bent_condition(spec)
    rep = classify(semi_direct_sum(spec))
    print(f"semi-direct sum with h = [{h_expr}] on GF(9):")
    print(f"  shifted-dual condition holds: {bool(cond)};  classify says bent: {rep.is_bent}")
    if rep.is_bent:
        d = sds_dual(spec)
        print(f"  closed-form dual == extracted dual: {d == rep.dual}")
print()

# ---- a two-parameter quadratic family ------------------------------------------
res = cor1_family(F27, "monomial", 0, [F27.one, F27.w + 1], sq)
rep = classify(res.function)
print("two-coefficient quadratic family on GF(27) with a = (1, w+1), outer g = y^2:")
print(f"  coefficient sweep hits both quadratic characters: {res.both_characters} "
      f"(counts {res.character_counts})")
print(f"  bent: {rep.is_bent}, regularity: {rep.regularity}")
print()

# ---- gluing p functions along a selector ----------------------------------------
base = direct_sum(from_expr(F27, "Tr(x^2)"), coordinate_product(3)).as_vec()
dom = base.domain


def shift(h: PFunction, a: int) -> PFunction:
    return PFunction(dom, [(h(x) + dom.inner_product(a, x)) % 3 for x in range(dom.size)])


glued = agw_combine([base, shift(base, 3), shift(base, 7)])
rep = classify(glued)
print(f"selector recursion over 3 shifted copies of a bent function on 3^{dom.n_total} points:")
print(f"  result lives on 3^{glued.domain.n_total} points; bent: {rep.is_bent}, "
      f"dual bent: {rep.dual_is_bent}")
print()

# ---- bundled explicit examples ----------------------------------------------------
ctx = make_field(3, 4)
print("bundled quartic examples (four sign/coefficient variants):")
for variant in range(4):
    rep = classify(sporadic("g2", ctx, variant))
    print(f"  variant {variant}: bent={rep.is_bent}, {rep.regularity}, "
          f"dual bent={rep.dual_is_bent}, full claim holds={rep.has_non_bent_dual()}")
