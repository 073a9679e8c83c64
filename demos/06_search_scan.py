"""Scanning all coefficient pairs of a field for non-dual-bent witnesses.

The same scan is available from the command line:

    pbent search --p 3 --m 3 --out witnesses.jsonl --stable

Run:  python3 demos/06_search_scan.py
"""
import json

from pbent.constructions import evaluate_pair, pair_count, pair_slice
from pbent.field import make_field

ctx = make_field(3, 3)
pairs = pair_slice(ctx, 0, pair_count(ctx)).tolist()
print(f"GF(27): {len(pairs)} pairs (alpha, beta) with {{1, alpha, beta}} independent")

witnesses = []
off_modulus = 0
for a_idx, b_idx in pairs:
    rec = evaluate_pair(ctx, a_idx, b_idx)
    s2 = rec["abs_sq_S"]
    if not (isinstance(s2, int) and s2 == 9):
        off_modulus += 1
    if rec["bent"] and rec["dual_bent"] is False:
        witnesses.append(rec)

print(f"pairs with |S|^2 != p^2: {off_modulus}")
print(f"pairs whose function is bent with a non-bent dual: {len(witnesses)}")
print()
print("first three witness records:")
for rec in witnesses[:3]:
    print(" ", json.dumps(rec))
print()
print("on this field every independent pair already gives a bent function whose")
print("dual is not bent, including the pairs where |S|^2 lands exactly on p^2.")
