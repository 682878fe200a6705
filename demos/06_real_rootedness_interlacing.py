"""
Exact real-rootedness and interlacing: Sturm counts, isolating
intervals, the family chains, and a small same-phase stability scan.
"""
from fractions import Fraction

from rslab import realroot as rr
from rslab.polynomials import descent_multivar, run_count_poly, runsorted_descent_poly

p = runsorted_descent_poly(9)
print("A_9 :", p.human())
print("real-rooted:", rr.is_real_rooted(p))
iso = rr.isolate_real_roots(p, width=Fraction(1, 10**6))
for r in iso.roots:
    print(f"  root near {r.approx():.6f}  (multiplicity {r.multiplicity})")
print()

f, g = run_count_poly(8), run_count_poly(9)
rep = rr.interlaces(f, g)
print("consecutive run-count polynomials interlace:", rep.verdict)
print("  merged chain (approx):", [(tag, round(x, 4)) for tag, x in rep.witness])
print()

# E's coefficients grow like n!; the family check reads each pair's
# verdict off one Sturm chain and isolates no root, so n=20 is quick.
for family in "ARBE":
    out = rr.verify_interlacing_family(family, 20)
    print(f"family {family}: consecutive interlacing to n=20 ->", out["verdict"])
print()

# Same-phase stability: restrict the multivariate descent polynomial to a
# positive ray and ask for real roots, sampling rays reproducibly.
q5 = descent_multivar(5)
lam = rr.sample_lambdas(5, 0, 1, 5, 0)
print("sample ray:", [str(x) for x in lam])
res = rr.same_phase_check(q5, lam, partner=descent_multivar(4))
print("restriction coefficients (ascending):", res["restriction"])
print("real-rooted:", res["real_rooted"], " interlaces previous:", res["interlaces"])
print()

scan = rr.conjecture_scan("Q", n_max=6, samples=25, seed=0)
print(
    f"scan family Q, n<=6, 25 rays: verdict={scan['verdict']}"
    f" (failures: {len(scan['failures'])})"
)
