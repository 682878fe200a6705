"""
Counting polynomials and their closed-form exponential generating
functions, all exact: descent polynomials of run-sorted permutations,
peak polynomials of S_n, and the binary-word analogue.
"""
from collections import Counter
from math import factorial

from rslab import bijections as bj
from rslab import series as sr
from rslab.binwords import binary_descent_poly
from rslab.polynomials import (
    MPoly,
    descent_multivar,
    monomial_from_set,
    peak_poly,
    peak_poly_by_derivative,
    peak_poly_by_enumeration,
    run_count_triangle,
    runsorted_descent_poly,
)

print("descent polynomials of run-sorted permutations:")
for n in range(1, 10):
    print(f"  n={n}: {runsorted_descent_poly(n).human()}")
print()

print("run-count triangle rows (k runs):")
for n in range(1, 8):
    print(f"  n={n}: {run_count_triangle(n)[n-1]}")
print()

print("peak polynomials of S_n, three independent routes:")
for n in range(1, 7):
    a = peak_poly(n).human()
    b = peak_poly_by_derivative(n).human()
    c = peak_poly_by_enumeration(n).human()
    print(f"  n={n}: {a}   (routes agree: {a == b == c})")
print()

# The multivariate polynomial, and the same terms summed over the set
# partitions of [4] through the run-sorted bijection.
q = descent_multivar(5)
by_partitions = MPoly(Counter(
    monomial_from_set(bj.partition_descents(p)) for p in bj.enumerate_set_partitions(4)
))
print("multivariate descent polynomial, n=5 (absolute positions):")
print(" ", q)
print("  equals the sum over the set partitions of [4]:", q == by_partitions)
print()

g = sr.egf_runsorted_descents(9)
print("e^u exp(t(e^u - u - 1)) recovers the table, shifted by one:")
for n in (4, 8):
    print(f"  n!=[u^{n}] -> {(g.coeffs[n] * factorial(n)).human()}"
          f"   (table row {n+1}: {runsorted_descent_poly(n+1).human()})")
print()

h = sr.egf_peaks(8)
print("tan-form EGF recovers the peak polynomials:")
for n in (5, 6):
    print(f"  n!=[u^{n}] -> {(h.coeffs[n] * factorial(n)).human()}")
print()

k = sr.egf_binary_descents(8)
print("sinh/cosh EGF recovers the binary descent polynomials:")
for n in (3, 8):
    print(f"  n!=[u^{n}] -> {(k.coeffs[n] * factorial(n)).human()}"
          f"   (direct: {binary_descent_poly(n).human()})")
print()

means = sr.expected_peaks_series(10)
print("t-derivative at 1 (mean peak counts):", [str(x) for x in means[2:9]])
