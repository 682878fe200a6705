"""
The peak-transport bijection: an explicit rearrangement of S_n sending
each permutation's peak-value set onto its image's peak-value set after
run-sorting, with run starts preserved on the nose.
"""
import tempfile
from collections import Counter
from pathlib import Path

from rslab import bijections as bj
from rslab import perms
from rslab.prng import SplitMix64, fisher_yates

fmt = lambda p: "".join(map(str, p))

table = bj.build_peak_transport(4)
print("n = 4 transport table:")
for sig in sorted(table):
    img = table[sig]
    print(
        f"  {fmt(sig)} -> {fmt(img)}   peaks {perms.format_int_set(perms.peak_values(sig)):<6}"
        f" = sorted peaks {perms.format_int_set(perms.spv(img)):<6}"
        f"  run starts {perms.format_int_set(perms.run_starts(sig))}"
    )
print()

# The bijection certifies the joint distribution identity: (run starts,
# peak values) and (run starts, sorted peak values) agree over all of S_n.
n = 6
lhs = Counter(
    (frozenset(perms.run_starts(p)), frozenset(perms.peak_values(p)))
    for p in perms.enumerate_sn(n)
)
rhs = Counter(
    (frozenset(perms.run_starts(p)), frozenset(perms.spv(p)))
    for p in perms.enumerate_sn(n)
)
print(f"joint distributions over S_{n} agree:", lhs == rhs)
print(f"distinct joint values: {len(lhs)}")
print()

# eta maps one permutation at a time, far beyond the n! table.
sig = fisher_yates(30, SplitMix64.seed_from(4))
img = bj.eta(sig)
print("eta of a seeded permutation of [30]:")
print("  sigma      ", perms.format_perm(sig))
print("  eta(sigma) ", perms.format_perm(img))
print("  peaks of sigma = sorted peaks of eta(sigma):",
      perms.peak_values(sig) == perms.spv(img), perms.format_int_set(perms.spv(img)))
print("  run starts preserved:", perms.run_starts(sig) == perms.run_starts(img))
print()

out = Path(tempfile.gettempdir()) / "transport_n5.csv"
bj.transport_to_csv(bj.build_peak_transport(5), str(out))
print("n = 5 table written to", out)
print(out.read_text().splitlines()[0])
print(out.read_text().splitlines()[1])
