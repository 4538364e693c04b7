"""Information-theoretic surprise along a reading order.

Shows the measurement kernel on hand-made topic distributions: entropy,
KL divergence in both directions, the enclosure relation, and the
text-to-text / text-to-past surprise series.
"""

import numpy as np

from textforage import (
    Enclosure,
    encloses,
    entropy,
    js_distance,
    kl_divergence,
    surprise_series,
)

# --- single comparisons ----------------------------------------------------
narrow = np.array([0.85, 0.05, 0.05, 0.05])   # a specialist monograph
broad = np.array([0.25, 0.25, 0.25, 0.25])    # a general survey

print(f"entropy(narrow) = {entropy(narrow):.3f} bits")
print(f"entropy(broad)  = {entropy(broad):.3f} bits (maximum is 2)")

# KL is directional: reading the survey after the monograph is the
# bigger shock, because the monograph's expectations are so concentrated.
print(f"\nKL(broad | narrow) = {kl_divergence(broad, narrow):.3f} bits")
print(f"KL(narrow | broad) = {kl_divergence(narrow, broad):.3f} bits")

relation = encloses(broad, narrow)
assert relation is Enclosure.P_ENCLOSES_Q
print("=> the survey encloses the monograph (it is more comprehensive)")

print(f"\nsymmetric JS distance = {js_distance(broad, narrow):.3f}")

# --- a reading order -------------------------------------------------------
# Six readings: three in one neighborhood, a jump, then two settled ones.
readings = np.array(
    [
        [0.70, 0.20, 0.05, 0.05],
        [0.65, 0.25, 0.05, 0.05],
        [0.60, 0.30, 0.05, 0.05],
        [0.05, 0.05, 0.60, 0.30],  # the jump
        [0.05, 0.05, 0.65, 0.25],
        [0.05, 0.05, 0.70, 0.20],
    ]
)
ids = [f"book{i}" for i in range(len(readings))]

t2t = surprise_series(readings, mode="t2t")
t2p = surprise_series(readings, mode="t2p")
t2n = surprise_series(readings, mode="t2n", window=2)

print("\npos  item    T2T bits  T2P bits  T2N(2) bits")
for pos in t2t.positions:
    print(f"{pos:>3}  {ids[pos]:<6} {t2t.values[pos - 1]:>8.3f} "
          f"{t2p.values[pos - 1]:>9.3f} {t2n.values[pos - 1]:>11.3f}")

jump = int(np.argmax(t2t.values)) + 1
print(f"\nlargest local surprise at position {jump} ({ids[jump]}): "
      "the move to a new topic neighborhood")
print("note how T2P stays elevated after the jump while T2T settles:")
print("local exploitation inside a globally new area")
