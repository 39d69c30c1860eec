"""Latency units.

The library's canonical latency unit is the **millisecond** (a float), which
matches how the paper reports every number.
"""

#: The paper's intra-end-network latency: "Peers that are both in the same
#: end-network have a latency of 100 µs between them" (Section 4).
INTRA_EN_LATENCY_MS = 0.1
