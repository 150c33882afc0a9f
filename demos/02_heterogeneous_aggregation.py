"""Walkthrough: exact heterogeneous-rank aggregation vs factor averaging.

Concatenating factors before multiplying reconstructs the weighted sum of
client updates exactly, for any mix of ranks. Averaging factors first is
biased even with equal ranks, and the QR compression step reports its own
truncation error exactly.
"""

import numpy as np

from fedqr import (
    ClientUpdate,
    LoraAdapter,
    concat_reconstruct,
    frobenius_norm,
    qr_compress,
)
from fedqr.aggregation import factor_means

rng = np.random.default_rng(1)
d, k = 16, 10

# three clients with ranks 1, 2 and 4
updates = []
for cid, rank in enumerate((1, 2, 4)):
    updates.append(
        ClientUpdate(
            client_id=cid,
            adapter=LoraAdapter(
                rng.standard_normal((d, rank)), rng.standard_normal((rank, k)), rank, 1.0
            ),
            sample_count=10 * (cid + 1),
        )
    )

delta = concat_reconstruct(updates)
weights = np.array([10.0, 20.0, 30.0]) / 60.0
reference = sum(
    w * u.adapter.b_factor @ u.adapter.a_factor for w, u in zip(weights, updates)
)
print(f"concatenated product vs weighted sum: {frobenius_norm(delta - reference):.2e}")

# the textbook bias instance: two rank-1 clients on orthogonal directions
witness = [
    ClientUpdate(0, LoraAdapter(np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]), 1, 1.0), 5),
    ClientUpdate(1, LoraAdapter(np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]), 1, 1.0), 5),
]
correct = concat_reconstruct(witness)
b_mean, a_mean = factor_means(witness)
averaged = b_mean @ a_mean
print("correct aggregate:\n", correct)
print("factor-averaged aggregate:\n", averaged)
print(f"factor-averaging bias (Frobenius): {frobenius_norm(averaged - correct)}")

# compressing to the server rank: the trailing R block measures the loss
print("\ntruncation error by server rank (rank-7 update):")
delta = rng.standard_normal((d, 7)) @ rng.standard_normal((7, k))
for server_rank in (2, 4, 6, 7, 8):
    result = qr_compress(delta, server_rank)
    realized = frobenius_norm(
        delta - result.server_adapter.b_factor @ result.server_adapter.a_factor
    )
    print(
        f"  r_s={server_rank}: reported {result.truncation_error:10.6f}  "
        f"realized {realized:10.6f}"
    )
print("(error hits zero once the server rank covers the update's true rank)")
