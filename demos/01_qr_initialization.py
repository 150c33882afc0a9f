"""Walkthrough: QR-orthonormal adapter initialization.

Every client slices the same deterministic QR factorization of the
pre-trained weight, so all adapters start inside one shared column subspace
and the frozen base is identical across the federation.
"""

import numpy as np

from fedqr import qr_orthogonal_init, effective_weight, frobenius_norm, subspace_residual, thin_qr

rng = np.random.default_rng(0)
theta0 = rng.standard_normal((12, 8))
server_rank = 5

print("pre-trained weight: 12x8, server rank budget:", server_rank)

# three clients with different rank budgets share one base
for client_rank in (2, 3, 5):
    base, adapter = qr_orthogonal_init(theta0, client_rank, server_rank, scaling=1.0)
    gram_defect = np.max(np.abs(adapter.b_factor.T @ adapter.b_factor - np.eye(client_rank)))
    print(f"client rank {client_rank}: B columns orthonormal to {gram_defect:.2e}")

# the frozen base does not depend on the client rank
base_a, _ = qr_orthogonal_init(theta0, 2, server_rank, scaling=1.0)
base_b, _ = qr_orthogonal_init(theta0, 5, server_rank, scaling=1.0)
print("frozen bases identical across ranks:", np.array_equal(base_a.frozen, base_b.frozen))

# with client rank == server rank and unit scaling, the effective weight
# reproduces the pre-trained weight exactly
base, adapter = qr_orthogonal_init(theta0, server_rank, server_rank, scaling=1.0)
gap = frobenius_norm(effective_weight(base, adapter) - theta0)
print(f"init identity at matching ranks: ||effective - theta0|| = {gap:.2e}")

# any client's initial update lives inside the leading server-rank subspace
q0, _ = thin_qr(theta0)
base, adapter = qr_orthogonal_init(theta0, 2, server_rank, scaling=1.0)
diff = effective_weight(base, adapter) - theta0
print(
    "rank-2 client's deviation from theta0 stays in the shared subspace:",
    f"residual {subspace_residual(q0[:, :server_rank], diff):.2e}",
)
