"""The determinism contract across installs: seeded draws and the stored
Gauss-Hermite rules are pinned to SHA-256 digests of their bytes.

The digests were computed under numpy 2.4.6.  A seeded draw's bytes depend
only on numpy's random streams (NEP 19 lets ``standard_normal`` change
between numpy releases) and on elementwise float arithmetic, never on BLAS,
so they must match on every install that keeps those streams.  A mismatch
means the draws, and with them every sample artifact, have moved.
"""

import hashlib

import numpy as np
import pytest

from emlab import MixtureModel, sample_mixture
from emlab.quadrature import _STORED_RULES
from emlab.sampling import _MAP_BYTES, _block_rows


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


# (theta_star, n, seed, digest of sample_mixture(model, n, seed).data.tobytes())
DRAWS = [
    ([1.0], 1000, 1,
     "1662ce8dafe36856e27fb5a49aa52f790f1d018797d2b1fa794ef517d0c0d695"),
    ([1.0, 0.3], 50_000, 7,
     "bc1ff80718abfe0ea8c74b312821d67126a082ae34e859c0800cc8164a32a32e"),
    ([1.0, 0.3], 300_001, 2,
     "7b0146c569eb697c2f613ee12e4e3eb4de34a4340032cc7dc133b275eea92a72"),
    ([1.0, 0.3], 5000, [88, 0],
     "853c62a657d7d941afe9c28bb86def6af59bd2f99d322a9b5589aa2318903bd6"),
    ([0.5] * 8, 70_001, 3,
     "eedd19c44cb97b362fadc9ed4f9d37cd26e60182dc4b8a217a5081aa4331e5d8"),
]
# array name in gh_rules.npz -> digest of its bytes
RULES = {
    "y512": "7a92bbda7643c7016859250b449e2632f760da005f5d76ab3d26a5f0a38c6031",
    "w512": "cffbbf2fe2181e08237141940eaf24b7480d0b0ae9c073052eff943ea904636b",
    "y1024": "6f3f146a76507d138c61900748ff1e6273d7d5248599d01e55da7cdaabd7b8d2",
    "w1024": "ccbc39e66887d20dff95c68e89c9cf5d983581d2d76c3236c70539065be74e2e",
}


def test_the_draws_cover_the_contract():
    """d = 1, 2 and 8; an n that is not a multiple of its row block; draws
    on both sides of the memory-map switch; a composite seed."""
    dims = {len(theta) for theta, *_ in DRAWS}
    assert dims == {1, 2, 8}
    assert any(n % _block_rows(len(theta)) for theta, n, *_ in DRAWS)
    mapped = [8 * n * len(theta) >= _MAP_BYTES for theta, n, *_ in DRAWS]
    assert any(mapped) and not all(mapped)
    assert any(isinstance(seed, list) for _, _, seed, _ in DRAWS)


@pytest.mark.parametrize("theta, n, seed, digest", DRAWS)
def test_a_seeded_draw_keeps_its_bytes(theta, n, seed, digest):
    data = sample_mixture(MixtureModel(len(theta), theta), n, seed).data
    assert data.shape == (n, len(theta)) and data.dtype == np.float64
    assert _digest(data) == digest


def test_the_stored_rules_keep_their_bytes():
    with np.load(_STORED_RULES) as table:
        assert sorted(table.files) == sorted(RULES)
        for name, digest in RULES.items():
            assert table[name].dtype == np.float64
            assert _digest(table[name]) == digest, name
