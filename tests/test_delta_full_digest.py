"""The two-parameter Delta images, frozen as one digest.

``deltaq verify`` runs no identity through ``delta_ops.delta_full``, yet the
span gate of ``bench/workloads.check_span`` ranks its images.  This digest is
the sha256 of ``symfunc.render(delta_full(s_nu, n, prime))`` for n <= 4, every
1 <= |nu| <= n and both values of ``prime``, one line per image holding n, nu,
prime and the render (42 lines).  A change that leaves every image
byte-identical passes unchanged.
"""

import hashlib

from deltaq import delta_ops as d, symfunc as sf
from deltaq.partition import partitions_of

# computed on the tree before the eigenvalue came from the cells; unchanged since
DIGEST = "48a5ac42ff9dc20182977f65c8f426dd57c63b008d790b5e85465590e4e36b7a"


def test_delta_full_images_are_unchanged():
    digest, lines = hashlib.sha256(), 0
    for n in range(1, 5):
        for size in range(1, n + 1):
            for nu in partitions_of(size):
                for prime in (True, False):
                    image = sf.render(d.delta_full(sf.s(nu), n, prime=prime))
                    digest.update(f"{n} {nu.render()} {prime} {image}\n".encode())
                    lines += 1
    assert lines == 42
    assert digest.hexdigest() == DIGEST
