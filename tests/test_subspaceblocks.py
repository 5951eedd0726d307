"""Space.subspace_blocks against the literal Space.subspaces enumeration.

Each block row is compared with the canonical basis at its position,
rebuilt one subspace at a time: on the points side the row is the
combination list enc[b, l] = sum_i l_i * row_i and, as a set, the basis's
SubspaceBasis.point_encodings; on the annihilator side it is the
combination list of the rows w_f = e_f - sum_i rows[i][f] * e_(p_i), every
vector is orthogonal to every basis row (Space.dot_all) and the q^(n-d)
vectors are distinct, so they are all of ann K. Both sides run for
q in {2, 3, 4, 5, 7, 8, 9} (GF(8) under both of its moduli), n <= 5 and
every d, at the default _COUNT_CHUNK and patched to 32 and 1, where most
blocks fix a prefix of the free entries; an enumeration past ENTRIES is
checked on its leading blocks.
"""

import itertools
from unittest import mock

import numpy as np
import pytest

import cutcodes.geometry
from cutcodes import Space, field_from_order
from cutcodes.bulk import ops_for

FIELDS = [(q, None) for q in (2, 3, 4, 5, 7, 9)] + [(8, (1, 1, 0, 1)), (8, (1, 0, 1, 1))]
CHUNKS = [cutcodes.geometry._COUNT_CHUNK, 32, 1]
# the blocks read per (d, side): at most ENTRIES entries, so the largest
# enumerations (up to 4.4e8 entries at q = 9, n = 5) are checked on their
# leading blocks; a patched chunk, a block per subspace or a few, runs only
# where the subspaces number at most SMALL_CHUNK_LIMIT
ENTRIES = 1 << 21
SMALL_CHUNK_LIMIT = 1000
# the literal rebuild costs tens of microseconds per subspace, the dot_all
# check q^n steps per basis row: every subspace read is checked up to
# SAMPLE of them, a seeded sample of SAMPLE past that
SAMPLE = 80


def _cases():
    for (q, modulus), n, chunk in itertools.product(FIELDS, range(1, 6), CHUNKS):
        space = Space(field_from_order(q, modulus), n)
        if chunk < cutcodes.geometry._COUNT_CHUNK and max(
            space.subspace_count(d) for d in range(n + 1)
        ) > SMALL_CHUNK_LIMIT:
            continue
        name = f"q{q}" + ("" if modulus is None else "m" + "".join(map(str, modulus)))
        yield pytest.param(q, modulus, n, chunk, id=f"{name}-n{n}-c{chunk}")


def _combinations(space, rows) -> np.ndarray:
    """Encodings of sum_i l_i * rows[i] for l = 0..q^r - 1, l_0 least significant."""
    ops = ops_for(space.field)
    q, r = space.q, len(rows)
    vecs = np.zeros((q**r, space.n), dtype=ops.dtype)
    for i, row in enumerate(rows):
        coeff = ops.asarray((np.arange(q**r) // q**i) % q)
        vecs = ops.add(vecs, ops.mul(coeff[:, None], ops.asarray(row)[None, :]))
    return space.encode_block(vecs)


def _annihilator_rows(space, sub) -> list:
    f = space.field
    rows = []
    for c in range(space.n):
        if c in sub.pivots:
            continue
        w = [0] * space.n
        w[c] = 1
        for i, p in enumerate(sub.pivots):
            w[p] = f.neg(sub.rows[i][c])
        rows.append(w)
    return rows


def _literal(space, d, read):
    """(index, basis) pairs to check among the first `read` subspaces: every
    one from subspaces(d) when there are few, else a seeded sample, each
    rebuilt by subspace_basis (checked against subspaces(d) on the first)."""
    if read <= SAMPLE:
        subs = list(itertools.islice(space.subspaces(d), read))
        assert subs == [space.subspace_basis(d, i) for i in range(read)]
        return list(enumerate(subs))
    picks = np.random.default_rng(read).choice(read, SAMPLE, replace=False)
    return [(i, space.subspace_basis(d, i)) for i in sorted(picks.tolist() + [0, read - 1])]


def _leading_blocks(space, d, side):
    """The blocks of subspace_blocks(d, side) up to ENTRIES entries, at least one."""
    blocks, entries = [], 0
    for block in space.subspace_blocks(d, side):
        blocks.append(block)
        entries += block[2].size
        if entries >= ENTRIES:
            break
    return blocks


@pytest.mark.parametrize("q,modulus,n,chunk", list(_cases()))
def test_blocks_equal_the_literal_enumeration(q, modulus, n, chunk):
    space = Space(field_from_order(q, modulus), n)
    with mock.patch.object(cutcodes.geometry, "_COUNT_CHUNK", chunk):
        for d in range(n + 1):
            for side in ("points", "annihilator"):
                r = d if side == "points" else n - d
                blocks = _leading_blocks(space, d, side)
                # consecutive starts from 0, each block inside one pivot
                # pattern and at most max(1, chunk // q^r) rows of q^r
                sizes = [enc.shape[0] for _, _, enc in blocks]
                assert [s for s, _, _ in blocks] == list(itertools.accumulate([0] + sizes[:-1]))
                if sum(enc.size for _, _, enc in blocks) < ENTRIES:
                    assert sum(sizes) == space.subspace_count(d)
                assert all(enc.shape[1] == q**r for _, _, enc in blocks)
                assert all(size <= max(1, chunk // q**r) for size in sizes)
                rows = np.concatenate([enc for _, _, enc in blocks])
                pivots = [p for _, p, enc in blocks for _ in range(enc.shape[0])]
                for index, sub in _literal(space, d, len(rows)):
                    row = rows[index]
                    assert pivots[index] == sub.pivots
                    if side == "points":
                        assert np.array_equal(row, _combinations(space, sub.rows))
                        assert np.array_equal(np.sort(row), sub.point_encodings())
                    else:
                        assert np.array_equal(row, _combinations(space, _annihilator_rows(space, sub)))
                        assert np.unique(row).size == q ** (n - d)
                        for basis_row in sub.rows:
                            assert (space.dot_all(basis_row)[row] == 0).all()
