"""Shared fixtures: frozen expected values and slow, test-local oracles.

The oracles here are written independently of the library internals on
purpose — they recompute the same quantities by the most naive route
available so that agreement is meaningful.
"""

import itertools

import numpy as np

# Weight distributions computed once by brute force over full message
# spaces and frozen; keys are weights, values are codeword counts.
WD_Q2_R2_K2 = {0: 1, 6: 10, 8: 15, 10: 6}
WD_Q2_R2_K3 = {0: 1, 28: 36, 32: 63, 36: 28}
WD_Q3_R2_K2 = {0: 1, 48: 66, 54: 80, 57: 96}
WD_Q3_R3_K2 = {0: 1, 336: 2, 426: 40, 462: 200, 480: 512, 486: 728, 498: 640, 516: 64}

# Nonzero-zero-set sizes |V(f)*| for the block family (origin excluded).
ZERO_STAR = {
    (2, 2, 2): 9,
    (2, 2, 3): 35,
    (2, 3, 2): 49,
    (3, 2, 2): 32,
    (3, 3, 2): 392,
    (4, 2, 2): 75,
    (5, 2, 2): 144,
}

# r-thresholds: smallest integer r making the distribution-free zero-count
# bound bite, from the closed-form crossover value per field order.
R_CROSSOVER = {2: 2.7715533031636124, 3: 3.1240089104948296}
R_MIN = {2: 3, 3: 4}

# Projective block-family code over GF(3), r=2, k=2.
PROJ_Q3_PARAMS = (40, 5)
PROJ_Q3_WMIN = 19
PROJ_Q3_WMAX = 32


def naive_gf4_mul(a, b):
    """GF(4) product via polynomial arithmetic mod x^2+x+1, base-2 codes."""
    pa = [a & 1, a >> 1]
    pb = [b & 1, b >> 1]
    prod = [0, 0, 0]
    for i, ca in enumerate(pa):
        for j, cb in enumerate(pb):
            prod[i + j] ^= ca & cb
    # reduce x^2 = x + 1
    prod[0] ^= prod[2]
    prod[1] ^= prod[2]
    return prod[0] | (prod[1] << 1)


def naive_block_value(field, r, k, point):
    """f(x) = sum over blocks of the product of each block's r coordinates."""
    total = 0
    for b in range(k):
        term = 1
        for i in range(r):
            term = field.mul(term, point[b * r + i])
        total = field.add(total, term)
    return total


def naive_zero_star_count(field, r, k):
    """Count nonzero points where the block function vanishes, by full scan."""
    n = r * k
    count = 0
    for point in itertools.product(range(field.q), repeat=n):
        if any(point) and naive_block_value(field, r, k, point) == 0:
            count += 1
    return count


def word_weight(word):
    return int(sum(1 for v in word if v != 0))


def all_codewords(code):
    """Every codeword as a tuple, from all q^dim messages."""
    q = code.field.q
    out = []
    for msg in itertools.product(range(q), repeat=code.dim):
        out.append(tuple(int(t) for t in code.word_from_message(msg)))
    return out


def naive_weight_distribution(code):
    dist = {}
    for word in all_codewords(code):
        w = word_weight(word)
        dist[w] = dist.get(w, 0) + 1
    return dist


def support(word):
    return frozenset(i for i, v in enumerate(word) if v != 0)


def naive_is_minimal(code):
    """Quadratic support-containment scan over all nonzero codewords.

    Not minimal exactly when some codeword's support contains the support
    of another codeword that is not one of its scalar multiples.
    """
    mul = code.field.mul
    q = code.field.q
    words = [w for w in all_codewords(code) if any(w)]
    sups = [support(w) for w in words]
    for i, wi in enumerate(words):
        multiples = {tuple(mul(a, v) for v in wi) for a in range(1, q)}
        for j, wj in enumerate(words):
            if wj not in multiples and sups[j] <= sups[i]:
                return False
    return True


def class_messages(dim, q):
    """Scalar-class representatives in canonical order: leading position t,
    then the digits above t as an integer, digit t+1 least significant."""
    out = []
    for t in range(dim):
        for g in range(q ** (dim - 1 - t)):
            m = [0] * dim
            m[t] = 1
            for j in range(t + 1, dim):
                m[j] = g % q
                g //= q
            out.append(m)
    return out


def literal_weightsum(code):
    """The weight-sum criterion summed over full codewords.

    Returns (minimal, witness, pairs_checked) with the library's witness
    convention: the first (i, j) whose sum of wt(c_j - a*c_i) over nonzero a
    equals (q-1)*wt(c_j) - wt(c_i) gives supp(c_i) inside supp(c_j).
    """
    q = code.field.q
    ops = code.ops
    msgs = class_messages(code.dim, q)
    words = np.array([code.word_from_message(m) for m in msgs], dtype=ops.dtype)
    wt = (words != 0).sum(axis=1).astype(np.int64)
    R = len(msgs)
    pairs = 0
    for i in range(R):
        sums = np.zeros(R, dtype=np.int64)
        for a in range(1, q):
            sums += (ops.sub(words, ops.mul_scalar(a, words[i])[None, :]) != 0).sum(axis=1)
        eq = sums == (q - 1) * wt - wt[i]
        eq[i] = False
        pairs += R - 1
        hits = np.nonzero(eq)[0]
        if hits.size:
            j = int(hits[0])
            return False, {"container_message": msgs[j], "contained_message": msgs[i]}, pairs
    return True, None, pairs
