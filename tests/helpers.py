"""Shared fixtures: frozen expected values and slow, test-local oracles.

The oracles here are written independently of the library internals on
purpose — they recompute the same quantities by the most naive route
available so that agreement is meaningful.
"""

import itertools

import numpy as np

from cutcodes import (
    CutcodesError,
    DenseTable,
    LinearCode,
    ParseError,
    PointSet,
    PolynomialSpec,
    Space,
    field_from_order,
)
from cutcodes.bulk import ops_for
from cutcodes.geometry import RowReducer

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

# t^11 + t^2 + 1, t^7 + t^2 + 2 and t^16 + t^12 + t^3 + t + 1, constant term first
LARGE_MODULI = {
    2**11: (1, 0, 1) + (0,) * 8 + (1,),
    3**7: (2, 0, 1, 0, 0, 0, 0, 1),
    2**16: (1, 1, 0, 1) + (0,) * 8 + (1, 0, 0, 0, 1),
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


def literal_field_tables(field):
    """exp and log of the field's generator, one polynomial product per power."""
    q = field.q
    exp = [0] * (2 * (q - 1))
    log = [0] * q
    acc = 1
    for i in range(q - 1):
        exp[i] = acc
        exp[q - 1 + i] = acc
        log[acc] = i
        acc = field._mul_raw(acc, field.generator)
    return exp, log


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


def _literal_classes(code):
    """Messages, supports as Python ints (bit j for coordinate j) and weights
    of every class representative, in canonical order."""
    msgs = class_messages(code.dim, code.field.q)
    words = [tuple(int(t) for t in code.word_from_message(m)) for m in msgs]
    sups = [sum(1 << j for j, v in enumerate(w) if v) for w in words]
    return msgs, sups, [word_weight(w) for w in words]


def _first_inside(i, sups, wts):
    """The first class j != i whose support lies inside supp(c_i), or None."""
    for j, sj in enumerate(sups):
        if j != i and wts[j] <= wts[i] and sj & sups[i] == sj:
            return j
    return None


def literal_bruteforce(code):
    """The pair-by-pair support-containment scan over class representatives.

    Returns (minimal, witness, pairs_checked) with the library's conventions:
    the first (i, j) in row-major order with supp(c_j) inside supp(c_i).
    """
    msgs, sups, wts = _literal_classes(code)
    R = len(msgs)
    for i in range(R):
        j = _first_inside(i, sups, wts)
        if j is not None:
            witness = {"container_message": msgs[i], "contained_message": msgs[j]}
            return False, witness, i * (R - 1) + j + (j < i)
    return True, None, R * (R - 1)


def literal_minimal_words(code):
    """Messages of the classes whose support contains no other class's."""
    msgs, sups, wts = _literal_classes(code)
    return [tuple(m) for i, m in enumerate(msgs) if _first_inside(i, sups, wts) is None]


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


# Small vector and set operations the tests read; the package has no caller
# for them.


def affine_points(space):
    """Every nonzero point of the space as a coordinate tuple, in encoding order."""
    for e in range(1, space.size):
        yield space.decode(e)


def projective_points(space):
    """Every canonical representative of PG(n-1, q) as a coordinate tuple, in encoding order."""
    for e in space.projective_point_encodings():
        yield space.decode(int(e))


def contains_point(pset, coords):
    """Does the point set hold the point with coordinates coords?"""
    return bool(pset.bits[pset.space.encode(coords)])


def add_encodings(space, u, w):
    """Encodings of the vector sums x + y, coordinate by coordinate through
    Field.add; u and w broadcast together."""
    u, w = np.broadcast_arrays(np.asarray(u, dtype=np.int64), np.asarray(w, dtype=np.int64))
    out = np.empty(u.shape, dtype=np.int64)
    for i in np.ndindex(u.shape):
        x, y = space.decode(int(u[i])), space.decode(int(w[i]))
        out[i] = space.encode(tuple(space.field.add(a, b) for a, b in zip(x, y)))
    return out


def scale_encodings(space, lam, enc):
    """Encodings of lam * x for an array of encodings x."""
    return space.encode_block(ops_for(space.field).mul_scalar(lam, space.decode_block(enc)))


def span_dim(space, vectors):
    """Dimension of the span of coordinate vectors, through Space.span_basis."""
    digits = np.array(list(vectors), dtype=np.int64).reshape(-1, space.n)
    return len(space.span_basis(space.encode_block(digits)))


def subspace_contains(sub, coords):
    """Does the subspace with canonical basis sub hold the point coords?"""
    f = sub.space.field
    v = list(coords)
    for i, p in enumerate(sub.pivots):
        c = v[p]
        if c:
            row = sub.rows[i]
            for j in range(p, len(v)):
                v[j] = f.sub(v[j], f.mul(c, row[j]))
    return not any(v)


def union(a, b):
    return PointSet(a.space, a.bits | b.bits)


def intersection(a, b):
    return PointSet(a.space, a.bits & b.bits)


def difference(a, b):
    return PointSet(a.space, a.bits & ~b.bits)


def subset_of(a, b):
    return bool((~a.bits | b.bits).all())


# Literal per-hyperplane / per-vector scans: the routes the hyperplane
# counts replaced, kept as oracles for the differential tests.


def subspace_bits(sub):
    """Membership of every encoding in a subspace, from its listed points."""
    bits = np.zeros(sub.space.size, dtype=bool)
    bits[sub.point_encodings()] = True
    return bits


def direct_shift_counts(space, mask, values=None):
    """#{x in mask : values[x] + v.x = 0} for each v, one dot product per v."""
    ops = ops_for(space.field)
    base = np.zeros(space.size, dtype=ops.dtype) if values is None else values
    return np.array(
        [
            int((mask & (ops.add(base, space.dot_all(space.decode(ve))) == 0)).sum())
            for ve in range(space.size)
        ],
        dtype=np.int64,
    )


def literal_span_dim(space, vectors):
    """Dimension of the span, absorbing the vectors one at a time."""
    red = RowReducer(space.field)
    for v in vectors:
        red.absorb(v)
        if red.rank == space.n:
            break
    return red.rank


def literal_independent_rows(field, rows):
    """Greedy basis selection, one row at a time: the indices of the rows
    independent of the rows before them."""
    red = RowReducer(field)
    return [i for i, row in enumerate(rows) if red.absorb([int(x) for x in row])]


def literal_blocking(pset, k):
    """First codimension-k subspace holding no nonzero point of the set."""
    space = pset.space
    for sub in space.subspaces(space.n - k):
        hit = pset.bits & subspace_bits(sub)
        hit[0] = False
        if not hit.any():
            return False, sub
    return True, None


def literal_span_cutting(pset, k):
    """The per-subspace span loop: row-reduce each trace, then find the
    first other subspace of the same dimension holding its span."""
    space = pset.space
    d = space.n - k
    for sub in space.subspaces(d):
        red = RowReducer(space.field)
        for e in np.nonzero(pset.bits & subspace_bits(sub))[0]:
            if e == 0:
                continue
            red.absorb(space.decode(int(e)))
            if red.rank == d:
                break
        if red.rank < d:
            rows = [r for _, r in red.rows]
            for other in space.subspaces(d):
                if other != sub and all(subspace_contains(other, r) for r in rows):
                    return False, (sub, other)
            raise AssertionError("a low-rank trace always has a second container")
    return True, None


def literal_contained(pset, lin_s, flavor):
    """First subspace of linear dimension lin_s whose points all lie in the set."""
    space = pset.space
    for sub in space.subspaces(lin_s):
        pts = [space.decode(int(e)) for e in sub.point_encodings() if e]
        if flavor == "projective":
            pts = {space.canonical_representative(p) for p in pts}
        if all(contains_point(pset, p) for p in pts):
            return sub
    return None


def literal_support_spans(f):
    """First hyperplane normal (canonical order) annihilating supp(f)."""
    space = f.space
    support = f.table() != 0
    support[0] = False
    for sub in space.subspaces(space.n - 1):
        v = sub.normal()
        if not (support & (space.dot_all(v) != 0)).any():
            return False, v
    return True, None


def literal_shift(f):
    """The per-v loop: first nonzero v with f + v.x nonzero on all of supp(f)."""
    space = f.space
    tab = f.table()
    support = tab != 0
    ops = ops_for(f.field)
    for ve in range(1, space.size):
        v = space.decode(ve)
        if not (support & (ops.add(tab, space.dot_all(v)) == 0)).any():
            return False, v
    return True, None


def literal_scalar_degree(f):
    """Least d in 0..q-2 with f(lam x) = lam^d f(x) for every lam in 2..q-1
    and every nonzero x, else None: each (lam, d) pair compared in full."""
    space, field = f.space, f.field
    if field.q == 2:
        return 0
    ops = ops_for(field)
    tab = f.table()
    cols = space.digit_columns()
    candidates = list(range(field.q - 1))
    for lam in range(2, field.q):
        lhs = tab[space.encode_block(ops.mul_scalar(lam, cols))][1:].astype(np.int64)
        candidates = [
            d
            for d in candidates
            if np.array_equal(lhs, ops.mul_scalar(field.pow(lam, d), tab[1:]).astype(np.int64))
        ]
        if not candidates:
            return None
    return candidates[0]


# Literal per-line parsers and per-point writers for the four input formats,
# as the package had them before one row reader and one writer served every
# format. The point-set parser follows the same per-line policy. They build
# the package's objects, so a differential test can compare results, and
# raise ParseError with the package's texts, except that generator-matrix
# rows are numbered by data line ("row N"), where the package names the file
# line.


def literal_data_lines(text):
    return [
        (lineno, line)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0].strip())
    ]


def literal_rows(text, width, wrong_count, non_integer):
    """The row reader, line by line: the header line's tokens (None for a
    file without data lines) and the integer rows after it, or the
    ParseError of the first line with a wrong token count or a token int()
    refuses, the count checked first."""
    lines = literal_data_lines(text)
    if not lines:
        return None, []
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != width:
            raise ParseError(f"line {lineno}: {wrong_count}")
        try:
            rows.append([int(x) for x in parts])
        except ValueError:
            raise ParseError(f"line {lineno}: {non_integer}") from None
    return lines[0][1].split(), rows


def _literal_header(line, lineno):
    parts = line.split()
    if len(parts) < 2:
        raise ParseError(f"line {lineno}: header needs at least 'q n'")
    try:
        vals = [int(x) for x in parts]
    except ValueError as exc:
        raise ParseError(f"line {lineno}: non-integer in header") from exc
    q, n = vals[0], vals[1]
    modulus = tuple(vals[2:]) or None
    if n < 1:
        raise ParseError(f"line {lineno}: n must be >= 1")
    try:
        field = field_from_order(q, modulus)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    return Space(field, n)


def literal_parse_point_set(text):
    space = None
    seen = set()
    for lineno, line in literal_data_lines(text):
        if space is None:
            space = _literal_header(line, lineno)
            continue
        parts = line.split()
        if len(parts) != space.n:
            raise ParseError(f"line {lineno}: expected {space.n} coordinates")
        try:
            coords = [int(x) for x in parts]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer coordinate") from exc
        try:
            e = space.encode(coords)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if e in seen:
            raise ParseError(f"line {lineno}: duplicate point {tuple(coords)}")
        seen.add(e)
    if space is None:
        raise ParseError("empty point-set file")
    return space, PointSet.from_encodings(space, sorted(seen))


def literal_parse_function_table(text):
    space = None
    values = None
    seen = None
    for lineno, line in literal_data_lines(text):
        if space is None:
            space = _literal_header(line, lineno)
            values = np.zeros(space.size, dtype=np.int64)
            seen = np.zeros(space.size, dtype=bool)
            continue
        parts = line.split()
        if len(parts) != space.n + 1:
            raise ParseError(
                f"line {lineno}: expected {space.n} coordinates and a value"
            )
        try:
            nums = [int(x) for x in parts]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer entry") from exc
        coords, val = nums[:-1], nums[-1]
        if not 0 <= val < space.q:
            raise ParseError(f"line {lineno}: value {val} outside 0..{space.q - 1}")
        try:
            e = space.encode(coords)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if seen[e]:
            raise ParseError(f"line {lineno}: duplicate point {tuple(coords)}")
        seen[e] = True
        values[e] = val
    if space is None:
        raise ParseError("empty function-table file")
    return DenseTable(space.field, space.n, values)


def literal_parse_polynomial(text):
    space = None
    terms = []
    for lineno, line in literal_data_lines(text):
        if space is None:
            space = _literal_header(line, lineno)
            continue
        parts = line.split()
        if len(parts) != space.n + 1:
            raise ParseError(
                f"line {lineno}: expected a coefficient and {space.n} exponents"
            )
        try:
            nums = [int(x) for x in parts]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer entry") from exc
        coeff, exps = nums[0], nums[1:]
        if not 0 <= coeff < space.q:
            raise ParseError(
                f"line {lineno}: coefficient {coeff} outside 0..{space.q - 1}"
            )
        if any(e < 0 for e in exps):
            raise ParseError(f"line {lineno}: negative exponent")
        terms.append((coeff, tuple(exps)))
    if space is None:
        raise ParseError("empty polynomial file")
    return PolynomialSpec(space.field, space.n, terms)


def literal_parse_generator_matrix(text):
    lines = [
        stripped
        for raw in text.splitlines()
        if (stripped := raw.split("#", 1)[0].strip())
    ]
    if not lines:
        raise ParseError("empty generator-matrix file")
    head = lines[0].split()
    if len(head) < 4:
        raise ParseError("header needs 'q length dim mode'")
    try:
        q, length, dim = int(head[0]), int(head[1]), int(head[2])
    except ValueError as exc:
        raise ParseError("non-integer in header") from exc
    if dim < 1:
        raise ParseError(f"header dim {dim} is below 1")
    mode = head[3]
    if mode not in ("affine", "projective", "raw"):
        raise ParseError(f"unknown mode {mode!r}")
    try:
        modulus = tuple(int(x) for x in head[4:]) or None
    except ValueError as exc:
        raise ParseError("non-integer modulus coefficient") from exc
    try:
        field = field_from_order(q, modulus)
    except (ValueError, CutcodesError) as exc:
        raise ParseError(str(exc)) from exc
    if len(lines) - 1 != dim:
        raise ParseError(f"expected {dim} rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != length:
            raise ParseError(f"row {lineno}: expected {length} entries")
        try:
            vals = [int(x) for x in parts]
        except ValueError as exc:
            raise ParseError(f"row {lineno}: non-integer entry") from exc
        if any(not 0 <= x < q for x in vals):
            raise ParseError(f"row {lineno}: entry outside 0..{q - 1}")
        rows.append(vals)
    columns = None
    ambient = None
    if mode != "raw":
        n = dim - 1
        space = Space(field, max(n, 1))
        expected = (
            space.size - 1 if mode == "affine" else (space.size - 1) // (q - 1)
        )
        if n < 1 or expected != length:
            raise ParseError(
                f"{mode} mode: length {length} does not match dimension {dim}"
            )
        columns = (
            space.affine_point_encodings()
            if mode == "affine"
            else space.projective_point_encodings()
        )
        ambient = n
    code = LinearCode(
        field, np.array(rows), mode=mode, columns=columns, ambient_n=ambient
    )
    if code.dim != dim:
        raise ParseError(f"stored rows have rank {code.dim}, header claims {dim}")
    return code


def _literal_head(head, field):
    if field.m > 1:
        head += " " + " ".join(str(c) for c in field.modulus)
    return head


def literal_format_point_set(pset):
    space = pset.space
    lines = [_literal_head(f"{space.q} {space.n}", space.field)]
    for coords in pset.points():
        lines.append(" ".join(str(c) for c in coords))
    return "\n".join(lines) + "\n"


def literal_format_function_table(f):
    space = f.space
    lines = [_literal_head(f"{space.q} {space.n}", space.field)]
    tab = f.table()
    for e in np.nonzero(tab)[0]:
        coords = space.decode(int(e))
        lines.append(" ".join(str(c) for c in coords) + f" {int(tab[e])}")
    return "\n".join(lines) + "\n"


def literal_format_generator_matrix(code):
    mode = code.mode
    if mode != "raw" and (code.ambient_n is None or code.dim != code.ambient_n + 1):
        mode = "raw"
    lines = [_literal_head(f"{code.field.q} {code.length} {code.dim} {mode}", code.field)]
    for row in code.basis:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"
