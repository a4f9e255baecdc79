"""Hill monodromy: fundamental solutions at x=1 and their lambda-derivatives.

For a piecewise-constant potential the propagator over one period is an
exact product of per-piece factors

    T(w, mu) = [[ C,  S ],          C = cos(w sqrt(mu)),
                [-mu*S, C ]]        S = sin(w sqrt(mu)) / sqrt(mu),

with mu = lambda - v.  Both entries are entire in mu (hyperbolic branch
for mu < 0, power series near mu = 0), so evaluation works for any real
lambda without branch trouble.  First and second lambda-derivatives are
carried through the product exactly.

`transfer(q, lam, order)` is the one entry point to that product.  It
returns the jet (P, P', P'') through `order`: order 0 builds P alone,
order 1 adds P', order 2 (the default) adds P''.  Callers ask for the
least they read: critical points need P'', edges, Dirichlet roots and
masses P', quasimomentum values P.  The pieces are applied by one loop
(`_fold`) that keeps the twelve entries of the jet in local variables
and writes the steps P'' <- (T'' P + T P'') + 2 T' P', P' <- T' P + T P'
and P <- T P out entry by entry, with the additions and multiplications
of the 2x2 products in the order a product of tuples makes them
(tests/oracles.py keeps that product as the reference).  So every order
gives the entries it returns bit for bit as the full jet: the lower
derivatives never read the higher ones, which are only skipped.  For a
potential of at most _BLOCK (8, kept in _rootfind beside the lane rule
that depends on it) pieces the loop runs over all pieces from the
identity.

A longer potential (a projection onto DEFAULT_MESH = 64 pieces) is a
product of blocks.  Its pieces are cut into blocks of _BLOCK consecutive
pieces, the last one shorter when the count is no multiple of _BLOCK;
the jet of each block is the same loop from the identity, and the
block jets are multiplied in adjacent pairs, the later block on the
left, in the same (T'' P + T P'') + 2 T' P' order (`_mul`), level by
level until one is left (an odd block at the end of a level waits for
the next).  On an array every block steps at once, as the rows of
(blocks, lanes) arrays, and each level multiplies all its pairs at
once: a 64-piece call makes 8 steps and 3 levels of numpy calls
instead of 64 steps.  One lambda takes the same association.  _BLOCK
is at least 6, so that the named potentials and every potential of 1-6
pieces keep the bits of the product piece after piece, and 8 cuts the
64 pieces of a projection into full blocks and levels without an odd
block.  So potentials of at most 8 pieces keep their bits, and longer
ones moved by about 1e-14 relative when blocks came in: against the
exact product of the same float factors the blocked and the sequential
products err by the same few 1e-15 (tests/test_jet.py).

`transfer` takes one lambda or a float64 array of them; the root engine
of `_rootfind` passes arrays of every live lane of a phase once its
lane rule `_lockstep` says so (from _LOCKSTEP_GAPS lambdas at up to 8
pieces, from 256 / pieces lambdas beyond), once per step of a scan or
of a deep solve (fewer go one lambda at a time).  An array gives the
same numbers as one lambda at a time, bit for bit: numpy's elementwise
+ - * / and sqrt round exactly like Python floats, both kinds share
`_closed_form`, the steps and the association, cos/sin/cosh/sinh go
through `math` one lambda at a time (numpy's versions can differ from
libm in the last bit), in one pass over the hyperbolic lanes (mu < 0)
and one over the others, and lanes in the series window
|mu| <= _SERIES_CUT are computed by `_factor` itself.
"""

from __future__ import annotations

import math

import numpy as np

from ._rootfind import _BLOCK, _roots_all
from .potential import PotentialSpec

# Below this |mu| the closed forms for S and its mu-derivatives lose
# digits to 0/0 cancellation; the power series is exact to ~1e-13 there.
_SERIES_CUT = 1e-6

Mat = tuple[float, float, float, float]  # row-major 2x2
# C and S of one piece with their mu-derivatives, (C, S, C', S', C'', S''),
# None beyond the order asked for
Factor = tuple
# (P, P', P'') of no piece: where every block starts
_IDENTITY = ((1.0, 0.0, 0.0, 1.0), (0.0,) * 4, (0.0,) * 4)


class _JetOverflowError(ValueError):
    """cosh or sinh of a piece overflows a float at lambda: lambda lies
    too far below the potential for its monodromy to be represented."""

    def __init__(self, lam: float):
        self.lam = lam
        super().__init__(f"lambda={lam} lies too far below the potential: "
                         "its monodromy overflows a float")


def _factor(w: float, mu: float, order: int = 2) -> Factor:
    """C and S of one piece of width w and their mu-derivatives through
    `order`."""
    if mu > _SERIES_CUT:
        r = math.sqrt(mu)
        return _closed_form(w, mu, math.cos(w * r), math.sin(w * r) / r,
                            order)
    if mu < -_SERIES_CUT:
        r = math.sqrt(-mu)
        return _closed_form(w, mu, math.cosh(w * r), math.sinh(w * r) / r,
                            order)
    w2 = w * w
    w3 = w2 * w
    w4 = w2 * w2
    w5 = w4 * w
    w6 = w4 * w2
    w7 = w6 * w
    c = 1.0 + mu * (-w2 / 2.0 + mu * (w4 / 24.0 - mu * w6 / 720.0))
    s = w * (1.0 + mu * (-w2 / 6.0 + mu * (w4 / 120.0 - mu * w6 / 5040.0)))
    c1 = -w2 / 2.0 + mu * (w4 / 12.0 - mu * w6 / 240.0)
    s1 = -w3 / 6.0 + mu * (w5 / 60.0 - mu * w7 / 1680.0)
    c2 = w4 / 12.0 - mu * w6 / 120.0
    s2 = w5 / 60.0 - mu * w7 / 840.0
    return c, s, c1, s1, c2, s2


def _closed_form(w, mu, c, s, order: int) -> Factor:
    """The factor from C and S off the series window (trigonometric or
    hyperbolic), for floats or float64 arrays alike."""
    if not order:
        return c, s, None, None, None, None
    c1 = -0.5 * w * s
    s1 = (w * c - s) / (2.0 * mu)
    if order == 1:
        return c, s, c1, s1, None, None
    c2 = -0.5 * w * s1
    s2 = (w * c1 - 3.0 * s1) / (2.0 * mu)
    return c, s, c1, s1, c2, s2


def _factor_batch(w, mu: np.ndarray, order: int = 2) -> Factor:
    """_factor over a float64 array of mu, entry for entry the same
    numbers; w is a float, or an array that broadcasts against mu (the
    widths of one step of every block, as a column)."""
    hyp = mu < -_SERIES_CUT
    series = np.flatnonzero(np.abs(mu) <= _SERIES_CUT).tolist()
    exact = mu
    if series:
        mu = mu.copy()
        mu.flat[series] = 1.0  # any trigonometric lane; overwritten below
    r = np.sqrt(np.abs(mu))
    wr = w * r
    if hyp.any():
        # libm once per branch, on the hyperbolic and the other lanes
        c, sn = np.empty_like(wr), np.empty_like(wr)
        for lanes, cf, sf in ((hyp, math.cosh, math.sinh),
                              (~hyp, math.cos, math.sin)):
            x = wr[lanes].tolist()
            c[lanes] = np.fromiter(map(cf, x), float, len(x))
            sn[lanes] = np.fromiter(map(sf, x), float, len(x))
    else:
        x = wr.ravel().tolist()
        c = np.fromiter(map(math.cos, x), float, len(x)).reshape(wr.shape)
        sn = np.fromiter(map(math.sin, x), float, len(x)).reshape(wr.shape)
    out = _closed_form(w, mu, c, sn / r, order)
    if series:
        ws = np.broadcast_to(w, wr.shape)
    for i in series:
        for arr, v in zip(out, _factor(float(ws.flat[i]),
                                       float(exact.flat[i]), order)):
            if arr is not None:
                arr.flat[i] = v
    return out


def transfer(q: PotentialSpec, lam: float | np.ndarray, order: int = 2
             ) -> tuple[Mat, ...]:
    """The monodromy matrix over one period with its lambda-derivatives.

    Returns the jet through `order` (0, 1 or 2): (P,), (P, dP) or
    (P, dP, d2P), each row-major (theta1, phi1, theta1', phi1').  For a
    float64 array lam each matrix entry is an array of the values at its
    entries.  Each factor comes from _factor for one lambda and from
    _factor_batch for an array.  Where cosh of a piece overflows, both
    raise _JetOverflowError naming the lambda (for an array the lowest,
    which overflows first).

    Up to _BLOCK pieces the jet is _fold from the identity, piece after
    piece; beyond, _blocked multiplies it by blocks (see the module
    docstring).
    """
    pieces = q.pieces
    if len(pieces) > _BLOCK:
        return _blocked(pieces, lam, order)
    return _fold(pieces, lam, order, _IDENTITY)[:order + 1]


def _fold(pieces, lam, order: int, jet: tuple) -> tuple:
    """`jet` (P, P', P'') with the factors of the (width, value) pieces
    applied in turn: one loop that keeps the twelve entries of the jet
    in local variables and writes each step out entry by entry.  Only
    the matrices through `order` are read and updated; the others come
    back as they came in.  Widths and values may be (blocks, 1) columns
    against an array lam."""
    factor = _factor_batch if isinstance(lam, np.ndarray) else _factor
    (a, b, c, d), (a1, b1, c1, d1), (a2, b2, c2, d2) = jet
    for w, v in pieces:
        mu = lam - v
        try:
            tc, ts, tc1, ts1, tc2, ts2 = factor(w, mu, order)
        except OverflowError:
            raise _JetOverflowError(float(np.nanmin(lam))) from None
        tm = -mu * ts  # T = [[tc, ts], [tm, tc]]
        if order:
            tm1 = -ts - mu * ts1
            if order == 2:
                tm2 = -2.0 * ts1 - mu * ts2
                a2, b2, c2, d2 = (
                    tc2 * a + ts2 * c + (tc * a2 + ts * c2)
                    + 2.0 * (tc1 * a1 + ts1 * c1),
                    tc2 * b + ts2 * d + (tc * b2 + ts * d2)
                    + 2.0 * (tc1 * b1 + ts1 * d1),
                    tm2 * a + tc2 * c + (tm * a2 + tc * c2)
                    + 2.0 * (tm1 * a1 + tc1 * c1),
                    tm2 * b + tc2 * d + (tm * b2 + tc * d2)
                    + 2.0 * (tm1 * b1 + tc1 * d1))
            a1, b1, c1, d1 = (
                tc1 * a + ts1 * c + (tc * a1 + ts * c1),
                tc1 * b + ts1 * d + (tc * b1 + ts * d1),
                tm1 * a + tc1 * c + (tm * a1 + tc * c1),
                tm1 * b + tc1 * d + (tm * b1 + tc * d1))
        a, b, c, d = (tc * a + ts * c, tc * b + ts * d,
                      tm * a + tc * c, tm * b + tc * d)
    return (a, b, c, d), (a1, b1, c1, d1), (a2, b2, c2, d2)


def _mul(later: tuple, earlier: tuple, order: int) -> tuple:
    """The jet through `order` of two stretches in turn, `earlier`
    first, from their jets (at least through `order`): the step of
    _fold with the jet of `later` for (T, T', T''), in the same order of
    additions and multiplications."""
    (la, lb, lc, ld), (a, b, c, d) = later[0], earlier[0]
    jet = ((la * a + lb * c, la * b + lb * d,
            lc * a + ld * c, lc * b + ld * d),)
    if order:
        (la1, lb1, lc1, ld1), (a1, b1, c1, d1) = later[1], earlier[1]
        jet += ((la1 * a + lb1 * c + (la * a1 + lb * c1),
                 la1 * b + lb1 * d + (la * b1 + lb * d1),
                 lc1 * a + ld1 * c + (lc * a1 + ld * c1),
                 lc1 * b + ld1 * d + (lc * b1 + ld * d1)),)
    if order == 2:
        (la2, lb2, lc2, ld2), (a2, b2, c2, d2) = later[2], earlier[2]
        jet += ((la2 * a + lb2 * c + (la * a2 + lb * c2)
                 + 2.0 * (la1 * a1 + lb1 * c1),
                 la2 * b + lb2 * d + (la * b2 + lb * d2)
                 + 2.0 * (la1 * b1 + lb1 * d1),
                 lc2 * a + ld2 * c + (lc * a2 + ld * c2)
                 + 2.0 * (lc1 * a1 + ld1 * c1),
                 lc2 * b + ld2 * d + (lc * b2 + ld * d2)
                 + 2.0 * (lc1 * b1 + ld1 * d1)),)
    return jet


def _blocked(pieces, lam, order: int) -> tuple:
    """transfer of more than _BLOCK pieces: the jets of the blocks, then
    their products level by level.  On an array lam, step k takes piece
    k of every block that has one, so every entry of the jet is a
    (blocks, lanes) array, and the short last block drops out after its
    last piece; each level multiplies all its pairs at once."""
    if not isinstance(lam, np.ndarray):
        jets = [_fold(pieces[i:i + _BLOCK], lam, order, _IDENTITY)
                for i in range(0, len(pieces), _BLOCK)]
        while len(jets) > 1:
            jets = ([_mul(later, earlier, order)
                     for earlier, later in zip(jets[::2], jets[1::2])]
                    + jets[len(jets) - len(jets) % 2:])
        return jets[0]
    blocks = -(-len(pieces) // _BLOCK)
    last = len(pieces) - (blocks - 1) * _BLOCK  # pieces of the last block
    cols = np.array(pieces)[:, :, None]  # (pieces, 2, 1)
    steps = [(cols[k::_BLOCK, 0], cols[k::_BLOCK, 1]) for k in range(_BLOCK)]
    lanes = lam.ravel()
    jet = _fold(steps[:last], lanes, order, _IDENTITY)[:order + 1]
    if last < _BLOCK:
        tail = _rows(jet, slice(blocks - 1, None))
        head = _rows(jet, slice(0, blocks - 1)) + _IDENTITY[order + 1:]
        jet = _stack(_fold(steps[last:], lanes, order, head)[:order + 1],
                     tail)
    while blocks > 1:
        pairs = blocks // 2
        level = _mul(_rows(jet, slice(1, 2 * pairs, 2)),
                     _rows(jet, slice(0, 2 * pairs, 2)), order)
        if blocks % 2:
            level = _stack(level, _rows(jet, slice(blocks - 1, None)))
        jet, blocks = level, pairs + blocks % 2
    return tuple(tuple(e[0].reshape(lam.shape) for e in mat) for mat in jet)


def _rows(jet: tuple, rows) -> tuple:
    """A jet of (blocks, lanes) arrays at `rows`."""
    return tuple(tuple(e[rows] for e in mat) for mat in jet)


def _stack(top: tuple, bottom: tuple) -> tuple:
    """The rows of two jets of (blocks, lanes) arrays, top first."""
    return tuple(tuple(map(np.concatenate, zip(*mats)))
                 for mats in zip(top, bottom))


def dirichlet_spectrum(q: PotentialSpec, n_max: int) -> tuple[float, ...]:
    """Zeros of phi(1, .) with index 1..n_max (guesses near (pi n)^2 + q0),
    root n sought in the window ((pi (n - 1/2))^2 + q0, (pi (n + 1/2))^2
    + q0) around its guess."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    q0 = q.q0

    def f(lam):
        p, p1 = transfer(q, lam, 1)
        return p[1], p1[1]

    z = math.pi * (np.arange(1, n_max + 2) - 0.5)
    w = z * z + q0
    prefer = np.array([(math.pi * n) ** 2 + q0 for n in range(1, n_max + 1)])
    return tuple(_roots_all(f, lambda v, n: v, w[:-1], w[1:], prefer,
                            "dirichlet root", np.arange(1, n_max + 1),
                            len(q.pieces)).tolist())
