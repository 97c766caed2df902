"""Compiled level schedule: the one engine behind every forward and backward pass.

An architecture is compiled on its first pass and the schedule is cached on
it.  Its levels are ``arch.levels`` (inputs at depth 0, every other neuron
one deeper than its deepest antecedent), so a level reads only values of
earlier levels.  Each level is split into blocks of one kind: the affine rows
(identity and relu), and the pool rows sharing one order k.  A block holds a
padded slot matrix with one row per neuron and one slot per antecedent, in
stored antecedent order, giving the antecedent's position and the edge's
coordinate.  Padding slots point at an appended zero value row and an
appended 0.0 weight, so they add exactly nothing, even next to an infinite
value.  The transposed matrix lists, per source neuron, the out-edges into
the block; the backward pass gathers over it instead of scattering.

Kernels, all in float64:

* a block whose rows all read the same sources is one matrix product
  (every MLP layer, the dense head of a conv grid);
* any other affine block has a period G <= rows, row r reading the sources
  of row r mod G (a conv level: G grid positions, F = rows / G filters):
  each source row is gathered once, in blocks of about 1 MB so memory
  stays bounded at any batch size, for one (F, K) by (K, B) product per
  group; the adjoint is the same product over the transposed matrix;
* a pool block takes the k-th largest contribution over its gathered block
  and routes to the first slot attaining it: the forward pass, the
  gradient and the path activations share this tie-break;
* with ``sum_pools`` a pool block sums its contributions instead, by the
  affine kernel over its own slot matrices with no bias and no floor.
  Fed |theta|**q and the all-ones input, this pass gives the path norm
  (every pool counting all its paths), on the same compiled schedule.

The summation order depends only on the architecture and the batch size,
never on values, so a power-of-two rescaling moves every result by exactly
its power of two.

Stacks.  :func:`run`, :func:`gradient` and :func:`activations` take the
raw parameter array, one vector (n_coords,) or a stack (P, n_coords), and
give a stack a leading axis P on every result: values and adjoints
(P, n_neurons + 1, B), gradients (P, n_coords).  Every pass runs on that
one shape: a vector is a stack of one, reshaped on the way in and
unwrapped on the way out.  Every gathered operand is ``np.take`` along
the neuron axis of the (P, n_neurons + 1, B) table (or along the
coordinate axis of the padded weight rows), never a fancy index between
two slices, which would put P innermost in memory and make ``np.matmul``
leave BLAS and round differently.  A table of positions that is one
contiguous run is kept as a slice and read as a view instead: a block's
rows, its shared source rows, its edge coordinates, its bias coordinates,
and the input and output rows.  Every block of an MLP or a conv grid reads
its weights so; the padded blocks of other DAGs take them by position.
Either way every operand is item-major, each item's product is the BLAS
call of a single pass, and every item of a stack is bit for bit its own
single pass.  The engine trusts its callers: the public wrappers
(``forward``, ``grad_scalar``, ...) check the ParamVector and the input.

Tapes.  Every pass writes its value, winner and adjoint tables and its
padded weight and gradient rows into a :class:`Tape`, the only place
pass arrays are allocated.  The first :func:`run` on a tape binds each
block's operands that are slices (weights, bias column, shared source
rows, and for one item the destination rows) as views of the tape, and
its chunks (a block that fits in one, as every block of a small net does,
is gathered and written whole), the first :func:`gradient` the sweep's
views; every pass then reads and writes through them (``out=`` products,
bias and relu in place).  A caller that repeats passes of one shape (a
training loop, the bisection of ``activation_breakpoints``) may own a
tape and hand it to :func:`run`, :func:`gradient` and :func:`activations`:
a logistic ``grad_scalar`` step of the (2, 16, 16, 2) MLP at batch 256
then takes about 116 us for one vector and 271 us for a stack of three on
a 2-CPU machine, 0.84x and 0.86x a step that rebuilds its views.  Any
other pass gets a fresh tape and binds as it goes.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, finite
from .graph import KPOOL, RELU, Architecture

# doubles in one gathered block (1 MB)
_BLOCK_ELEMS = 1 << 17


def _index(ix: np.ndarray):
    """A slice when the positions are one contiguous run (indexing with it
    gives a view), the positions themselves otherwise."""
    if ix.size and ix[-1] - ix[0] + 1 == ix.size and np.all(np.diff(ix) == 1):
        return slice(int(ix[0]), int(ix[-1]) + 1)
    return ix


def _period(idx: np.ndarray) -> int:
    """The smallest G dividing the row count such that row r of ``idx``
    equals row r mod G: only a row equal to row 0 can end the first period."""
    rows, width = idx.shape
    for g in np.flatnonzero(idx[1:, 0] == idx[0, 0]) + 1:
        if rows % g == 0 and np.array_equal(idx[g], idx[0]) and (idx.reshape(-1, g, width) == idx[:g]).all():
            return int(g)
    return rows


class _Block:
    """The rows ``sel`` of a level, all of one kind, with their slot matrices.

    ``src``: (rows, K) antecedent positions, padded with the zero value row
    ``n``.  ``coord``: the edge coordinates of those slots, row by row and
    padded with the zero weight ``n_coords``, as one slice when they are a
    contiguous run (every block of an MLP or a conv grid), as flat positions
    otherwise; ``bias`` likewise holds the rows' bias coordinates.
    ``shared``: the one source row every row reads, when there is one.
    ``groups``/``tgroups``: the first G rows of ``src``/``trow``, G their
    smallest period (row r repeats row r mod G); all of them on a pool block.
    ``k``: 0 for affine rows, the pool order otherwise.  ``floor``: what
    the pre-activation is clipped at (0.0 on relu rows, -inf on identity
    rows), None when no row is relu.  ``valid``: on a pool block with
    padding, which slots are real (padding must lose every comparison).
    ``trow``/``tcoord``/``tslot``: per source in ``tsrc``, the destination
    neuron, edge coordinate and (pool blocks only) slot of each out-edge
    into the block, padded like ``src``.
    """

    __slots__ = ("rows", "at", "src", "groups", "coord", "shared", "k", "floor", "bias",
                 "valid", "tsrc", "trow", "tgroups", "tcoord", "tslot")

    def __init__(self, arch: Architecture, level: tuple, sel: np.ndarray, k: int):
        n, nc = arch.n_neurons, arch.n_coords
        rows, edges, starts = level
        fan = np.diff(starts, append=edges.size)
        rows, coord, fan = rows[sel], edges[np.repeat(sel, fan)], fan[sel]  # coord: row by row
        width = int(fan.max())
        valid = np.arange(width) < fan[:, None]
        self.rows = rows
        self.at = _index(rows)
        self.k = int(k)
        # int32 halves the schedule's memory; numpy widens it per gather
        self.src = np.full((rows.size, width), n, dtype=np.int32)
        slots = np.full((rows.size, width), nc, dtype=np.int32)
        self.src[valid] = arch.src[coord]
        slots[valid] = coord
        self.coord = _index(slots.reshape(-1))
        self.valid = None if k == 0 or valid.all() else valid[:, :, None]
        # pool rows read the padding weight as their (pinned) bias, by position
        self.bias = _index(arch.bias_coord[rows]) if k == 0 else np.full(rows.size, nc)
        relu = arch.kinds[rows] == RELU
        if k or not relu.any():
            self.floor = None
        elif relu.all():
            self.floor = 0.0
        else:
            self.floor = np.where(relu, 0.0, -np.inf)[:, None]

        self.shared = self.tslot = None
        self.groups = self.src[: _period(self.src)] if k == 0 else self.src
        if k == 0 and len(self.groups) == 1:
            self.shared = _index(self.src[0].astype(np.int64))
            return
        # the block's slots in source order, each source's in row order
        r, slot = np.nonzero(valid)  # row by row, as ``coord``
        order = np.argsort(arch.src[coord], kind="stable")
        r, slot, e = r[order], slot[order], coord[order]
        src = arch.src[e]
        first = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        counts = np.diff(np.r_[first, src.size])
        m = np.repeat(np.arange(first.size), counts)
        t = np.arange(src.size) - np.repeat(first, counts)
        shape = (first.size, int(counts.max()))
        self.tsrc = _index(src[first])
        self.trow = np.full(shape, n, dtype=np.int32)
        self.tcoord = np.full(shape, nc, dtype=np.int32)
        self.trow[m, t] = rows[r]
        self.tcoord[m, t] = e
        self.tgroups = self.trow[: _period(self.trow)] if k == 0 else self.trow
        if k:
            self.tslot = np.zeros(shape, dtype=np.int32)
            self.tslot[m, t] = slot


class Schedule:
    """Blocks of every level, in level order (see the module docstring):
    one tuple per entry of ``arch.levels``, so ``len(levels)`` is the
    longest path of the network.  ``inputs``/``outputs``: the input and
    output neurons' rows, a slice when they are one contiguous run.
    What :func:`activations` reads besides the tape: ``always_on``, the
    neurons active as a start at any input (all but relu); ``pool_edges``,
    the coordinates of the edges into pool neurons, with their
    destinations' rows ``pool_dst`` and their slots ``pool_slot``."""

    __slots__ = ("levels", "win_dtype", "inputs", "outputs", "always_on", "pool_edges", "pool_dst",
                 "pool_slot")

    def __init__(self, arch: Architecture):
        self.inputs, self.outputs = _index(arch.input_pos), _index(arch.output_pos)
        self.always_on = arch.kinds != RELU
        self.pool_edges = np.flatnonzero(arch.kinds[arch.dst] == KPOOL)
        self.pool_dst = arch.dst[self.pool_edges]
        self.pool_slot = self.pool_edges - arch.in_ptr[self.pool_dst]
        pool = arch.kinds == KPOOL
        pool_fan = np.diff(arch.in_ptr)[pool]
        self.win_dtype = np.min_scalar_type(-pool_fan.max()) if pool_fan.size else None
        pool_k = np.where(pool, arch.pool_k, 0)
        self.levels = tuple(
            tuple(_Block(arch, level, pool_k[level[0]] == k, k) for k in np.unique(pool_k[level[0]]))
            for level in arch.levels
        )


def schedule(arch: Architecture) -> Schedule:
    """The architecture's compiled schedule, built on first use and cached."""
    sched = getattr(arch, "_schedule", None)
    if sched is None:
        sched = arch._schedule = Schedule(arch)
    return sched


def _chunks(rows: int, width: int, batch: int) -> tuple:
    """Slices of rows gathering about _BLOCK_ELEMS doubles each; slice(None) when one holds all."""
    step = max(1, _BLOCK_ELEMS // max(width * batch, 1))
    return (slice(None),) if 0 < rows <= step else tuple(slice(lo, lo + step) for lo in range(0, rows, step))


def _view(table, ix):
    """Entries ``ix`` along axis 1 of ``table``, a view, when ``ix`` is a
    slice; None for positions (or None), which a pass gathers or scatters."""
    return table[:, ix] if isinstance(ix, slice) else None


def _weights(wpad, blk: _Block):
    """The block's slot weights (P, rows, K) from the padded weights
    ``wpad``: a view when its coordinates are one contiguous run."""
    w = wpad[:, blk.coord] if isinstance(blk.coord, slice) else wpad.take(blk.coord, axis=1)
    return w.reshape((wpad.shape[0],) + blk.src.shape)


def _gathered_product(w, table, idx, out=None, chunks=None):
    """out[p, r, :] = sum over slots s of w[p, r, s] * table[p, idx[r % G, s]]
    for the G = len(idx) source rows: (P, rows, B), one (F, K) by (K, B) product
    per group of F = rows / G rows, by ``chunks`` of them (else :func:`_chunks`), into ``out`` when given."""
    p, batch = table.shape[0], table.shape[2]
    groups, width = idx.shape
    out = np.empty((p, w.shape[1], batch)) if out is None else out
    wg = w.reshape(p, -1, groups, width).swapaxes(1, 2)
    og = out.reshape(p, -1, groups, batch).swapaxes(1, 2)
    for c in chunks or _chunks(groups, p * width, batch):
        og[:, c] = np.matmul(wg[:, c], table.take(idx[c], axis=1))
    return out


def _slot_products(table, idx, g, out=None):
    """out[p, r, s] = sum over the batch of table[p, idx[r % G, s]] * g[p, r]
    for the G = len(idx) source rows: (P, rows, K), one product per group."""
    p, batch = g.shape[0], g.shape[2]
    groups, width = idx.shape
    out = np.empty(g.shape[:2] + (width,)) if out is None else out
    og = out.reshape(p, -1, groups, width).transpose(0, 2, 3, 1)
    gg = g.reshape(p, -1, groups, batch).transpose(0, 2, 3, 1)
    for c in _chunks(groups, p * width, batch):
        og[:, c] = np.matmul(table.take(idx[c], axis=1), gg[:, c])
    return out


def _pool_forward(blk: _Block, chunks, w, vals, win):
    """The block's pool rows of ``vals`` and their winners in ``win`` from
    the slot weights ``w`` (P, rows, K), by the ``chunks`` a tape bound."""
    kth_slot = blk.src.shape[1] - blk.k
    for c in chunks:
        contrib = w[:, c, :, None] * vals.take(blk.src[c], axis=1)
        if blk.valid is not None:
            contrib = np.where(blk.valid[c], contrib, -np.inf)
        if blk.k == 1:
            kth = contrib.max(axis=-2)
        else:
            kth = contrib.copy()
            kth.partition(kth_slot, axis=-2)
            kth = kth[..., kth_slot, :]
        at = blk.rows[c] if c.stop else blk.at  # the whole block writes through its slice
        vals[:, at] = kth
        win[:, at] = (contrib == kth[..., None, :]).argmax(axis=-2)


class Tape:
    """The arrays of passes of one shape: the value table (and pool
    winners), the adjoint table, and the padded weight and gradient rows
    of a stack of ``stack`` parameter vectors over a batch of ``batch``
    inputs.

    Every pass of :func:`run` and :func:`gradient` writes into one; a
    caller that hands its own as ``tape=`` (a training loop) maps no fresh
    memory per step.  Each pass rewrites every entry it reads, so nothing
    of an earlier pass survives.  What a pass returns lives in the tape
    and is overwritten by its next pass.  The first gradient allocates
    the adjoint and gradient rows; ``fwd`` and ``bwd`` hold the bindings.
    """

    __slots__ = ("vals", "win", "adj", "wpad", "gpad", "fwd", "bwd")

    def __init__(self, arch: Architecture, batch: int, stack: int = 1):
        win_dtype = schedule(arch).win_dtype
        self.vals = np.empty((int(stack), arch.n_neurons + 1, int(batch)))
        self.win = None if win_dtype is None else np.full(self.vals.shape, -1, win_dtype)
        self.wpad = np.zeros((int(stack), arch.n_coords + 1))
        self.adj = self.gpad = self.fwd = self.bwd = None


def _tape(arch: Architecture, tape: Tape | None, stack: int, batch: int) -> Tape:
    """``tape``, or a fresh one when None, for a pass of ``stack``
    parameter vectors over ``batch`` inputs."""
    if tape is None:
        return Tape(arch, batch, stack)
    want = (stack, arch.n_neurons + 1, batch), (stack, arch.n_coords + 1)
    if (tape.vals.shape, tape.wpad.shape) != want:
        raise DimensionMismatch(
            f"tape holds values {tape.vals.shape} and weights {tape.wpad.shape}, "
            f"the pass needs {want[0]} and {want[1]}"
        )
    return tape


def _bind_run(tape: Tape, sched: Schedule) -> list:
    """Per block, in level order: (block, slot weights, shared source rows,
    bias column, destination rows, its groups' chunks), each view of the tape
    or None where the pass gathers by position.  A stack's rows, strided by
    the other items, take elementwise writes at half speed: its product is
    computed in a fresh array and copied, not bound."""
    vals, wpad = tape.vals, tape.wpad
    cols = wpad[..., None]  # bias columns by one basic index
    p, batch = vals.shape[0], vals.shape[2]
    bound = []
    for level in sched.levels:
        for blk in level:
            # views built inline: every fresh tape binds, and on small nets each call shows
            coord, shared, bias, at = blk.coord, blk.shared, blk.bias, blk.at
            bound.append((
                blk, wpad[:, coord].reshape((p,) + blk.src.shape) if isinstance(coord, slice) else None,
                vals[:, shared] if isinstance(shared, slice) else None,
                cols[:, bias] if isinstance(bias, slice) else None,
                vals[:, at] if p == 1 and isinstance(at, slice) else None,
                _chunks(len(blk.groups), p * blk.src.shape[1], batch),
            ))
    return bound


def _bind_gradient(tape: Tape, sched: Schedule) -> tuple:
    """Allocate the tape's adjoint and gradient rows; return the rows each
    sweep zeroes (all but the outputs') and, per block in reverse level
    order, (block, whether its sources need adjoints, its adjoint rows,
    bias and slot gradients, transposed weights, shared sources' adjoints)."""
    adj = tape.adj = np.empty(tape.vals.shape)
    gpad = tape.gpad = np.zeros(tape.wpad.shape)
    wpad, out = tape.wpad, sched.outputs
    rest = (adj[:, : out.start], adj[:, out.stop :]) if isinstance(out, slice) else (adj,)
    bound = []
    for depth in range(len(sched.levels) - 1, -1, -1):
        for blk in sched.levels[depth]:
            coord = _view(gpad, blk.coord)
            gcoord = None if coord is None else coord.reshape((len(gpad),) + blk.src.shape)
            wt = None if coord is None or blk.shared is None else _weights(wpad, blk).swapaxes(-1, -2)
            # the first level reads only inputs, whose adjoints nothing needs
            bound.append((blk, depth > 0, _view(adj, blk.at), _view(gpad, blk.bias), gcoord, wt,
                          _view(adj, blk.shared)))
    return rest, bound


def run(arch: Architecture, theta: np.ndarray, x, sum_pools: bool = False, *, tape: Tape | None = None):
    """Forward tape of the parameter array ``theta``, one vector (n_coords,)
    or a stack (P, n_coords), over a finite float batch ``x`` of shape
    (B, d_in), or one input (d_in,), which the caller has checked.

    Returns ``(vals, win)``: ``vals`` (n_neurons + 1, B) holds every
    neuron's value per batch element, with the zero row last; ``win``
    (n_neurons + 1, B) holds each pool neuron's selected slot and -1
    elsewhere, in the narrowest integer type that fits, or is None when the
    network has no pool neuron or ``sum_pools`` makes every pool neuron
    the sum of its weighted antecedents.  A stack gives both a leading
    axis P, and item i equals the pass of ``theta[i]`` bit for bit.
    Both live in ``tape`` (a fresh :class:`Tape` when None), which must
    have the pass's shape.
    """
    if theta.ndim not in (1, 2) or theta.shape[-1] != arch.n_coords:
        raise DimensionMismatch(
            f"parameters must have shape ({arch.n_coords},) or (P, {arch.n_coords}), got {theta.shape}"
        )
    x = x[None, :] if x.ndim == 1 else x
    stack = theta.reshape(-1, arch.n_coords)
    tape = _tape(arch, tape, stack.shape[0], x.shape[0])
    vals, wpad = tape.vals, tape.wpad
    win = None if sum_pools else tape.win
    sched = schedule(arch)
    if tape.fwd is None:
        tape.fwd = _bind_run(tape, sched)
    wpad[:, :-1] = stack
    vals[:, sched.inputs, :] = x.T
    vals[:, -1, :] = 0.0
    for blk, w, src, bias, dst, chunks in tape.fwd:
        if w is None:
            w = _weights(wpad, blk)
        if blk.k and win is not None:
            _pool_forward(blk, chunks, w, vals, win)
            continue
        if blk.shared is not None:
            pre = np.matmul(w, vals.take(blk.shared, axis=1) if src is None else src, out=dst)
        else:
            pre = _gathered_product(w, vals, blk.groups, dst, chunks)
        pre += wpad.take(blk.bias, axis=1)[..., None] if bias is None else bias
        if blk.floor is not None:
            np.maximum(pre, blk.floor, out=pre)
        if dst is None:
            vals[:, blk.at, :] = pre
    if theta.ndim == 1:
        return vals[0], None if win is None else win[0]
    return vals, win


def _finite_run(arch: Architecture, theta: np.ndarray, x):
    """The values of :func:`run` on a fresh tape, raising NonFiniteValue,
    without a numpy warning, when any of them overflows float64."""
    return finite("the forward pass overflows float64", lambda: run(arch, theta, x)[0])


def gradient(
    arch: Architecture, theta: np.ndarray, vals, win, out_adjoint, *, tape: Tape | None = None
) -> np.ndarray:
    """Adjoint sweep over the tape of :func:`run` of the parameter array
    ``theta``, one vector (n_coords,) or a stack (P, n_coords); returns the
    gradient over the parameter coordinates, with a leading axis P for a
    stack, item i bit for bit the sweep of ``theta[i]`` alone.

    ``out_adjoint`` (d_out, B), or (P, d_out, B) for a stack, is the
    derivative of the scalar being differentiated with respect to each
    output neuron, per batch element; it may be the tape's own output
    adjoint rows (output neurons feed nothing, so no sweep writes them).
    Relu passes a zero subgradient at exactly 0, a pool neuron routes its
    adjoint to its selected slot only (to every slot on the tape of a
    ``sum_pools`` pass, whose ``win`` is None), and pinned pool biases
    get 0, which the tape's gradient rows hold from their allocation on (a
    caller writing into the returned gradient must leave them 0).  The
    sweep's adjoint and gradient rows live in ``tape`` (a fresh
    :class:`Tape` when None), the one ``run`` filled or another of its
    shape.
    """
    sched = schedule(arch)
    stack = theta.reshape(-1, arch.n_coords)
    vals = vals.reshape(stack.shape[0], arch.n_neurons + 1, vals.shape[-1])
    win = None if win is None else win.reshape(vals.shape)
    p = vals.shape[0]
    tape = _tape(arch, tape, p, vals.shape[2])
    if tape.bwd is None:
        tape.bwd = _bind_gradient(tape, sched)
    wpad, gpad, adj = tape.wpad, tape.gpad, tape.adj
    rest, bound = tape.bwd
    wpad[:, :-1] = stack
    # no gradient row is zeroed: the sweep rewrites every coordinate but the
    # pinned pool biases, which stay 0 from the allocation (pool blocks send
    # their bias sums to the padding column)
    for rows in rest:
        rows.fill(0.0)
    adj[:, sched.outputs, :] = out_adjoint
    for blk, inner, g, gbias, gcoord, wt, asrc in bound:
        if blk.k and win is not None:
            _pool_backward(blk, wpad, vals, win, adj, gpad, inner)
            continue
        if blk.floor is not None:
            # a stack's strided rows take a float mask: multiplying them by a bool one,
            # which numpy casts, runs at half speed
            shape = (p, blk.rows.size, vals.shape[2])
            mask = np.greater(vals[:, blk.at, :], blk.floor, out=np.empty(shape) if p > 1 else None)
            if g is None:  # masked in the table, which the transposed product reads
                adj[:, blk.at, :] *= mask
            else:
                g *= mask
        if g is None:
            g = adj.take(blk.at, axis=1)
        sums = np.add.reduce(g, axis=-1, out=gbias)
        if gbias is None:
            gpad[:, blk.bias] = sums
        if blk.shared is not None:
            src = vals[:, blk.shared] if isinstance(blk.shared, slice) else vals.take(blk.shared, axis=1)
            prod = np.matmul(g, src.swapaxes(-1, -2), out=gcoord)
        else:
            prod = _slot_products(vals, blk.groups, g, gcoord)
        if gcoord is None:
            gpad[:, blk.coord] = prod.reshape(p, -1)
        if not inner:
            continue
        if blk.shared is None:
            adj[:, blk.tsrc] += _gathered_product(wpad.take(blk.tcoord, axis=-1), adj, blk.tgroups)
            continue
        back = (_weights(wpad, blk).swapaxes(-1, -2) if wt is None else wt) @ g
        if asrc is None:
            adj[:, blk.shared, :] += back
        else:
            asrc += back
    grad = gpad[:, :-1]
    return grad if theta.ndim == 2 else grad[0]


def _pool_backward(blk: _Block, wpad, vals, win, adj, gpad, inner: bool):
    rows, width = blk.src.shape
    p, batch = vals.shape[0], vals.shape[2]
    slots = np.arange(width)[:, None]
    grad = np.empty((p, rows, width))
    for c in _chunks(rows, p * width, batch):
        at = blk.rows[c]
        routed = (win.take(at, axis=1)[:, :, None, :] == slots) * adj.take(at, axis=1)[:, :, None, :]
        grad[:, c] = np.einsum("prsb,prsb->prs", vals.take(blk.src[c], axis=1), routed)
    gpad[:, blk.coord] = grad.reshape(p, -1)
    if not inner:
        return
    # per source, the adjoints of the slots it won, weighted by their edges
    wt = wpad.take(blk.tcoord, axis=-1)
    out = np.empty((p, blk.trow.shape[0], batch))
    for c in _chunks(blk.trow.shape[0], p * blk.trow.shape[1], batch):
        trow = blk.trow[c]
        routed = adj.take(trow, axis=1) * (win.take(trow, axis=1) == blk.tslot[c, :, None])
        out[:, c] = np.matmul(wt[:, c, None, :], routed)[:, :, 0, :]
    adj[:, blk.tsrc] += out


def activations(arch: Architecture, theta: np.ndarray, x, *, tape: Tape | None = None):
    """Boolean activation per edge coordinate and per neuron as a path start
    at the checked input x (d_in,), for the parameter array ``theta`` (a
    stack gives both a leading axis), read off the forward tape.

    A start is active unless it is a relu neuron whose value is not strictly
    positive.  An edge into a relu or identity neuron takes that neuron's
    start activation (identity neurons are always active); an edge into a
    pool neuron is active only from the selected slot.  The always-on
    starts and the pool edges' rows and slots are compiled once per
    architecture, on its schedule.  The pass runs on ``tape`` as :func:`run`'s.
    """
    vals, win = run(arch, theta, x, tape=tape)
    sched = schedule(arch)
    start = sched.always_on | (vals[..., :-1, 0] > 0.0)
    edge = start.take(arch.dst, axis=-1)
    if win is not None:
        edge[..., sched.pool_edges] = win[..., 0].take(sched.pool_dst, axis=-1) == sched.pool_slot
    return edge, start
