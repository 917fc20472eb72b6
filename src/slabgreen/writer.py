"""The CSV writer of the command line, and the row blocks a sweep is computed in.

A subcommand gives its table as parts, one per block of rows. Each part is
a pair: the (name, values) columns of those rows, and their error record
(see errors.row_errors) or None. A sweep is computed and written one block
at a time, so it holds one block's arrays, never the whole table's.
"""

import contextlib
import sys

import numpy as np

from .errors import raise_first, row_errors
from .identity import boundary_term_f, interior_integral

# Rows of a sweep computed at a time; the output does not depend on it.
# Blocks of 1024 keep a closed-form run near the floor set by start-up and
# the config (2 vCPUs, numpy 2.4.6, fresh processes): the bench's 30000-row
# sweeps peak at 30.0 MB and its 6000-entry limit-study at 30.2 MB, against
# 30.9 and 30.8 MB at 4096 rows. They compute the tabulated decay-scan
# in 22 ms and coefficients, both passes, in 29 ms, against 15 and 20 ms at
# 4096 rows and 57 and 59 ms at 256. At 1000 rows or more, decay-scan
# --oracle's 1000-row sweep stays one batched quadrature.
_SWEEP_ROWS = 1024

# CSV rows formatted and written at a time. At 256 the writer's floats and
# text for a 17-column table stay near 0.3 MB, and the write is no slower
# than with larger blocks.
_BLOCK_ROWS = 256


def _blocks(rows):
    """The slices that cut a sweep of `rows` rows into blocks of _SWEEP_ROWS rows."""
    return (slice(start, start + _SWEEP_ROWS) for start in range(0, rows, _SWEEP_ROWS))


def _checked_blocks(rows, *checks):
    """The blocks of _blocks(rows), once each check in turn has returned on every one.

    For a subcommand that any bad row fails: `check(block)` raises the first
    bad row's error. Each check runs over every block before the next, as one
    call over every row would, so no line is written before every row passes.
    """
    for check in checks:
        for block in _blocks(rows):
            check(block)
    return _blocks(rows)


def _context_check(make_context, geometry, model, omega, c):
    """A check for _checked_blocks that also returns a block's contexts.

    `make_context` is the caller's, which tracing may wrap; a failing row raises its DomainError.
    """
    def contexts(rows):
        errors = row_errors(omega[rows].shape)
        ctx = make_context(geometry, model, omega[rows], c=c, errors=errors)
        raise_first(errors)
        return ctx

    return contexts


def _identity_blocks(contexts, count, sources, tol):
    """The blocks of verify-identity's grid of omegas x sources x sources, once all are checked.

    Rows run over omega, then x_a, then x_b. `contexts` is the _context_check
    of the `count` omegas, taken _SWEEP_ROWS at a time; a block holds as many
    whole (omega, x_a) rows as fit in _SWEEP_ROWS rows, at least one. Every
    context is checked, then each source's own F(x_s, x_s) at each omega: a
    pair's F, Im G and quadrature phase are products of its two sources'
    factors (see slab_green._outgoing), which fail exactly where one of the
    sources' own F does. Then each omega row's interior integral is computed
    once; each block gives its omega rows, x_a, context and integral.
    """
    size = len(sources)
    step = max(1, _SWEEP_ROWS // size)  # (omega, x_a) rows per block

    def own_terms(chunk):
        ctx = contexts(chunk)
        errors = row_errors((ctx.shape[0], size))
        boundary_term_f(sources, sources, ctx.take(np.arange(ctx.shape[0])[:, None]), errors)
        raise_first(errors)

    for chunk in _checked_blocks(count, contexts, own_terms):
        rows = contexts(chunk)
        stalls = row_errors(rows.shape)
        value, estimate = interior_integral(rows, tol, stalls)
        pairs = range(chunk.start * size, min(chunk.stop, count) * size)
        for start in range(pairs.start, pairs.stop, step):
            pair = np.arange(start, min(start + step, pairs.stop))
            w = pair // size - chunk.start
            if w[0] == w[-1]:  # one omega row: one context row, and an omega column the writer formats once
                w = w[:1]
            w = w[:, None]
            yield chunk.start + w, sources[pair % size, None], rows.take(w), (value[w], estimate[w], stalls[w])


def _complex(name, z):
    """The real and imaginary parts of z as the columns name_re and name_im."""
    return [(f"{name}_re", np.real(z)), (f"{name}_im", np.imag(z))]


def _columns(columns):
    """The 1-d columns of a subcommand's (name, values) pairs.

    The values broadcast against each other; the rows run over the broadcast
    shape in C order. A column is a view where reshaping allows, so a value
    broadcast along a 1-d sweep stays one value with stride 0. The writer
    adds the `error` column when it is given an error record.
    """
    return [array.reshape(-1) for array in np.broadcast_arrays(*(values for _, values in columns))]


def _write_csv(path, parts, kept=0):
    """Write the table of a subcommand's parts, formatting a block of rows at a time.

    Each part is a (columns, errors) pair. `_columns` turns its (name,
    values) pairs into 1-d columns, whose i-th entries make the part's line
    i; the names of the first part make the header. With an error record
    (one entry per row of the part, in row order) the header ends in an
    `error` column and every line in an error cell: empty on a good row,
    while a failed row keeps its first `kept` cells (all of them for None),
    leaves the others blank and ends in its message.

    Every number goes through the "%.17g" template, which gives the same text
    as format(float(value), ".17g"). A column with stride 0 is one broadcast
    value: it is formatted once per part, into the row template. The other
    columns are copied into a block of rows only as that block is written,
    so no matrix of the whole table is made.

    The first part is computed before the output is opened, so a subcommand
    that fails there leaves no file. Returns what `parts` returns once it is
    used up: a subcommand's summary lines and exit status.
    """
    parts = iter(parts)
    columns, errors = next(parts)
    header = [name for name, _ in columns] + ([] if errors is None else ["error"])
    if path is None and sys.stdout is None:  # the process started with fd 1 closed
        raise OSError("standard output is closed; give --out")
    output = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    with output as handle:
        handle.write(",".join(header) + "\n")
        while True:
            _write_part(handle, columns, errors, kept)
            try:
                columns, errors = next(parts)
            except StopIteration as end:
                handle.flush()  # a write error on stdout surfaces here, as exit 3, not at shutdown
                return end.value


def _write_part(handle, columns, errors, kept):
    """Write the lines of one part (see _write_csv)."""
    columns = _columns(columns)
    rows = len(columns[0])
    failed = [] if errors is None else np.flatnonzero(np.not_equal(errors, None)).tolist()
    varying = [column for column in columns if column.strides[0]]
    row = ["%.17g" if column.strides[0] else "%.17g" % float(column[0]) for column in columns]
    line = ",".join(row if errors is None else [*row, ""]) + "\n"
    block = np.empty((_BLOCK_ROWS, len(varying)))
    start = 0
    for stop in [*failed, rows]:
        for first in range(start, stop, _BLOCK_ROWS):
            cells = block[:min(_BLOCK_ROWS, stop - first)]
            for j, column in enumerate(varying):
                cells[:, j] = column[first:first + len(cells)]
            handle.write(line * len(cells) % tuple(cells.ravel().tolist()))
        if stop < rows:
            cells = [float(column[stop]) for column in columns[:kept]]
            # The message lands in a CSV cell; keep it comma-free.
            message = errors.flat[stop].replace(",", ";")
            handle.write("%.17g," * len(cells) % tuple(cells) + "," * (len(columns) - len(cells)) + message + "\n")
        start = stop + 1
