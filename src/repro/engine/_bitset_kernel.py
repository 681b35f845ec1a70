"""Optional compiled fast path of the bitset backend.

The packed sweep of :mod:`repro.engine.bitset_backend` spends its time
in one tight loop: AND the per-dimension threshold-bitmap rows of a
candidate, walk the surviving bits and exactly verify dominance against
the corresponding accepted points.  The NumPy formulation of that loop
is already bit-parallel, but it materialises `(batch, words)`
temporaries per stage and pays Python dispatch per refine iteration.
This module provides the same sweep as a single C function with
per-candidate early exit and zero temporaries.

Tiering (auto-detected once per process, never required):

1. A small C kernel (below), compiled on demand with the system C
   compiler into a cached shared library and bound through
   :mod:`ctypes`.  Needs NumPy (the kernel operates on NumPy buffers)
   and a working ``cc``/``gcc``/``clang``; both ship with the
   ``repro[fast]`` development environments and the CI compiled leg.
2. When no compiler (or no NumPy) is available the backend silently
   uses its pure bit-packed paths - identical answers, enforced by the
   differential oracle on every CI leg.

The ``REPRO_BITSET_KERNEL`` environment variable gates the probe:

* ``auto`` (default) - try to build/load, fall back silently;
* ``off`` - never compile, always use the packed fallback;
* ``require`` - raise :class:`~repro.exceptions.EngineError` when the
  compiled kernel cannot be built (the CI compiled leg sets this so a
  toolchain regression fails loudly instead of silently downgrading).

The compiled library is cached under ``REPRO_KERNEL_CACHE`` (default:
``~/.cache/repro-kernels``) keyed by a hash of the C source, so the
compiler runs once per source revision per machine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Optional

from repro.exceptions import EngineError

#: Environment variable gating the compiled-kernel probe.
KERNEL_ENV_VAR = "REPRO_BITSET_KERNEL"

#: Environment variable overriding the shared-library cache directory.
CACHE_ENV_VAR = "REPRO_KERNEL_CACHE"

#: The sweep kernel.  Layouts match the backend's packed window state:
#: ``tb`` is the ``(d, K, W)`` threshold bitmap (bit ``t`` of word
#: ``tb[j][k][t >> 6]`` set iff accepted point ``t`` has bucket ``<= k``
#: on dimension ``j``), accepted/candidate ranks, values and scores are
#: per-dimension-contiguous ``(d, cap)`` / ``(d, B)`` float64 blocks.
#: For every candidate the kernel ANDs its bucket rows over the word
#: range ``[w0, w1)``, walks surviving bits lowest-first (accepted
#: points arrive strongest-first, so the first bits kill fastest) and
#: verifies dominance exactly - including the nominal value-equality
#: clause and the score-tie equality fallback - writing 1 into
#: ``out_dead`` on the first real dominator.
_SOURCE = r"""
#include <stdint.h>

/* Exact dominance for a pair that already passed the bucket AND, so
 * acc_bucket[j] <= cand_bucket[j] on every dimension.  A strictly
 * lower bucket certifies a strictly lower rank (bucket maps are
 * monotone), which settles the dimension for universal AND nominal
 * semantics alike; only bucket-tied dimensions need the exact rank /
 * value comparison. */
static int dominates_exact(
    const double *acc_ranks, const double *acc_values,
    const double *acc_scores, const uint8_t *acc_buckets, int64_t cap,
    const double *cand_ranks, const double *cand_values,
    const double *cand_scores, const uint8_t *cand_buckets,
    int64_t stride,
    const uint8_t *nominal, int64_t d,
    int64_t t, int64_t c)
{
    int64_t j;
    for (j = 0; j < d; j++) {
        if (acc_buckets[j * cap + t] != cand_buckets[j * stride + c])
            continue;  /* strictly lower bucket: strictly better rank */
        double ar = acc_ranks[j * cap + t];
        double cr = cand_ranks[j * stride + c];
        if (nominal[j]) {
            if (!(ar < cr || acc_values[j * cap + t] == cand_values[j * stride + c]))
                return 0;
        } else {
            if (ar > cr)
                return 0;
        }
    }
    if (acc_scores[t] != cand_scores[c])
        return 1;  /* not worse anywhere + score gap == strictly better */
    for (j = 0; j < d; j++) {
        if (acc_values[j * cap + t] != cand_values[j * stride + c])
            return 1;  /* score tie that rounded away a strict win */
    }
    return 0;  /* identical rows never dominate */
}

void packed_sweep(
    const uint64_t *tb, int64_t d, int64_t K, int64_t W,
    const double *acc_ranks, const double *acc_values,
    const double *acc_scores, const uint8_t *acc_buckets, int64_t cap,
    const uint8_t *nominal,
    const double *cand_ranks, const double *cand_values,
    const double *cand_scores, const uint8_t *cand_buckets,
    int64_t stride,
    const int64_t *sel, int64_t nb,
    int64_t w0, int64_t w1, int64_t t0, int64_t t1,
    uint8_t *out_dead)
{
    int64_t k, w, j;
    uint64_t head_mask = ~(uint64_t)0;
    if (t0 > w0 * 64)  /* ignore already-swept bits of the first word */
        head_mask <<= (t0 - w0 * 64);
    for (k = 0; k < nb; k++) {
        int64_t c = sel[k];  /* column of the full candidate arrays */
        for (w = w0; w < w1; w++) {
            uint64_t m = tb[(int64_t)cand_buckets[c] * W + w];
            for (j = 1; j < d && m; j++)
                m &= tb[(j * K + (int64_t)cand_buckets[j * stride + c]) * W + w];
            if (w == w0)
                m &= head_mask;
            while (m) {
                uint64_t low = m & (~m + 1);
                int64_t t = w * 64 + __builtin_ctzll(m);
                m ^= low;
                if (t >= t1)
                    break;
                if (dominates_exact(acc_ranks, acc_values, acc_scores,
                                    acc_buckets, cap,
                                    cand_ranks, cand_values, cand_scores,
                                    cand_buckets, stride,
                                    nominal, d, t, c)) {
                    out_dead[k] = 1;
                    goto next_candidate;
                }
            }
        }
        next_candidate: ;
    }
}
"""


def kernel_mode() -> str:
    """The effective ``REPRO_BITSET_KERNEL`` setting."""
    mode = os.environ.get(KERNEL_ENV_VAR, "auto").strip().lower()
    if mode not in ("auto", "off", "require"):
        raise EngineError(
            f"invalid {KERNEL_ENV_VAR}={mode!r}; use 'auto', 'off' or "
            "'require'"
        )
    return mode


def _cache_dir() -> str:
    configured = os.environ.get(CACHE_ENV_VAR)
    if configured:
        return configured
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro-kernels"
    )


def _compile(source: str, lib_path: str) -> None:
    """Compile ``source`` into the shared library at ``lib_path``.

    Writes into a temp file next to the target and renames into place,
    so concurrent processes race benignly (last writer wins, both
    produce identical bytes-for-purpose libraries).
    """
    directory = os.path.dirname(lib_path)
    os.makedirs(directory, exist_ok=True)
    src_fd, src_path = tempfile.mkstemp(suffix=".c", dir=directory)
    tmp_lib = src_path[:-2] + ".so"
    try:
        with os.fdopen(src_fd, "w") as handle:
            handle.write(source)
        last_error: Optional[Exception] = None
        for compiler in ("cc", "gcc", "clang"):
            try:
                subprocess.run(
                    [
                        compiler, "-O3", "-fPIC", "-shared",
                        "-o", tmp_lib, src_path,
                    ],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmp_lib, lib_path)
                return
            except (OSError, subprocess.SubprocessError) as exc:
                last_error = exc
        raise EngineError(f"no usable C compiler: {last_error}")
    finally:
        for leftover in (src_path, tmp_lib):
            try:
                os.unlink(leftover)
            except OSError:
                pass


def _bind(lib: ctypes.CDLL):
    """Declare the argtypes of ``packed_sweep`` and return it."""
    fn = lib.packed_sweep
    p64 = ctypes.POINTER(ctypes.c_uint64)
    pf64 = ctypes.POINTER(ctypes.c_double)
    pu8 = ctypes.POINTER(ctypes.c_uint8)
    i64 = ctypes.c_int64
    pi64 = ctypes.POINTER(ctypes.c_int64)
    fn.restype = None
    fn.argtypes = [
        p64, i64, i64, i64,            # tb, d, K, W
        pf64, pf64, pf64, pu8, i64,    # acc ranks/values/scores/buckets, cap
        pu8,                           # nominal flags
        pf64, pf64, pf64, pu8, i64,    # cand ranks/values/scores/buckets
                                       # + their column stride
        pi64, i64,                     # sel (candidate columns), |sel|
        i64, i64, i64, i64,            # w0, w1, t0, t1
        pu8,                           # out_dead
    ]
    return fn


class CompiledSweep:
    """ctypes binding of the compiled sweep plus call plumbing."""

    def __init__(self, fn, origin: str) -> None:
        self._fn = fn
        #: Where the library came from (for availability reporting).
        self.origin = origin

    def __call__(
        self, np, state, nominal_u8, ctx, sel, w0, w1, t0, t1, out_dead
    ) -> None:
        """Sweep candidates ``sel`` (columns of the full context
        arrays) against accepts ``[t0, t1)``; zero candidate copies -
        the kernel reads ``ctx`` columns through ``sel`` directly.
        All arrays must already be C-contiguous."""
        tb = state.tb
        d, K, W = tb.shape
        self._fn(
            tb.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
            d, K, W,
            state.ranks.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            state.values.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            state.scores.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            state.buckets.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            state.ranks.shape[1],
            nominal_u8.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            ctx.ranks_t.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            ctx.values_t.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            ctx.scores.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            ctx.buckets_t.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            ctx.ranks_t.shape[1],
            sel.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            sel.shape[0],
            w0, w1, t0, t1,
            out_dead.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
        )


#: Probe result memo: ``None`` = not probed yet, ``(sweep_or_None,
#: reason)`` afterwards.  The probe compiles at most once per process.
_PROBED: Optional[tuple] = None


def load_kernel():
    """``(CompiledSweep | None, reason)`` per the environment gate.

    Never raises under ``auto``/``off``; under ``require`` a failed
    probe raises :class:`EngineError` (and keeps raising on later
    calls - the memo stores the failure, not the exception).
    """
    global _PROBED
    mode = kernel_mode()
    if mode == "off":
        return None, "disabled via REPRO_BITSET_KERNEL=off"
    if _PROBED is None:
        _PROBED = _probe()
    sweep, reason = _PROBED
    if sweep is None and mode == "require":
        raise EngineError(
            f"REPRO_BITSET_KERNEL=require but the compiled kernel is "
            f"unavailable: {reason}"
        )
    return sweep, reason


def _probe():
    """Compile (or reuse) the shared library and bind the sweep."""
    try:
        import numpy  # noqa: F401 - the kernel runs on NumPy buffers
    except ImportError:
        return None, "NumPy is not installed"
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    lib_path = os.path.join(
        _cache_dir(), f"bitset_sweep_{digest}_{sys.implementation.name}.so"
    )
    try:
        if not os.path.exists(lib_path):
            _compile(_SOURCE, lib_path)
        sweep = CompiledSweep(_bind(ctypes.CDLL(lib_path)), lib_path)
        return sweep, f"compiled C kernel ({lib_path})"
    except (EngineError, OSError, AttributeError) as exc:
        return None, f"compiled kernel unavailable: {exc}"


def reset_probe() -> None:
    """Forget the probe result (tests re-run it under new env gates)."""
    global _PROBED
    _PROBED = None
