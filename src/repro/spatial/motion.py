"""Spatial (6D) cross-product operators.

Motion vectors are ``[w; v]`` (angular on top), force vectors are ``[n; f]``
(couple on top).  ``crm(v)`` is the motion-cross operator (``v x m``) and
``crf(v) = -crm(v).T`` is the force-cross operator (``v x* f``), following
Featherstone's notation.

Every operator broadcasts over leading batch axes: ``(..., 6)`` inputs give
``(..., 6, 6)`` operators / ``(..., 6)`` products, so one call applies the
operation to a whole task batch at once.  Array math routes through
:mod:`repro.backend` — the namespace of the operands decides where the
operators are built (host numpy, or an in-place device backend like
cupy; immutable-array backends resolve to the host).
"""

from __future__ import annotations

from repro.backend import array_namespace, host_backend
from repro.spatial.so3 import skew

_host = host_backend().xp


def crm(v):
    """6x6 motion cross-product operator: ``crm(v) @ m == v x m``."""
    xp = array_namespace(v)
    v = xp.asarray(v, dtype=float)
    sw = skew(v[..., :3])
    sv = skew(v[..., 3:])
    out = xp.zeros(v.shape[:-1] + (6, 6))
    out[..., :3, :3] = sw
    out[..., 3:, :3] = sv
    out[..., 3:, 3:] = sw
    return out


def crf(v):
    """6x6 force cross-product operator: ``crf(v) @ f == v x* f == -crm(v).T @ f``."""
    xp = array_namespace(v)
    return -xp.swapaxes(crm(v), -1, -2)


def _cross_index(a_offsets, b_offsets):
    """Gathers ``(ia, ib, ja, jb)`` for three stacked 3-vector crosses
    ``t = a[ia] * b[ib] - a[ja] * b[jb]``; the offsets pick each cross's
    3-vectors in ``a`` and ``b`` (0 = angular part, 3 = linear part)."""
    p, q = (1, 2, 0), (2, 0, 1)

    def idx(offsets, perm):
        return _host.asarray([o + i for o in offsets for i in perm])

    return (idx(a_offsets, p), idx(b_offsets, q),
            idx(a_offsets, q), idx(b_offsets, p))


#: ``[w x b_w | v x b_w | w x b_v]`` for ``a = [w; v]`` (motion cross).
_MOTION_IDX = _cross_index((0, 3, 0), (0, 0, 3))
#: ``[w x f_n | v x f_f | w x f_f]`` for ``f = [n; f]`` (force cross).
_FORCE_IDX = _cross_index((0, 3, 0), (0, 3, 3))


def spatial_cross(xp, a, b, *, force: bool = False):
    """``a x b`` (motion) or, with ``force``, ``a x* b`` on ``xp`` arrays.

    Pure and backend-generic (no in-place writes), so the traceable
    kernels share it.  Every 3-vector cross is ``np.cross``'s own
    per-component formula (``x1*y2 - x2*y1`` and its cyclic shifts,
    products rounded then subtracted), so results are bitwise equal to
    it — but the three crosses a spatial product needs are stacked into
    one gather per factor, one product pair and one difference instead
    of numpy's per-call axis normalisation and temporaries.
    """
    ia, ib, ja, jb = _FORCE_IDX if force else _MOTION_IDX
    t = a[..., ia] * b[..., ib] - a[..., ja] * b[..., jb]
    if force:
        return xp.concatenate([t[..., :3] + t[..., 3:6], t[..., 6:]],
                              axis=-1)
    return xp.concatenate([t[..., :3], t[..., 3:6] + t[..., 6:]], axis=-1)


def cross_motion(a, b):
    """``a x b`` for motion vectors, without building the 6x6 operator."""
    xp = array_namespace(a, b)
    return spatial_cross(xp, xp.asarray(a, dtype=float),
                         xp.asarray(b, dtype=float))


def cross_force(a, f):
    """``a x* f`` for a motion vector ``a`` acting on a force vector ``f``."""
    xp = array_namespace(a, f)
    return spatial_cross(xp, xp.asarray(a, dtype=float),
                         xp.asarray(f, dtype=float), force=True)


def crf_bar(f):
    """Operator with ``crf_bar(f) @ a == a x* f`` (swaps the arguments of crf).

    Used by the analytical derivatives: the term ``(d_u v) x* (I v)`` becomes
    ``crf_bar(I v) @ d_u v`` so a whole derivative matrix can be multiplied at
    once.  For ``f = [n; g]``::

        crf_bar(f) = -[[skew(n), skew(g)],
                       [skew(g), 0      ]]
    """
    xp = array_namespace(f)
    f = xp.asarray(f, dtype=float)
    sn = skew(f[..., :3])
    sg = skew(f[..., 3:])
    out = xp.zeros(f.shape[:-1] + (6, 6))
    out[..., :3, :3] = -sn
    out[..., :3, 3:] = -sg
    out[..., 3:, :3] = -sg
    return out
