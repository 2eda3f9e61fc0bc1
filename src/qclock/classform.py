"""The class form of twirled Kraus channels, its kernels, and the covariance certificate.

See "Class form" in the :mod:`qclock.channels` docstring for the form and the
certificate; :mod:`qclock.channels` builds class forms in its twirl and
dispatches its row kernels to them.  The certificate also serves plain Kraus
stacks, as one class in the standard basis.
"""
from __future__ import annotations

import numpy as np


class _Classes:
    """The class structure of a twirl, read-only and shared by every stack twirled with it.

    ``labels`` (dout, din) holds the frequency class of each entry (a, i) of an
    operator in the eigenbases ``u_in`` and ``u_out``.  The structure is read
    off the labels once: ``order`` lists the flat entries a*din + i class by
    class and ``sizes`` counts each class's entries; the within-class pairs
    ((a, i), (b, j)) are given by their flat entries ``left`` and ``right``,
    their input entry ``src`` = i*din + j and their output entry ``dst`` =
    a*dout + b, and ``same_row`` indexes the pairs with a = b.
    """

    def __init__(self, labels, u_in, u_out):
        self.labels, self.u_in, self.u_out = labels, u_in, u_out
        dout, din = labels.shape
        flat = labels.reshape(-1)
        self.sizes = np.bincount(flat)
        self.order = order = np.argsort(flat, kind="stable")
        row, col = np.divmod(order, din)
        # entry k of ``order`` pairs with the per[k] entries of its class, which begins at first[k]
        per = self.sizes[flat[order]]
        first = (np.cumsum(self.sizes) - self.sizes)[flat[order]]
        k = np.repeat(np.arange(len(order)), per)
        l = np.arange(len(k)) - np.repeat(np.cumsum(per) - per - first, per)
        self.left, self.right = order[k], order[l]
        self.src, self.dst = col[k] * din + col[l], row[k] * dout + row[l]
        self.same_row = np.flatnonzero(row[k] == row[l])
        for array in vars(self).values():
            array.setflags(write=False)


class _ClassForm:
    """A stack of twirled Kraus channels in class form.

    ``ops`` (B, r, dout, din) holds each row's raw operators in the eigenbases,
    U_out† K_m U_in, and ``classes`` their :class:`_Classes`, whose fields the
    form also holds as its own.
    """

    def __init__(self, ops, classes: _Classes):
        self.__dict__.update(vars(classes), ops=ops, classes=classes)

    def __len__(self):
        return len(self.ops)

    def repeat(self, n: int) -> _ClassForm:
        """Each row n times over, as ``np.repeat(..., n, axis=0)`` of the operator stack."""
        return _ClassForm(np.repeat(self.ops, n, axis=0), self.classes)

    def kraus(self) -> np.ndarray:
        """The twirled operators (B, classes * r, dout, din): each operator masked once per
        class and rotated back."""
        masks = self.labels == np.arange(len(self.sizes))[:, None, None]
        masked = np.where(masks[:, None], self.ops[:, None], 0)
        b, r, dout, din = self.ops.shape
        return (self.u_out @ masked @ self.u_in.conj().T).reshape(b, len(masks) * r, dout, din)

    def _gram(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """G_p = sum_m K~_m[left_p] conj(K~_m[right_p]) (B, P) for pairs of flat entries."""
        flat = self.ops.reshape(*self.ops.shape[:2], self.labels.size)
        return (np.take(flat, left, axis=-1) * np.take(flat, right, axis=-1).conj()).sum(1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Each row applied to its matrix of x (B, din, din)."""
        # out~[a, b] = sum over the pairs ((a, i), (b, j)) of G_p x~[i, j], with x~ = U_in† x U_in
        x_eig = (self.u_in.conj().T @ x @ self.u_in).reshape(len(x), -1)
        terms = self._gram(self.left, self.right) * np.take(x_eig, self.src, axis=-1)
        out = _pair_sum(terms, self.dst, self.labels.shape[0])
        return self.u_out @ out @ self.u_out.conj().T

    def trace_marginal(self) -> np.ndarray:
        """sum_m K_m† K_m (B, din, din): the pairs ((a, i), (a, j)) summed onto (i, j), rotated
        back by U_in."""
        p = self.same_row
        out = _pair_sum(self._gram(self.right[p], self.left[p]), self.src[p], self.labels.shape[1])
        return self.u_in @ out @ self.u_in.conj().T

    def covariance_bound(self, h_in: np.ndarray, h_out: np.ndarray) -> np.ndarray:
        """:func:`_kraus_covariance_bound` (B,) for Hamiltonian entries (B, d, d), rotated into
        the eigenbases."""
        h_in_eig = self.u_in.conj().T @ h_in @ self.u_in
        h_out_eig = self.u_out.conj().T @ h_out @ self.u_out
        return _kraus_covariance_bound(self.ops, h_in_eig, h_out_eig, self.order, self.sizes)


def _pair_sum(terms: np.ndarray, targets: np.ndarray, dim: int) -> np.ndarray:
    """Matrices (B, dim, dim) with each row's pair terms (B, P) summed onto the flat entries
    ``targets``, in pair order."""
    out = np.zeros((len(terms), dim, dim), dtype=complex)
    rows = targets + dim * dim * np.arange(len(terms))[:, None]
    np.add.at(out.reshape(-1), rows.reshape(-1), terms.reshape(-1))
    return out


def _kraus_covariance_bound(kraus, h_in, h_out, order=None, sizes=None) -> np.ndarray:
    """Upper bound 2 sum (R + delta N) N on the max-abs entry of [K, C], C = sum_m v_m v_m†.

    ``kraus`` (..., r, dout, din) holds the operators in the bases in which
    the Hamiltonian entries h_in and h_out (..., d, d) are given.  Its flat
    entries a*din + i fall into classes, listed class by class in ``order``
    with ``sizes`` entries each; without them all entries are one class.  N,
    R and delta are as in "Class form" in the :mod:`qclock.channels`
    docstring.  Leading axes broadcast.
    """
    e_in = h_in.diagonal(axis1=-2, axis2=-1).real
    e_out = h_out.diagonal(axis1=-2, axis2=-1).real
    delta = 0.0
    for h, e in ((h_in, e_in), (h_out, e_out)):
        off2 = (np.abs(h - e[..., None] * np.eye(h.shape[-1])) ** 2).sum((-2, -1))
        # eps * ||H||_F: the rounding of any product H K, so that the bound also covers the Choi
        # residual as it is measured
        delta = delta + np.sqrt(off2) + np.finfo(float).eps * np.sqrt(off2 + (e * e).sum(-1))
    nu = (e_out[..., :, None] - e_in[..., None, :]).reshape(*e_in.shape[:-1], 1, -1)
    weight = (kraus * kraus.conj()).real.reshape(*kraus.shape[:-2], nu.shape[-1])
    if order is None:
        sizes = np.array([weight.shape[-1]])
    else:
        weight, nu = weight[..., order], nu[..., order]
    starts = np.cumsum(sizes) - sizes
    norm2 = np.add.reduceat(weight, starts, axis=-1)
    mean = np.add.reduceat(weight * nu, starts, axis=-1) / np.where(norm2 > 0, norm2, 1.0)
    spread = np.add.reduceat(weight * (nu - np.repeat(mean, sizes, axis=-1)) ** 2, starts, axis=-1)
    # 2 sum (R + delta N) N with N^2 = norm2 and R^2 = spread
    return 2.0 * (np.sqrt(spread * norm2).sum((-2, -1)) + delta * norm2.sum((-2, -1)))
