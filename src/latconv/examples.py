"""Builtin example corpus, constructed programmatically at full precision.

Names accepted by :func:`get`:

* ``intro``      -- 11-point complex function on Z^2, mu = 3/4
* ``ex71``       -- real 21-point function on Z^2, mu = 5/12
* ``ex72``       -- complex function with two drifting packets, mu = 1
* ``ex73``       -- real function supported on the even sublattice, mu = 3/4
* ``ex74``       -- tensor product with a non-minimal Omega point, mu = 2/3
* ``ex75:m1,..,md[:l1,..,ld]`` -- semi-elliptic family (weights m, couplings l)
* ``srw:d``      -- simple random walk on Z^d
* ``phim:m1,..,md`` -- axis walk with steps +-m_j e_j
* ``unstable1d`` -- von Neumann borderline scheme whose powers grow in l^1
"""

from __future__ import annotations

import math

from .lattice import LatticeFunction, delta, power, tensor


def intro():
    s3 = math.sqrt(3.0)
    c = 1.0 / (22.0 + 2.0 * s3)
    entries = {
        (0, 0): 8.0,
        (1, 0): 5.0 + s3, (-1, 0): 5.0 + s3,
        (2, 0): -2.0, (-2, 0): -2.0,
        (1, -1): 1j * (s3 - 1.0), (-1, -1): 1j * (s3 - 1.0),
        (1, 1): -1j * (s3 - 1.0), (-1, 1): -1j * (s3 - 1.0),
        (0, 1): 2.0 - 2.0j, (0, -1): 2.0 + 2.0j,
    }
    return LatticeFunction.from_dict({k: v * c for k, v in entries.items()})


def ex71():
    phi1 = {
        (0, 0): 326.0,
        (2, 0): -20.0, (-2, 0): -20.0,
        (4, 0): 1.0, (-4, 0): 1.0,
        (0, 1): 64.0, (0, -1): 64.0,
        (0, 2): -16.0, (0, -2): -16.0,
    }
    phi2 = {
        (1, 0): 76.0, (-1, 0): 52.0,
        (3, 0): -4.0, (-3, 0): 4.0,
        (1, 1): -6.0, (-1, 1): 6.0,
        (1, -1): -6.0, (-1, -1): 6.0,
        (3, 1): 2.0, (-3, 1): -2.0,
        (3, -1): 2.0, (-3, -1): -2.0,
    }
    entries = dict(phi1)
    for k, v in phi2.items():
        entries[k] = entries.get(k, 0.0) + v
    return LatticeFunction.from_dict({k: v / 512.0 for k, v in entries.items()})


def ex72():
    a = math.sqrt(2.0 + math.sqrt(2.0))
    c = (1.0 + 1.0j) / (4.0 * a)
    s = 1.0 / (math.sqrt(2.0) * a)
    entries = {
        (-1, 1): c, (-1, -1): c,
        (1, 1): -c, (1, -1): -c,
        (0, 1): s, (0, -1): -s,
    }
    return LatticeFunction.from_dict(entries)


def ex73():
    entries = {
        (0, 0): 3.0 / 8.0,
        (1, 1): 1.0 / 8.0, (-1, -1): 1.0 / 8.0,
        (1, -1): 1.0 / 4.0, (-1, 1): 1.0 / 4.0,
        (2, -2): -1.0 / 16.0, (-2, 2): -1.0 / 16.0,
    }
    return LatticeFunction.from_dict(entries)


def ex74_parts():
    phi1 = LatticeFunction.from_dict({
        (0,): 19.0 / 64.0,
        (1,): 1.0 / 2.0, (-1,): 1.0 / 2.0,
        (2,): -5.0 / 32.0, (-2,): -5.0 / 32.0,
        (4,): 1.0 / 128.0, (-4,): 1.0 / 128.0,
    })
    phi2 = LatticeFunction.from_dict({
        (0,): 1.0 / 2.0,
        (1,): 1.0 / 4.0, (-1,): 1.0 / 4.0,
    })
    return phi1, phi2


def ex74():
    phi1, phi2 = ex74_parts()
    return tensor(phi1, phi2)


def ex75(m, lam=None):
    """delta_0 - sum_j l_j (delta_0 - rho_j)^(m_j) with rho_j the axis Bernoulli step.

    Admissible couplings need l_j in (0, 2^{1-m_j}/d] with one strict; the
    default uses half the critical value on every axis.
    """
    m = tuple(int(v) for v in m)
    d = len(m)
    if lam is None:
        lam = tuple(2.0 ** (1 - mj) / d / 2.0 for mj in m)
    lam = tuple(float(v) for v in lam)
    if len(lam) != d:
        raise ValueError("lambda must match the weight vector length")
    for mj, lj in zip(m, lam):
        if not (0.0 < lj <= 2.0 ** (1 - mj) / d):
            raise ValueError(f"coupling {lj} outside (0, {2.0 ** (1 - mj) / d}]")
    if all(lj == 2.0 ** (1 - mj) / d for mj, lj in zip(m, lam)):
        raise ValueError("at least one coupling must be strictly subcritical")
    out = delta((0,) * d)
    for j, (mj, lj) in enumerate(zip(m, lam)):
        e = [0] * d
        e[j] = 1
        rho = LatticeFunction.from_dict({tuple(e): 0.5,
                                         tuple(-v for v in e): 0.5})
        base = delta((0,) * d) - rho
        out = out - power(base, mj, method="direct").scale(lj)
    return out


def srw(d):
    """The simple random walk on Z^d."""
    return phim((1,) * int(d))


def phim(m):
    m = tuple(int(v) for v in m)
    d = len(m)
    entries = {}
    for j, mj in enumerate(m):
        e = [0] * d
        e[j] = mj
        entries[tuple(e)] = 1.0 / (2 * d)
        entries[tuple(-v for v in e)] = 1.0 / (2 * d)
    return LatticeFunction.from_dict(entries)


def unstable1d():
    """phi-hat = 1 + (i/2)(cos xi - 1) - (1/4)(cos xi - 1)^2: sup = 1 but the
    quadratic lead of the log-symbol is purely imaginary, so powers grow."""
    return LatticeFunction.from_dict({
        (0,): 0.625 - 0.5j,
        (1,): 0.25 + 0.25j, (-1,): 0.25 + 0.25j,
        (2,): -0.0625, (-2,): -0.0625,
    })


_PLAIN = {
    "intro": intro,
    "ex71": ex71,
    "ex72": ex72,
    "ex73": ex73,
    "ex74": ex74,
    "unstable1d": unstable1d,
}


def names():
    return sorted(_PLAIN) + ["ex75:<m1,..,md>[:<l1,..,ld>]", "srw:<d>",
                             "phim:<m1,..,md>"]


def get(name):
    """Resolve an example name (possibly parametrized) to a LatticeFunction."""
    name = name.strip()
    if name in _PLAIN:
        return _PLAIN[name]()
    if ":" in name:
        head, _, rest = name.partition(":")
        if head == "srw":
            return srw(int(rest))
        if head == "phim":
            return phim(tuple(int(t) for t in rest.split(",")))
        if head == "ex75":
            parts = rest.split(":")
            m = tuple(int(t) for t in parts[0].strip("() ").split(","))
            lam = None
            if len(parts) > 1:
                lam = tuple(float(t) for t in parts[1].strip("() ").split(","))
            return ex75(m, lam)
    raise KeyError(f"unknown example {name!r}; known: {', '.join(names())}")
