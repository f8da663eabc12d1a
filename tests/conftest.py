import mmap
import types
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import ngg

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


@pytest.fixture(scope="session")
def sphere3():
    return ngg.sphere(3)


@pytest.fixture(scope="session")
def basis3():
    return ngg.harmonic_basis(ngg.sphere(3), 16)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def fail_lapack():
    """``fail(patch, name, info)``: the ``MonkeyPatch`` ``patch`` makes the
    LAPACK routine ``name`` of ``ngg.spectral._lapack()`` write ``info`` to
    INFO, its last argument, after it runs.  Skips where the gate does not
    resolve."""

    def fail(patch, name, info):
        lapack = ngg.spectral._lapack()
        if lapack is None:
            pytest.skip("numpy's LAPACK lacks the routines of the two-stage solve")
        call, routine = ngg.spectral._fortran, lapack[name]

        def failing(fn, *args):
            out = call(fn, *args)
            if fn is routine:
                args[-1][0] = info
            return out

        patch.setattr(ngg.spectral, "_fortran", failing)

    return fail


@pytest.fixture
def mapped(monkeypatch):
    """``mapped(size)``: how many of the maps ``ngg.spectral.lazy_zeros``
    made during the test, of at least ``size`` bytes, are still alive.
    ``tracemalloc`` does not see these buffers, so a memory test counts them
    here."""
    maps = []

    def recorded(*args, **kwargs):
        buf = mmap.mmap(*args, **kwargs)
        maps.append(weakref.ref(buf))
        return buf

    shim = types.SimpleNamespace(**{k: getattr(mmap, k) for k in dir(mmap)
                                    if not k.startswith("__")})
    shim.mmap = recorded
    monkeypatch.setattr(ngg.spectral, "mmap", shim)
    return lambda size: sum(1 for ref in maps if (buf := ref()) is not None and len(buf) >= size)


@pytest.fixture(scope="session")
def orthonormality_gram():
    """Gram matrix of a basis's orthonormal family under its cosine law, by
    exact Gauss-Jacobi quadrature (identity up to round-off for a correct
    basis), as a function of the basis and the top degree."""

    def gram(basis, max_degree):
        alpha, beta = basis.beta_shape
        x, w = ngg.spaces._panel_rule(alpha, beta, -1.0, 1.0, max_degree + 1)
        z = basis.orthonormal_all(max_degree, x)
        return (z * w) @ z.T

    return gram
