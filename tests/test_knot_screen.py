"""The chunked deflation knot screen against the per-prefix scan.

`model._KnotScreen` walks the prefixes depth first and deflates a chunk of
sibling prefixes per numpy call.  It must score exactly the (prefix, last)
sets that the per-prefix scan kept verbatim in `oracles.knot_screen_scan`
scores, each to within rounding of that scan, for every degree, smoothness
order and piece count, and the screen's error must stay of the scan's order.
"""

import numpy as np
import pytest

import oracles as orc
import l0spline.model as model
from l0spline.model import _SCREEN_TOL, _KnotScreen, raw_basis

KINDS = ("noise", "zero", "constant", "rounded", "offset", "member")


def _series(kind, n, d, d0, k, rng):
    noise = rng.standard_normal(n)
    if kind == "member":
        # an exact class member on random knots: its own set scores ~0
        inner, t = [], 0
        for _ in range(k - 1):
            if t + d + 1 > n - d - 1:
                break
            t = int(rng.integers(t + d + 1, n - d))
            inner.append(t)
        X = raw_basis(n, d, d0, (0, *inner, n))
        return X @ rng.standard_normal(X.shape[1])
    return {"noise": noise, "zero": np.zeros(n), "constant": np.full(n, 3.7),
            "rounded": np.round(noise), "offset": 1e4 + noise}[kind]


def _scores(screen):
    return {(screen._prefixes[o], int(t)): float(s)
            for o, t, s in zip(screen._owner, screen._last, screen.score)}


def _bound(d, n):
    """Allowed gap to the scan, as a fraction of ||y||^2.  1e-3 of the
    rescoring tolerance wherever the scan is itself that accurate.  At
    d = 3, and at d = 2 from n = 128 on, the scan's own rounding error
    (against exact rational costs) reaches 3e-12 at n = 40 and 1.5e-10
    at n = 256 for d = 3, so there the two need only agree to half the
    rescoring tolerance; `test_error_of_the_scans_order` checks that
    error against exact arithmetic."""
    if d <= 1 or (d == 2 and n <= 40):
        return 1e-3 * _SCREEN_TOL
    return 0.5 * _SCREEN_TOL


def _assert_matches_scan(y, d, d0, k):
    n = y.size
    new = _scores(_KnotScreen(y, d, d0, k))
    ref = orc.knot_screen_scan(y, d, d0, k)
    assert new.keys() == ref.keys(), (d, d0, k, n)
    tol = _bound(d, n) * float(y @ y)
    worst = max(abs(new[key] - ref[key]) for key in ref)
    assert worst <= tol, (d, d0, k, n, worst)


class TestAgainstScan:
    @pytest.mark.parametrize("d", range(4))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_small_n(self, d, k):
        """Every d0 and every n from d + 1 to 40 in steps of 3 at k <= 3
        and 4 at k = 4, taking the kinds in turn."""
        step = 3 if k <= 3 else 4
        for d0 in range(-1, d):
            for n in range(d + 1, 41, step):
                kind = KINDS[(n + k + d0) % len(KINDS)]
                rng = np.random.default_rng([d, d0 + 1, k, n])
                _assert_matches_scan(_series(kind, n, d, d0, k, rng),
                                     d, d0, k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_near_40(self, kind):
        for d in range(4):
            for d0 in range(-1, d):
                for k in (1, 2, 3, 4):
                    n = 38 - d - k
                    rng = np.random.default_rng([d, d0 + 1, k, n, 7])
                    _assert_matches_scan(_series(kind, n, d, d0, k, rng),
                                         d, d0, k)

    @pytest.mark.parametrize("n", (128, 256))
    def test_k3_large_n(self, n):
        """Several chunks per level at k = 3; one kind per (d, d0)."""
        for d in range(4):
            for d0 in range(-1, d):
                kind = ("noise", "rounded", "member", "offset")[(d + d0) % 4]
                rng = np.random.default_rng([d, d0 + 1, 3, n])
                _assert_matches_scan(_series(kind, n, d, d0, 3, rng),
                                     d, d0, 3)


class TestAccuracy:
    @pytest.mark.parametrize("d0", (-1, 0))
    def test_error_of_the_scans_order(self, d0):
        """At d = 3, n = 256 both screens are off the exact rational costs
        by up to about 1.5e-10 ||y||^2.  On the sets where they differ most,
        the new screen's error is no more than twice the scan's largest
        error on those sets and on the one-knot sets they extend, whose
        scores the deflation inherits."""
        n, d = 256, 3
        y = np.random.default_rng([d, d0 + 1, 3, n]).standard_normal(n)
        new = _scores(_KnotScreen(y, d, d0, 3))
        ref = orc.knot_screen_scan(y, d, d0, 3)
        keys = sorted(ref, key=lambda q: -abs(new[q] - ref[q]))[:3]
        parents = [((), q[0][0]) for q in keys if q[0]]
        exact = {q: orc.exact_sse(y, d, d0, (0, *q[0], q[1], n))
                 if q[1] else orc.exact_sse(y, d, d0, (0, *q[0], n))
                 for q in set(keys + parents)}
        err_new = max(abs(new[q] - exact[q]) for q in keys)
        err_ref = max(abs(ref[q] - exact[q]) for q in exact)
        assert err_new <= 2 * err_ref
        assert err_new <= 0.25 * _SCREEN_TOL * float(y @ y)


class TestCalls:
    def test_few_qr_calls_per_screen(self, monkeypatch):
        """At n=60, d=1, d0=0, k=3 the scan made one QR per prefix, 56 of
        them.  The deflation screen factors the polynomial block once and
        normalizes the one-column knot blocks; it builds one design."""
        calls, designs = [], []
        qr, raw = np.linalg.qr, model.raw_basis

        def counting_qr(*a, **kw):
            calls.append(a)
            return qr(*a, **kw)

        def counting_raw(*a, **kw):
            designs.append(a)
            return raw(*a, **kw)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        monkeypatch.setattr(model, "raw_basis", counting_raw)
        y = np.random.default_rng(81).standard_normal(60)
        screen = _KnotScreen(y, 1, 0, 3)
        assert len(screen._prefixes) == 56
        assert len(calls) <= 2
        assert len(designs) == 1

    def test_chunks_stay_within_the_block(self, monkeypatch):
        """With a block too small for one child, each chunk holds one child
        and the scores are unchanged."""
        y = np.random.default_rng(3).standard_normal(40)
        ref = _scores(_KnotScreen(y, 2, 0, 4))
        monkeypatch.setattr(model, "_SCREEN_BLOCK", 1)
        small = _scores(_KnotScreen(y, 2, 0, 4))
        assert small.keys() == ref.keys()
        assert max(abs(small[q] - ref[q]) for q in ref) <= (
            1e-3 * _SCREEN_TOL * float(y @ y))
