import numpy as np
import pytest

from ellipreg import dyadic

LN2 = np.log(2)
KS = np.arange(1, 31, dtype=float)


def analyze(P, tol=1e-8):
    return dyadic.analyze_scalar_sequence(KS, P, tol)


class TestConvergent:
    def test_rational_tail(self):
        # the shape produced by 1/log-type envelopes: P = L - c/(k + d)
        v = analyze(1 - 1 / (1 + KS * LN2))
        assert v.verdict == dyadic.VERDICT_CONVERGES
        assert v.limit == pytest.approx(1.0, abs=1e-8)

    def test_geometric_tail(self):
        v = analyze(2 - 3 * 0.7 ** KS)
        assert v.verdict == dyadic.VERDICT_CONVERGES
        assert v.limit == pytest.approx(2.0, abs=1e-10)

    def test_algebraic_p2(self):
        v = analyze(3 - 2 * (KS + 1.44) ** -2.0)
        assert v.verdict == dyadic.VERDICT_CONVERGES
        assert v.limit == pytest.approx(3.0, abs=1e-6)

    def test_flat_zero(self):
        v = analyze(np.zeros_like(KS))
        assert v.verdict == dyadic.VERDICT_CONVERGES
        assert v.limit == 0.0

    def test_flat_nonzero(self):
        v = analyze(np.full_like(KS, 5.0))
        assert v.verdict == dyadic.VERDICT_CONVERGES
        assert v.limit == 5.0

    def test_alternating_decaying(self):
        v = analyze(1 + 0.3 * (-0.8) ** KS)
        assert v.verdict == dyadic.VERDICT_CONVERGES
        assert v.limit == pytest.approx(1.0, abs=1e-6)

    def test_noise_tolerance(self):
        rng = np.random.default_rng(0)
        v = analyze(1 - 1 / (1 + KS * LN2) + rng.normal(0, 1e-12, len(KS)),
                    tol=1e-6)
        assert v.verdict == dyadic.VERDICT_CONVERGES
        assert v.limit == pytest.approx(1.0, abs=1e-5)


class TestDivergent:
    def test_harmonic_log(self):
        # increments ~ 1/k: the integral diverges although increments vanish
        v = analyze(np.log(1 + KS * LN2))
        assert v.verdict == dyadic.VERDICT_DIVERGES
        assert v.rate_tag == dyadic.RATE_LOG

    def test_linear(self):
        v = analyze(0.5 * KS * LN2)
        assert v.verdict == dyadic.VERDICT_DIVERGES
        assert v.rate_tag == dyadic.RATE_LOG

    def test_power(self):
        v = analyze(2.0 ** (0.5 * KS))
        assert v.verdict == dyadic.VERDICT_DIVERGES
        assert v.rate_tag == dyadic.RATE_POWER

    def test_to_minus_infinity(self):
        v = analyze(-np.log(1 + KS * LN2))
        assert v.verdict == dyadic.VERDICT_DIVERGES
        assert v.rate_tag == dyadic.RATE_TO_MINUS_INF

    def test_to_minus_infinity_linear(self):
        v = analyze(-0.3 * KS)
        assert v.verdict == dyadic.VERDICT_DIVERGES
        assert v.rate_tag == dyadic.RATE_TO_MINUS_INF


class TestOscillatory:
    def test_bounded_alternation(self):
        v = analyze(0.3 * (-1.0) ** KS)
        assert v.verdict == dyadic.VERDICT_OSCILLATES

    def test_two_block_alternation(self):
        P = np.cumsum(0.4 * (-1.0) ** (KS // 3))
        v = analyze(P)
        assert v.verdict in (dyadic.VERDICT_OSCILLATES,
                             dyadic.VERDICT_INCONCLUSIVE)


class TestMatrixEvidence:
    def test_all_entries_converge(self):
        P = np.stack([np.stack([1 - 0.5 ** KS, np.zeros_like(KS)], -1),
                      np.stack([np.zeros_like(KS), 2 - 1 / (1 + KS)], -1)], -1)
        ev = dyadic.evidence_from_partials(KS, P, 1e-8)
        assert ev.converges
        np.testing.assert_allclose(ev.limit, [[1, 0], [0, 2]], atol=1e-7)

    def test_one_divergent_entry_dominates(self):
        P = np.stack([np.stack([np.log(KS + 1), np.zeros_like(KS)], -1),
                      np.stack([np.zeros_like(KS), 1 - 0.5 ** KS], -1)], -1)
        ev = dyadic.evidence_from_partials(KS, P, 1e-8)
        assert ev.verdict == dyadic.VERDICT_DIVERGES

    def test_oscillating_entry(self):
        P = np.stack([np.stack([0.3 * (-1.0) ** KS, np.zeros_like(KS)], -1),
                      np.stack([np.zeros_like(KS), 1 - 0.5 ** KS], -1)], -1)
        ev = dyadic.evidence_from_partials(KS, P, 1e-8)
        assert ev.verdict == dyadic.VERDICT_OSCILLATES


class TestShortSequences:
    def test_too_short_is_inconclusive(self):
        v = dyadic.analyze_scalar_sequence(KS[:3], (1 - 0.5 ** KS)[:3], 1e-8)
        assert v.verdict == dyadic.VERDICT_INCONCLUSIVE
