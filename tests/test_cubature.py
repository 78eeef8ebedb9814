import re

import numpy as np
import pytest
from importlib import resources
from scipy.stats import qmc

from pdmpval.cubature import (
    MC_CHUNK_NODES,
    CubatureSpec,
    RuleKind,
    cp_shift_vector,
    cranley_patterson_shift,
    first_primes,
    gauss_legendre,
    halton_column,
    halton_permutations,
    mc_chunk,
    sobol_column,
    sobol_max_dim,
    star_discrepancy_1d,
    star_discrepancy_bruteforce,
    _direction_integers,
)
from pdmpval import cubature
from pdmpval.errors import InputError


def _sobol_column_by_bits(dim, start, stop):
    """Oracle: the XOR of v[b] over the set bits b of each index, one bit at a time."""
    idx = np.arange(start, stop, dtype=np.uint64)
    v = _direction_integers(dim)
    acc = np.zeros(idx.shape, dtype=np.uint64)
    for b in range(int(stop - 1).bit_length()):
        acc ^= ((idx >> np.uint64(b)) & np.uint64(1)) * v[b]
    return acc.astype(np.float64) * 2.0 ** -32


def _halton_column_by_digits(dim, start, stop, perms=None):
    """Oracle: each index's digits one position at a time, lowest first."""
    base = cubature._halton_base(dim)
    perm = None if perms is None else perms[dim - 1]
    rem = np.arange(start, stop, dtype=np.int64)
    out = np.zeros(rem.shape, dtype=float)
    scale = 1.0 / base
    while np.any(rem > 0):
        digit = rem % base
        if perm is not None:
            digit = perm[digit]
        out += digit * scale
        scale /= base
        rem //= base
    return out


def _sobol_matrix(m, d):
    """The first m Sobol' points (indices 1..m) in dimension d."""
    return np.stack([sobol_column(j + 1, 1, m + 1) for j in range(d)], axis=1)


def _halton_matrix(m, d, seed=None):
    """The first m (scrambled) Halton points (indices 1..m) in dimension d."""
    perms = halton_permutations(d, seed)
    return np.stack([halton_column(j + 1, 1, m + 1, perms) for j in range(d)], axis=1)


def _mc_matrix(m, d, seed, replicate=0):
    """The first m nodes of the (seed, replicate) stream: its chunks, in order."""
    return np.concatenate([mc_chunk(c0 // MC_CHUNK_NODES, min(MC_CHUNK_NODES, m - c0), d,
                                    seed, replicate)
                           for c0 in range(0, m, MC_CHUNK_NODES)])


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSobol:
    def test_first_point_is_half_everywhere(self):
        assert np.all(_sobol_matrix(1, 64) == 0.5)

    def test_van_der_corput_prefix(self):
        assert np.array_equal(sobol_column(1, 1, 5), [0.5, 0.25, 0.75, 0.125])

    def test_column_consistent_with_matrix(self):
        pts = _sobol_matrix(100, 7)
        for j in range(7):
            pieces = [sobol_column(j + 1, 1, 40), sobol_column(j + 1, 40, 101)]
            assert np.array_equal(pts[:, j], np.concatenate(pieces))

    @pytest.mark.parametrize("d", [2, 3, 17, 64])
    def test_block_sets_match_scipy(self, d):
        # same points as the reference implementation, modulo ordering and the
        # skipped origin, on full dyadic blocks
        k = 9
        mine = np.sort(_sobol_matrix(2 ** k - 1, d), axis=0)
        ref = np.sort(qmc.Sobol(d=d, scramble=False).random(2 ** k)[1:], axis=0)
        assert np.allclose(mine, ref, atol=1e-12)

    @pytest.mark.parametrize("dim, start, stop", [
        (1, 0, 1), (30, 1, 4097), (30, 8193, 16385), (64, 4095, 4098), (7, 5, 6),
        (1024, 1000, 70_000), (3, 2 ** 32 - 1, 2 ** 32), (3, 2 ** 32 - 5000, 2 ** 32),
        (12, 2 ** 31 - 700, 2 ** 31 + 9000), (5, 9, 9),
    ], ids=lambda x: str(x))
    def test_column_matches_bit_loop(self, dim, start, stop):
        # ranges inside one block, across 2^k boundaries, at both ends of the
        # 32-bit sequence and empty
        assert _same_bits(sobol_column(dim, start, stop), _sobol_column_by_bits(dim, start, stop))

    def test_column_matches_bit_loop_on_random_ranges(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            dim = int(rng.integers(1, sobol_max_dim() + 1))
            n = int(rng.integers(1, 10_000))
            start = int(rng.integers(0, 2 ** 32 - n if rng.random() < 0.5 else 40_000))
            assert _same_bits(sobol_column(dim, start, start + n),
                              _sobol_column_by_bits(dim, start, start + n))

    def test_prefix_star_discrepancy(self):
        for k in range(1, 13):
            dstar = star_discrepancy_1d(sobol_column(1, 1, 2 ** k + 1))
            assert dstar <= 2.0 ** (1 - k)

    def test_log_rate_bound(self):
        for k in range(1, 13):
            m = 2 ** k
            dstar = star_discrepancy_1d(sobol_column(1, 1, m + 1))
            assert dstar * m / (1 + k) <= 2.0

    def test_dimension_limit(self):
        assert sobol_max_dim() >= 1024
        with pytest.raises(InputError):
            sobol_column(sobol_max_dim() + 1, 1, 5)

    def test_coordinates_in_unit_interval(self):
        pts = _sobol_matrix(1000, 1024)
        assert np.all(pts > 0.0) and np.all(pts < 1.0)

    def test_direction_file_format(self):
        text = resources.files("pdmpval.data").joinpath("sobol_directions.txt").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "2 1 0 1"
        assert lines[1] == "3 2 1 1 3"
        pat = re.compile(r"^\d+ \d+ \d+( \d+)+$")
        assert all(pat.match(ln) for ln in lines)
        # one line per dimension starting at 2, contiguous
        dims = [int(ln.split()[0]) for ln in lines]
        assert dims == list(range(2, 2 + len(lines)))


class TestHalton:
    def test_plain_prefixes(self):
        pts = _halton_matrix(4, 2)
        assert np.array_equal(pts[:, 0], [0.5, 0.25, 0.75, 0.125])
        assert pts[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_scipy_plain(self):
        mine = _halton_matrix(32, 5)
        ref = qmc.Halton(d=5, scramble=False).random(33)[1:]
        assert np.allclose(mine, ref, atol=1e-12)

    def test_scramble_fixes_zero_off_corner(self):
        pts = _halton_matrix(200, 6, seed=123)
        assert np.all(pts > 0.0) and np.all(pts < 1.0)

    def test_scramble_deterministic_and_differs_from_plain(self):
        a = _halton_matrix(64, 4, seed=9)
        b = _halton_matrix(64, 4, seed=9)
        c = _halton_matrix(64, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_permutations_fix_zero(self):
        perms = halton_permutations(8, seed=5)
        for perm in perms:
            assert perm[0] == 0
            assert sorted(perm) == list(range(len(perm)))

    def test_log_rate_bound_first_two_bases(self):
        # D*(M) * M / (1 + log2 M) <= 2 for dyadic prefix sizes
        for dim in (1, 2):
            for k in range(1, 13):
                m = 2 ** k
                dstar = star_discrepancy_1d(halton_column(dim, 1, m + 1))
                assert dstar * m / (1 + k) <= 2.0

    def test_scramble_preserves_base3_prefix_discrepancy(self):
        # first 3^k points of the base-3 coordinate: digit permutations fixing 0
        # permute the full dyadic cells among themselves, so D* is unchanged
        for k in (2, 3, 4):
            m = 3 ** k
            plain = star_discrepancy_bruteforce(halton_column(2, 1, m + 1))
            for seed in (1, 2, 77):
                perms = halton_permutations(2, seed=seed)
                scr = star_discrepancy_bruteforce(halton_column(2, 1, m + 1, perms))
                assert scr == pytest.approx(plain, abs=1e-12)

    @pytest.mark.parametrize("seed", [None, 3, 41])
    def test_column_matches_digit_loop(self, seed):
        # ranges in one block of the low table, across block and digit-count
        # boundaries, far from the origin, of one node and empty
        perms = halton_permutations(64, seed)
        ranges = [(0, 1), (1, 2), (1, 4097), (8193, 16385), (45057, 51201),
                  (2 ** 20 + 17, 2 ** 20 + 8209), (7, 7)]
        for dim in range(1, 65):
            for start, stop in ranges:
                got = halton_column(dim, start, stop, perms)
                assert got.tobytes() == _halton_column_by_digits(dim, start, stop, perms).tobytes()
                assert got.shape == (stop - start,)

    def test_column_refuses_bad_arguments(self):
        with pytest.raises(InputError, match="dimension"):
            halton_column(0, 1, 4)
        with pytest.raises(InputError, match="start"):
            halton_column(3, -5, 3)

    def test_primes(self):
        assert np.array_equal(first_primes(8), [2, 3, 5, 7, 11, 13, 17, 19])

    def test_base_found_once_per_dimension(self, monkeypatch):
        calls = []
        real = cubature.first_primes
        monkeypatch.setattr(cubature, "first_primes", lambda n: calls.append(n) or real(n))
        cubature._halton_base.cache_clear()
        cols = [halton_column(dim, i0, i0 + 50) for i0 in (1, 51, 101) for dim in (1, 2, 53)]
        assert sorted(calls) == [1, 2, 53]
        assert [cubature._halton_base(dim) for dim in (1, 2, 53)] == [2, 3, 241]
        assert np.array_equal(cols[2], _halton_column_by_digits(53, 1, 51))


class TestMC:
    def test_bit_identical_for_fixed_seed(self):
        a = _mc_matrix(1000, 5, seed=42)
        b = _mc_matrix(1000, 5, seed=42)
        assert np.array_equal(a, b)

    def test_chunked_prefix_stability(self):
        # values at node i depend only on (seed, replicate, i)
        full = _mc_matrix(3 * MC_CHUNK_NODES, 2, seed=7)
        short = _mc_matrix(MC_CHUNK_NODES + 500, 2, seed=7)
        assert np.array_equal(full[: MC_CHUNK_NODES + 500], short)
        block = mc_chunk(1, 500, 2, seed=7)
        assert np.array_equal(full[MC_CHUNK_NODES: MC_CHUNK_NODES + 500], block)

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_chunk_is_the_row_major_stream(self, d):
        tile = cubature._MC_TILE_ROWS
        for rows in (1, tile - 1, tile, tile + 1, 4096, MC_CHUNK_NODES):
            block = mc_chunk(2, rows, d, seed=9, replicate=1)
            want = cubature.keyed_stream(cubature._MC_TAG, 9, 1, 2).random((rows, d))
            assert block.shape == (rows, d) and block.tobytes() == want.tobytes()
            assert all(block[:, dim].flags.c_contiguous for dim in range(d))
        full = _mc_matrix(MC_CHUNK_NODES + 300, d, seed=9, replicate=1)
        want = [cubature.keyed_stream(cubature._MC_TAG, 9, 1, ci).random((rows, d))
                for ci, rows in ((0, MC_CHUNK_NODES), (1, 300))]
        assert full.tobytes() == np.concatenate(want).tobytes()

    def test_replicates_differ(self):
        a = _mc_matrix(128, 3, seed=0, replicate=0)
        b = _mc_matrix(128, 3, seed=0, replicate=1)
        assert not np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        x = _mc_matrix(1_000_000, 1, seed=1)
        assert abs(float(x.mean()) - 0.5) < 0.002

    def test_range(self):
        x = _mc_matrix(10_000, 4, seed=3)
        assert np.all(x >= 0.0) and np.all(x < 1.0)


class TestCranleyPatterson:
    def test_zero_shift_is_identity(self):
        pts = _sobol_matrix(64, 3)
        assert np.array_equal(cranley_patterson_shift(pts, shift=np.zeros(3)), pts)

    def test_wraparound(self):
        out = cranley_patterson_shift(np.array([[0.75]]), shift=[0.5])
        assert out[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_stays_in_unit_cube_and_preserves_differences(self, rng):
        pts = _sobol_matrix(1000, 4)
        shifted = cranley_patterson_shift(pts, shift=cp_shift_vector(4, 11, 2))
        assert np.all(shifted >= 0.0) and np.all(shifted < 1.0)
        i = rng.integers(0, 1000, 1000)
        j = rng.integers(0, 1000, 1000)
        d0 = np.mod(pts[i] - pts[j], 1.0)
        d1 = np.mod(shifted[i] - shifted[j], 1.0)
        assert np.max(np.abs(d0 - d1)) < 1e-12

    def test_bit_identical_to_np_mod(self, rng):
        tiny = np.nextafter(0.0, 1.0)
        pts = np.concatenate([rng.random(5000), rng.uniform(-3.0, 3.0, 5000),
                              [0.0, -0.0, tiny, -tiny, 1.0, np.nextafter(1.0, 0.0), -1.0,
                               np.nextafter(-1.0, 0.0), 2.0 - 2.0 ** -52, 1e-300]])
        for shift in (0.0, -0.0, 0.5, np.nextafter(1.0, 0.0), 0.3, -0.7, *rng.random(20)):
            want = np.mod(pts + shift, 1.0)
            got = cranley_patterson_shift(pts, shift=shift)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_seeded_shift_reproducible(self):
        assert np.array_equal(cp_shift_vector(6, 3, 1), cp_shift_vector(6, 3, 1))
        assert not np.array_equal(cp_shift_vector(6, 3, 1), cp_shift_vector(6, 3, 2))


class TestGaussLegendre:
    def test_midpoint_rule(self):
        nodes, weights = gauss_legendre(1)
        assert np.array_equal(nodes, [0.5]) and np.array_equal(weights, [1.0])

    def test_two_point_rule(self):
        nodes, weights = gauss_legendre(2)
        ref = np.array([0.5 - 1.0 / (2.0 * np.sqrt(3.0)), 0.5 + 1.0 / (2.0 * np.sqrt(3.0))])
        assert np.allclose(np.sort(nodes), ref, atol=1e-15)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-15)

    def test_cubic_exactness(self):
        nodes, weights = gauss_legendre(2)
        assert abs(float(np.dot(weights, nodes ** 3)) - 0.25) <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 5, 16, 64])
    def test_weights_positive_sum_one_nodes_interior(self, m):
        nodes, weights = gauss_legendre(m)
        assert np.all(weights > 0.0)
        assert abs(float(weights.sum()) - 1.0) <= 1e-14
        assert np.all((nodes > 0.0) & (nodes < 1.0))

    def test_polynomial_exactness_degree_2m_minus_1(self):
        m = 7
        nodes, weights = gauss_legendre(m)
        for k in range(2 * m):
            assert float(np.dot(weights, nodes ** k)) == pytest.approx(1.0 / (k + 1), abs=1e-13)

    def test_range_validation(self):
        with pytest.raises(InputError):
            gauss_legendre(0)
        with pytest.raises(InputError):
            gauss_legendre(65)


class TestStarDiscrepancy:
    def test_centered_equispaced(self):
        m = 10
        pts = (np.arange(m) + 0.5) / m
        assert star_discrepancy_1d(pts) == pytest.approx(1.0 / (2 * m), abs=1e-15)
        assert star_discrepancy_bruteforce(pts) == pytest.approx(1.0 / (2 * m), abs=1e-15)

    def test_single_point_at_origin(self):
        assert star_discrepancy_1d([0.0]) == pytest.approx(1.0, abs=1e-15)
        assert star_discrepancy_bruteforce(np.array([0.0])) == pytest.approx(1.0, abs=1e-15)

    def test_single_point_at_half(self):
        assert star_discrepancy_1d([0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_2d_single_center_point(self):
        assert star_discrepancy_bruteforce(np.array([[0.5, 0.5]])) == pytest.approx(0.75, abs=1e-15)

    def test_1d_formula_matches_enumeration(self, rng):
        for _ in range(10):
            pts = rng.uniform(0.0, 1.0, rng.integers(1, 40))
            assert star_discrepancy_1d(pts) == pytest.approx(
                star_discrepancy_bruteforce(pts), abs=1e-13)

    def test_2d_product_grid(self):
        g = (np.arange(3) + 0.5) / 3.0
        pts = np.array([(x, y) for x in g for y in g])
        val = star_discrepancy_bruteforce(pts)
        # sup attained just above (5/6, 5/6): all 9 points inside, volume 25/36
        assert val == pytest.approx(1.0 - 25.0 / 36.0, abs=1e-12)

    def test_2d_halton_beats_random(self, rng):
        m = 256
        qmc_pts = _halton_matrix(m, 2)
        rnd = rng.uniform(size=(m, 2))
        assert star_discrepancy_bruteforce(qmc_pts) < star_discrepancy_bruteforce(rnd)

    def test_budget_enforced(self):
        with pytest.raises(InputError):
            star_discrepancy_bruteforce(np.zeros((10_001, 2)))
        with pytest.raises(InputError):
            star_discrepancy_bruteforce(np.zeros((1, 3)))


class TestCubatureSpec:
    def test_valid(self):
        spec = CubatureSpec(kind="sobol", M=128, d=64, seed=1, replicates=5)
        assert spec.kind is RuleKind.SOBOL

    def test_rejects_unknown_kind(self):
        with pytest.raises(InputError, match=r"unknown rule kind 'foo'.*gauss.*halton.*mc.*sobol"):
            CubatureSpec(kind="foo", M=4, d=2)

    def test_rejects_empty_rule(self):
        with pytest.raises(InputError):
            CubatureSpec(kind=RuleKind.MC, M=0, d=2)

    def test_rejects_bad_dimension(self):
        with pytest.raises(InputError):
            CubatureSpec(kind=RuleKind.SOBOL, M=8, d=0)
        with pytest.raises(InputError):
            CubatureSpec(kind=RuleKind.SOBOL, M=8, d=sobol_max_dim() + 1)

    def test_gauss_size_capped(self):
        with pytest.raises(InputError):
            CubatureSpec(kind=RuleKind.GAUSS_PRODUCT, M=65, d=2)

    @pytest.mark.parametrize("field,value", [
        ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", None),
        ("M", 8.5), ("M", 8.0), ("M", True), ("d", 4.0), ("d", "4"),
        ("replicates", 2.5), ("replicates", 0),
    ])
    def test_rejects_non_integer_or_negative_fields(self, field, value):
        args = dict(kind=RuleKind.SOBOL, M=8, d=4, seed=0, replicates=2)
        args[field] = value
        with pytest.raises(InputError, match=field):
            CubatureSpec(**args)

    def test_numpy_integers_accepted(self):
        spec = CubatureSpec(kind=RuleKind.MC, M=np.int64(8), d=np.int32(4),
                            seed=np.uint32(3), replicates=np.int64(2))
        assert spec.M == 8 and spec.seed == 3
