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
    halton_permutation,
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


def _halton_column_by_digits(dim, start, stop, seed=None):
    """Oracle: each index's digits one position at a time, lowest first."""
    base = cubature._halton_base(dim)
    perm = None if seed is None else halton_permutation(dim, seed)
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
    return np.stack([halton_column(j + 1, 1, m + 1, seed) for j in range(d)], axis=1)


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
        for dim in range(1, 9):
            perm = halton_permutation(dim, 5)
            assert perm[0] == 0
            assert sorted(perm) == list(range(len(perm)))

    @pytest.mark.parametrize("seed", [5, 77])
    def test_permutation_per_dimension(self, seed):
        # each coordinate's permutation from its own stream, as one loop over
        # the first 64 bases drew them: a chunk builds only the ones it reads,
        # and a cold cache builds the same bytes as a warm one
        want = [np.concatenate([[0], 1 + cubature.keyed_stream(cubature._HALTON_TAG, seed, j)
                                .permutation(int(base) - 1)]).astype(np.int64)
                for j, base in enumerate(first_primes(64))]
        warm = [halton_permutation(dim, seed) for dim in range(1, 65)]
        halton_permutation.cache_clear()
        for dim in range(1, 65):
            for perm in (halton_permutation(dim, seed), warm[dim - 1]):
                assert perm.dtype == np.int64 and perm.tobytes() == want[dim - 1].tobytes()

    def test_cached_permutation_is_read_only(self):
        # every column of the process reads the one cached array: a caller
        # that writes to it must fail, not scramble the later columns
        perm = halton_permutation(3, 11)
        assert halton_permutation(3, 11) is perm
        with pytest.raises(ValueError, match="read-only"):
            perm[1] = 2
        assert sorted(halton_permutation(3, 11)) == [0, 1, 2, 3, 4]

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
                scr = star_discrepancy_bruteforce(halton_column(2, 1, m + 1, seed=seed))
                assert scr == pytest.approx(plain, abs=1e-12)

    @pytest.mark.parametrize("seed", [None, 3, 41])
    def test_column_matches_digit_loop(self, seed):
        # ranges in one block of the low table, across block and digit-count
        # boundaries, far from the origin, of one node and empty
        ranges = [(0, 1), (1, 2), (1, 4097), (8193, 16385), (45057, 51201),
                  (2 ** 20 + 17, 2 ** 20 + 8209), (7, 7)]
        for dim in range(1, 65):
            for start, stop in ranges:
                got = halton_column(dim, start, stop, seed)
                assert got.tobytes() == _halton_column_by_digits(dim, start, stop, seed).tobytes()
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

    @pytest.mark.parametrize("d", [1, 2, 64])
    def test_out_is_a_column_slice_of_a_wider_block(self, d):
        # a stack's block holds k replicates' chunks side by side: filling
        # one replicate's column slice writes the bytes of a fresh call there
        # and nothing anywhere else
        k = 3
        for rows in (1, 255, 256, 257, 4096, MC_CHUNK_NODES):
            block = np.full((d, k * rows), -1.0)
            want = mc_chunk(2, rows, d, seed=9, replicate=1)
            got = mc_chunk(2, rows, d, seed=9, replicate=1, out=block[:, rows:2 * rows])
            assert got.shape == (rows, d) and got.tobytes() == want.tobytes()
            assert block[:, rows:2 * rows].tobytes() == want.T.tobytes()
            assert np.all(block[:, :rows] == -1.0) and np.all(block[:, 2 * rows:] == -1.0)
            assert all(block[dim].flags.c_contiguous for dim in range(d))

    @pytest.mark.parametrize("out", [np.empty((8, 3)), np.empty((3, 9)),
                                     np.empty((3, 8), np.float32), np.empty((3, 8), np.int64),
                                     [[0.0] * 8] * 3],
                             ids=["transposed", "wide", "float32", "int64", "list"])
    def test_out_of_the_wrong_shape_or_dtype_refused_before_any_draw(self, out, monkeypatch):
        monkeypatch.setattr(cubature, "keyed_stream", lambda *key: pytest.fail("drew"))
        with pytest.raises(InputError, match="out must be a float64 array of shape"):
            mc_chunk(0, 8, 3, seed=1, out=out)

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


class TestStreamKeys:
    """Every key of a keyed stream is an integer >= 0: a float seed used to
    truncate silently, True read as 1, and a negative key raised numpy's
    bare ValueError."""

    @pytest.mark.parametrize("call, message", [
        (lambda: mc_chunk(0, 4, 2, 2.5), "seed must be an integer >= 0, got 2.5"),
        (lambda: mc_chunk(0, 4, 2, True), "seed must be an integer >= 0, got True"),
        (lambda: mc_chunk(0, 4, 2, -1), "seed must be an integer >= 0, got -1"),
        (lambda: mc_chunk(-1, 4, 2, 0), "stream index must be an integer >= 0, got -1"),
        (lambda: mc_chunk(0, 4, 2, 0, replicate=1.0), "stream index .* got 1.0"),
        (lambda: cp_shift_vector(3, -2), "seed must be an integer >= 0, got -2"),
        (lambda: halton_permutation(1, -5), "seed must be an integer >= 0, got -5"),
        (lambda: halton_permutation(1, 5.0), "seed must be an integer >= 0, got 5.0"),
        (lambda: halton_permutation(0, 5), "Halton dimension must be >= 1, got 0"),
        (lambda: halton_column(1, 1, 5, seed=-1), "seed must be an integer >= 0, got -1"),
    ], ids=["mc-float-seed", "mc-bool-seed", "mc-negative-seed", "mc-negative-chunk",
            "mc-float-replicate", "cp-negative-seed", "halton-negative-seed",
            "halton-float-seed", "halton-dim-0", "column-negative-seed"])
    def test_bad_key_is_an_input_error_naming_it(self, call, message):
        halton_permutation(1, 5)  # a cached int key must not answer for 5.0
        with pytest.raises(InputError, match=message):
            call()

    def test_integer_keys_of_any_integer_type_draw_one_stream(self):
        want = mc_chunk(1, 16, 3, 7, 2)
        got = mc_chunk(np.int64(1), 16, 3, np.uint32(7), np.int8(2))
        assert got.tobytes() == want.tobytes()


class TestProducerArguments:
    """The node producers check their integer arguments: a float or a
    negative dimension, a float end or an inverted index range used to raise
    TypeError, IndexError, AttributeError or numpy's bare ValueError, or to
    return an empty column or a (4, 0) block."""

    @pytest.mark.parametrize("call, message", [
        (lambda: halton_column(1.5, 1, 5), "Halton dimension must be an integer >= 1, got 1.5"),
        (lambda: halton_column(0, 1, 5), "Halton dimension must be an integer >= 1, got 0"),
        (lambda: halton_column(2, 1, 5.5), "stop must be an integer >= 1, got 5.5"),
        (lambda: halton_column(1, -1, 5), "start must be an integer >= 0, got -1"),
        (lambda: halton_column(1, 5, 1), "stop must be an integer >= 5, got 1"),
        (lambda: sobol_column(1, 1, 5.5), "stop must be an integer >= 1, got 5.5"),
        (lambda: sobol_column(True, 1, 5), "Sobol dimension must be an integer >= 1, got True"),
        (lambda: sobol_column(1, 2.0, 5), "start must be an integer >= 0, got 2.0"),
        (lambda: sobol_column(1, 5, 1), "stop must be an integer >= 5, got 1"),
        (lambda: mc_chunk(0, 4, -1, 1), "dimension d must be an integer >= 1, got -1"),
        (lambda: mc_chunk(0, 4, 0, 1), "dimension d must be an integer >= 1, got 0"),
        (lambda: mc_chunk(0, 4.0, 2, 1), "rows must be an integer >= 1, got 4.0"),
        (lambda: cp_shift_vector(-1, 1), "dimension d must be an integer >= 1, got -1"),
        (lambda: cp_shift_vector(2.0, 1), "dimension d must be an integer >= 1, got 2.0"),
    ], ids=["halton-float-dim", "halton-dim-0", "halton-float-stop", "halton-negative-start",
            "halton-inverted", "sobol-float-stop", "sobol-bool-dim", "sobol-float-start",
            "sobol-inverted", "mc-negative-d", "mc-d-0", "mc-float-rows", "cp-negative-d",
            "cp-float-d"])
    def test_bad_argument_is_an_input_error_naming_it(self, call, message):
        with pytest.raises(InputError, match=re.escape(message)):
            call()

    def test_empty_range_is_an_empty_column(self):
        assert sobol_column(1, 5, 5).shape == (0,)
        assert halton_column(1, 5, 5, seed=3).shape == (0,)


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

    def test_gauss_budget_checked_when_formed(self):
        # at most 1e7 nodes on the d - 1 live dimensions (z_n is never read)
        with pytest.raises(InputError,
                           match=r"^Gauss product budget exceeded: 64\^7 > 1e7 nodes$"):
            CubatureSpec(kind="gauss", M=64, d=8)
        assert CubatureSpec(kind="gauss", M=57, d=4).M == 57  # 57^3 live nodes
        assert CubatureSpec(kind="gauss", M=10, d=8).M == 10  # 10^7: at the budget
        assert CubatureSpec(kind="gauss", M=1, d=80).d == 80
        assert CubatureSpec(kind="gauss", M=1, d=10 ** 12).d == 10 ** 12

    def test_gauss_budget_is_exact_for_any_integer_type_and_size(self):
        # 64^11 wraps to 0 in int64; a trillion dimensions must not build 2^(1e12)
        with pytest.raises(InputError, match=r"64\^11"):
            CubatureSpec(kind="gauss", M=np.int64(64), d=np.int64(12))
        with pytest.raises(InputError, match=r"2\^999999999999 > 1e7"):
            CubatureSpec(kind="gauss", M=2, d=10 ** 12)

    def test_sobol_node_count_within_the_sequence(self):
        # the nodes are indices 1..M, so the last one must be a 32-bit index
        for M in (2 ** 32, 2 ** 33):
            with pytest.raises(InputError, match=f"M = {M} exceeds the 32-bit sequence"):
                CubatureSpec(kind="sobol", M=M, d=2)
        assert CubatureSpec(kind="sobol", M=2 ** 32 - 1, d=2).M == 2 ** 32 - 1
        assert sobol_column(1, 2 ** 32 - 1, 2 ** 32).shape == (1,)
        with pytest.raises(InputError, match="32-bit sequence"):
            sobol_column(1, 2 ** 32, 2 ** 32 + 1)
        for kind in ("mc", "halton"):
            assert CubatureSpec(kind=kind, M=2 ** 32, d=2).M == 2 ** 32

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
