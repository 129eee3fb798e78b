"""Structured counting map and its fast inverse.

The map sends a one-hot bid layout (one row per bidder, one column per
price, highest price leftmost within the comparisons that matter) to, per
cell, the number of competing placements that beat it.  A zero therefore
marks the winning cell, and the whole image determines the bids uniquely —
which is exactly what the noise-stripping attack exploits.
"""

import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab.errors import InconsistentExponents, InvalidBidVector, NotAPower
from auctionlab.groups import DEFAULT_MARKER, GROUPS_BY_NAME, SMALL_GROUP
from auctionlab.protocol import compute_outcome_bases
from auctionlab.recovery import (
    apply_f,
    build_matrix,
    count_operations,
    exponent_from_power,
    invert_outcome_map,
    outcome_map,
    recover_bids,
    validate_bid_vector,
)

# The full 9x9 coefficient matrix for three bidders and three prices,
# written out entry by entry.  Rows and columns are (bidder, price) pairs
# in row-major order.  Frozen: any change to the block layout breaks this.
MATRIX_3x3 = [
    [0, 1, 1, 0, 1, 1, 0, 1, 1],
    [1, 0, 1, 0, 0, 1, 0, 0, 1],
    [1, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 0, 1, 1, 0, 1, 1],
    [0, 1, 1, 1, 0, 1, 0, 0, 1],
    [0, 0, 1, 1, 1, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 0, 1, 1],
    [0, 1, 1, 0, 1, 1, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 1, 1, 0],
]


def one_hot(bids, k):
    flat = []
    for price in bids:
        flat.extend(1 if j + 1 == price else 0 for j in range(k))
    return flat


def brute_force_invert(image, n, k):
    """Oracle: try every bid constellation and return the matching one."""
    matrix = build_matrix(n, k)
    hits = []
    def walk(prefix):
        if len(prefix) == n:
            if apply_f(matrix, one_hot(prefix, k)) == list(image):
                hits.append(list(prefix))
            return
        for price in range(1, k + 1):
            walk(prefix + [price])
    walk([])
    return hits


class TestMatrixShape:
    def test_dense_3x3_matches_frozen(self):
        assert build_matrix(3, 3).dense() == MATRIX_3x3

    def test_entries_are_binary(self):
        for n, k in ((1, 1), (2, 3), (4, 2)):
            dense = build_matrix(n, k).dense()
            assert set(np.unique(dense)) <= {0, 1}

    def test_diagonal_blocks_have_zero_diagonal(self):
        dense = build_matrix(3, 3).dense()
        for i in range(9):
            assert dense[i][i] == 0

    def test_entry_matches_dense(self):
        matrix = build_matrix(3, 4)
        dense = matrix.dense()
        for r in range(12):
            for c in range(12):
                assert matrix.entry(r, c) == dense[r][c]


class TestFrozenImages:
    def test_two_bidders(self):
        matrix = build_matrix(2, 2)
        assert apply_f(matrix, [1, 0, 0, 1]) == [1, 1, 2, 0]

    def test_three_bidders(self):
        matrix = build_matrix(3, 3)
        assert apply_f(matrix, one_hot([1, 2, 1], 3)) == [1, 1, 1, 2, 0, 1, 2, 2, 1]

    def test_winner_cell_is_the_unique_zero(self):
        image = apply_f(build_matrix(3, 3), one_hot([1, 2, 1], 3))
        assert image.index(0) == 1 * 3 + 1          # bidder 2, price 2
        assert image.count(0) == 1

    def test_apply_agrees_with_dense_multiply(self):
        rng = random.Random(0)
        for n, k in ((2, 2), (3, 3), (4, 3), (3, 5)):
            matrix = build_matrix(n, k)
            bids = [rng.randrange(1, k + 1) for _ in range(n)]
            b = one_hot(bids, k)
            expected = (matrix.dense() @ np.array(b)).tolist()
            assert apply_f(matrix, b) == expected


class TestOneMapTwoFaces:
    """The protocol's cell bases and the seller's counts come from one
    ``outcome_map``: under the product mod p, a bid table holding
    marker^e at each bid price gives marker^(e * count) in every cell, the
    relation the seller's recovery inverts."""

    @given(data=st.data(), n=st.integers(1, 4), k=st.integers(1, 4),
           group=st.sampled_from(sorted(GROUPS_BY_NAME)),
           exponent=st.sampled_from([1, 5]))
    @settings(max_examples=60, deadline=None)
    def test_bases_are_marker_powers_of_the_counts(self, data, n, k, group,
                                                    exponent):
        params, marker = GROUPS_BY_NAME[group], DEFAULT_MARKER[group]
        bids = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        flat = one_hot(bids, k)
        step = pow(marker, exponent, params.p)
        alphas = [[step if bit else 1 for bit in flat[i * k:(i + 1) * k]]
                  for i in range(n)]
        matrix = build_matrix(n, k)
        bases = compute_outcome_bases(params, alphas, [[1] * k] * n)
        counts = apply_f(matrix, flat)
        assert [a for row in bases for a, _ in row] == [
            pow(marker, exponent * count, params.p) for count in counts]
        assert all(b == 1 for row in bases for _, b in row)

        reference = [sum(matrix.entry(r, c) for c in range(n * k) if flat[c])
                     for r in range(n * k)]
        grid = [flat[i * k:(i + 1) * k] for i in range(n)]
        assert [c for row in outcome_map(grid, operator.add, 0) for c in row] == reference


class TestValidation:
    def test_wrong_length(self):
        with pytest.raises(InvalidBidVector):
            validate_bid_vector([1, 0, 0], 2, 2)

    def test_not_one_hot(self):
        with pytest.raises(InvalidBidVector):
            validate_bid_vector([1, 1, 0, 1], 2, 2)

    def test_non_binary(self):
        with pytest.raises(InvalidBidVector):
            validate_bid_vector([2, 0, 0, 1], 2, 2)

    def test_valid_passes(self):
        validate_bid_vector([1, 0, 0, 1], 2, 2)


class TestRecovery:
    def test_round_trip_matches_brute_force(self):
        """The fast solver and the exhaustive oracle agree everywhere."""
        for n, k in ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3)):
            matrix = build_matrix(n, k)
            def walk(prefix):
                if len(prefix) == n:
                    image = apply_f(matrix, one_hot(prefix, k))
                    solved = recover_bids(image, n, k)
                    assert solved.prices() == prefix
                    assert brute_force_invert(image, n, k) == [prefix]
                    return
                for price in range(1, k + 1):
                    walk(prefix + [price])
            walk([])

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6), k=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random(self, seed, n, k):
        rng = random.Random(seed)
        bids = [rng.randrange(1, k + 1) for _ in range(n)]
        image = apply_f(build_matrix(n, k), one_hot(bids, k))
        assert recover_bids(image, n, k).prices() == bids

    def test_garbage_image_rejected(self):
        with pytest.raises(InconsistentExponents):
            recover_bids([5, 5, 5, 5], 2, 2)

    def test_injectivity_exhaustive(self):
        """Distinct constellations never share an image."""
        for n, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
            matrix = build_matrix(n, k)
            seen = {}
            def walk(prefix):
                if len(prefix) == n:
                    image = tuple(apply_f(matrix, one_hot(prefix, k)))
                    assert image not in seen, (prefix, seen.get(image))
                    seen[image] = list(prefix)
                    return
                for price in range(1, k + 1):
                    walk(prefix + [price])
            walk([])
            assert len(seen) == k ** n


class TestInvertOutcomeMap:
    """The backward sweep over any operation.  Its integer face (addition,
    unit 0, a step of 1 per bidder) undoes ``apply_f`` like ``recover_bids``
    and the exhaustive oracle; on any image it returns None or bids that
    map exactly onto it."""

    @staticmethod
    def grid(flat, n, k):
        return [list(flat[i * k:(i + 1) * k]) for i in range(n)]

    def test_integer_face_matches_recover_bids(self):
        for n, k in ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 5)):
            matrix = build_matrix(n, k)
            for bids in itertools.product(range(1, k + 1), repeat=n):
                image = apply_f(matrix, one_hot(bids, k))
                prices = invert_outcome_map(self.grid(image, n, k), [1] * n,
                                            operator.add, 0)
                assert prices == recover_bids(image, n, k).prices() == list(bids)

    def test_integer_face_matches_brute_force_on_edited_images(self):
        """Every single-cell edit of every image, for n, k <= 3: the sweep
        finds exactly the oracle's bids, or None when the oracle finds none."""
        for n, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
            matrix = build_matrix(n, k)
            for bids in itertools.product(range(1, k + 1), repeat=n):
                image = apply_f(matrix, one_hot(bids, k))
                for cell, value in itertools.product(range(n * k), range(-1, n + 2)):
                    edited = image[:cell] + [value] + image[cell + 1:]
                    hits = brute_force_invert(edited, n, k)
                    prices = invert_outcome_map(self.grid(edited, n, k), [1] * n,
                                                operator.add, 0)
                    assert hits == ([prices] if prices else []), (bids, cell, value)

    @given(data=st.data(), n=st.integers(1, 5), k=st.integers(1, 5),
           face=st.sampled_from(["integers", *sorted(GROUPS_BY_NAME)]),
           distinct=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_single_cell_edit_is_refused_or_exact(self, data, n, k, face, distinct):
        if face == "integers":
            steps, op, unit = [1] * n, operator.add, 0
            values = st.integers(-1, n + 1)
        else:
            params = GROUPS_BY_NAME[face]
            markers = ([params.exp(params.g, e) for e in range(2, n + 2)]
                       if distinct else [DEFAULT_MARKER[face]] * n)
            steps, op, unit = [params.exp(m, 5) for m in markers], params.mul, 1
            values = st.integers(1, params.p - 1)
        bids = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))

        def table(prices):
            return [[step if j + 1 == price else unit for j in range(k)]
                    for step, price in zip(steps, prices)]

        image = outcome_map(table(bids), op, unit)
        assert invert_outcome_map(image, steps, op, unit) == bids
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, k - 1))
        near = [op(image[i][j], step) for step in steps]
        image[i][j] = data.draw(st.one_of(values, st.sampled_from(near)))
        prices = invert_outcome_map(image, steps, op, unit)
        assert prices is None or outcome_map(table(prices), op, unit) == image


class TestOperationCount:
    def test_within_quadratic_budget(self):
        for n, k in ((5, 5), (10, 10), (20, 20)):
            assert count_operations(n, k) <= n * n * k * k

    def test_linear_in_table_size(self):
        """The count grows like n*k, not like (n*k)^2."""
        small_ops = count_operations(5, 5)
        big_ops = count_operations(20, 20)
        assert big_ops <= 16 * 1.5 * small_ops        # table grew 16-fold

    def test_additions_reported(self):
        image = apply_f(build_matrix(3, 3), one_hot([1, 2, 1], 3))
        solved = recover_bids(image, 3, 3)
        assert solved.additions == count_operations(3, 3)
        assert solved.additions <= 9 * 9


class TestPowerTable:
    def test_frozen_lookup(self, small):
        assert exponent_from_power(small, 16, 4, small.q) == 2
        assert exponent_from_power(small, 1, 4, small.q) == 0

    def test_not_a_power_rejected(self, small):
        with pytest.raises(NotAPower):
            exponent_from_power(small, 7, 4, small.q)

    @given(e=st.integers(0, 10))
    @settings(max_examples=30)
    def test_round_trip(self, e):
        g = SMALL_GROUP
        assert exponent_from_power(g, g.exp(4, e), 4, g.q) == e
