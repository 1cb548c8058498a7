"""splitmix64 against its published reference outputs and a scalar oracle,
plus helper behavior."""

import pytest

from vmxrr.rng import MASK64, RNG_ALGORITHM, SplitMix64


def _reference(seed: int, n: int) -> list[int]:
    """The scalar splitmix64, one state step per output."""
    state, out = seed & MASK64, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_reference_vectors_seed_zero():
    # First three outputs of splitmix64(0) from the reference implementation.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_reference_vectors_seed_1234567():
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 0x599ED017FB08FC85
    assert rng.next_u64() == 0x2C73F08458540FA5


def test_same_seed_same_stream():
    a = SplitMix64(0xDEADBEEF)
    b = SplitMix64(0xDEADBEEF)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_below_stays_in_range():
    rng = SplitMix64(9)
    for bound in (1, 2, 3, 7, 151, 1 << 20):
        for _ in range(200):
            assert 0 <= rng.below(bound) < bound


def test_below_rejects_nonpositive_bound():
    rng = SplitMix64(9)
    with pytest.raises(ValueError):
        rng.below(0)


def test_randint_hits_both_endpoints():
    rng = SplitMix64(21)
    seen = {rng.randint(3, 5) for _ in range(2000)}
    assert seen == {3, 4, 5}


def test_chance_extremes():
    rng = SplitMix64(4)
    assert not any(rng.chance(0.0) for _ in range(100))
    assert all(rng.chance(1.1) for _ in range(100))


def test_weighted_returns_listed_items_roughly_by_weight():
    rng = SplitMix64(77)
    items = [("a", 0.9), ("b", 0.1)]
    draws = [rng.weighted(items) for _ in range(10000)]
    assert set(draws) <= {"a", "b"}
    assert 8500 <= draws.count("a") <= 9500


def test_algorithm_name_is_stable():
    # Stored in trace headers; changing it invalidates every existing file.
    assert RNG_ALGORITHM == "splitmix64"


@pytest.mark.parametrize("seed", [0, 1, 7, 1234567, 0xDEADBEEF, 12817, 2**64 - 1])
def test_block_stream_equals_the_scalar_algorithm(seed):
    # 1000 outputs: three full blocks of 256 and part of a fourth.
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(1000)] == _reference(seed, 1000)


def test_seed_is_taken_modulo_2_64():
    a, b = SplitMix64(2**64 + 5), SplitMix64(5)
    assert [a.next_u64() for _ in range(300)] == [b.next_u64() for _ in range(300)]


def test_interleaved_generators_keep_their_own_blocks():
    a, b = SplitMix64(3), SplitMix64(11)
    drawn_a, drawn_b = [], []
    for _ in range(600):
        drawn_a.append(a.next_u64())
        drawn_b.append(b.next_u64())
    assert drawn_a == _reference(3, 600)
    assert drawn_b == _reference(11, 600)


def test_helpers_across_a_block_boundary_use_the_reference_outputs():
    rng = SplitMix64(12817)
    ref = _reference(12817, 260)
    assert [rng.next_u64() for _ in range(255)] == ref[:255]
    assert rng.below(15) == (ref[255] * 15) >> 64          # the block's last output
    assert rng.chance(0.5) == (ref[256] / 2.0**64 < 0.5)   # the next block's first
    x = ref[257] / 2.0**64 * 6.0
    want = "a" if x < 1.0 else "b" if x < 3.0 else "c"
    assert rng.weighted([("a", 1.0), ("b", 2.0), ("c", 3.0)]) == want
    assert rng.randint(3, 9) == 3 + ((ref[258] * 7) >> 64)
