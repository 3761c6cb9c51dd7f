import re
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from condlat import probabilistic
from condlat.errors import ConditioningOnNull, InternalInconsistency, TooLarge, WidthMismatch
from condlat.ops import Axiom
from condlat.probabilistic import (
    NORM_WITNESS,
    TABLE_BLOCK_CELLS,
    TABLE_LIMIT,
    ConfidenceSpace,
    arrow_table,
    confidence_space,
    interval_sets,
    p4_witness,
    p5_witness,
    verify_axioms,
)

F = Fraction


@pytest.fixture(scope="module")
def space():
    return confidence_space()


def test_reference_configuration(space):
    assert space.world_count == 11
    assert space.self_mass == F(9, 10)
    assert space.other_mass == F(1, 100)
    assert space.threshold == F(9, 10)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ConfidenceSpace(3, F(1, 2), F(1, 2), F(9, 10))  # masses sum to 3/2
    with pytest.raises(ValueError):
        confidence_space(threshold=0)
    with pytest.raises(ValueError):
        confidence_space(threshold=F(11, 10))
    with pytest.raises(ValueError):
        confidence_space(world_count=0)
    with pytest.raises(ValueError):
        confidence_space(world_count=1, self_mass=F(9, 10))
    # a single world carrying all the mass is fine
    one = confidence_space(world_count=1, self_mass=1)
    assert one.arrow(1, 1) == 1


def test_measure_values_are_exact(space):
    full = space.full
    assert space.measure(0, full) == 1
    assert space.measure(0, 1 << 0) == F(9, 10)
    assert space.measure(0, 1 << 1) == F(1, 100)
    assert space.measure(0, (1 << 1) | (1 << 2)) == F(2, 100)
    assert space.measure(3, (1 << 3) | (1 << 0)) == F(9, 10) + F(1, 100)
    with pytest.raises(WidthMismatch):
        space.measure(0, 1 << 11)


def test_arrow_rejects_subsets_outside_the_space(space):
    for A, B in ((1 << 11, 0), (0, 1 << 11)):
        with pytest.raises(WidthMismatch):
            space.arrow(A, B)


@pytest.mark.parametrize("w", [-1, 11, 99])
def test_measure_and_cond_prob_reject_a_world_outside_the_space(space, w):
    assert space.world_count == 11
    with pytest.raises(WidthMismatch, match=f"world {w} is not one of the 11 worlds"):
        space.measure(w, 1)
    with pytest.raises(WidthMismatch, match=f"world {w} is not one of the 11 worlds"):
        space.cond_prob(w, 1, 3)


def test_cond_prob_boundary_cases(space):
    A, B, C, w = NORM_WITNESS
    assert space.cond_prob(w, B, A) == F(9, 10)
    assert space.cond_prob(w, C, A) == F(9, 10)
    assert space.cond_prob(w, B & C, A) == F(4, 5)
    with pytest.raises(ConditioningOnNull):
        space.cond_prob(0, 1, 0)


def test_arrow_thresholding(space):
    A, B, C, w0 = NORM_WITNESS
    assert w0 == 0
    # at world 0 each single drop sits exactly on the bar, the double
    # drop falls under it
    both = space.arrow(A, B) & space.arrow(A, C)
    assert both & 1
    assert not space.arrow(A, B & C) & 1
    # the dropped world never believes the conditional that excludes it
    assert not space.arrow(A, B) >> 10 & 1
    assert space.arrow(A, B) == space.full & ~(1 << 10)


def test_empty_antecedent_puts_every_world_in_the_arrow():
    space = confidence_space()
    assert space.arrow(0, 0) == space.full
    assert arrow_table(space)[0, 0] == space.full
    # with self mass 1 every world outside A gives A measure zero
    certain = ConfidenceSpace(4, F(1), F(0), F(1))
    assert certain.arrow(0b0011, 0) == 0b1100
    assert arrow_table(certain)[0b0011, 0] == 0b1100


def test_identity_and_detachment_examples(space):
    full = space.full
    A = sum(1 << w for w in range(1, 11))
    assert space.arrow(A, A) == full
    assert space.arrow(full, full) == full
    # conditioning the whole space on one world
    assert space.cond_prob(0, 1 << 0, full) == F(9, 10)


def test_table_route_matches_scalar_route(space):
    table = arrow_table(space)
    assert table.shape == (2048, 2048)
    rng = np.random.default_rng(0)
    for _ in range(300):
        A = int(rng.integers(0, 2048))
        B = int(rng.integers(0, 2048))
        assert int(table[A, B]) == space.arrow(A, B)


def test_table_block_edges_match_scalar_route():
    # the largest table: the first and last antecedent row of every block
    sp = confidence_space(world_count=TABLE_LIMIT)
    N = 1 << TABLE_LIMIT
    table = arrow_table(sp)
    assert table.shape == (N, N) and table.dtype == np.uint16
    step = max(1, TABLE_BLOCK_CELLS // N)
    assert N // step > 1
    cols = np.random.default_rng(12).integers(0, N, size=8).tolist() + [0, N - 1]
    for lo in range(0, N, step):
        for A in (lo, min(lo + step, N) - 1):
            for B in cols:
                assert int(table[A, B]) == sp.arrow(A, B), (A, B)


def test_table_guard():
    with pytest.raises(TooLarge):
        arrow_table(confidence_space(world_count=13, self_mass=F(9, 10)))


def test_interval_sets_shape():
    fam = interval_sets(11)
    assert len(fam) == 1 + 11 * 12 // 2
    assert 0 in fam and (1 << 11) - 1 in fam
    assert len(set(fam)) == len(fam)


def test_verify_axioms_report(space):
    rep = verify_axioms(space, seed=0)
    assert rep.ok
    for ax in (Axiom.P1, Axiom.P2, Axiom.P3, Axiom.MP):
        assert rep[ax].holds and rep[ax].mode == "exhaustive"
    for ax in (Axiom.P4, Axiom.P5):
        assert rep[ax].holds and rep[ax].mode == "exhaustive"
    assert rep.crosschecked > 0


CROSSCHECK_SPACES = [confidence_space()] + [
    confidence_space(k, 1 if k == 1 else F(3, 4), F(3, 4)) for k in range(1, 7)]
# crosschecked for seeds 0-9, one row per space above: every cell of
# the tables of 1-4 worlds, which have at most 512
CROSSCHECKED = [
    [517] * 10, [4] * 10, [16] * 10, [64] * 10, [256] * 10,
    [414, 402, 413, 402, 415, 420, 404, 417, 409, 410],
    [488, 490, 493, 481, 496, 486, 485, 491, 485, 481],
]


def test_crosscheck_reads_the_seeded_cells(monkeypatch):
    cells = []
    arrows = ConfidenceSpace.arrows

    def recording(self, a, b):
        cells.extend(zip(np.ravel(a).tolist(), np.ravel(b).tolist()))
        return arrows(self, a, b)

    monkeypatch.setattr(ConfidenceSpace, "arrows", recording)
    for sp, counts in zip(CROSSCHECK_SPACES, CROSSCHECKED):
        N = 1 << sp.world_count
        for seed, count in enumerate(counts):
            cells.clear()
            rep = verify_axioms(sp, seed=seed)
            if N * N <= 512:
                want = {(a, b) for a in range(N) for b in range(N)}
            else:
                want = {tuple(c) for c in np.random.default_rng(seed).integers(0, N, size=(512, 2))}
                want |= {(N - 1, N - 1), (0, 0), (0, N - 1), (N - 1, 0),
                         (NORM_WITNESS[0] & (N - 1), NORM_WITNESS[1] & (N - 1))}
            # the cross-check runs first, one array call over the distinct cells
            assert rep.crosschecked == count == len(want), (sp, seed)
            assert set(cells[:count]) == want


def test_norm_fails_exactly_at_the_pinned_witness(space):
    rep = verify_axioms(space, seed=1)
    c = rep[Axiom.NORM]
    assert not c.holds
    assert c.witness == NORM_WITNESS
    assert c.mode == "pinned"


def test_raising_the_threshold_only_removes_worlds(space):
    higher = confidence_space(threshold=F(95, 100))
    rng = np.random.default_rng(7)
    for _ in range(200):
        A = int(rng.integers(0, 2048))
        B = int(rng.integers(0, 2048))
        low = space.arrow(A, B)
        high = higher.arrow(A, B)
        assert high & ~low == 0


def test_exhaustive_small_space():
    # the threshold must not exceed the self mass or P2 dies
    small = confidence_space(world_count=6, self_mass=F(3, 4), threshold=F(3, 4))
    rep = verify_axioms(small)
    assert rep.ok
    for ax in (Axiom.P4, Axiom.P5):
        assert rep[ax].mode == "exhaustive"
        assert rep[ax].instances == 64 ** 3


def test_threshold_above_self_mass_breaks_p2():
    small = confidence_space(world_count=6, self_mass=F(3, 4), threshold=F(4, 5))
    rep = verify_axioms(small, seed=0)
    assert not rep[Axiom.P2].holds
    A, B, w = rep[Axiom.P2].witness
    assert (A & B) >> w & 1 and not small.arrow(A, B) >> w & 1


# -- exact ternary sweeps against brute force ----------------------------

def loop_arrow_table(space):
    """The per-world table build: D*mu_w(S) as integer linear forms,
    one threshold comparison per world over int64 arrays."""
    n = space.world_count
    D = lcm(space.self_mass.denominator, space.other_mass.denominator)
    om, sm = int(space.other_mass * D), int(space.self_mass * D)
    tn, td = space.threshold.numerator, space.threshold.denominator
    N = 1 << n
    masks = np.arange(N, dtype=np.int64)
    pc = np.zeros(N, dtype=np.int64)
    for w in range(n):
        pc += masks >> w & 1
    AB = masks[:, None] & masks[None, :]
    m_ab_base = pc[AB] * om
    m_a_base = (pc * om)[:, None]
    table = np.zeros((N, N), dtype=np.uint16)
    for w in range(n):
        m_ab = m_ab_base + (sm - om) * (AB >> w & 1)
        m_a = m_a_base + (sm - om) * (masks >> w & 1)[:, None]
        ok = td * m_ab >= tn * m_a
        ok |= m_a == 0
        table |= ok.astype(np.uint16) << w
    return table


def seeded_spaces(seed, count, max_worlds):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, max_worlds + 1))
        self_mass = F(int(rng.integers(1, 21)), 20) if k > 1 else F(1)
        threshold = F(int(rng.integers(1, 21)), 20)
        rng.integers(0, 2)  # a spent draw: the spaces after it stay the same
        yield confidence_space(k, self_mass, threshold)


def fraction_arrow(space, A, B):
    """The arrow straight from the definition, in Fraction arithmetic:
    mu_w({w}) = self_mass, mu_w({v}) = other_mass for v != w, and w is
    in the result when mu_w(B|A) >= threshold, and always when mu_w(A)
    is 0."""
    def mu(w, S):
        return sum((space.self_mass if v == w else space.other_mass)
                   for v in range(space.world_count) if S >> v & 1)

    out = 0
    for w in range(space.world_count):
        base = mu(w, A)
        hit = base == 0 or mu(w, A & B) / base >= space.threshold
        out |= hit << w
    return out


def overflowing_spaces():
    """Spaces whose threshold denominator times the masses' common
    denominator passes 2^62, so the array route runs on Python ints:
    masses and thresholds with denominators near 10^30, the second one's
    threshold at its self mass, where some confidences land exactly on
    it."""
    q = 10 ** 30 + 7
    for k, threshold in ((4, F(q // 2 + 1, q)), (5, F(q - 5, q))):
        sp = confidence_space(k, F(q - k, q), threshold)
        assert threshold.denominator * lcm(sp.self_mass.denominator,
                                           sp.other_mass.denominator) >= 1 << 62
        yield sp


def test_scalar_array_and_table_routes_match_the_fraction_definition():
    """The scalar arrow, the array route on the whole (A, B) grid and the
    table, against the per-world Fraction definition on every cell."""
    spaces = list(seeded_spaces(17, 12, 6))
    spaces += [confidence_space(k, 1 if k == 1 else F(3, 4), F(3, 4)) for k in range(1, 7)]
    # self mass 1: every world outside A has a null antecedent
    spaces += [ConfidenceSpace(4, F(1), F(0), t) for t in (F(1, 2), F(1))]
    spaces += list(overflowing_spaces())
    for sp in spaces:
        N = 1 << sp.world_count
        T = arrow_table(sp)
        m = np.arange(N)
        grid = sp.arrows(m[:, None], m[None, :])
        assert grid.shape == (N, N) and grid.dtype == np.int64
        for A in range(N):
            for B in range(N):
                want = fraction_arrow(sp, A, B)
                assert sp.arrow(A, B) == want == int(grid[A, B]) == int(T[A, B]), (sp, A, B)


def test_closed_form_table_matches_per_world_loop():
    spaces = list(seeded_spaces(3, 60, 9))
    spaces += [confidence_space(), confidence_space(1, 1, F(1, 2))]
    for sp in spaces:
        table = arrow_table(sp)
        assert table.dtype == np.uint16
        assert np.array_equal(table, loop_arrow_table(sp)), sp


def loop_cuts(space):
    """The three rows of threshold cuts one (a, k) at a time: the least
    k in 0..n at which the test clears for a world in A&B, in A-B and
    outside A, with |A| = a and |A&B| = k, else n + 1."""
    n = space.world_count
    D = lcm(space.self_mass.denominator, space.other_mass.denominator)
    o, s = int(space.other_mass * D), int(space.self_mass * D)
    tn, td = space.threshold.numerator, space.threshold.denominator

    def cuts(num, den):
        return [next((k for k in range(n + 1) if td * num(k) >= tn * den(a)), n + 1)
                for a in range(n + 1)]

    return [cuts(lambda k: s + (k - 1) * o, lambda a: s + (a - 1) * o),
            cuts(lambda k: k * o, lambda a: s + (a - 1) * o),
            cuts(lambda k: k * o, lambda a: a * o)]


def test_cut_grid_matches_the_per_cell_loop():
    spaces = list(seeded_spaces(3, 60, 9)) + [confidence_space(), *overflowing_spaces()]
    for sp in spaces:
        cuts = probabilistic._cuts(sp)
        assert cuts.dtype == np.uint8 and cuts.tolist() == loop_cuts(sp), sp


def first_cell(viol, *axes):
    """The first nonzero cell of viol in C order, decoded through the
    axes, with its lowest set bit as the world; None if all are zero."""
    flat = np.flatnonzero(viol)
    if flat.size == 0:
        return None
    idx = np.unravel_index(flat[0], viol.shape)
    bits = int(viol[idx])
    return tuple(int(ax[i]) for ax, i in zip(axes, idx)) + ((bits & -bits).bit_length() - 1,)


def brute_first_witnesses(T):
    """First witness of every law verify_axioms decides, straight from
    the definitions in the README on an int64 copy: P1 over every A; P2,
    P3 and MP over every pair; P4 and P5 over every triple; NORM over
    the triples of the interval family."""
    T = T.astype(np.int64)
    N = len(T)
    m = np.arange(N, dtype=np.int64)
    A, B = m[:, None], m[None, :]
    A3, B3, C3 = m[:, None, None], m[None, :, None], m[None, None, :]
    inner = T[A3 & B3, C3]
    fam = np.array(interval_sets(N.bit_length() - 1), dtype=np.int64)
    FA, FB, FC = fam[:, None, None], fam[None, :, None], fam[None, None, :]
    return {
        Axiom.P1: first_cell(T[N - 1, m] & ~m, m),                       # 1->a <= a
        Axiom.P2: first_cell((A & B) & ~T[A, B], m, m),                  # a&b <= a->b
        Axiom.P3: first_cell(T[A, B] & ~T[A, A & B], m, m),              # a->b <= a->(a&b)
        Axiom.MP: first_cell(A & T[A, B] & ~B, m, m),                    # a&(a->b) <= b
        Axiom.P4: first_cell(T[A3, B3 & C3] & ~T[A3, B3], m, m, m),      # a->(b&c) <= a->b
        Axiom.P5: first_cell(T[A3, inner] & ~inner, m, m, m),            # a->((a&b)->c) <= (a&b)->c
        Axiom.NORM: first_cell(T[FA, FB] & T[FA, FC] & ~T[FA, FB & FC],  # (a->b)&(a->c)
                               fam, fam, fam),                            #   <= a->(b&c)
    }


def random_tables(seed, count):
    """Uniform tables (P4 and P5 fail), tables below their column
    (T[A, B] <= B, so P5 holds) and tables closed upward in B (P4 holds)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = 1 + i % 5
        N = 1 << k
        T = rng.integers(0, N, size=(N, N), dtype=np.uint16)
        yield T
        yield T & np.arange(N, dtype=np.uint16)
        up = T & rng.integers(0, N, size=(N, N), dtype=np.uint16)
        for b in range(k):
            halves = up.reshape(N, -1, 2, 1 << b)
            halves[:, :, 1] |= halves[:, :, 0]
        yield up


def test_ternary_sweeps_match_brute_force():
    tables = [arrow_table(sp) for sp in seeded_spaces(5, 60, 5)]
    tables += list(random_tables(11, 40))
    seen = {"P4": set(), "P5": set()}
    for T in tables:
        brute = brute_first_witnesses(T)
        w4, w5 = brute[Axiom.P4], brute[Axiom.P5]
        assert p4_witness(T) == w4
        assert p5_witness(T) == w5
        seen["P4"].add(w4 is None)
        seen["P5"].add(w5 is None)
    # both verdicts occur for both axioms
    assert seen == {"P4": {True, False}, "P5": {True, False}}


def test_p4_sweep_catches_a_single_broken_cover_at_every_bit():
    """1-8 and 11 worlds: words of two cells (1 world), bits inside the
    word alone (2), bits paired on the transposed copy (3-6) and in the
    row layout (7 and up).  Rows are monotone, and row A is full exactly
    on the supersets of S; emptying the cell S | 1<<i breaks one cover
    only, (S, S | 1<<i), so every world bit must be transformed on its
    own."""
    rng = np.random.default_rng(23)
    for k in (1, 2, 3, 4, 5, 6, 7, 8, 11):
        N = 1 << k
        m = np.arange(N, dtype=np.uint16)
        T = rng.integers(0, N, size=(N, N), dtype=np.uint16)
        for b in range(k):
            halves = T.reshape(N, -1, 2, 1 << b)
            halves[:, :, 1] |= halves[:, :, 0]
        assert p4_witness(T) is None
        for i in range(k):
            A, S = (int(x) for x in rng.integers(0, N, size=2))
            S &= ~(1 << i)
            broken = T.copy()
            broken[A] = np.where(m & S == S, N - 1, 0)
            broken[A, S | 1 << i] = 0
            assert p4_witness(broken) == (A, S | 1 << i, S, 0), (k, i)


def test_verify_axioms_ternary_witnesses_match_brute_force(monkeypatch):
    """Every law's verdict and witness, on seeded spaces and, through the
    table route alone, on random tables, where P3 and P4 fail too."""
    reports = [(verify_axioms(sp, crosscheck=16), arrow_table(sp))
               for sp in seeded_spaces(9, 40, 6)]
    for T in random_tables(11, 40):
        n = len(T).bit_length() - 1
        monkeypatch.setattr(probabilistic, "arrow_table", lambda sp, T=T: T)
        sp = confidence_space(n, F(1, 2) if n > 1 else 1, F(1, 2))
        reports.append((verify_axioms(sp, crosscheck=0), T))
    seen = {}
    for rep, T in reports:
        N = len(T)
        fam = len(interval_sets(N.bit_length() - 1))
        sizes = {Axiom.P1: N, Axiom.P2: N * N, Axiom.P3: N * N, Axiom.MP: N * N,
                 Axiom.P4: N ** 3, Axiom.P5: N ** 3, Axiom.NORM: fam ** 3}
        for ax, w in brute_first_witnesses(T).items():
            c = rep[ax]
            assert (c.holds, c.witness, c.instances) == (w is None, w, sizes[ax]), (ax, T)
            assert c.mode == ("structured" if ax is Axiom.NORM else "exhaustive")
            seen.setdefault(ax, set()).add(c.holds)
    # every law both holds and fails somewhere, so every failing path runs
    assert seen == {ax: {True, False} for ax in sizes}


def planted_p3_tables(seed, count):
    """Tables with monotone rows on which P3 holds by construction (row A
    reads only A & B), each with one violating cell (A, B), B ⊄ A,
    planted twice: once with the new world added to every superset of B
    in row A, which keeps the rows monotone (P4 holds), and once in that
    cell alone, which usually breaks monotonicity."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = 1 + i % 5
        N = 1 << k
        m = np.arange(N, dtype=np.uint16)
        R = rng.integers(0, N, size=(N, N), dtype=np.uint16)
        R &= rng.integers(0, N, size=(N, N), dtype=np.uint16)
        T = R[m[:, None], m[:, None] & m]
        for b in range(k):
            halves = T.reshape(N, -1, 2, 1 << b)
            halves[:, :, 1] |= halves[:, :, 0]
        A, B = (int(x) for x in rng.integers(0, N, size=2))
        free = ~int(T[A, A & B]) & (N - 1)
        if not B & ~A or not free:
            continue
        w = free & -free
        kept = T.copy()
        kept[A, m & B == B] |= w
        alone = T.copy()
        alone[A, B] |= w
        yield kept
        yield alone


def test_p3_reduction_finds_the_planted_violation(monkeypatch):
    """With P4 holding, P3 is decided on the cells with B ⊇ ~A and the
    flagged row is scanned from the definition; with P4 failing, on every
    pair.  Both must give the lexicographically first witness."""
    seen = {True: 0, False: 0}
    for T in planted_p3_tables(21, 120):
        n = len(T).bit_length() - 1
        monkeypatch.setattr(probabilistic, "arrow_table", lambda sp, T=T: T)
        rep = verify_axioms(confidence_space(n, F(1, 2) if n > 1 else 1, F(1, 2)), crosscheck=0)
        brute = brute_first_witnesses(T)
        assert brute[Axiom.P3] is not None
        assert rep[Axiom.P3].witness == brute[Axiom.P3], T
        assert rep[Axiom.P4].witness == brute[Axiom.P4], T
        seen[rep[Axiom.P4].holds] += 1
    # both paths run: P4 holds and P3 fails, and both fail
    assert seen == {True: 69, False: 45}


def planted_reduction_tables(seed, count):
    """Tables on which P3 and P4 hold by construction, the material
    conditional B | ~A and seeded confidence tables, each with one P2,
    one MP and one P5 violation planted in three distinct rows.  A plant
    that removes world w from the cells (A, B) with A & B below S, or
    adds it where A & B lies above S, keeps both laws (row A still reads
    A & B only and stays monotone): P2 fails at A & B = S when w is in
    S, MP when w is in A - S, and P5 when S = A & u for a u = T[d, C]
    in a row d below A with w outside u.  Each table comes three times:
    with those plants; with them closed downward or upward in B instead
    of A & B, which keeps P4 but usually breaks P3; and with the worlds
    changed at the violating cells alone, which usually breaks P4."""
    rng = np.random.default_rng(seed)

    def proper_subset(A):
        while (S := A & int(rng.integers(0, N))) == A:
            pass
        return S

    def world(X):
        return 1 << int(rng.choice([w for w in range(k) if X >> w & 1]))

    for i in range(count):
        k = 2 + i % 4
        N = 1 << k
        full = N - 1
        m = np.arange(N, dtype=np.uint16)
        if i % 2:
            T = arrow_table(confidence_space(k, F(int(rng.integers(1, 21)), 20),
                                             F(int(rng.integers(1, 21)), 20)))
        else:
            T = m | full ^ m[:, None]
        A2, Am, A5 = (int(x) for x in rng.choice(np.arange(1, N), size=3, replace=False))
        S2 = A2 & int(rng.integers(0, N)) or A2 & -A2
        Sm = proper_subset(Am)
        d = proper_subset(A5)
        u = int(T[d, rng.integers(0, N)])
        if d in (A2, Am) or u == full:
            continue
        w2, wm, w5 = world(S2), world(Am & ~Sm), world(~u)
        Bm = Sm | full ^ Am
        for two, mp, five in ((m & (A2 & ~S2) == 0, m & Sm == Sm, m & (A5 & u) == A5 & u),
                              (m & (full ^ S2) == 0, m & Bm == Bm, m & u == u),
                              (m == S2, m == Sm, m == u)):
            planted = T.copy()
            planted[A2, two] &= full ^ w2
            planted[Am, mp] |= wm
            planted[A5, five] |= w5
            yield planted


def test_row_and_range_reductions_find_the_planted_violations(monkeypatch):
    """P2, MP and P5 fail on every table.  Where P3 and P4 hold, all
    three are read on the 3^n cells; where P4 holds but P3 fails, MP
    alone; where P4 fails, none.  Every law's witness must be the
    lexicographically first, as brute force finds it."""
    seen = {}
    for T in planted_reduction_tables(31, 120):
        n = len(T).bit_length() - 1
        monkeypatch.setattr(probabilistic, "arrow_table", lambda sp, T=T: T)
        rep = verify_axioms(confidence_space(n, F(1, 2), F(1, 2)), crosscheck=0)
        brute = brute_first_witnesses(T)
        for ax in (Axiom.P2, Axiom.MP, Axiom.P5):
            assert brute[ax] is not None, (ax, T)
        for ax, w in brute.items():
            assert rep[ax].witness == w, (ax, T)
        key = (rep[Axiom.P4].holds, rep[Axiom.P3].holds)
        seen[key] = seen.get(key, 0) + 1
    # (P4, P3) holds: every route runs
    assert seen == {(True, True): 23, (True, False): 21, (False, True): 4, (False, False): 18}


def test_p3_reduction_reads_all_3_to_the_11_cells(space, monkeypatch):
    # (A, S) = (all but world 0, all but worlds 0 and 1) lies in the last
    # of the chunks the reduction reads; plant world 1 at B = S | ~A,
    # whose one proper superset, the full set, maps to every world
    T = arrow_table(space)
    A, B = 0b11111111110, 0b11111111101
    assert not T[A, A & B] & 0b10 and T[A, 2047] == 2047
    T[A, B] |= 0b10
    monkeypatch.setattr(probabilistic, "arrow_table", lambda sp: T)
    rep = verify_axioms(space, crosscheck=0)
    assert rep[Axiom.P4].holds
    assert rep[Axiom.P3].witness == (A, B, 1)


def test_mp_reduction_reads_the_last_run_of_3_to_the_11_cells(space, monkeypatch):
    # plant world 1 in row A = all but world 0 at the two cells with
    # A & B = S = all but worlds 0 and 1: the rows stay monotone and read
    # A & B only, so P3 and P4 hold and MP is read on the cells alone,
    # where (A, S | ~A) lies in the last run, the one of the last row block
    T = arrow_table(space)
    A, S = 0b11111111110, 0b11111111100
    assert not T[A, S] & 0b10 and T[A, A] == T[A, 2047] == 2047
    T[A, [S, S | 1]] |= 0b10
    monkeypatch.setattr(probabilistic, "arrow_table", lambda sp: T)
    rep = verify_axioms(space, crosscheck=0)
    assert rep[Axiom.P4].holds and rep[Axiom.P3].holds and rep[Axiom.P2].holds
    assert rep[Axiom.MP].witness == (A, S, 1)


@pytest.mark.parametrize("law", [Axiom.P3, Axiom.MP, Axiom.P2], ids=lambda ax: ax.value)
def test_row_reduction_flagging_a_holding_row_raises(monkeypatch, law):
    sp = confidence_space(world_count=4, self_mass=F(3, 4), threshold=F(3, 4))
    rep = verify_axioms(sp)
    # P3 and P4 hold, so all three laws are read on the cells
    assert rep[law].holds and rep[Axiom.P3].holds and rep[Axiom.P4].holds
    read_cells = probabilistic._Cells.__init__

    def flagging(cells, T):
        read_cells(cells, T)
        cells.flagged[law] = np.arange(len(T)) == 5

    monkeypatch.setattr(probabilistic._Cells, "__init__", flagging)
    with pytest.raises(InternalInconsistency, match="flagged antecedent 0x5 but its block holds"):
        verify_axioms(sp, crosscheck=0)


def test_sweep_missing_a_family_violation_raises(monkeypatch):
    failing = [sp for sp in seeded_spaces(9, 40, 6)
               if brute_first_witnesses(arrow_table(sp))[Axiom.P5] is not None]
    assert failing
    monkeypatch.setattr(probabilistic, "p5_witness", lambda T, cells: None)
    for sp in failing:
        with pytest.raises(InternalInconsistency, match="sweep holds but the interval family"):
            verify_axioms(sp, crosscheck=0)


def test_p4_sweep_missing_a_family_violation_raises(monkeypatch):
    # constant rows are monotone; emptying the full set's cell of row
    # {0} breaks P4 at (A, B, C) = ({0}, everything, {}), all intervals
    monkeypatch.setattr(probabilistic, "p4_witness", lambda T: None)
    for n in (1, 2, 3, 6):
        N = 1 << n
        T = np.full((N, N), N - 1, dtype=np.uint16)
        T[1, N - 1] = 0
        monkeypatch.setattr(probabilistic, "arrow_table", lambda sp, T=T: T)
        sp = confidence_space(n, F(1, 2) if n > 1 else 1, F(1, 2))
        with pytest.raises(InternalInconsistency,
                           match="P4 sweep holds but the interval family fails"):
            verify_axioms(sp, crosscheck=0)


def unblocked_family_witnesses(T):
    """First P4, P5 and NORM violations (A, B, C, w) over the interval
    family's triples, read from the table in one (F, F, F) block, with
    the laws written out on masks."""
    N = len(T)
    fam = np.array(interval_sets(N.bit_length() - 1), dtype=np.intp)
    a, b, c = fam[:, None, None], fam[:, None], fam
    inner = T[a & b, c]
    excess = {Axiom.P4: T[a, b & c] & ~T[a, b],
              Axiom.P5: T[a, inner] & ~inner,
              Axiom.NORM: T[a, b] & T[a, c] & ~T[a, b & c]}
    found = {}
    for ax, x in excess.items():
        hits = np.argwhere(x)
        if len(hits) == 0:
            found[ax] = None
            continue
        i, j, k = hits[0]
        bits = int(x[i, j, k])
        found[ax] = (int(fam[i]), int(fam[j]), int(fam[k]), (bits & -bits).bit_length() - 1)
    return found


def test_blocked_family_matches_one_block_on_9_to_12_worlds(monkeypatch):
    """The family is read in blocks of leading sets.  On the material
    conditional B | ~A every law holds; a world w outside A dropped from
    T[A, X], X the interval of worlds 1..n-2, breaks P4 and NORM in row
    A alone, with A the first set of the second block.  Each law's
    blocked verdict, NORM's structured witness and P4's second route
    must agree with one unblocked evaluation."""
    for n in (9, 10, 11, 12):
        N = 1 << n
        m = np.arange(N, dtype=np.uint16)
        fam = np.array(interval_sets(n), dtype=np.uint16)
        step = TABLE_BLOCK_CELLS // len(fam) ** 2
        assert 1 <= step < len(fam)
        material = m | (N - 1) ^ m[:, None]
        A = int(fam[step])
        w = (~A & -~A).bit_length() - 1
        planted = material.copy()
        planted[A, (N >> 1) - 2] ^= 1 << w
        for T, fails in ((material, False), (planted, True)):
            want = unblocked_family_witnesses(T)
            for ax in (Axiom.P4, Axiom.P5, Axiom.NORM):
                assert probabilistic._family_witness(T, ax, fam) == want[ax], (n, ax)
            for ax in (Axiom.P4, Axiom.NORM):
                assert want[ax] == ((A,) + want[ax][1:] if fails else None), (n, ax)
            monkeypatch.setattr(probabilistic, "arrow_table", lambda sp, T=T: T)
            sp = confidence_space(n, F(1, 2), F(1, 2))
            c = verify_axioms(sp, crosscheck=0)[Axiom.NORM]
            assert (c.holds, c.witness, c.mode) == (not fails, want[Axiom.NORM], "structured")
            if fails:
                with monkeypatch.context() as patched:
                    patched.setattr(probabilistic, "p4_witness", lambda T: None)
                    with pytest.raises(InternalInconsistency,
                                       match="P4 sweep holds but the interval family fails"):
                        verify_axioms(sp, crosscheck=0)


def test_negative_crosscheck_is_refused_before_the_table(monkeypatch):
    def no_table(sp):
        raise AssertionError("table built")

    monkeypatch.setattr(probabilistic, "arrow_table", no_table)
    with pytest.raises(ValueError, match="crosscheck must be a nonnegative cell count, got -1"):
        verify_axioms(confidence_space(3, F(3, 4), F(3, 4)), crosscheck=-1)


def test_flipped_table_bit_trips_the_crosscheck(monkeypatch):
    sp = confidence_space(world_count=4, self_mass=F(3, 4), threshold=F(3, 4))
    table = arrow_table(sp)
    corners = ((0, 0), (0, 15), (15, 0), (15, 15))
    for i, (a, b) in enumerate(corners):
        for w in range(4):
            T = table.copy()
            T[a, b] ^= 1 << w
            for c, d in corners[i + 1:]:   # later cells disagree too
                T[c, d] ^= 1 << w
            monkeypatch.setattr(probabilistic, "arrow_table", lambda sp, T=T: T)
            # the message names the first disagreeing cell in row-major order
            with pytest.raises(InternalInconsistency, match=re.escape(
                    f"table and scalar routes disagree at ({a:#x},{b:#x})")):
                verify_axioms(sp, crosscheck=1)


def test_scalar_route_clearing_the_pinned_norm_cell_raises(space, monkeypatch):
    A, B, C, w = NORM_WITNESS
    arrow = ConfidenceSpace.arrow

    def patched(self, a, b):
        return arrow(self, a, b) | (1 << w if (a, b) == (A, B & C) else 0)

    monkeypatch.setattr(ConfidenceSpace, "arrow", patched)
    with pytest.raises(InternalInconsistency, match="routes disagree on the pinned witness"):
        verify_axioms(space, crosscheck=0)


def test_positional_call_forms_give_the_same_report():
    for sp in seeded_spaces(13, 6, 6):
        assert verify_axioms(sp, 10 ** 6, 4) == verify_axioms(sp, seed=4)
        assert verify_axioms(sp, 10 ** 6, 0, True) == verify_axioms(sp)


def test_verify_peak_memory_stays_near_the_table(space):
    # the 2048 x 2048 uint16 table is 8 MiB; every pass after it works
    # in row blocks, so the whole verify stays within 12 MiB
    tracemalloc.start()
    try:
        rep = verify_axioms(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak <= 12 << 20, peak / 2 ** 20
