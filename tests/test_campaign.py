"""Campaign configuration, determinism, aggregation, and violation search."""

import dataclasses
import itertools

import numpy as np
import pytest

from meanineq import (
    CampaignConfig,
    UsageError,
    get_function,
    parse_campaign_config,
    run_campaign,
    search_violation,
    split_rng,
    validate_config,
    verify_numeric,
)
from meanineq.campaign import _sample_space

CFG_TEXT = """
# scalar sanity campaign
mode = num
functions = geometric, harmonic
trials = 50
atoms = 1-6
tol = 1e-10
seed = 7
"""


def test_parse_config():
    cfg = parse_campaign_config(CFG_TEXT)
    assert cfg.mode == "num"
    assert cfg.functions == ("geometric", "harmonic")
    assert cfg.trials == 50
    assert cfg.atoms == (1, 6)
    assert cfg.tol == 1e-10
    assert cfg.seed == 7


def test_parse_config_single_value_ranges():
    cfg = parse_campaign_config("mode = op\nfunctions = geometric\ntrials = 5\ndims = 4\n")
    assert cfg.dims == (4, 4)


@pytest.mark.parametrize(
    "text",
    [
        "functions = geometric\ntrials = 5\n",  # missing mode
        "mode = num\ntrials = 5\n",  # missing functions
        "mode = num\nfunctions = geometric\n",  # missing trials
        "mode = nope\nfunctions = geometric\ntrials = 5\n",
        "mode = num\nfunctions = quadratic\ntrials = 5\n",
        "mode = op\nfunctions = counterexample-g\ntrials = 5\n",
        "mode = num\nfunctions = geometric\ntrials = 5\nwat = 1\n",
        "mode = num\nfunctions = geometric\ntrials = x\n",
        "mode = num\nfunctions = geometric\ntrials = 5\ndims = 0-3\n",
        "mode = op\nfunctions = geometric\ntrials = 5\ndims = 2-3-9\n",
        "mode = num\nfunctions = geometric\ntrials = 5\natoms = 1-2-x\n",
        "mode = num\nfunctions = geometric\ntrials = 5\nmode = op\n",
        "mode = num\nfunctions = geometric\ntrials = 5\ntol = -1\n",
        "mode = num\nfunctions = geometric\ntrials = 0\nseed = -5\n",
        "just a line\n",
    ],
)
def test_bad_configs_rejected_before_trials(text):
    with pytest.raises(UsageError):
        parse_campaign_config(text)


def test_validate_config_direct():
    with pytest.raises(UsageError):
        validate_config(CampaignConfig(mode="num", functions=(), trials=1))
    with pytest.raises(UsageError):
        validate_config(CampaignConfig(mode="num", functions=("geometric",), trials=-1))
    twice = ("counterexample-g", "counterexample-g")
    with pytest.raises(UsageError, match="'counterexample-g'"):
        validate_config(CampaignConfig(mode="num", functions=twice, trials=20))
    with pytest.raises(UsageError, match=r"^dims must be a \(min, max\) pair, got 3$"):
        validate_config(CampaignConfig("op", ("geometric",), 1, dims=3))


def test_zero_trials_empty_summary():
    cfg = CampaignConfig(mode="num", functions=("geometric",), trials=0, seed=1)
    summary = run_campaign(cfg)
    assert summary.trials == 0
    assert summary.violations == 0
    assert summary.worst_gap is None
    assert summary.worst_case is None
    assert summary.per_function["geometric"].trials == 0


def test_scalar_campaign_concave_has_no_violations():
    cfg = parse_campaign_config(CFG_TEXT)
    summary = run_campaign(cfg)
    assert summary.trials == 100
    assert summary.violations == 0
    assert summary.worst_gap is not None and summary.worst_gap >= -1e-10
    assert summary.worst_case is None


def test_scalar_campaign_counterexample_violates():
    cfg = CampaignConfig(
        mode="num", functions=("counterexample-g",), trials=200, atoms=(2, 8), seed=3
    )
    summary = run_campaign(cfg)
    assert summary.violations > 0
    assert summary.worst_gap < -0.01
    wc = summary.worst_case
    assert wc is not None and wc["function"] == "counterexample-g"
    assert wc["space"]["mode"] == "scalar"
    # the recorded space reproduces the worst gap
    from meanineq import scalar_space, verify_numeric

    space = scalar_space([tuple(a) for a in wc["space"]["atoms"]])
    rep = verify_numeric(space, get_function("counterexample-g"))
    assert rep.gap == summary.worst_gap


@pytest.mark.parametrize("tol", [1e-10, 0.05])
def test_violations_count_the_trial_verdicts(tol):
    cfg = CampaignConfig(
        mode="num", functions=("geometric", "counterexample-g"), trials=40, tol=tol, seed=5
    )
    summary = run_campaign(cfg)
    for fi, fid in enumerate(cfg.functions):
        f = get_function(fid)
        verdicts = [verify_numeric(_sample_space(cfg, fi, t), f, tol).verdict for t in range(cfg.trials)]
        assert summary.per_function[fid].violations == verdicts.count("violated")
    assert summary.per_function["counterexample-g"].violations > 0


def test_campaign_determinism_and_parallel_equivalence(monkeypatch):
    from meanineq import campaign

    cfg = CampaignConfig(
        mode="op", functions=("geometric", "harmonic"), trials=30, dims=(2, 4), seed=11
    )
    s1 = run_campaign(cfg)
    s2 = run_campaign(cfg)
    with monkeypatch.context() as m:  # four ranges, each on a thread of its own
        m.setattr(campaign, "_range_count", lambda config: 4)
        s4 = run_campaign(cfg)
    assert s1 == s2 == s4
    # Blocks of one trial and key chunks that end inside a function's trials.
    for block, chunk in itertools.product((1, 4096), (1, 7, 4096)):
        monkeypatch.setattr(campaign, "BLOCK_ELEMENTS", block)
        monkeypatch.setattr(campaign, "KEY_CHUNK", chunk)
        assert run_campaign(cfg) == s1


def test_op_campaign_gaps_nonnegative():
    cfg = CampaignConfig(
        mode="op",
        functions=("arithmetic", "geometric", "harmonic", "logarithmic"),
        trials=50,
        dims=(2, 6),
        seed=5,
    )
    summary = run_campaign(cfg)
    assert summary.violations == 0
    assert summary.worst_gap >= -1e-8
    assert summary.per_function["arithmetic"].max_abs_gap <= 1e-12


def test_rm_campaign_gaps_nonnegative():
    cfg = CampaignConfig(
        mode="rm",
        functions=("geometric", "wyd:0.25"),
        trials=25,
        dims=(2, 4),
        atoms=(1, 8),
        seed=13,
    )
    summary = run_campaign(cfg)
    assert summary.violations == 0
    assert summary.worst_gap >= -1e-8


def test_search_finds_g_violation():
    rng = split_rng(21, 0)
    rep = search_violation(get_function("counterexample-g"), rng, 1000)
    assert rep.gap <= -0.1
    assert rep.verdict == "violated"


def test_search_concave_finds_nothing():
    rng = split_rng(21, 1)
    rep = search_violation(get_function("geometric"), rng, 1000)
    assert rep.gap >= -1e-10
    rng = split_rng(21, 2)
    rep = search_violation(get_function("arithmetic"), rng, 200)
    assert abs(rep.gap) <= 1e-12


def test_search_rejects_zero_budget():
    with pytest.raises(UsageError):
        search_violation(get_function("geometric"), split_rng(0, 0), 0)


def _search_one_restart_at_a_time(f, rng, budget, tol=1e-10, seed=None):
    """The reference search: draw and verify each restart alone, keep the
    first smallest gap among the non-degenerate restarts."""
    from meanineq import construct_counterexample

    best = None
    for _ in range(budget):
        # The power of a one-element array: numpy's scalar power rounds differently.
        x1 = float((2.0 ** rng.uniform(-4.0, 4.0, size=1))[0])
        x2 = float((2.0 ** rng.uniform(-4.0, 4.0, size=1))[0])
        p = float(rng.uniform())
        if x1 == x2 or not 0.0 < p < 1.0:
            continue
        report = verify_numeric(construct_counterexample(x1, x2, p), f, tol)
        if best is None or report.gap < best.gap:
            best = report
    if best is None:
        best = verify_numeric(construct_counterexample(1.0, 2.0, 0.5), f, tol)
    return dataclasses.replace(best, seed=seed)


@pytest.mark.parametrize("fid", ["arithmetic", "wyd:0.25", "geometric", "harmonic", "logarithmic", "counterexample-g"])
def test_search_matches_verifying_one_restart_at_a_time(fid):
    f = get_function(fid)
    for seed, budget in itertools.product(range(8), (1, 2, 7, 200, 1000)):
        rng, ref_rng = split_rng(seed, 0), split_rng(seed, 0)
        got = search_violation(f, rng, budget, seed=seed)
        want = _search_one_restart_at_a_time(f, ref_rng, budget, seed=seed)
        assert (got.lhs.hex(), got.rhs.hex(), got.gap.hex()) == (want.lhs.hex(), want.rhs.hex(), want.gap.hex())
        assert got == want
        assert rng.random() == ref_rng.random()  # both left the generator in one state


def test_search_falls_back_when_every_restart_is_degenerate():
    # Zeros give x1 = x2 = 1/16 and p = 0 on every restart.
    from meanineq import construct_counterexample

    class Zeros:
        def random(self, shape):
            return np.zeros(shape)

    f = get_function("counterexample-g")
    rep = search_violation(f, Zeros(), 5, seed=4)
    assert rep == dataclasses.replace(verify_numeric(construct_counterexample(1.0, 2.0, 0.5), f, 1e-10), seed=4)


class _RecordedDraws:
    """A generator's ``random`` that keeps every array it returns."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def random(self, shape):
        self.draws.append(self.rng.random(shape))
        return self.draws[-1]


def _hex(a):
    return [v.hex() for v in np.ravel(a).tolist()]


def test_search_draws_its_chunks_as_one_random_call():
    from meanineq import campaign

    budget = 2 * campaign.SEARCH_CHUNK + 5
    rec = _RecordedDraws(split_rng(3, 0))
    search_violation(get_function("counterexample-g"), rec, budget)
    assert [len(u) for u in rec.draws] == [campaign.SEARCH_CHUNK] * 2 + [5]
    assert _hex(np.concatenate(rec.draws)) == _hex(split_rng(3, 0).random((budget, 3)))


@pytest.mark.parametrize("fid", ["arithmetic", "geometric", "counterexample-g"])
def test_search_does_not_depend_on_the_chunk_size(fid, monkeypatch):
    # Chunks of 1 and 7 end inside the budget; the first smallest gap must be
    # found however the restarts are split, and match the one-at-a-time
    # search.  Arithmetic gaps tie at their minimum (seeds 0, 2 and 4 here),
    # so a later chunk's equal gap must not replace an earlier one.
    from meanineq import campaign

    f = get_function(fid)
    for seed, budget in itertools.product(range(5), (1, 8, 300)):
        want = _search_one_restart_at_a_time(f, split_rng(seed, 0), budget, seed=seed)
        for chunk in (1, 7, 1024):
            monkeypatch.setattr(campaign, "SEARCH_CHUNK", chunk)
            got = search_violation(f, split_rng(seed, 0), budget, seed=seed)
            assert (got.gap.hex(), got) == (want.gap.hex(), want), (seed, budget, chunk)


def test_search_memory_does_not_grow_with_the_budget():
    import tracemalloc

    f = get_function("geometric")

    def peak(budget):
        tracemalloc.start()
        try:
            search_violation(f, split_rng(0, 0), budget)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # one-time allocations of a first search
    small, large = peak(10**3), peak(10**5)
    assert abs(large - small) < 2**20, (small, large)


def test_campaign_memory_per_trial_stays_small():
    import tracemalloc

    def peak(trials):
        cfg = CampaignConfig(mode="num", functions=("geometric", "harmonic"), trials=trials, seed=2)
        tracemalloc.start()
        try:
            run_campaign(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # one-time allocations of a first campaign
    small, large = peak(10**3), peak(3 * 10**4)
    assert (large - small) / (2 * (3 * 10**4 - 10**3)) < 24, (small, large)


def test_campaign_memory_does_not_grow_with_the_trials():
    # A campaign keeps a record per range and function, not per trial: from
    # 10**3 to 10**5 trials a function, its traced peak grows by less than a
    # megabyte, where two (functions, trials) arrays alone would take 1.8.
    import tracemalloc

    def peak(trials):
        cfg = CampaignConfig(mode="num", functions=("geometric", "harmonic"), trials=trials, seed=3)
        tracemalloc.start()
        try:
            run_campaign(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # one-time allocations of a first campaign
    small, large = peak(10**3), peak(10**5)
    assert large - small < 2**20, (small, large)


def test_a_matrix_block_holds_one_bucket_at_a_time():
    # One block of sixteen op draws, four at each dimension 61-64, has four
    # buckets.  With its draws already made, its traced peak must stay within
    # that of a block of one such bucket plus half a bucket's (rho, X, Y)
    # stacks: building every bucket before the first kernel call adds three
    # buckets' stacks, and building the next before freeing the last, one.
    import tracemalloc

    from meanineq import campaign

    def drawn(dims, rng):  # a block of one op trial at each of dims, in order
        block = campaign._Block(rng, 3 * 64 * 64 * len(dims), 3 * 61 * 61)
        for pair, n in enumerate(dims):
            campaign._draw(block, "op", n, 1)
            block.pairs.append(pair)
            block.trials.append(campaign._Trial((n, 1)))
        return block

    dims = [n for n in (61, 62, 63, 64) for _ in range(4)]
    draws, last = drawn(dims, split_rng(4, 0)), drawn(dims[-4:], split_rng(4, 1))
    fs = [get_function("geometric")]

    def peak(block):
        config = CampaignConfig(mode="op", functions=("geometric",), trials=len(block.trials), dims=(61, 64))
        tracemalloc.start()
        try:
            campaign._block_gaps(config, fs, np.arange(len(block.trials)), block)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(draws)  # one-time allocations of a first block
    one_bucket, four_buckets = peak(last), peak(draws)
    stacks = 3 * 4 * 64 * 64 * 8  # bytes of the n = 64 bucket's rho, X and Y
    assert four_buckets < one_bucket + stacks / 2, (one_bucket, four_buckets, stacks)


def test_scaled_uniforms_are_numpys_uniform():
    # numpy draws uniform(low, high) as low + (high - low) * random(), so a
    # trial's uniforms give the values the log2 uniforms gave, bit for bit.
    from meanineq.campaign import VALUE_LOG2_RANGE, _log_uniform

    for seed, shape in itertools.product(range(4), [(2, 1), (2, 12), (500, 3)]):
        u = split_rng(seed, 1).random(shape)
        want = split_rng(seed, 1).uniform(-VALUE_LOG2_RANGE, VALUE_LOG2_RANGE, shape)
        assert _hex(-VALUE_LOG2_RANGE + 2 * VALUE_LOG2_RANGE * u) == _hex(want)
        assert _hex(_log_uniform(u)) == _hex(2.0**want)


def test_grouped_normalisation_matches_each_draw_alone():
    # Draws of one atom count are normalised as the rows of one array; each
    # row must get the bits of e / e.sum() of its draw alone, in any order of
    # counts.  (np.add.reduceat sums in another order and would not.)
    from meanineq.campaign import _probabilities

    rng = split_rng(6, 0)
    counts = rng.permutation(np.repeat(np.arange(1, 41), 500))
    weights = [rng.exponential(1.0, k) for k in counts.tolist()]
    got = _probabilities(np.concatenate(weights), counts)
    assert _hex(got) == _hex(np.concatenate([e / e.sum() for e in weights]))


def test_campaign_config_is_frozen():
    cfg = CampaignConfig(mode="num", functions=("geometric",), trials=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trials = 2


def test_worst_case_payload_reconstruction_is_deterministic():
    # The worst case is regenerated from (seed, function, trial), not stored;
    # the payload must therefore be identical on every reconstruction.
    from meanineq.campaign import _worst_case_payload

    for mode, atoms_key in (("op", None), ("rm", "rho")):
        cfg = CampaignConfig(
            mode=mode, functions=("geometric",), trials=3, dims=(2, 3), atoms=(1, 4), seed=55
        )
        p1 = _worst_case_payload(cfg, "geometric", 0, 2)
        p2 = _worst_case_payload(cfg, "geometric", 0, 2)
        assert p1 == p2
        assert p1["space"]["mode"] == "matrix"
        assert "rho" in p1["space"]["atoms"][0]


def test_validate_config_needs_finite_positive_tol():
    # A NaN tol classifies every gap as holding: this campaign has 48
    # violations at the default tol and reported none at tol = nan.
    cfg = CampaignConfig(mode="num", functions=("counterexample-g",), trials=50, seed=1)
    assert run_campaign(cfg).violations == 48
    for tol in (float("nan"), float("inf"), 0.0):
        with pytest.raises(UsageError, match="tol"):
            validate_config(dataclasses.replace(cfg, tol=tol))
        with pytest.raises(UsageError, match="tol"):
            parse_campaign_config(f"mode = num\nfunctions = geometric\ntrials = 5\ntol = {tol}\n")


def test_validate_config_rejects_counts_numpy_cannot_draw():
    # numpy draws an atom count, and counts the campaign's pairs, as int64.
    cfg = CampaignConfig(mode="rm", functions=("geometric", "harmonic"), trials=2**62 - 1, atoms=(1, 2**63 - 1))
    validate_config(cfg)
    for bad in ({"trials": 2**62}, {"atoms": (1, 2**63)}):
        with pytest.raises(UsageError, match=r"below 2\*\*63"):
            validate_config(dataclasses.replace(cfg, **bad))


def test_sampled_scalar_space_views_match_its_arrays():
    from meanineq import scalar_space, space_to_jsonable
    from meanineq.campaign import sample_scalar_space

    space = sample_scalar_space(split_rng(9, 0), atoms=(12, 12))
    assert space.p.shape == space.x.shape == space.y.shape == (12,)
    assert space.mode == "scalar" and space.rho is None
    rebuilt = scalar_space(space_to_jsonable(space)["atoms"])
    for v in ("p", "x", "y"):
        assert np.array_equal(getattr(rebuilt, v), getattr(space, v))


def _recorded_reports(cfg, monkeypatch):
    """run_campaign's summary, its per-trial (function, lhs, rhs, gap, verdict,
    atoms, dims) records (read off its block tails), the trial records its
    _run_trial calls returned, and the number of trials in each block it
    evaluated, all in campaign order.  Threads of one campaign run blocks and trials in any
    order, and a block may hold pairs of another's range, so each record is
    kept under its pair and each block under its first pair, and sorted by
    them."""
    import threading

    from meanineq import campaign, classify_gap

    blocks, draws = [], []  # block's (pair, record) pairs, ((function, trial), draw)
    run_trial, block_gaps, block_sides = campaign._run_trial, campaign._block_gaps, campaign.block_sides
    tol, current = cfg.resolved_tol(), threading.local()

    def record_trial(config, fi, t, *args):
        draws.append(((fi, t), run_trial(config, fi, t, *args)))
        return draws[-1][1]

    def record_gaps(config, fs, pairs, block_draws):
        current.pairs = pairs
        return block_gaps(config, fs, pairs, block_draws)

    def record_block(runs, counts, buckets):
        dims = {}  # each row's dimension, read off its bucket as block_sides takes it

        def recorded_buckets():
            for rows, space in buckets:
                dims.update((i, space.dims) for i in rows)
                yield rows, space

        lhs, rhs = block_sides(runs, counts, recorded_buckets())
        fids = [f.id for f, count in runs for _ in range(count)]
        records = [
            (fid, lo, hi, hi - lo, classify_gap(hi - lo, tol), counts[i], dims[i])
            for i, (fid, lo, hi) in enumerate(zip(fids, lhs.tolist(), rhs.tolist()))
        ]
        blocks.append(list(zip(current.pairs, records)))
        return lhs, rhs

    monkeypatch.setattr(campaign, "_run_trial", record_trial)
    monkeypatch.setattr(campaign, "_block_gaps", record_gaps)
    monkeypatch.setattr(campaign, "block_sides", record_block)
    summary = run_campaign(cfg)
    monkeypatch.undo()
    blocks.sort(key=lambda block: block[0][0])
    reports = [r for _, r in sorted((record for block in blocks for record in block), key=lambda record: record[0])]
    return summary, reports, [d for _, d in sorted(draws, key=lambda d: d[0])], [len(block) for block in blocks]


def _bits(function, lhs, rhs, gap, verdict, atoms, dims):
    return (function, lhs.hex(), rhs.hex(), gap.hex(), verdict, atoms, dims)


@pytest.mark.parametrize(
    "cfg",
    [
        CampaignConfig(mode="num", functions=("geometric", "wyd:0.25", "counterexample-g"), trials=60, seed=201),
        CampaignConfig(mode="op", functions=("logarithmic", "wyd:0.75"), trials=40, dims=(2, 6), seed=202),
        CampaignConfig(mode="rm", functions=("harmonic", "geometric"), trials=15, dims=(2, 6), seed=203),
        # A 48-64 matrix holds 2304 to 4096 values of x, so a block at the
        # matrix cap holds 8 to 14 trials and blocks flush partway through
        # each function's 20 trials.
        CampaignConfig(mode="op", functions=("geometric", "arithmetic"), trials=20, dims=(48, 64), seed=201),
    ],
    ids=["num", "op-2-6", "rm-2-6", "op-48-64"],
)
def test_blocked_trials_match_verifying_each_space_alone(cfg, monkeypatch):
    from meanineq import OperatorMeanSpec
    from meanineq.verify import verify_matrix

    _, reports, _, blocks = _recorded_reports(cfg, monkeypatch)
    assert sum(blocks) == len(cfg.functions) * cfg.trials
    if cfg.dims == (48, 64):
        assert len(blocks) > len(cfg.functions)
    expected = []
    for fi, fid in enumerate(cfg.functions):
        f = get_function(fid)
        for t in range(cfg.trials):
            space = _sample_space(cfg, fi, t)
            if cfg.mode == "num":
                expected.append(verify_numeric(space, f, cfg.resolved_tol()))
            else:
                expected.append(verify_matrix(space, OperatorMeanSpec(f), cfg.resolved_tol(), cfg.mode))
    assert [_bits(*r) for r in reports] == [
        _bits(r.function, r.lhs, r.rhs, r.gap, r.verdict, r.atoms, r.dims) for r in expected
    ]
    assert [r[0] for r in reports] == [fid for fid in cfg.functions for _ in range(cfg.trials)]


@pytest.mark.parametrize("mode", ["num", "op", "rm"])
def test_run_trial_is_called_once_per_trial(mode, monkeypatch):
    # The benchmark trace counts trials by these calls and atoms by the spaces
    # they return.
    cfg = CampaignConfig(mode=mode, functions=("geometric", "harmonic"), trials=7, dims=(2, 4), atoms=(1, 5), seed=9)
    summary, reports, draws, _ = _recorded_reports(cfg, monkeypatch)
    assert len(draws) == len(reports) == summary.trials == 14
    atoms = sum(len(_sample_space(cfg, fi, t).p) for fi in range(2) for t in range(7))
    assert sum(d.atoms for d in draws) == sum(r[5] for r in reports) == atoms


def _allocating_draw(rng, mode, n, k):
    """The generator calls of a trial's draw as they return fresh arrays."""
    weights = rng.standard_exponential(k) if mode != "op" else np.empty(0)
    return weights, (rng.random((2, k)) if mode == "num" else rng.standard_normal((k, 3, n, n)))


def _last_draw(block, mode, trial):
    """The slices of ``block``'s buffers that hold its last draw, ``trial``'s."""
    from meanineq import campaign

    n, k = trial
    weights = block.weights[block.nw - k : block.nw] if mode != "op" else np.empty(0)
    return weights, block.raw[block.nr - k * campaign._atom_values(mode, n) : block.nr]


@pytest.mark.parametrize("mode", ["num", "op", "rm"])
def test_buffered_draws_match_the_allocating_calls(mode):
    # A trial's generator calls write into its block's buffers with out=.
    # They must give the doubles, and leave the generator in the state, of
    # the calls that return fresh arrays: from a freshly reseeded generator
    # (a campaign range's) and from a caller's that holds a spare 32-bit
    # word, which 64-bit draws leave as it is (a public sampler's).
    from meanineq import campaign

    config = validate_config(
        CampaignConfig(mode=mode, functions=("geometric",), trials=12, dims=(1, 5), atoms=(1, 7), seed=41)
    )
    ranges = campaign._count_ranges(mode, config.dims, config.atoms)
    block = campaign._range_block(config)
    ref = np.random.Generator(np.random.Philox(0))
    ref_counts = campaign.fresh_counts(ref, ranges)
    for t, key in enumerate(campaign._trial_keys(config, 0, config.trials)):
        trial = campaign._run_trial(config, 0, t, key, block)
        assert trial == ref_counts(key)
        assert [_hex(a) for a in _last_draw(block, mode, trial)] == [_hex(a) for a in _allocating_draw(ref, mode, *trial)]
        assert repr(block.rng.bit_generator.state) == repr(ref.bit_generator.state)
    for seed in range(12):
        rng, ref = split_rng(seed, 5), split_rng(seed, 5)
        for g in (rng, ref):
            n, k = (int(g.integers(lo, hi + 1)) for lo, hi in ranges)
            if not g.bit_generator.state["has_uint32"]:  # a 32-bit draw keeps the high half of its word
                g.integers(0, 7)
        assert rng.bit_generator.state["has_uint32"] == 1
        values = campaign._atom_values(mode, n)
        block = campaign._Block(rng, k * values, values)
        campaign._draw(block, mode, n, k)
        assert [_hex(a) for a in _last_draw(block, mode, (n, k))] == [_hex(a) for a in _allocating_draw(ref, mode, n, k)]
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


@pytest.mark.parametrize("atoms, grows", [((1, 12), False), ((4000, 4500), True)], ids=["fits", "grows"])
def test_a_range_s_buffers_live_for_the_campaign(atoms, grows, monkeypatch):
    # A range's buffers hold a block at the cap and a last trial as large, so
    # at atoms 1-12 all 8000 trials (14 blocks) draw into the buffers the
    # campaign started with.  A trial of more values than the cap may not
    # fit; the buffers grow for such a trial and for no other.
    from meanineq import campaign

    run_trial, seen = campaign._run_trial, []

    def record(config, fi, t, key, block):
        before, used = block.raw, block.nr
        trial = run_trial(config, fi, t, key, block)
        fits = used + trial.atoms * 2 <= before.size
        seen.append((before, block.raw, fits))
        return trial

    monkeypatch.setattr(campaign, "_run_trial", record)
    trials = 4000 if not grows else 12
    run_campaign(CampaignConfig(mode="num", functions=("geometric", "harmonic"), trials=trials, atoms=atoms, seed=15))
    assert len(seen) == 2 * trials
    assert all((after is before) == fits for before, after, fits in seen)
    assert len({id(raw) for before, after, _ in seen for raw in (before, after)}) == 1 + sum(not f for _, _, f in seen)
    assert any(not fits for _, _, fits in seen) == grows


def _with_bad_trials(monkeypatch, bad, draw=None, atom=None):
    """Make the trials ``bad``, (function, trial) pairs, bad: ``draw(block,
    trial)`` rewrites the draw of each, its block's last, and returns its
    record, and ``atom(space, j)`` edits every space built from it, j being
    the index of its first atom in the space.  Returns the number of draws of
    each block the campaign builds (a failing block's draws are built again
    one by one)."""
    from meanineq import campaign

    run_trial, build = campaign._run_trial, campaign._build
    bad_pairs, built = set(), []

    def run_trial_with_bad_draws(config, fi, t, key, block):
        trial = run_trial(config, fi, t, key, block)
        if (fi, t) in bad:
            bad_pairs.add(fi * config.trials + t)
            return draw(block, trial) if draw else trial
        return trial

    def build_with_bad_spaces(mode, weights, raw, drawn, pairs):
        built.append(len(drawn))
        return edited_buckets(mode, weights, raw, drawn, pairs)

    def edited_buckets(mode, weights, raw, drawn, pairs):  # build's buckets, each edited as it is taken
        ranked = sorted(zip(np.asarray(pairs).tolist(), drawn[:, 1].tolist()))  # (pair, atoms) by row
        for rows, space in build(mode, weights, raw, drawn, pairs):
            starts = np.cumsum([0] + [ranked[i][1] for i in rows])
            for j, i in zip(starts, rows):
                if atom and ranked[i][0] in bad_pairs:
                    atom(space, j)
            yield rows, space

    monkeypatch.setattr(campaign, "_run_trial", run_trial_with_bad_draws)
    monkeypatch.setattr(campaign, "_build", build_with_bad_spaces)
    return built


def _indefinite(space, j):
    space.x[j] = np.diag(np.arange(space.dims) - 1.0)


def test_kernel_errors_name_the_trial(monkeypatch):
    from meanineq import NotPositiveDefiniteError

    _with_bad_trials(monkeypatch, {(0, 3)}, atom=_indefinite)
    cfg = CampaignConfig(mode="op", functions=("harmonic",), trials=6, dims=(2, 4), seed=3)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        run_campaign(cfg)
    assert str(exc.value).startswith("function 'harmonic', trial 3: first argument is not positive definite")
    assert exc.value.min_eigenvalue == -1.0


def test_kernel_errors_name_a_trial_of_the_second_function_of_a_block(monkeypatch):
    from meanineq import NotPositiveDefiniteError

    # Trials 2 and 5 of the second function fail; the first in campaign order is named.
    built = _with_bad_trials(monkeypatch, {(1, 5), (1, 2)}, atom=_indefinite)
    cfg = CampaignConfig(mode="op", functions=("harmonic", "geometric"), trials=6, dims=(2, 4), seed=3)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        run_campaign(cfg)
    assert str(exc.value).startswith("function 'geometric', trial 2: first argument is not positive definite")
    assert exc.value.min_eigenvalue == -1.0
    # The failing block started at the first function's first trial.
    assert built[0] == 12


def test_floor_errors_name_the_trial(monkeypatch):
    # 0.5 * 5e-324 rounds to 0, so trial 2's E X is 0 although its atoms are
    # positive (x = 2 ** -1074, from the uniform u with -4 + 8u = -1074, and
    # y = 1 from u = 0.5); the block tail finds it among the block's other
    # trials.
    from meanineq import DomainError
    from meanineq.campaign import _log_uniform

    assert _log_uniform(_TINY_UNIFORMS).tolist() == [[2.0**-1074] * 2, [1.0] * 2]
    _with_bad_trials(monkeypatch, {(0, 2)}, draw=_tiny_draw)
    cfg = CampaignConfig(mode="num", functions=("geometric",), trials=6, seed=3)
    with pytest.raises(DomainError) as exc:
        run_campaign(cfg)
    assert str(exc.value).startswith("function 'geometric', trial 2: E X must be positive and finite")
    assert str(exc.value).endswith("got 0.0")


def _campaign_spaces(cfg, monkeypatch):
    """The space of every draw run_campaign makes from its reseeded generator,
    with its (function, trial) coordinates; the worst-case rebuild goes
    through split_rng and is left out."""
    from meanineq import campaign

    drawn = []
    run_trial = campaign._run_trial

    def record(config, fi, t, key, block):
        trial = run_trial(config, fi, t, key, block)
        n, k = trial
        weights = block.weights[block.nw - k : block.nw]
        raw = block.raw[block.nr - k * campaign._atom_values(config.mode, n) : block.nr]
        drawn.append((fi, t, next(campaign._build(config.mode, weights, raw, np.array([trial]), [0]))[1]))
        return trial

    monkeypatch.setattr(campaign, "_run_trial", record)
    run_campaign(cfg)
    monkeypatch.undo()
    return drawn


@pytest.mark.parametrize(
    "cfg, chunk",
    [
        (CampaignConfig(mode="num", functions=("geometric", "counterexample-g"), trials=25, seed=7), None),
        (CampaignConfig(mode="op", functions=("harmonic", "wyd:0.5"), trials=12, dims=(1, 6), seed=2**64 + 3), None),
        (CampaignConfig(mode="rm", functions=("geometric", "logarithmic"), trials=6, dims=(2, 5), seed=2**128 + 9), None),
        # Chunks of 7 pairs end inside every function's 5 trials.
        (CampaignConfig(mode="num", functions=("geometric", "harmonic", "arithmetic"), trials=5, seed=2**64 + 3), 7),
        (CampaignConfig(mode="rm", functions=("geometric", "harmonic"), trials=5, dims=(2, 4), seed=11), 3),
    ],
    ids=["num", "op-seed-2^64", "rm-seed-2^128", "num-chunk-7", "rm-chunk-3"],
)
def test_campaign_spaces_are_the_split_rng_spaces(cfg, chunk, monkeypatch):
    from meanineq import campaign

    if chunk is not None:
        monkeypatch.setattr(campaign, "KEY_CHUNK", chunk)
    drawn = _campaign_spaces(cfg, monkeypatch)
    assert [(fi, t) for fi, t, _ in drawn] == [(fi, t) for fi in range(len(cfg.functions)) for t in range(cfg.trials)]
    for fi, t, space in drawn:
        ref = _sample_space(cfg, fi, t)
        for name in ("p", "x", "y"):
            assert np.array_equal(getattr(space, name), getattr(ref, name)), (fi, t, name)
        assert (space.rho is None) == (ref.rho is None)
        assert space.rho is None or np.array_equal(space.rho, ref.rho)


@pytest.mark.parametrize(
    "cfg",
    [
        CampaignConfig(mode="rm", functions=("geometric", "harmonic", "wyd:0.25"), trials=6, dims=(2, 6), seed=17),
        CampaignConfig(mode="op", functions=("logarithmic", "arithmetic", "harmonic"), trials=12, dims=(2, 6), seed=18),
        CampaignConfig(mode="num", functions=("geometric", "counterexample-g"), trials=40, seed=19),
        CampaignConfig(
            mode="num",
            functions=("geometric", "harmonic", "counterexample-g", "logarithmic", "arithmetic"),
            trials=1,
            seed=20,
        ),
        CampaignConfig(mode="op", functions=("geometric", "harmonic", "arithmetic"), trials=2, dims=(2, 6), seed=21),
        CampaignConfig(mode="op", functions=("geometric", "harmonic", "wyd:0.5"), trials=12, dims=(48, 64), seed=22),
    ],
    ids=["rm", "op", "num", "num-one-trial", "op-two-trials", "op-48-64"],
)
def test_output_does_not_depend_on_the_block_size(cfg, monkeypatch):
    # A block of 1 value of x holds one trial when matrix blocks are at the
    # num cap (factor 1); 37 ends blocks inside functions and in the next
    # one; 4096 holds whole campaigns here but at 48-64, where matrix blocks
    # of 1, 8 (the default) and 16 times 4096 values of x hold 1-2, 8-14 and
    # 16-28 trials.
    from meanineq import campaign
    from meanineq.cli import emit_report

    unpatched = emit_report(run_campaign(cfg), "json")
    for size, factor in itertools.product((1, 37, 4096), (1, campaign.MATRIX_BLOCK_FACTOR, 16)):
        monkeypatch.setattr(campaign, "BLOCK_ELEMENTS", size)
        monkeypatch.setattr(campaign, "MATRIX_BLOCK_FACTOR", factor)
        assert emit_report(run_campaign(cfg), "json") == unpatched, (size, factor)
    assert cfg.mode != "num" or '"worst_case"' in unpatched


def test_concurrent_campaigns_match_sequential_runs(monkeypatch):
    # Each campaign owns its generator and the state it reseeds it with, so
    # two campaigns running at once in two threads draw what each draws
    # alone.  Every trial yields the interpreter between reseeding and
    # drawing its values, where a shared generator would be reseeded by the
    # other campaign.
    import threading
    import time

    from meanineq import campaign

    cfgs = [
        CampaignConfig(mode="num", functions=("geometric", "counterexample-g"), trials=200, seed=31),
        CampaignConfig(mode="rm", functions=("harmonic",), trials=200, dims=(2, 3), atoms=(1, 3), seed=32),
    ]
    sequential = [run_campaign(cfg) for cfg in cfgs]
    fresh_counts, modes = campaign.fresh_counts, []

    def yielding_counts(rng, ranges):
        counts = fresh_counts(rng, ranges)

        def counts_then_yield(key):
            drawn = counts(key)
            modes.append(threading.current_thread().name)
            time.sleep(0)
            return drawn

        return counts_then_yield

    monkeypatch.setattr(campaign, "fresh_counts", yielding_counts)
    concurrent = [None, None]
    start = threading.Barrier(2)

    def run(i):
        start.wait()
        concurrent[i] = run_campaign(cfgs[i])

    threads = [threading.Thread(target=run, args=(i,), name=str(i)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    switches = sum(a != b for a, b in zip(modes, modes[1:]))
    assert switches > 10
    assert concurrent == sequential


def test_campaigns_keep_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, which costs a fresh process
    # milliseconds and a megabyte and a half of memory.
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "from meanineq.campaign import parse_campaign_config, run_campaign\n"
        "from meanineq.cli import emit_report\n"
        "for mode in ('num', 'op', 'rm'):\n"
        "    fs = 'geometric, counterexample-g' if mode == 'num' else 'geometric'\n"
        "    text = f'mode = {mode}\\nfunctions = {fs}\\ntrials = 1\\n'\n"
        "    emit_report(run_campaign(parse_campaign_config(text)), 'json')\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


_COUNTS_CFG = CampaignConfig(mode="rm", functions=("geometric",), trials=2, dims=(2, 3), atoms=(1, 3), seed=1)


@pytest.mark.parametrize(
    "key, bad",
    [
        ("trials", {"trials": 2.5}),
        ("seed", {"seed": 1.5}),
        ("trials", {"trials": True}),
        ("dims", {"dims": (2.5, 3)}),
        ("atoms", {"atoms": (1, 2.5)}),
        ("search budget", 10.5),
        ("search budget", "10"),
    ],
    ids=["trials-float", "seed-float", "trials-bool", "dims-float", "atoms-float", "budget-float", "budget-str"],
)
def test_counts_must_be_integers(key, bad):
    # Each of these once failed deep inside with a TypeError or AttributeError.
    if key == "search budget":
        rng = split_rng(0, 0)
        with pytest.raises(UsageError, match=f"^{key} must be an integer"):
            search_violation(get_function("geometric"), rng, bad)
        assert rng.random() == split_rng(0, 0).random()  # nothing was drawn
        return
    cfg = dataclasses.replace(_COUNTS_CFG, **bad)
    for call in (validate_config, run_campaign):
        with pytest.raises(UsageError, match=f"^{key} must be an integer"):
            call(cfg)


@pytest.mark.parametrize("bad", [1.5, -1, True], ids=["float", "negative", "bool"])
def test_search_seed_is_a_non_negative_integer(bad):
    # A search's seed is its replay coordinate, which split_rng would reject.
    rng = split_rng(0, 0)
    with pytest.raises(UsageError, match="^seed must be a"):
        search_violation(get_function("geometric"), rng, 10, seed=bad)
    assert rng.random() == split_rng(0, 0).random()  # nothing was drawn
    assert search_violation(get_function("geometric"), split_rng(0, 0), 10, seed=np.int64(3)).seed == 3
    assert search_violation(get_function("geometric"), split_rng(0, 0), 10).seed is None


def test_validate_config_takes_function_ids_as_a_tuple():
    with pytest.raises(UsageError, match="^functions must be a sequence of function ids, not the string 'geometric'"):
        validate_config(CampaignConfig("num", "geometric", 1))
    checked = validate_config(CampaignConfig("num", ["geometric", "harmonic"], 1))
    assert checked.functions == ("geometric", "harmonic")
    assert run_campaign(CampaignConfig("num", ["geometric"], 3)) == run_campaign(CampaignConfig("num", ("geometric",), 3))


def test_function_ids_are_the_ids_they_resolve_to():
    # Two spellings of one function would run it twice, as two rows.
    checked = validate_config(CampaignConfig("op", ("wyd:.50", " geometric", "harmonic "), 1))
    assert checked.functions == ("wyd:0.5", "geometric", "harmonic")
    for ids in (("wyd:0.5", "wyd:.5", "wyd:0.50"), ("geometric", " geometric")):
        with pytest.raises(UsageError, match=f"^function id {ids[0].strip()!r} is listed more than once$"):
            validate_config(CampaignConfig("num", ids, 1))
    with pytest.raises(UsageError, match="^config file camp.cfg: function id 'wyd:0.25' is listed more than once$"):
        parse_campaign_config("mode = num\nfunctions = wyd:0.25, wyd:2.5e-1\ntrials = 1\n", "camp.cfg")
    assert run_campaign(CampaignConfig("num", ("wyd:.5",), 3)).per_function.keys() == {"wyd:0.5"}


def test_numpy_integer_counts_are_accepted():
    # A campaign runs, and reports, the Python ints its counts stand for.
    from meanineq.cli import emit_report

    want = run_campaign(_COUNTS_CFG)
    got = run_campaign(
        dataclasses.replace(_COUNTS_CFG, trials=np.int64(2), seed=np.int64(1), dims=(np.int64(2), 3), atoms=(1, np.int32(3)))
    )
    assert got == want
    assert emit_report(got, "json") == emit_report(want, "json")
    assert search_violation(get_function("geometric"), split_rng(0, 0), np.int64(10)) == search_violation(
        get_function("geometric"), split_rng(0, 0), 10
    )


def _within(timeout, fn):
    """fn() run on a thread that must end within ``timeout`` seconds; its
    result, or the error it raised."""
    import threading

    done = {}

    def target():
        try:
            done["result"] = fn()
        except Exception as exc:  # re-raised below, on the test's thread
            done["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive()
    if "error" in done:
        raise done["error"]
    return done["result"]


@pytest.mark.parametrize(
    "cfg",
    [
        CampaignConfig(mode="op", functions=("logarithmic", "arithmetic", "harmonic"), trials=12, dims=(2, 6), seed=18),
        CampaignConfig(mode="rm", functions=("geometric", "harmonic", "wyd:0.25"), trials=6, dims=(2, 6), seed=17),
        CampaignConfig(mode="num", functions=("geometric", "counterexample-g"), trials=40, seed=19),
        CampaignConfig(mode="op", functions=("geometric", "harmonic"), trials=3, dims=(40, 44), seed=20),
        # At 48-64 even one range sorts its pairs by dimension, and 20 pairs
        # outgrow one block at the default cap.
        CampaignConfig(mode="op", functions=("wyd:0.25", "harmonic"), trials=10, dims=(48, 64), seed=23),
        # One dimension: the pieces cut it by the work of each pair's atoms.
        CampaignConfig(mode="rm", functions=("logarithmic", "arithmetic"), trials=5, dims=(40, 40), atoms=(1, 3), seed=24),
    ],
    ids=["op", "rm", "num", "op-40-44", "op-48-64", "rm-40-40"],
)
@pytest.mark.parametrize("block", [37, 4096])
def test_output_does_not_depend_on_the_range_count(cfg, block, monkeypatch):
    # Ranges of 1, 2, 3 and 8 threads (more than this machine's cores, and
    # over some of the pairs of a function), with blocks that end inside
    # every range or hold whole ranges, and a thread switch every
    # microsecond: every range writes only its own pairs, so a lost or
    # misplaced write would change the bytes.  Past one range, or at 40 and
    # above, the pairs are sorted by dimension before the cut.
    import sys

    from meanineq import campaign
    from meanineq.cli import emit_report

    monkeypatch.setattr(campaign, "BLOCK_ELEMENTS", block)
    monkeypatch.setattr(campaign, "_range_count", lambda config: 1)
    one = emit_report(run_campaign(cfg), "json")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (2, 3, 8):
            monkeypatch.setattr(campaign, "_range_count", lambda config, n=n: n)
            assert _within(120, lambda: emit_report(run_campaign(cfg), "json")) == one, n
    finally:
        sys.setswitchinterval(interval)
    assert cfg.mode != "num" or '"worst_case"' in one


@pytest.mark.parametrize("block", [1, 4096])
@pytest.mark.parametrize("ranges", [1, 2, 7])
def test_tied_gaps_go_to_the_first_trial_whatever_the_split(ranges, block, monkeypatch):
    # Every gap is -1.0, so every block and range ties: the merged records
    # still name trial 0 of the first function, the first in campaign order,
    # whether the sorted pairs make one block a range or one a trial.
    from meanineq import campaign
    from meanineq.campaign import FunctionStats

    monkeypatch.setattr(campaign, "_block_gaps", lambda config, fs, pairs, draws: np.full(len(pairs), -1.0))
    monkeypatch.setattr(campaign, "_range_count", lambda config: ranges)
    monkeypatch.setattr(campaign, "BLOCK_ELEMENTS", block)
    cfg = CampaignConfig(mode="op", functions=("geometric", "harmonic"), trials=10, dims=(40, 48), seed=31)
    assert campaign._sorts(cfg, ranges)
    summary = run_campaign(cfg)
    assert (summary.worst_gap, summary.violations) == (-1.0, 20)
    assert (summary.worst_case["function"], summary.worst_case["trial"]) == ("geometric", 0)
    assert list(summary.per_function.values()) == [FunctionStats(10, 10, -1.0, 1.0)] * 2


@pytest.mark.parametrize("ranges", [1, 2])
def test_sorted_windows_do_not_depend_on_the_window_size(ranges, monkeypatch):
    # Windows of 7 pairs end inside each function's 10 trials, and each is
    # sorted and cut on its own, at one range too (48-64); at a quarter of
    # the block cap, a window holds several blocks.  A failing trial in the
    # second window is named although the third fails as well.
    from meanineq import NotPositiveDefiniteError, campaign
    from meanineq.cli import emit_report

    cfg = CampaignConfig(mode="op", functions=("geometric", "harmonic"), trials=10, dims=(48, 64), seed=27)
    monkeypatch.setattr(campaign, "BLOCK_ELEMENTS", 1024)
    monkeypatch.setattr(campaign, "_range_count", lambda config: ranges)
    one = emit_report(run_campaign(cfg), "json")
    monkeypatch.setattr(campaign, "KEY_CHUNK", 7)
    assert campaign._sorts(cfg, ranges)
    assert emit_report(run_campaign(cfg), "json") == one
    _with_bad_trials(monkeypatch, {(1, 4), (0, 9)}, atom=_indefinite)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        _within(60, lambda: run_campaign(cfg))
    assert str(exc.value).startswith("function 'geometric', trial 9: first argument is not positive definite")


@pytest.mark.parametrize(
    "cfg",
    [
        CampaignConfig(mode="num", functions=("geometric", "counterexample-g", "harmonic"), trials=10, seed=29),
        CampaignConfig(mode="op", functions=("geometric", "harmonic"), trials=10, dims=(2, 6), seed=30),
    ],
    ids=["num", "op-2-6"],
)
def test_one_range_windows_do_not_depend_on_the_window_size(cfg, monkeypatch):
    # A campaign that does not sort walks each window as one piece: windows
    # of 7 pairs end inside each function's 10 trials and cut blocks short,
    # and the bytes are those of one window of 4096.
    from meanineq import campaign
    from meanineq.cli import emit_report

    monkeypatch.setattr(campaign, "BLOCK_ELEMENTS", 16)
    assert not campaign._sorts(cfg, campaign._range_count(cfg))
    one = emit_report(run_campaign(cfg), "json")
    monkeypatch.setattr(campaign, "KEY_CHUNK", 7)
    assert emit_report(run_campaign(cfg), "json") == one
    assert cfg.mode != "num" or '"worst_case"' in one


def test_sorted_blocks_stack_each_dimension_s_trials(monkeypatch):
    # One range, 80 pairs of 48-50 matrices: six blocks at the cap.  Sorted
    # by dimension, a block holds a contiguous run of the dimensions, and the
    # kernel makes one eigh call per (block, dimension) with a geometric
    # trial (harmonic takes its closed form): 5 calls, where blocks in
    # campaign order, each holding all three dimensions, made 9.
    from meanineq import campaign

    cfg = CampaignConfig(mode="op", functions=("geometric", "harmonic"), trials=40, dims=(48, 50), seed=25)
    monkeypatch.setattr(campaign, "_range_count", lambda config: 1)
    blocks, eigh_calls = [], []
    block_gaps, eigh = campaign._block_gaps, np.linalg.eigh

    def record_block(config, fs, pairs, block):
        blocks.append({trial.dims for pair, trial in zip(block.pairs, block.trials) if pair < config.trials})
        return block_gaps(config, fs, pairs, block)

    def counted_eigh(a):
        eigh_calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(campaign, "_block_gaps", record_block)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    run_campaign(cfg)
    monkeypatch.undo()
    assert len(blocks) == 6
    assert len(eigh_calls) == sum(len(dims) for dims in blocks) == 5


@pytest.mark.parametrize(
    "dims, ranges, sorts",
    [((2, 6), 1, False), ((39, 40), 1, False), ((40, 41), 1, True), ((2, 6), 2, True)],
)
def test_one_range_sorts_only_matrices_of_thread_min_dim(dims, ranges, sorts, monkeypatch):
    # Small matrices are mostly Python, so one range of them walks its pairs
    # in campaign order and reads each count once, however many blocks its
    # pairs fill (here blocks of two trials or more); a sorted campaign reads
    # every count twice, once to sort and once to draw.
    from meanineq import campaign

    cfg = CampaignConfig(mode="op", functions=("geometric", "harmonic"), trials=6, dims=dims, seed=28)
    monkeypatch.setattr(campaign, "BLOCK_ELEMENTS", 2 * dims[1] ** 2)
    monkeypatch.setattr(campaign, "MATRIX_BLOCK_FACTOR", 1)
    monkeypatch.setattr(campaign, "_range_count", lambda config: ranges)
    fresh_counts, reads, blocks = campaign.fresh_counts, [], []
    block_gaps = campaign._block_gaps

    def counted(rng, count_ranges):
        counts = fresh_counts(rng, count_ranges)
        return lambda key: reads.append(key) or counts(key)

    def record_block(config, fs, pairs, draws):
        blocks.append(list(pairs))
        return block_gaps(config, fs, pairs, draws)

    monkeypatch.setattr(campaign, "fresh_counts", counted)
    monkeypatch.setattr(campaign, "_block_gaps", record_block)
    run_campaign(cfg)
    assert campaign._sorts(cfg, ranges) == sorts
    assert len(reads) == (2 if sorts else 1) * 12
    assert len(blocks) > 1
    if not sorts:
        assert [pair for block in blocks for pair in block] == list(range(12))


@pytest.mark.parametrize("ranges", [1, 3])
def test_errors_name_the_first_failing_trial_of_a_later_block(ranges, monkeypatch):
    # Trial a fails and precedes trial b, which also fails, but b has the
    # smaller dimension: sorted (at 40 and above, even on one range), b's
    # block comes first in its range (or in an earlier range), and a is still
    # the one named.
    from meanineq import NotPositiveDefiniteError, campaign

    cfg = CampaignConfig(mode="op", functions=("geometric",), trials=12, dims=(40, 44), seed=26)
    dims = [_sample_space(cfg, 0, t).dims for t in range(cfg.trials)]
    a = dims.index(max(dims))
    b = next(t for t in range(a + 1, cfg.trials) if dims[t] < dims[a])
    _with_bad_trials(monkeypatch, {(0, a), (0, b)}, atom=_indefinite)
    monkeypatch.setattr(campaign, "BLOCK_ELEMENTS", 1)  # every trial a block of its own
    monkeypatch.setattr(campaign, "_range_count", lambda config: ranges)
    evaluated, block_gaps = [], campaign._block_gaps

    def record_block(config, fs, pairs, draws):
        evaluated.extend(pairs)
        return block_gaps(config, fs, pairs, draws)

    monkeypatch.setattr(campaign, "_block_gaps", record_block)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        _within(60, lambda: run_campaign(cfg))
    assert str(exc.value).startswith(f"function 'geometric', trial {a}: first argument is not positive definite")
    assert sorted(evaluated) == list(range(cfg.trials))
    if ranges == 1:
        assert evaluated.index(b) < evaluated.index(a)


@pytest.mark.parametrize(
    "bad, named",
    [({(0, 1), (0, 4), (0, 7)}, 1), ({(0, 4), (0, 7)}, 4), ({(0, 7)}, 7)],
    ids=["ranges-0-1-2", "ranges-1-2", "range-2"],
)
def test_errors_name_the_first_failing_range_s_trial(bad, named, monkeypatch):
    # Every trial has one dimension, so the sorted window keeps campaign
    # order and its three pieces of equal work are trials 0-2, 3-5 and 6-8,
    # ranges 0, 1 and 2.  Ranges 0 and 1 evaluate their blocks only once
    # range 2 has failed, and the first failing trial in campaign order is
    # still the one named.
    import threading

    from meanineq import NotPositiveDefiniteError, campaign

    _with_bad_trials(monkeypatch, bad, atom=_indefinite)
    monkeypatch.setattr(campaign, "_range_count", lambda config: 3)
    block_gaps, last_failed = campaign._block_gaps, threading.Event()

    def last_range_fails_first(config, fs, pairs, draws):
        if pairs[0] < 6:
            last_failed.wait(60)
            return block_gaps(config, fs, pairs, draws)
        try:
            return block_gaps(config, fs, pairs, draws)
        except NotPositiveDefiniteError:
            last_failed.set()
            raise

    monkeypatch.setattr(campaign, "_block_gaps", last_range_fails_first)
    cfg = CampaignConfig(mode="op", functions=("harmonic",), trials=9, dims=(3, 3), seed=3)
    threads = threading.active_count()
    with pytest.raises(NotPositiveDefiniteError) as exc:
        _within(60, lambda: run_campaign(cfg))
    assert str(exc.value).startswith(f"function 'harmonic', trial {named}: first argument is not positive definite")
    assert last_failed.is_set()
    assert threading.active_count() == threads


def test_an_unexpected_range_error_is_raised_once_every_range_has_joined(monkeypatch):
    # Trials 0-2, 3-5 and 6-8 are ranges 0, 1 and 2 (as above).  Range 2's
    # first draw raises an error that is not a package error; ranges 0 and 1
    # draw only after it, and run_campaign raises it once both are done.
    import threading

    from meanineq import campaign

    run_trial, raised, drawn = campaign._run_trial, threading.Event(), []

    def range_2_raises(config, fi, t, *rest):
        if t >= 6:
            raised.set()
            raise RuntimeError(f"trial {t} broke")
        raised.wait(60)
        drawn.append(t)
        return run_trial(config, fi, t, *rest)

    monkeypatch.setattr(campaign, "_run_trial", range_2_raises)
    monkeypatch.setattr(campaign, "_range_count", lambda config: 3)
    cfg = CampaignConfig(mode="op", functions=("harmonic",), trials=9, dims=(3, 3), seed=3)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^trial 6 broke$"):
        _within(60, lambda: run_campaign(cfg))
    assert sorted(drawn) == list(range(6))
    assert threading.active_count() == threads


def test_a_block_that_fails_only_as_a_block_raises_its_own_error(monkeypatch):
    # Every trial passes alone, so no trial is named: the block's own error
    # is raised, as it reads.
    from meanineq import DomainError, campaign

    block_sides = campaign.block_sides

    def fails_on_several_rows(runs, counts, buckets):
        if len(counts) > 1:
            raise DomainError("the block broke")
        return block_sides(runs, counts, buckets)

    monkeypatch.setattr(campaign, "block_sides", fails_on_several_rows)
    cfg = CampaignConfig(mode="num", functions=("geometric", "harmonic"), trials=5, seed=4)
    with pytest.raises(DomainError) as exc:
        run_campaign(cfg)
    assert str(exc.value) == "the block broke"


#: The uniforms of a two-atom num draw whose x values are 2 ** -1074 and y
#: values 1 (see test_floor_errors_name_the_trial).
_TINY_UNIFORMS = np.array([[-133.75, -133.75], [0.5, 0.5]])


def _tiny_draw(block, trial):
    """Rewrite a num block's last draw, that of ``trial``, as a two-atom draw
    whose E X is 0: 0.5 * 5e-324 rounds to 0.  Returns its record."""
    from meanineq import campaign

    w, r = block.nw - trial.atoms, block.nr - 2 * trial.atoms
    if r + 4 > block.raw.size:
        block.grow(r + 4)
    block.weights[w : w + 2] = 0.5
    block.raw[r : r + 4] = _TINY_UNIFORMS.ravel()
    block.nw, block.nr = w + 2, r + 4
    return campaign._Trial((1, 2))


@pytest.mark.parametrize(
    "cfg, ranges, bad, detail",
    [
        (CampaignConfig(mode="num", functions=("geometric",), trials=4, atoms=(2, 2), seed=4), 1, "draw", "E X must be"),
        (CampaignConfig(mode="op", functions=("harmonic",), trials=4, dims=(3, 3), seed=4), 2, "atom", "first argument"),
    ],
    ids=["num-one-range", "op-two-ranges"],
)
def test_a_trial_that_fails_alone_is_named_before_an_earlier_block_s_own_error(cfg, ranges, bad, detail, monkeypatch):
    # Blocks 0-1 and 2-3 of one window both fail as blocks: the first only as
    # a block, the second also at trial 3 alone.  Trial 3 is named (num: two
    # blocks of one range; op: one block in each of two ranges).
    from meanineq import DomainError, campaign

    if bad == "draw":
        _with_bad_trials(monkeypatch, {(0, 3)}, draw=_tiny_draw)
        monkeypatch.setattr(campaign, "BLOCK_ELEMENTS", 4)  # two draws of two atoms a block
    else:
        _with_bad_trials(monkeypatch, {(0, 3)}, atom=_indefinite)
    monkeypatch.setattr(campaign, "_range_count", lambda config: ranges)
    block_sides = campaign.block_sides

    def fails_on_several_rows(runs, counts, buckets):
        if len(counts) > 1:
            raise DomainError("the block broke")
        return block_sides(runs, counts, buckets)

    monkeypatch.setattr(campaign, "block_sides", fails_on_several_rows)
    with pytest.raises(DomainError) as exc:
        _within(60, lambda: run_campaign(cfg))
    assert str(exc.value).startswith(f"function '{cfg.functions[0]}', trial 3: {detail}")


def test_a_walk_goes_no_further_than_the_window_of_a_failure(monkeypatch):
    # Windows of 7 pairs, each trial a block: trial 3 fails, and the walk
    # draws the rest of its window (pairs 0-6) but none of the next.
    from meanineq import DomainError, campaign

    _with_bad_trials(monkeypatch, {(0, 3)}, draw=_tiny_draw)
    monkeypatch.setattr(campaign, "KEY_CHUNK", 7)
    monkeypatch.setattr(campaign, "BLOCK_ELEMENTS", 1)
    run_trial, drawn = campaign._run_trial, []

    def record(config, fi, t, *rest):
        drawn.append(fi * config.trials + t)
        return run_trial(config, fi, t, *rest)

    monkeypatch.setattr(campaign, "_run_trial", record)
    cfg = CampaignConfig(mode="num", functions=("geometric", "harmonic"), trials=10, seed=4)
    with pytest.raises(DomainError, match="^function 'geometric', trial 3: E X must be positive"):
        run_campaign(cfg)
    assert drawn == list(range(7))


class _Key(list):
    """A trial key that a weak reference can watch."""


@pytest.mark.parametrize("fails_alone", [True, False], ids=["trial-error", "block-error"])
def test_a_raised_error_holds_none_of_the_draws(fails_alone, monkeypatch):
    # A failed block is resolved at once and keeps only its error, and the
    # walk's frames are cleared, with the frames that called them: once the
    # campaign has raised, no buffer that held a draw, no range's block and
    # no window's keys are alive, nor any error but the one raised.  On two
    # ranges at 40 the windows are sorted into pieces, and both ranges fail.
    import gc
    import weakref

    from meanineq import DomainError, campaign

    run_trial, block_sides = campaign._run_trial, campaign.block_sides
    trial_keys, first_failure = campaign._trial_keys, campaign._first_failure

    def tracked(config, fi, t, key, block):
        trial = run_trial(config, fi, t, key, block)
        refs["raw"].append(weakref.ref(block.raw))
        refs["weights"].append(weakref.ref(block.weights))
        refs["block"].append(weakref.ref(block))
        return trial

    def watched_keys(config, lo, hi):
        for key in trial_keys(config, lo, hi):
            refs["key"].append(weakref.ref(key := _Key(key)))
            yield key

    def watched_failure(config, fs, pairs, block, error):
        found = first_failure(config, fs, pairs, block, error)
        refs["error"].extend(weakref.ref(e) for e in (error, found[1]))
        return found

    def fails(runs, counts, buckets):
        if fails_alone or len(counts) > 1:
            raise DomainError("broke")
        return block_sides(runs, counts, buckets)

    monkeypatch.setattr(campaign, "_run_trial", tracked)
    monkeypatch.setattr(campaign, "block_sides", fails)
    monkeypatch.setattr(campaign, "_trial_keys", watched_keys)
    monkeypatch.setattr(campaign, "_first_failure", watched_failure)
    for ranges, dims in ((1, (2, 4)), (2, (40, 41))):
        monkeypatch.setattr(campaign, "_range_count", lambda config, ranges=ranges: ranges)
        cfg = CampaignConfig(mode="op", functions=("geometric", "harmonic"), trials=6, dims=dims, seed=5)
        refs = {"raw": [], "weights": [], "block": [], "key": [], "error": []}
        with pytest.raises(DomainError) as exc:
            run_campaign(cfg)
        gc.collect()
        assert str(exc.value) == ("function 'geometric', trial 0: broke" if fails_alone else "broke")
        assert [len(held) for held in refs.values()] == [12, 12, 12, 12, 2 * ranges], ranges
        assert all(ref() in (None, exc.value) for held in refs.values() for ref in held), ranges


def test_range_count_follows_the_cores_blas_leaves_free(monkeypatch):
    import os

    from meanineq.campaign import THREAD_MIN_DIM, _range_count

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    cfg = CampaignConfig(mode="op", functions=("geometric", "harmonic"), trials=50, dims=(THREAD_MIN_DIM, 64))
    assert _range_count(cfg) == _range_count(dataclasses.replace(cfg, mode="rm")) == 8
    assert _range_count(dataclasses.replace(cfg, trials=3)) == 6  # capped by the pairs
    assert _range_count(dataclasses.replace(cfg, trials=0)) == 1
    assert _range_count(dataclasses.replace(cfg, mode="num")) == 1
    assert _range_count(dataclasses.replace(cfg, dims=(THREAD_MIN_DIM - 1, 64))) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert _range_count(cfg) == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    assert _range_count(cfg) == 1
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert _range_count(cfg) == 4
    monkeypatch.delenv("OMP_NUM_THREADS")  # BLAS runs a thread on every core
    assert _range_count(cfg) == 1


def test_threaded_campaign_leaves_no_thread_running():
    # Under -X dev (warnings shown, resource checks on), a fresh interpreter
    # has one thread after importing the package and again after a campaign
    # split over its cores.
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import threading\n"
        "import meanineq\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "from meanineq.campaign import THREAD_MIN_DIM, CampaignConfig, _range_count, run_campaign\n"
        "from meanineq.cli import emit_report\n"
        "dims = (THREAD_MIN_DIM, THREAD_MIN_DIM)\n"
        "cfg = CampaignConfig(mode='op', functions=('geometric', 'harmonic'), trials=2, dims=dims, seed=5)\n"
        "emit_report(run_campaign(cfg), 'json')\n"
        "print(_range_count(cfg), threading.active_count())\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-X", "dev", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert out.stdout.split() == [str(min(cores, 4)), "1"]
