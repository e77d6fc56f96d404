//! Simulation-guided SAT sweeping: the FRAIG equivalence-class engine.
//!
//! The hot path is built on the allocation-free simulation engine of
//! `eco-aig`: candidate classes are bucketed by 128-bit canonical-word
//! [fingerprints](SimVectors::fingerprint) (full-word comparison only on
//! fingerprint collision), and counterexamples from failed SAT queries are
//! appended to an [`IncrementalSim`] arena so each refine round
//! re-simulates only the new stimulus columns.

use std::collections::{HashMap, HashSet};

use eco_aig::{Aig, IncrementalSim, Lit as ALit, SimVectors, SplitMix64, Var as AVar};
use eco_sat::{encode_cone, LBool, Lit as SLit, SolveCtl, Solver, SolverStats};

use crate::uf::ParityUnionFind;

/// Knobs for the sweeping loop.
#[derive(Clone, Debug)]
pub struct FraigOptions {
    /// 64-pattern words of random base stimulus.
    pub sim_words: usize,
    /// Seed for the deterministic stimulus generator.
    pub seed: u64,
    /// Maximum refine/verify rounds.
    pub max_rounds: usize,
    /// Conflict budget per equivalence query (timeouts count as
    /// "not proven", which is sound).
    pub conflict_budget: u64,
    /// Total conflict allowance across the whole sweep: the per-query
    /// budget is capped at what remains, and once spent the sweep stops
    /// early (pending candidates stay unproven, which is sound).
    pub max_total_conflicts: u64,
    /// Cooperative cancellation/deadline control for the sweep's solver;
    /// once it fires, remaining queries are abandoned and the sweep
    /// returns the classes proven so far.
    pub ctl: SolveCtl,
}

impl Default for FraigOptions {
    fn default() -> Self {
        FraigOptions {
            sim_words: 8,
            seed: 0x5eed_cafe,
            max_rounds: 16,
            conflict_budget: 10_000,
            max_total_conflicts: u64::MAX,
            ctl: SolveCtl::unlimited(),
        }
    }
}

/// One proven equivalence class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivClass {
    /// Class representative (the lowest, hence topologically earliest, var).
    pub repr: AVar,
    /// All members with their phase relative to `repr`
    /// (`true` = complemented). Includes `repr` itself with phase `false`.
    pub members: Vec<(AVar, bool)>,
}

/// The result of a FRAIG sweep: SAT-proven equivalence classes.
#[derive(Clone, Debug, Default)]
pub struct EquivClasses {
    /// Non-trivial classes (at least two members), ordered by representative.
    pub classes: Vec<EquivClass>,
    repr_of: HashMap<AVar, (AVar, bool)>,
}

impl EquivClasses {
    /// Returns `(repr, phase)` for `v` — `v ≡ repr ^ phase` — if `v`
    /// belongs to a non-trivial class.
    pub fn repr(&self, v: AVar) -> Option<(AVar, bool)> {
        self.repr_of.get(&v).copied()
    }

    /// Returns `Some(phase)` if `a ≡ b ^ phase` is proven.
    pub fn equivalent(&self, a: AVar, b: AVar) -> Option<bool> {
        if a == b {
            return Some(false);
        }
        let (ra, pa) = self.repr_of.get(&a).copied()?;
        let (rb, pb) = self.repr_of.get(&b).copied()?;
        (ra == rb).then_some(pa ^ pb)
    }

    /// Number of non-trivial classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` if no non-trivial class was found.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Counters describing one FRAIG sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepStats {
    /// Refine/verify rounds executed.
    pub rounds: usize,
    /// SAT equivalence queries issued.
    pub sat_calls: u64,
    /// Queries proven (pair merged into a class).
    pub proven: u64,
    /// Queries disproven by a counterexample.
    pub disproved: u64,
    /// Queries abandoned at the conflict budget (left unproven).
    pub budgeted_out: u64,
    /// Counterexample patterns fed back into simulation.
    pub cex_patterns: u64,
    /// Activation literals retired (level-0 unit added after the query so
    /// `simplify` can drop the query clauses instead of leaking them).
    pub retired_activations: u64,
    /// Word-columns the simulation engine actually computed.
    pub resim_columns: u64,
    /// Word-columns skipped by incremental re-simulation (vs a full
    /// per-round re-simulation of every column).
    pub resim_columns_saved: u64,
    /// Sweeps decided by exhaustive simulation alone (0 or 1 for one
    /// sweep; summed by telemetry). Such a sweep issues no SAT query.
    pub exhaustive: u64,
    /// Non-trivial classes in the final result.
    pub classes: usize,
    /// Total members across those classes.
    pub class_members: usize,
    /// Aggregated search statistics of the sweep's SAT solver.
    pub sat: SolverStats,
}

/// Runs simulation-guided SAT sweeping over the cones of all outputs of
/// `aig` and returns the proven equivalence classes.
///
/// The loop alternates (a) hashing nodes by canonical simulation
/// fingerprint into candidate classes and (b) SAT-verifying candidates
/// against their class representative; counterexamples are appended as new
/// simulation columns, splitting spurious candidates in the next round.
///
/// Only *proven* equivalences are reported, so the result is sound even
/// when the per-query conflict budget truncates verification.
pub fn fraig_classes(aig: &Aig, opts: &FraigOptions) -> EquivClasses {
    fraig_classes_stats(aig, opts).0
}

/// Dual fingerprint identifying one sweep: the AIG's structural identity
/// mixed with every option knob that can change the sweep's result.
///
/// The sweep is deterministic in `(aig, opts)`, so a memo keyed by this
/// fingerprint (`eco_core::MemoCache::claim_sweep`) changes time, never
/// results. Only sweeps without a `ctl` are memoizable: where a
/// cancelled sweep stopped is not a function of the key.
pub fn sweep_fingerprint(aig: &Aig, opts: &FraigOptions) -> (u128, u128) {
    let (skey, scheck) = aig.structural_fingerprint();
    let mut h = eco_aig::FpHasher::new();
    h.word(0x5eed_50ee); // domain tag: sweep memo entries
    h.word(skey as u64);
    h.word((skey >> 64) as u64);
    h.word(scheck as u64);
    h.word((scheck >> 64) as u64);
    h.word(opts.sim_words as u64);
    h.word(opts.seed);
    h.word(opts.max_rounds as u64);
    h.word(opts.conflict_budget);
    h.word(opts.max_total_conflicts);
    h.finish()
}

/// Like [`fraig_classes`], additionally returning [`SweepStats`] counters
/// for telemetry.
///
/// An AIG with few enough inputs that every input value fits in the
/// stimulus budget (`2^inputs <= 64 * opts.sim_words`) is decided by
/// exhaustive simulation alone: its simulation words are complete truth
/// tables, so equal canonical words *are* equivalence and no SAT query
/// is needed. Larger AIGs run the simulation-guided SAT loop.
pub fn fraig_classes_stats(aig: &Aig, opts: &FraigOptions) -> (EquivClasses, SweepStats) {
    let roots: Vec<ALit> = aig.outputs().iter().map(|o| o.lit).collect();
    let mut nodes = aig.cone_vars(&roots);
    if !nodes.contains(&AVar::CONST) {
        nodes.insert(0, AVar::CONST);
    }
    let mut uf = ParityUnionFind::new(aig.len());
    let mut stats = match exhaustive_words(aig.num_inputs(), opts.sim_words) {
        Some(words) => exhaustive_sweep(aig, &nodes, words, &opts.ctl, &mut uf),
        None => sat_sweep(aig, &roots, &nodes, opts, &mut uf),
    };
    let classes = materialize(&nodes, &mut uf);
    stats.classes = classes.classes.len();
    stats.class_members = classes.classes.iter().map(|c| c.members.len()).sum();
    (classes, stats)
}

/// Word-columns of an exhaustive stimulus over `inputs` inputs, or `None`
/// when the `2^inputs` values do not fit in `sim_words` 64-pattern
/// words. The bound keeps the exhaustive arena no larger than the random
/// one: a wider bound would trade a few SAT queries for one large
/// short-lived allocation per sweep.
fn exhaustive_words(inputs: usize, sim_words: usize) -> Option<usize> {
    let patterns = 1usize.checked_shl(u32::try_from(inputs).ok()?)?;
    (patterns <= sim_words.saturating_mul(64)).then(|| patterns.div_ceil(64))
}

/// Decides the classes of a small-support AIG by simulating all input
/// values over `words` word-columns: input `i` reads bit `i` of the
/// pattern index, so each node's words are its truth table (repeated when
/// there are fewer than 64 values). Every candidate group is then a true
/// class and is unioned without a solver. A fired `ctl` abandons the
/// sweep before any union, as the SAT loop would; the conflict allowance
/// does not apply, since no conflicts are spent.
fn exhaustive_sweep(
    aig: &Aig,
    nodes: &[AVar],
    words: usize,
    ctl: &SolveCtl,
    uf: &mut ParityUnionFind,
) -> SweepStats {
    const LOW: [u64; 6] = [
        0xaaaa_aaaa_aaaa_aaaa,
        0xcccc_cccc_cccc_cccc,
        0xf0f0_f0f0_f0f0_f0f0,
        0xff00_ff00_ff00_ff00,
        0xffff_0000_ffff_0000,
        0xffff_ffff_0000_0000,
    ];
    let mut stats = SweepStats {
        exhaustive: 1,
        ..SweepStats::default()
    };
    if ctl.expired() {
        return stats;
    }
    stats.rounds = 1;
    stats.resim_columns = words as u64;
    let patterns: Vec<Vec<u64>> = (0..aig.num_inputs())
        .map(|i| {
            (0..words)
                .map(|w| match LOW.get(i) {
                    Some(&mask) => mask,
                    None if w >> (i - 6) & 1 == 1 => !0,
                    None => 0,
                })
                .collect()
        })
        .collect();
    let sim = aig.simulate(&patterns);
    let (mut sig_buf, mut flat, mut ranges) = (Vec::new(), Vec::new(), Vec::new());
    candidate_groups(
        &sim,
        nodes,
        |s, l| s.fingerprint(l).0,
        &mut sig_buf,
        &mut flat,
        &mut ranges,
    );
    for &(start, len) in &ranges {
        let members = &flat[start as usize..(start + len) as usize];
        let head = members[0];
        for &m in &members[1..] {
            let phase = sim.phase(head) ^ sim.phase(m);
            uf.union(head.index() as usize, m.index() as usize, phase);
        }
    }
    stats
}

/// The simulation-guided SAT loop: alternates (a) hashing nodes by
/// canonical simulation fingerprint into candidate classes and (b)
/// SAT-verifying candidates against their class representative, feeding
/// counterexamples back as new simulation columns. Proven pairs are
/// unioned into `uf`.
fn sat_sweep(
    aig: &Aig,
    roots: &[ALit],
    nodes: &[AVar],
    opts: &FraigOptions,
    uf: &mut ParityUnionFind,
) -> SweepStats {
    let mut stats = SweepStats::default();

    // One incremental solver over the whole cone, enrolled in the
    // governor's control block (a no-op when unlimited).
    let mut solver = Solver::new();
    if !opts.ctl.is_unlimited() {
        solver.set_ctl(&opts.ctl);
    }
    let mut map: HashMap<AVar, SLit> = HashMap::new();
    encode_cone(aig, roots, &mut map, &mut solver);
    if !map.contains_key(&AVar::CONST) {
        // Outputs may not mention the constant; force-encode it.
        encode_cone(aig, &[ALit::FALSE], &mut map, &mut solver);
    }

    // Stimulus: a fixed random base; counterexamples and one fresh random
    // diversity column per round are appended incrementally.
    let mut isim = IncrementalSim::with_random_base(aig, opts.sim_words, opts.seed);
    let mut diversity = SplitMix64::new(opts.seed ^ 0x9e37_79b9_7f4a_7c15);

    let mut disproved: HashSet<(AVar, AVar)> = HashSet::new();

    // Reused bucketing scratch: no per-node heap allocation in the loop.
    let mut sig_buf: Vec<(u128, u32)> = Vec::new();
    let mut flat: Vec<AVar> = Vec::new();
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    let mut round_cex: Vec<Vec<bool>> = Vec::new();

    'rounds: for _round in 0..opts.max_rounds {
        stats.rounds += 1;
        isim.resimulate(aig);
        let sim = isim.vectors();

        candidate_groups(
            sim,
            nodes,
            |s, l| s.fingerprint(l).0,
            &mut sig_buf,
            &mut flat,
            &mut ranges,
        );
        let mut new_cex = 0usize;
        for &(start, len) in &ranges {
            let members = &flat[start as usize..(start + len) as usize];
            let repr = members[0];
            let repr_phase = sim.phase(repr);
            for &m in &members[1..] {
                if uf
                    .related(repr.index() as usize, m.index() as usize)
                    .is_some()
                {
                    continue;
                }
                if disproved.contains(&(repr, m)) {
                    continue;
                }
                // Governor gate: abandon the sweep once the control block
                // fires or the total conflict allowance is spent. Only
                // proven classes are reported, so stopping here is sound.
                let spent = solver.stats().conflicts;
                if opts.ctl.expired() || spent >= opts.max_total_conflicts {
                    break 'rounds;
                }
                let query_budget = opts.conflict_budget.min(opts.max_total_conflicts - spent);
                let phase = repr_phase ^ sim.phase(m);
                // Query: repr != (m ^ phase) — i.e. the XOR is satisfiable?
                let lr = map[&repr];
                let lm = if phase { !map[&m] } else { map[&m] };
                let act = solver.new_var().pos();
                solver.add_clause(&[!act, lr, lm]);
                solver.add_clause(&[!act, !lr, !lm]);
                stats.sat_calls += 1;
                match solver.solve_limited(&[act], query_budget) {
                    Some(false) => {
                        stats.proven += 1;
                        uf.union(repr.index() as usize, m.index() as usize, phase);
                    }
                    Some(true) => {
                        let bits: Vec<bool> = aig
                            .inputs()
                            .iter()
                            .map(|iv| {
                                map.get(iv)
                                    .map(|&sl| solver.model_value(sl) == LBool::True)
                                    .unwrap_or(false)
                            })
                            .collect();
                        round_cex.push(bits);
                        disproved.insert((repr, m));
                        stats.disproved += 1;
                        new_cex += 1;
                    }
                    None => {
                        // Budget exhausted: treat as unproven.
                        disproved.insert((repr, m));
                        stats.budgeted_out += 1;
                    }
                }
                // Retire the activation: the query clauses are satisfied by
                // the level-0 unit and get dropped by the round-end
                // simplify instead of accumulating forever.
                solver.add_clause(&[!act]);
                stats.retired_activations += 1;
            }
        }
        stats.cex_patterns += new_cex as u64;
        // Garbage-collect the retired query clauses.
        solver.simplify();
        if new_cex == 0 {
            break;
        }
        for bits in round_cex.drain(..) {
            isim.append_pattern(aig, &bits);
        }
        // Extra random diversity each round.
        isim.append_random_column(aig, &mut diversity);
    }
    stats.resim_columns = isim.resim_columns();
    stats.resim_columns_saved = isim.resim_columns_saved();
    stats.sat = solver.stats();
    stats
}

/// Materializes the union-find's non-trivial classes over `nodes`.
fn materialize(nodes: &[AVar], uf: &mut ParityUnionFind) -> EquivClasses {
    let mut groups: HashMap<usize, Vec<(AVar, bool)>> = HashMap::new();
    for &v in nodes {
        let (root, phase) = uf.find(v.index() as usize);
        groups.entry(root).or_default().push((v, phase));
    }
    let mut classes = Vec::new();
    let mut repr_of = HashMap::new();
    for (_, mut members) in groups {
        if members.len() < 2 {
            continue;
        }
        members.sort_by_key(|(v, _)| v.index());
        let (repr, repr_phase) = members[0];
        let members: Vec<(AVar, bool)> = members
            .into_iter()
            .map(|(v, ph)| (v, ph ^ repr_phase))
            .collect();
        for &(v, ph) in &members {
            repr_of.insert(v, (repr, ph));
        }
        classes.push(EquivClass { repr, members });
    }
    classes.sort_by_key(|c| c.repr.index());
    EquivClasses { classes, repr_of }
}

/// Buckets `nodes` into candidate equivalence groups keyed by `fp`
/// (normally the 128-bit canonical-word fingerprint), confirming every
/// bucket with a full canonical-word comparison so that a colliding — or
/// even deliberately weak — `fp` only costs speed, never soundness.
///
/// Only groups with at least two members are emitted, as disjoint
/// `(start, len)` ranges into `flat`, ordered by their head (lowest,
/// topologically earliest) var; that ordering is what makes the SAT query
/// order — and everything downstream of the counterexample feedback —
/// deterministic. All three buffers are caller-owned scratch reused
/// across rounds, so steady-state bucketing does no per-node allocation.
fn candidate_groups(
    sim: &SimVectors,
    nodes: &[AVar],
    fp: impl Fn(&SimVectors, ALit) -> u128,
    sig_buf: &mut Vec<(u128, u32)>,
    flat: &mut Vec<AVar>,
    ranges: &mut Vec<(u32, u32)>,
) {
    sig_buf.clear();
    flat.clear();
    ranges.clear();
    sig_buf.extend(nodes.iter().map(|&v| (fp(sim, v.pos()), v.index())));
    sig_buf.sort_unstable();
    let mut i = 0;
    while i < sig_buf.len() {
        let mut j = i + 1;
        while j < sig_buf.len() && sig_buf[j].0 == sig_buf[i].0 {
            j += 1;
        }
        if j - i >= 2 {
            split_run(sim, &sig_buf[i..j], flat, ranges);
        }
        i = j;
    }
    ranges.sort_unstable_by_key(|&(start, _)| flat[start as usize].index());
}

/// Emits the true candidate groups of one equal-fingerprint run. The fast
/// path — no collision, every member canon-equal to the head — is
/// allocation-free; a genuine collision partitions the run by full
/// canonical words.
fn split_run(
    sim: &SimVectors,
    run: &[(u128, u32)],
    flat: &mut Vec<AVar>,
    ranges: &mut Vec<(u32, u32)>,
) {
    let head = AVar::new(run[0].1);
    if run[1..]
        .iter()
        .all(|&(_, vi)| sim.canon_eq(head.pos(), AVar::new(vi).pos()))
    {
        let start = flat.len() as u32;
        flat.extend(run.iter().map(|&(_, vi)| AVar::new(vi)));
        ranges.push((start, run.len() as u32));
        return;
    }
    let mut assigned = vec![false; run.len()];
    for k in 0..run.len() {
        if assigned[k] {
            continue;
        }
        let head = AVar::new(run[k].1);
        let start = flat.len() as u32;
        flat.push(head);
        assigned[k] = true;
        for (l, slot) in assigned.iter_mut().enumerate().skip(k + 1) {
            if !*slot {
                let m = AVar::new(run[l].1);
                if sim.canon_eq(head.pos(), m.pos()) {
                    flat.push(m);
                    *slot = true;
                }
            }
        }
        let len = flat.len() as u32 - start;
        if len >= 2 {
            ranges.push((start, len));
        } else {
            // Collision-only singleton: not a candidate.
            flat.truncate(start as usize);
        }
    }
}

/// Rebuilds `aig` with every class member replaced by its representative,
/// returning the functionally reduced AIG (outputs preserved by name).
pub fn fraig_reduce(aig: &Aig, classes: &EquivClasses) -> Aig {
    let mut new = Aig::new();
    let mut cache: HashMap<AVar, ALit> = HashMap::new();
    cache.insert(AVar::CONST, ALit::FALSE);
    for (pos, &v) in aig.inputs().iter().enumerate() {
        let lit = new.add_input(aig.input_name(pos).to_owned());
        cache.insert(v, lit);
    }
    let roots: Vec<ALit> = aig.outputs().iter().map(|o| o.lit).collect();
    for v in aig.cone_vars(&roots) {
        if cache.contains_key(&v) {
            continue;
        }
        // If v is equivalent to an earlier representative, reuse its lit.
        let lit = if let Some((r, ph)) = classes.repr(v) {
            if r != v && cache.contains_key(&r) {
                cache[&r].xor_complement(ph)
            } else {
                rebuild(aig, &mut new, &cache, v)
            }
        } else {
            rebuild(aig, &mut new, &cache, v)
        };
        cache.insert(v, lit);
    }
    for out in aig.outputs() {
        let lit = cache[&out.lit.var()].xor_complement(out.lit.is_complement());
        new.add_output(out.name.clone(), lit);
    }
    new
}

fn rebuild(aig: &Aig, new: &mut Aig, cache: &HashMap<AVar, ALit>, v: AVar) -> ALit {
    if let Some((fan0, fan1)) = aig.and_fanins(v) {
        let n0 = cache[&fan0.var()].xor_complement(fan0.is_complement());
        let n1 = cache[&fan1.var()].xor_complement(fan1.is_complement());
        new.and(n0, n1)
    } else if v == AVar::CONST {
        ALit::FALSE
    } else {
        cache[&v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_structurally_distinct_equivalence() {
        // f1 = a & b; f2 = !(!a | !b): strash merges these, so build the
        // second form with extra redundancy: f2 = (a & b) & (a | b).
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let a_or_b = aig.or(a, b);
        let f2 = aig.and(f1, a_or_b); // == a & b
        aig.add_output("f1", f1);
        aig.add_output("f2", f2);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(f1.var(), f2.var()), Some(false));
    }

    #[test]
    fn detects_complement_equivalence() {
        // g = a ^ b, h = !(a ^ b) built as xnor via fresh structure.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g = aig.xor(a, b);
        // xnor = (a&b) | (!a&!b): different structure from !xor.
        let t0 = aig.and(a, b);
        let t1 = aig.and(!a, !b);
        let h = aig.or(t0, t1);
        aig.add_output("g", g);
        aig.add_output("h", h);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(g.var(), h.var()), Some(true));
    }

    #[test]
    fn detects_constant_nodes() {
        // z = (a & b) & (a & !b) == 0, structurally hidden.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let t0 = aig.and(a, b);
        let t1 = aig.and(a, !b);
        let z = aig.and(t0, t1);
        aig.add_output("z", z);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(z.var(), AVar::CONST), Some(false));
    }

    #[test]
    fn inequivalent_nodes_stay_separate() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let f = aig.and(a, b);
        let g = aig.and(a, c);
        aig.add_output("f", f);
        aig.add_output("g", g);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(f.var(), g.var()), None);
    }

    #[test]
    fn reduce_merges_equivalent_logic() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let a_or_b = aig.or(a, b);
        let f2 = aig.and(f1, a_or_b);
        aig.add_output("f1", f1);
        aig.add_output("f2", f2);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        let reduced = fraig_reduce(&aig, &classes);
        assert!(reduced.num_ands() < aig.num_ands());
        // Semantics preserved.
        for bits in 0u32..4 {
            let vals: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(aig.eval(&vals), reduced.eval(&vals));
        }
    }

    #[test]
    fn cross_circuit_sharing_detected() {
        // Two copies of a 3-input majority over the same inputs, built with
        // different decompositions, inside one manager.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        // maj1 = ab | bc | ca
        let ab = aig.and(a, b);
        let bc = aig.and(b, c);
        let ca = aig.and(c, a);
        let t = aig.or(ab, bc);
        let maj1 = aig.or(t, ca);
        // maj2 = mux(a, b|c, b&c)
        let b_or_c = aig.or(b, c);
        let b_and_c = aig.and(b, c);
        let maj2 = aig.mux(a, b_or_c, b_and_c);
        aig.add_output("maj1", maj1);
        aig.add_output("maj2", maj2);
        let classes = fraig_classes(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(maj1.var(), maj2.var()), Some(false));
    }

    /// `f1 = a & b` and the redundant `f2 = (a & b) & (a | b)`, plus eight
    /// more inputs on an AND chain: ten inputs in all, one more than the
    /// default stimulus covers exhaustively, so the sweep runs the SAT
    /// loop. Returns the AIG with `f1` and `f2`.
    fn sat_loop_fixture() -> (Aig, ALit, ALit) {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let a_or_b = aig.or(a, b);
        let f2 = aig.and(f1, a_or_b);
        let mut chain = a_or_b;
        for i in 0..8 {
            let x = aig.add_input(format!("x{i}"));
            chain = aig.and(chain, x);
        }
        aig.add_output("f1", f1);
        aig.add_output("f2", f2);
        aig.add_output("chain", chain);
        assert!(exhaustive_words(aig.num_inputs(), FraigOptions::default().sim_words).is_none());
        (aig, f1, f2)
    }

    #[test]
    fn sweep_counts_retired_activations_and_saved_columns() {
        // Force at least one disproof (spurious candidate under 1 word of
        // stimulus is likely across rounds) and check the new counters.
        let (aig, f1, f2) = sat_loop_fixture();
        let (classes, stats) = fraig_classes_stats(&aig, &FraigOptions::default());
        assert_eq!(classes.equivalent(f1.var(), f2.var()), Some(false));
        assert_eq!(
            stats.retired_activations, stats.sat_calls,
            "every query's activation literal must be retired"
        );
        assert!(stats.resim_columns >= FraigOptions::default().sim_words as u64);
    }

    /// A spent total-conflict allowance (or a fired control block) must
    /// stop the sweep before any query, soundly reporting no classes.
    #[test]
    fn governor_limits_abandon_the_sweep_soundly() {
        let (aig, _, _) = sat_loop_fixture();
        let capped = FraigOptions {
            max_total_conflicts: 0,
            ..Default::default()
        };
        let (classes, stats) = fraig_classes_stats(&aig, &capped);
        assert!(classes.is_empty(), "no query may run with a spent cap");
        assert_eq!(stats.sat_calls, 0);

        // The exhaustive path spends no conflicts, but a fired control
        // block still abandons it.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let a_or_b = aig.or(a, b);
        let f2 = aig.and(f1, a_or_b);
        aig.add_output("f1", f1);
        aig.add_output("f2", f2);
        let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let cancelled = FraigOptions {
            ctl: eco_sat::SolveCtl {
                deadline: None,
                cancel: Some(cancel),
            },
            ..Default::default()
        };
        let (classes, stats) = fraig_classes_stats(&aig, &cancelled);
        assert!(classes.is_empty());
        assert_eq!(stats.sat_calls, 0);
    }

    /// A random AIG over `inputs` inputs: `ands` AND nodes with random
    /// (possibly complemented) fanins from everything built so far, and a
    /// handful of outputs. Few inputs and many nodes make constant,
    /// equivalent and complementary nodes common.
    fn random_aig(rng: &mut SplitMix64, inputs: usize, ands: usize) -> Aig {
        let mut aig = Aig::new();
        let mut lits = vec![ALit::FALSE];
        for i in 0..inputs {
            lits.push(aig.add_input(format!("i{i}")));
        }
        for _ in 0..ands {
            let pick = |rng: &mut SplitMix64| {
                let l = lits[rng.below(lits.len() as u64) as usize];
                l.xor_complement(rng.next_u64() & 1 == 1)
            };
            let (x, y) = (pick(rng), pick(rng));
            lits.push(aig.and(x, y));
        }
        for k in 0..4 {
            let l = lits[lits.len() - 1 - rng.below(lits.len() as u64 / 2 + 1) as usize];
            aig.add_output(format!("o{k}"), l);
        }
        aig
    }

    /// Exhaustive simulation and the SAT loop agree on every small-support
    /// AIG, including complemented and constant-equivalent members, and
    /// the exhaustive path issues no SAT query.
    #[test]
    fn exhaustive_sweep_matches_the_sat_loop() {
        let opts = FraigOptions::default();
        let mut rng = SplitMix64::new(0xf4a1_6e5e);
        let (mut complemented, mut constant) = (0, 0);
        for case in 0..200 {
            let inputs = case % 10;
            let ands = 4 + rng.below(60) as usize;
            let aig = random_aig(&mut rng, inputs, ands);
            let (fast, stats) = fraig_classes_stats(&aig, &opts);
            assert_eq!(stats.exhaustive, 1, "case {case}");
            assert_eq!(stats.sat_calls, 0, "case {case}");

            let roots: Vec<ALit> = aig.outputs().iter().map(|o| o.lit).collect();
            let mut nodes = aig.cone_vars(&roots);
            if !nodes.contains(&AVar::CONST) {
                nodes.insert(0, AVar::CONST);
            }
            let mut uf = ParityUnionFind::new(aig.len());
            let sat = sat_sweep(&aig, &roots, &nodes, &opts, &mut uf);
            assert_eq!(sat.budgeted_out, 0, "case {case}");
            let slow = materialize(&nodes, &mut uf);
            assert_eq!(fast.classes, slow.classes, "case {case} ({inputs} inputs)");

            for class in &fast.classes {
                complemented += class.members.iter().filter(|m| m.1).count();
                constant += usize::from(class.repr == AVar::CONST);
            }
        }
        assert!(complemented > 0, "no complemented member was exercised");
        assert!(constant > 0, "no constant-equivalent node was exercised");
    }

    /// A deliberately colliding fingerprint must not corrupt candidate
    /// grouping: the full-word fallback still separates distinct functions.
    #[test]
    fn fingerprint_collision_falls_back_to_full_words() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let a_or_b = aig.or(a, b);
        let f2 = aig.and(f1, a_or_b); // == a & b, distinct node
        aig.add_output("f1", f1);
        aig.add_output("f2", f2);
        aig.add_output("or", a_or_b);

        let roots: Vec<ALit> = aig.outputs().iter().map(|o| o.lit).collect();
        let mut nodes = aig.cone_vars(&roots);
        if !nodes.contains(&AVar::CONST) {
            nodes.insert(0, AVar::CONST);
        }
        // Exhaustive 4 patterns: every node's words are its truth table.
        let sim = aig.simulate(&[vec![0b1010], vec![0b1100]]);

        let (mut sig_buf, mut flat, mut ranges) = (Vec::new(), Vec::new(), Vec::new());
        // Constant-zero fingerprint: every node collides into one run.
        candidate_groups(
            &sim,
            &nodes,
            |_, _| 0u128,
            &mut sig_buf,
            &mut flat,
            &mut ranges,
        );
        // Every emitted group is internally canon-equal...
        for &(start, len) in &ranges {
            let members = &flat[start as usize..(start + len) as usize];
            for &m in &members[1..] {
                assert!(
                    sim.canon_eq(members[0].pos(), m.pos()),
                    "group mixes distinct functions"
                );
            }
        }
        // ...f1/f2 still share a group, and no group contains both f1 and
        // the or-node (different truth tables).
        let group_of = |v: AVar| {
            ranges
                .iter()
                .position(|&(s, l)| flat[s as usize..(s + l) as usize].contains(&v))
        };
        assert_eq!(group_of(f1.var()), group_of(f2.var()));
        assert!(group_of(f1.var()).is_some());
        assert_ne!(group_of(f1.var()), group_of(a_or_b.var()));

        // The real fingerprint produces the same candidate grouping.
        let (mut s2, mut f2_, mut r2) = (Vec::new(), Vec::new(), Vec::new());
        candidate_groups(
            &sim,
            &nodes,
            |s, l| s.fingerprint(l).0,
            &mut s2,
            &mut f2_,
            &mut r2,
        );
        let canon = |flat: &[AVar], ranges: &[(u32, u32)]| {
            ranges
                .iter()
                .map(|&(s, l)| flat[s as usize..(s + l) as usize].to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(canon(&flat, &ranges), canon(&f2_, &r2));
    }
}
