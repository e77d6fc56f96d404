//! The cost-optimization stage (§6): per-target rebasing driven by base
//! selection, iterated until no further cost reduction.

use std::collections::HashMap;

use eco_aig::{Lit, Var};

use crate::baseselect::{select_base, BaseSelectOptions};
use crate::carediff::on_off_sets;
use crate::govern::Budget;
use crate::localize::Cut;
use crate::patchgen::PatchFn;
use crate::rebase::{resynthesize_ctl, RebaseQuery};
use crate::Workspace;

/// Knobs for the optimization stage.
#[derive(Clone, Debug)]
pub struct OptimizeOptions {
    /// Base-selection parameters (§6.2).
    pub base_select: BaseSelectOptions,
    /// Cap on the candidate pool per query: the current base plus the
    /// cheapest remaining candidates up to this size.
    pub max_pool: usize,
    /// Outer improvement rounds over all targets.
    pub max_rounds: usize,
    /// SAT conflict budget for resynthesis queries.
    pub conflict_budget: u64,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            base_select: BaseSelectOptions::default(),
            max_pool: 32,
            max_rounds: 2,
            conflict_budget: 100_000,
        }
    }
}

/// Statistics from the optimization stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimizeStats {
    /// Outer rounds executed.
    pub rounds: usize,
    /// Number of (target, round) pairs where the patch was replaced.
    pub improvements: usize,
    /// Total base cost before optimization.
    pub cost_before: u64,
    /// Total base cost after optimization.
    pub cost_after: u64,
}

fn patch_base(ws: &Workspace, patch: &PatchFn) -> (u64, Option<Vec<usize>>) {
    let used = patch.cut.used_signals(&ws.mgr, &[patch.lit]);
    let mut cands = Vec::new();
    let mut cost = 0;
    for &s in &used {
        let sig = &patch.cut.signals[s];
        cost += sig.weight;
        match sig.cand_idx {
            Some(i) => cands.push(i),
            None => return (cost, None),
        }
    }
    (cost, Some(cands))
}

/// Contest cost metric: weight of the *union* of used base signals.
pub fn total_cost(ws: &Workspace, patches: &[PatchFn]) -> u64 {
    let merged = Cut::merge(patches.iter().map(|p| &p.cut));
    let roots: Vec<Lit> = patches.iter().map(|p| p.lit).collect();
    merged.used_cost(&ws.mgr, &roots)
}

/// Optimizes the patches in place (§6): for each target, the
/// specification is recomputed with every *other* patch substituted, a
/// [`RebaseQuery`] explores cheaper bases with [`select_base`], and a
/// strictly cheaper (or equally cheap but smaller) base triggers
/// interpolation-based resynthesis.
pub fn optimize_patches(
    ws: &mut Workspace,
    patches: &mut [PatchFn],
    opts: &OptimizeOptions,
    tel: &crate::Telemetry,
) -> OptimizeStats {
    optimize_patches_governed(ws, patches, opts, &Budget::unlimited(), tel)
}

/// [`optimize_patches`] under a resource governor: the per-query conflict
/// budget is capped by the governor's cluster allowance, every rebase
/// query is enrolled in the deadline/cancellation control block, and the
/// stage stops between targets once the deadline fires. Degrading here is
/// always sound — the incoming patches are already correct; optimization
/// only ever swaps them for cheaper equivalents.
pub(crate) fn optimize_patches_governed(
    ws: &mut Workspace,
    patches: &mut [PatchFn],
    opts: &OptimizeOptions,
    budget: &Budget,
    tel: &crate::Telemetry,
) -> OptimizeStats {
    let conflict_budget = budget.cap(opts.conflict_budget);
    let ctl = budget.ctl();
    let mut stats = OptimizeStats {
        cost_before: total_cost(ws, patches),
        ..Default::default()
    };
    // The per-target moves below use a *local* acceptance test, which lets
    // the search walk through configurations whose union cost temporarily
    // rises (rebasing one patch can break sharing with another). The best
    // union-cost configuration seen is snapshotted and restored at the
    // end, so the stage as a whole never regresses the contest metric.
    let mut best: Vec<PatchFn> = patches.to_vec();
    let mut best_total = stats.cost_before;
    // Candidates cheapest first, ties by name: the pool order of every
    // rebase query. The candidate list never changes here, so sort once.
    let mut by_weight: Vec<usize> = (0..ws.cands.len()).collect();
    by_weight.sort_by(|&a, &b| {
        let (a, b) = (&ws.cands[a], &ws.cands[b]);
        a.weight.cmp(&b.weight).then_with(|| a.name.cmp(&b.name))
    });
    'rounds: for _round in 0..opts.max_rounds {
        stats.rounds += 1;
        let mut improved_this_round = false;
        for p in 0..patches.len() {
            if budget.expired() {
                break 'rounds;
            }
            let k = patches[p].target;
            let cur_lit = patches[p].lit;
            let t = ws.target_vars[k];

            // Specification: all other patches fixed, t_k free.
            let other_map: HashMap<Var, Lit> = patches
                .iter()
                .filter(|q| q.target != k)
                .map(|q| (ws.target_vars[q.target], q.lit))
                .collect();
            let f_outs = ws.f_outs.clone();
            let g_outs = ws.g_outs.clone();
            let f_spec = ws.mgr.substitute(&f_outs, &other_map);
            let onoff = on_off_sets(&mut ws.mgr, &f_spec, &g_outs, t);

            // Constant shortcuts: an empty on-set (resp. off-set) admits a
            // zero-cost constant patch.
            if onoff.on == Lit::FALSE && cur_lit != Lit::FALSE {
                patches[p].lit = Lit::FALSE;
                patches[p].cut = Cut::default();
                stats.improvements += 1;
                improved_this_round = true;
                let total = total_cost(ws, patches);
                if total <= best_total {
                    best_total = total;
                    best = patches.to_vec();
                }
                continue;
            }
            if onoff.off == Lit::FALSE && cur_lit != Lit::TRUE {
                patches[p].lit = Lit::TRUE;
                patches[p].cut = Cut::default();
                stats.improvements += 1;
                improved_this_round = true;
                let total = total_cost(ws, patches);
                if total <= best_total {
                    best_total = total;
                    best = patches.to_vec();
                }
                continue;
            }

            let (cur_cost, Some(cur_base)) = patch_base(ws, &patches[p]) else {
                // Base uses an un-weighted signal: cannot rebase safely.
                continue;
            };
            if cur_cost == 0 {
                continue;
            }

            // Candidate pool: current base + cheapest candidates.
            let mut pool: Vec<usize> = cur_base.clone();
            for &i in &by_weight {
                if pool.len() >= opts.max_pool.max(cur_base.len()) {
                    break;
                }
                if !pool.contains(&i) {
                    pool.push(i);
                }
            }

            let mut q = RebaseQuery::new(ws, onoff.on, onoff.off, pool.clone());
            if !ctl.is_unlimited() {
                q.set_ctl(&ctl);
            }
            let initial: Vec<usize> = cur_base
                .iter()
                .map(|c| pool.iter().position(|x| x == c).expect("base in pool"))
                .collect();
            if q.feasible(&initial, conflict_budget) != Some(true) {
                tel.record_solver(&q.stats());
                continue;
            }
            // Cheap pruning via the final-conflict core before selection.
            let start = {
                let core = q.feasible_core();
                if !core.is_empty() && q.feasible(&core, conflict_budget) == Some(true) {
                    core
                } else {
                    initial
                }
            };
            let sel = select_base(ws, &mut q, &start, &opts.base_select);
            tel.record_solver(&q.stats());
            // Pre-filter on the per-patch cost; the binding acceptance test
            // below is on the *union* cost (the contest metric), because a
            // locally cheaper base can destroy sharing with other patches.
            let candidate_better =
                sel.cost < cur_cost || (sel.cost == cur_cost && sel.base.len() < cur_base.len());
            if !candidate_better {
                continue;
            }
            let base_cands: Vec<usize> = sel.base.iter().map(|&i| pool[i]).collect();
            if let Some(new_lit) = resynthesize_ctl(
                ws,
                onoff.on,
                onoff.off,
                &base_cands,
                conflict_budget,
                &ctl,
                tel,
            ) {
                patches[p].lit = new_lit;
                patches[p].cut = Cut::from_candidates(ws, &base_cands);
                stats.improvements += 1;
                improved_this_round = true;
                let total = total_cost(ws, patches);
                if total <= best_total {
                    best_total = total;
                    best = patches.to_vec();
                }
            }
        }
        if !improved_this_round {
            break;
        }
    }
    // Restore the cheapest configuration seen.
    if total_cost(ws, patches) > best_total {
        patches.clone_from_slice(&best);
    }
    stats.cost_after = total_cost(ws, patches);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localize::TapMap;
    use crate::{cluster_targets, generate_group_patches, EcoInstance};
    use eco_netlist::{parse_verilog, WeightTable};

    /// The needed function a&b exists as cheap net `w`; PIs are expensive.
    #[test]
    fn optimizer_rebases_to_cheap_existing_net() {
        let faulty = parse_verilog(
            "module f (a, b, c, t, y, u); input a, b, c, t; output y, u; \
             wire w; and g0 (w, a, b); xor g1 (y, t, c); buf g2 (u, w); endmodule",
        )
        .expect("faulty");
        let golden = parse_verilog(
            "module g (a, b, c, y, u); input a, b, c; output y, u; \
             wire w; and g0 (w, a, b); xor g1 (y, w, c); buf g2 (u, w); endmodule",
        )
        .expect("golden");
        let mut weights = WeightTable::new(50);
        weights.set("w", 2);
        let inst = EcoInstance::from_netlists("opt", &faulty, &golden, vec!["t".into()], &weights)
            .expect("instance");
        let mut ws = Workspace::new(&inst);
        let clustering = cluster_targets(&ws);
        let tap = TapMap::empty();
        let group = generate_group_patches(
            &mut ws,
            &tap,
            &clustering.clusters[0],
            &crate::PatchGenOptions::default(),
            &crate::Telemetry::new(),
        );
        let mut patches = group.patches;
        let stats = optimize_patches(
            &mut ws,
            &mut patches,
            &OptimizeOptions::default(),
            &crate::Telemetry::new(),
        );
        assert!(stats.cost_after < stats.cost_before, "stats {stats:?}");
        assert_eq!(stats.cost_after, 2);
        // Patch is still correct: equals a & b.
        let mut mgr = ws.mgr.clone();
        mgr.clear_outputs();
        mgr.add_output("p", patches[0].lit);
        for bits in 0u32..16 {
            let vals: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(mgr.eval(&vals)[0], vals[0] && vals[1]);
        }
    }

    /// A target whose on-set is empty gets a constant patch.
    #[test]
    fn constant_shortcut_applies() {
        let faulty = parse_verilog(
            "module f (a, t, y); input a, t; output y; \
             wire nt; not g0 (nt, t); and g1 (y, a, nt); endmodule",
        )
        .expect("faulty");
        // Golden y = a: achieved with t = 0.
        let golden = parse_verilog("module g (a, y); input a; output y; buf g0 (y, a); endmodule")
            .expect("golden");
        let inst = EcoInstance::from_netlists(
            "const",
            &faulty,
            &golden,
            vec!["t".into()],
            &WeightTable::new(5),
        )
        .expect("instance");
        let mut ws = Workspace::new(&inst);
        let clustering = cluster_targets(&ws);
        let tap = TapMap::empty();
        let group = generate_group_patches(
            &mut ws,
            &tap,
            &clustering.clusters[0],
            &crate::PatchGenOptions::default(),
            &crate::Telemetry::new(),
        );
        let mut patches = group.patches;
        let stats = optimize_patches(
            &mut ws,
            &mut patches,
            &OptimizeOptions::default(),
            &crate::Telemetry::new(),
        );
        assert_eq!(patches[0].lit, Lit::FALSE);
        assert_eq!(stats.cost_after, 0);
    }
}
