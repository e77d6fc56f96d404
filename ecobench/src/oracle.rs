//! The independent correctness oracle: simulation, not SAT.
//!
//! A patch is checked by splicing it into the faulty netlist
//! (`splice_patch`), writing the result as Verilog, parsing it back,
//! elaborating it to an AIG and comparing every primary output against
//! the golden circuit by bit-parallel simulation. Circuits with at most
//! 16 inputs are compared exhaustively; larger ones on 4096 seeded random
//! vectors. Nothing here calls the SAT solver the engine used to prove
//! its own answer.

use eco_aig::{Aig, SplitMix64};
use eco_core::splice_patch;
use eco_netlist::{elaborate, parse_verilog, write_verilog, Netlist};

/// Inputs up to which the comparison is exhaustive.
const EXHAUSTIVE_INPUTS: usize = 16;
/// 64-pattern words simulated when the comparison is random (4096 vectors).
const RANDOM_WORDS: usize = 64;

/// Checks that `patch` makes `faulty` equal to `golden` on every compared
/// input vector. `seed` picks the random vectors of large circuits.
pub fn check_patch(
    faulty: &Netlist,
    golden: &Netlist,
    patch: &Aig,
    seed: u64,
) -> Result<(), String> {
    let spliced = splice_patch(faulty, patch).map_err(|e| format!("splice: {e}"))?;
    let reparsed = parse_verilog(&write_verilog(&spliced)).map_err(|e| format!("reparse: {e}"))?;
    let patched = elaborate(&reparsed)
        .map_err(|e| format!("elaborate patched: {e}"))?
        .aig;
    let golden = elaborate(golden)
        .map_err(|e| format!("elaborate golden: {e}"))?
        .aig;

    let n = golden.num_inputs();
    let (words, valid_bits) = if n <= EXHAUSTIVE_INPUTS {
        let patterns = 1usize << n;
        (patterns.div_ceil(64), patterns)
    } else {
        (RANDOM_WORDS, RANDOM_WORDS * 64)
    };
    let mut rng = SplitMix64::new(seed ^ 0x0ac1_e5ee_d000_0000);
    let golden_rows: Vec<Vec<u64>> = (0..n)
        .map(|i| {
            (0..words)
                .map(|w| {
                    if n <= EXHAUSTIVE_INPUTS {
                        exhaustive_word(i, w)
                    } else {
                        rng.next_u64()
                    }
                })
                .collect()
        })
        .collect();
    let mut patched_rows = Vec::with_capacity(patched.num_inputs());
    for pos in 0..patched.num_inputs() {
        let name = patched.input_name(pos);
        let Some(var) = golden.find_input(name) else {
            return Err(format!(
                "patched circuit has an input `{name}` the golden lacks"
            ));
        };
        let gpos = golden.input_pos(var).expect("found input has a position");
        patched_rows.push(golden_rows[gpos].clone());
    }
    let g = golden.simulate(&golden_rows);
    let p = patched.simulate(&patched_rows);

    for (idx, out) in golden.outputs().iter().enumerate() {
        let Some(pidx) = patched.find_output(&out.name) else {
            return Err(format!("patched circuit lacks output `{}`", out.name));
        };
        let gw = g.lit_words(golden.output_lit(idx));
        let pw = p.lit_words(patched.output_lit(pidx));
        for (w, (a, b)) in gw.iter().zip(&pw).enumerate() {
            let live = valid_bits.saturating_sub(w * 64).min(64);
            let mask = if live == 64 {
                u64::MAX
            } else {
                (1u64 << live) - 1
            };
            if (a ^ b) & mask != 0 {
                let bit = ((a ^ b) & mask).trailing_zeros() as usize;
                return Err(format!(
                    "output `{}` differs from golden on vector {}",
                    out.name,
                    w * 64 + bit
                ));
            }
        }
    }
    Ok(())
}

/// Word `w` of input `i`'s column in the exhaustive truth table: pattern
/// `p` assigns bit `i` of `p` to input `i`.
fn exhaustive_word(i: usize, w: usize) -> u64 {
    (0..64).fold(0u64, |acc, b| {
        let pattern = w * 64 + b;
        acc | ((((pattern >> i) & 1) as u64) << b)
    })
}

/// A deliberately wrong copy of `patch`: every target output complemented.
pub fn corrupt(patch: &Aig) -> Aig {
    let mut bad = patch.clone();
    for idx in 0..bad.num_outputs() {
        let lit = bad.output_lit(idx);
        bad.set_output(idx, !lit);
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_core::{EcoEngine, EcoInstance};
    use eco_netlist::WeightTable;

    #[test]
    fn accepts_a_real_patch_and_rejects_its_corruption() {
        let faulty = parse_verilog(
            "module f (a, b, c, t, y); input a, b, c, t; output y;
             xor g1 (y, t, c); endmodule",
        )
        .unwrap();
        let golden = parse_verilog(
            "module g (a, b, c, y); input a, b, c; output y;
             wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
        )
        .unwrap();
        let inst = EcoInstance::from_netlists(
            "t",
            &faulty,
            &golden,
            vec!["t".into()],
            &WeightTable::new(1),
        )
        .unwrap();
        let result = EcoEngine::new(inst, crate::engine::contest_options())
            .run()
            .unwrap();
        check_patch(&faulty, &golden, &result.patch_aig, 1).unwrap();
        assert!(check_patch(&faulty, &golden, &corrupt(&result.patch_aig), 1).is_err());
    }

    #[test]
    fn exhaustive_columns_enumerate_every_pattern() {
        assert_eq!(exhaustive_word(0, 0), 0xaaaa_aaaa_aaaa_aaaa);
        assert_eq!(exhaustive_word(6, 1), u64::MAX);
        assert_eq!(exhaustive_word(6, 0), 0);
    }
}
