//! Ablation: block floating-point accumulation vs f64 summation (§3.4).
//!
//! §3.4 chose block FP for the reduction tree because (a) fixed-point
//! adders are cheap in an FPGA and (b) the sum becomes order-independent.
//! This study times the *simulation* cost of that choice (the shift /
//! round plus the integer add) against a plain f64 accumulation and a
//! compensated (Kahan) sum — the software alternative on a conventional
//! machine — and counts how many different results each gives over
//! reorderings of the same input.  It is a verdict: the binary exits 1
//! unless the block-FP sum is bit-identical over every permutation.

use std::hint::black_box;
use std::time::Instant;

use grape6_arith::blockfp::BlockAccum;
use grape6_bench::print_table;
use grape6_fault::rng::FaultRng;

/// Summands per sum.
const N: usize = 4096;
/// Seeded shuffles tried, besides the input order and its reverse.
const SHUFFLES: u64 = 8;
/// Timed repetitions per method; the fastest one is reported.
const REPS: usize = 200;

/// Deterministic summands of mixed sign, |x| < 5e-3.
fn values() -> Vec<f64> {
    (0..N)
        .map(|k| {
            let a = k as f64 * 0.618_033_988_749;
            (a.fract() - 0.5) * 1e-2
        })
        .collect()
}

/// The orders every method is summed in: as generated, reversed, and
/// [`SHUFFLES`] Fisher–Yates shuffles.
fn orders(v: &[f64]) -> Vec<Vec<f64>> {
    let mut out = vec![v.to_vec(), v.iter().rev().copied().collect()];
    for seed in 0..SHUFFLES {
        let mut rng = FaultRng::new(seed);
        let mut w = v.to_vec();
        for i in (1..w.len()).rev() {
            w.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.push(w);
    }
    out
}

fn f64_sum(v: &[f64]) -> Option<u64> {
    let mut s = 0.0f64;
    for &x in v {
        s += black_box(x);
    }
    Some(s.to_bits())
}

fn kahan_sum(v: &[f64]) -> Option<u64> {
    let (mut s, mut comp) = (0.0f64, 0.0f64);
    for &x in v {
        let y = black_box(x) - comp;
        let t = s + y;
        comp = (t - s) - y;
        s = t;
    }
    Some(s.to_bits())
}

/// The block-FP sum in a ±256 window; `None` if it overflowed.
fn block_fp_sum(v: &[f64]) -> Option<u64> {
    let mut acc = BlockAccum::new(8);
    for &x in v {
        acc.add(black_box(x)).ok()?;
    }
    Some(acc.to_f64().to_bits())
}

/// One way to sum: the result's bit pattern, `None` if it failed.
type Sum = fn(&[f64]) -> Option<u64>;

/// Fastest of [`REPS`] timed sums of `v`, in ns per summand.
fn ns_per_add(v: &[f64], sum: Sum) -> f64 {
    let best = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(sum(black_box(v)));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    best * 1e9 / v.len() as f64
}

fn main() {
    let orders = orders(&values());
    let methods: [(&str, Sum); 3] = [
        ("f64", f64_sum),
        ("Kahan", kahan_sum),
        ("block FP", block_fp_sum),
    ];
    let f64_ns = ns_per_add(&orders[0], f64_sum);
    // Per method: its distinct results over every order, ascending.
    let mut distinct = Vec::new();
    let rows: Vec<Vec<String>> = methods
        .iter()
        .map(|&(name, sum)| {
            let mut results: Vec<Option<u64>> = orders.iter().map(|v| sum(v)).collect();
            let first = results[0].map_or(f64::NAN, f64::from_bits);
            let ns = ns_per_add(&orders[0], sum);
            results.sort_unstable();
            results.dedup();
            let row = vec![
                name.into(),
                format!("{first:.17e}"),
                format!("{ns:.2}"),
                format!("{:.1}x", ns / f64_ns),
                format!("{}", results.len()),
            ];
            distinct.push(results);
            row
        })
        .collect();
    print_table(
        &format!("accumulating {N} summands, {} orders", orders.len()),
        &[
            "sum",
            "value (input order)",
            "ns/add",
            "vs f64",
            "distinct results",
        ],
        &rows,
    );
    println!("\nthe block-FP window rounds each summand once onto a fixed grid and");
    println!("then adds integers exactly, so the order of the adds cannot matter.");
    let block_fp = &distinct[2];
    if block_fp.len() != 1 || block_fp[0].is_none() {
        eprintln!(
            "REGRESSION: block-FP sum is not one bit pattern over {} orders: {block_fp:?}",
            orders.len()
        );
        std::process::exit(1);
    }
    println!(
        "verdict: block-FP sum bit-identical over all {} orders",
        orders.len()
    );
}
