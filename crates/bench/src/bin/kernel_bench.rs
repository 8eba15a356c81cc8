//! Kernel micro-benchmark: compiled [`KernelPlan`] interpretation vs
//! the per-call [`AxisWalker`](evprop_potential::AxisWalker) kernels.
//!
//! For synthetic binary cliques of width 2..=20 (table sizes 4..1M), a
//! separator of half the variables, and partition grains
//! δ ∈ {1, 64, 4096}, measures each cross-domain primitive both ways:
//!
//! * **planned** — plans compiled once per (domain pair, δ-range), then
//!   interpreted repeatedly: the steady-state serving path, where the
//!   [`PlanCache`](evprop_taskgraph::PlanCache) hands every subtask a
//!   precompiled plan;
//! * **walker** — the `*_walker` kernels, which re-derive the
//!   mixed-radix index map on every call.
//!
//! Two separator layouts exercise both plan kinds: `low` keeps the
//! leading variables (trailing scan axes absent → `Broadcast` blocks)
//! and `high` keeps the trailing variables (`Contig` runs).
//!
//! Prints a CSV-ish summary, writes `BENCH_kernels.json`, and reports
//! one headline: the planned-vs-walker geometric-mean speedup over
//! every cell, plus the same geomean per primitive.
//!
//! ```sh
//! cargo run -p evprop-bench --release --bin kernel_bench
//! ```

use evprop_potential::{plan, raw};
use evprop_potential::{Domain, EntryRange, KernelPlan, VarId, Variable};
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Clique widths (binary variables): table sizes 4 .. 2^20.
const WIDTHS: [usize; 10] = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20];
/// Partition grains, mirroring the scheduler's δ sweep.
const DELTAS: [usize; 3] = [1, 64, 4096];
/// Rough entry-operation budget per timed side; reps are derived from
/// it so small and large tables measure comparable wall time.
const TARGET_OPS: usize = 1 << 21;

const PRIMS: [&str; 5] = ["marg_sum", "marg_max", "extend", "multiply", "divide"];

fn binary_domain(ids: impl Iterator<Item = u32>) -> Domain {
    Domain::new(ids.map(|i| Variable::new(VarId(i), 2)).collect()).unwrap()
}

struct Cell {
    width: usize,
    layout: &'static str,
    delta: usize,
    prim: &'static str,
    planned_ns_per_op: f64,
    walker_ns_per_op: f64,
}

impl Cell {
    fn ratio(&self) -> f64 {
        self.walker_ns_per_op / self.planned_ns_per_op.max(1e-12)
    }
}

fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len().max(1) as f64).exp()
}

/// Times `reps` repetitions of `pass` split into three equal blocks,
/// returning the *median* block's ns per entry-op — one scheduler or
/// throttling burst then spoils at most one block instead of the whole
/// measurement (this box is a shared 1-core container).
fn time_ns_per_op(reps: usize, ops_per_pass: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warmup
    let block = (reps / 3).max(1);
    let mut t = [0.0f64; 3];
    for slot in &mut t {
        let start = Instant::now();
        for _ in 0..block {
            pass();
        }
        *slot = start.elapsed().as_nanos() as f64 / (block * ops_per_pass) as f64;
    }
    t.sort_by(f64::total_cmp);
    t[1]
}

#[allow(clippy::too_many_lines)]
fn bench_cells(width: usize, layout: &'static str, out: &mut Vec<Cell>) {
    let clique = binary_domain(0..width as u32);
    let sep = match layout {
        "low" => binary_domain(0..(width / 2) as u32),
        _ => binary_domain((width / 2) as u32..width as u32),
    };
    let size = clique.size();
    let reps = (TARGET_OPS / size).max(2);

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED ^ width as u64);
    let src: Vec<f64> = (0..size).map(|_| rng.gen_range(0.01..1.0)).collect();
    // Denominator with zeros sprinkled in so divide pays for the
    // Hugin 0/0 = 0 guard the way the propagation path does.
    let den: Vec<f64> = (0..size)
        .map(|i| {
            if i % 17 == 0 {
                0.0
            } else {
                rng.gen_range(0.01..1.0)
            }
        })
        .collect();
    let sep_t: Vec<f64> = (0..sep.size()).map(|_| rng.gen_range(0.01..1.0)).collect();
    let mut dst = vec![0.0f64; sep.size()];
    let mut big = vec![0.0f64; size];

    for &delta in &DELTAS {
        let ranges = EntryRange::split(size, delta);
        // Compile once per range — this is exactly what the PlanCache
        // amortizes; compile time is deliberately outside the timing.
        let plans: Vec<KernelPlan> = ranges
            .iter()
            .map(|&r| KernelPlan::compile(&clique, &sep, r).unwrap())
            .collect();

        for prim in PRIMS {
            let planned = match prim {
                "marg_sum" => time_ns_per_op(reps, size, || {
                    dst.fill(0.0);
                    for p in &plans {
                        p.marginalize_sum_into(&src, &mut dst).unwrap();
                    }
                    black_box(&dst);
                }),
                "marg_max" => time_ns_per_op(reps, size, || {
                    dst.fill(0.0);
                    for p in &plans {
                        p.marginalize_max_into(&src, &mut dst).unwrap();
                    }
                    black_box(&dst);
                }),
                "extend" => time_ns_per_op(reps, size, || {
                    for (p, r) in plans.iter().zip(&ranges) {
                        p.extend_into(&sep_t, &mut big[r.start..r.end]).unwrap();
                    }
                    black_box(&big);
                }),
                "divide" => time_ns_per_op(reps, size, || {
                    for &r in &ranges {
                        plan::divide_planned(&src, &den, r, &mut big[r.start..r.end]).unwrap();
                    }
                    black_box(&big);
                }),
                // `multiply_into` is read-modify-write, so `big` must be
                // reset every pass: left to decay (`big *= sep` repeatedly)
                // the values cross the denormal range — where every
                // multiply is microcoded — before flushing to zero, and
                // *when* that transient lands (which block) depends on
                // reps and run order, making
                // the timing state-dependent. The fill also mirrors the
                // serving path, which does `reset_ones` before its
                // multiply.
                _ => time_ns_per_op(reps, size, || {
                    big.fill(1.0);
                    for (p, r) in plans.iter().zip(&ranges) {
                        p.multiply_into(&sep_t, &mut big[r.start..r.end]).unwrap();
                    }
                    black_box(&big);
                }),
            };
            let walker = match prim {
                "marg_sum" => time_ns_per_op(reps, size, || {
                    dst.fill(0.0);
                    for &r in &ranges {
                        raw::marginalize_range_into_walker(&clique, &src, r, &sep, &mut dst)
                            .unwrap();
                    }
                    black_box(&dst);
                }),
                "marg_max" => time_ns_per_op(reps, size, || {
                    dst.fill(0.0);
                    for &r in &ranges {
                        raw::max_marginalize_range_into_walker(&clique, &src, r, &sep, &mut dst)
                            .unwrap();
                    }
                    black_box(&dst);
                }),
                "divide" => time_ns_per_op(reps, size, || {
                    for &r in &ranges {
                        raw::divide_range_into(&src, &den, r, &mut big[r.start..r.end]).unwrap();
                    }
                    black_box(&big);
                }),
                "extend" => time_ns_per_op(reps, size, || {
                    for &r in &ranges {
                        raw::extend_range_into_walker(
                            &sep,
                            &sep_t,
                            &clique,
                            r,
                            &mut big[r.start..r.end],
                        )
                        .unwrap();
                    }
                    black_box(&big);
                }),
                // Same per-pass reset as the planned side (see above).
                _ => time_ns_per_op(reps, size, || {
                    big.fill(1.0);
                    for &r in &ranges {
                        raw::multiply_range_into_walker(
                            &sep,
                            &sep_t,
                            &clique,
                            r,
                            &mut big[r.start..r.end],
                        )
                        .unwrap();
                    }
                    black_box(&big);
                }),
            };
            let cell = Cell {
                width,
                layout,
                delta,
                prim,
                planned_ns_per_op: planned,
                walker_ns_per_op: walker,
            };
            println!(
                "{width},{layout},{delta},{prim},{planned:.3},{walker:.3},{:.2}",
                cell.ratio()
            );
            out.push(cell);
        }
    }
}

fn main() {
    println!("# planned vs walker kernels (binary cliques, separator = half the vars)");
    evprop_bench::header(&[
        "width",
        "layout",
        "delta",
        "primitive",
        "planned_ns_per_op",
        "walker_ns_per_op",
        "speedup",
    ]);

    let mut cells = Vec::new();
    for &w in &WIDTHS {
        for layout in ["low", "high"] {
            bench_cells(w, layout, &mut cells);
        }
    }

    let all: Vec<f64> = cells.iter().map(Cell::ratio).collect();
    let headline = geomean(&all);
    println!(
        "# headline: planned is {headline:.2}x the walker path (geomean over all {} cells)",
        cells.len()
    );
    let per_prim: Vec<String> = PRIMS
        .iter()
        .map(|&prim| {
            let ratios: Vec<f64> = cells
                .iter()
                .filter(|c| c.prim == prim)
                .map(Cell::ratio)
                .collect();
            let g = geomean(&ratios);
            println!("# {prim}: planned is {g:.2}x the walker path (geomean)");
            format!("\"{prim}\": {g:.3}")
        })
        .collect();

    let json_cells: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                concat!(
                    "    {{\"width\": {}, \"layout\": \"{}\", ",
                    "\"delta\": {}, \"primitive\": \"{}\", \"planned_ns_per_op\": {:.4}, ",
                    "\"walker_ns_per_op\": {:.4}, \"speedup\": {:.3}}}"
                ),
                c.width,
                c.layout,
                c.delta,
                c.prim,
                c.planned_ns_per_op,
                c.walker_ns_per_op,
                c.ratio()
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"benchmark\": \"kernel_bench\",\n",
            "  \"target_ops_per_side\": {},\n",
            "  \"headline_speedup_geomean\": {:.3},\n",
            "  \"speedup_geomean_by_primitive\": {{{}}},\n",
            "  \"cells\": [\n{}\n  ]\n}}\n"
        ),
        TARGET_OPS,
        headline,
        per_prim.join(", "),
        json_cells.join(",\n")
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("# wrote BENCH_kernels.json");
}
