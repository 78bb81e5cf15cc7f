//! Ablation for DESIGN.md decision 1 (exact rational time): what does
//! exactness cost relative to raw `f64` arithmetic?
//!
//! The workload mirrors what the engine does per event: additions
//! (advancing finish times) and comparisons (ordering the event queue).
//! The measured overhead is the price paid for deciding the paper's
//! strict grid inequalities exactly; the experiment binaries show the
//! decimals come out bit-exact in exchange.
//!
//! ```text
//! cargo run -p rigid-bench --release --bin time_ablation
//! ```
//!
//! Wall-clock numbers, so not part of `all_experiments`.

use rigid_bench::Table;
use rigid_time::Time;
use std::hint::black_box;
use std::time::Instant;

/// Each workload runs back to back for at least this long.
const MIN_SECS: f64 = 0.2;

/// Mean nanoseconds per element of one `body` call over `len` elements,
/// doubling the call count until the timed region spans [`MIN_SECS`].
fn ns_per_element<R>(len: usize, mut body: impl FnMut() -> R) -> f64 {
    black_box(body());
    let mut calls = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..calls {
            black_box(body());
        }
        let secs = t0.elapsed().as_secs_f64();
        if secs >= MIN_SECS {
            return secs * 1e9 / (f64::from(calls) * len as f64);
        }
        calls *= 2;
    }
}

fn main() {
    let rational: Vec<Time> = (1..=4096i64)
        .map(|i| Time::from_ratio(i * 7 + 3, (i % 64) + 1))
        .collect();
    let floats: Vec<f64> = rational.iter().map(|t| t.to_f64()).collect();
    // Dyadic-grid workload (what generators actually produce): a shared
    // power-of-two denominator keeps `Time` adds on the fast path.
    let dyadic: Vec<Time> = (1..=4096i64)
        .map(|i| Time::from_ratio(i * 13 + 5, 1 << 20))
        .collect();
    let sum = |v: &[Time]| {
        let mut acc = Time::ZERO;
        for &t in v {
            acc += black_box(t);
        }
        acc
    };

    let rows = [
        (
            "sum_4096_rational",
            ns_per_element(rational.len(), || sum(&rational)),
        ),
        (
            "sum_4096_f64",
            ns_per_element(floats.len(), || {
                let mut acc = 0.0f64;
                for &t in &floats {
                    acc += black_box(t);
                }
                acc
            }),
        ),
        (
            "sum_4096_dyadic_rational",
            ns_per_element(dyadic.len(), || sum(&dyadic)),
        ),
        (
            "sort_4096_rational",
            ns_per_element(rational.len(), || {
                let mut v = rational.clone();
                v.sort();
                v
            }),
        ),
        (
            "sort_4096_f64",
            ns_per_element(floats.len(), || {
                let mut v = floats.clone();
                v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                v
            }),
        ),
    ];
    let mut table = Table::new(&["workload", "ns/element"]);
    for (name, ns) in rows {
        table.row(vec![name.to_string(), format!("{ns:.2}")]);
    }
    print!(
        "== Time ablation: exact Time vs f64 (DESIGN.md decision 1) ==\n{}",
        table.render()
    );
}
