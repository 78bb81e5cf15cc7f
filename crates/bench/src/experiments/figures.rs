//! Regenerators for the paper's expository figures (Figures 1–7).

use crate::harness::{f3, ft, Sched, Table};
use catbatch::analysis::{attribute_table, decompose, render_attribute_table};
use catbatch::category::Category;
use catbatch::lmatrix::{category_length, LMatrix};
use catbatch::CatBatch;
use rigid_baselines::Priority;
use rigid_dag::paper::{figure3, intro_example};
use rigid_dag::{analysis, StaticSource};
use rigid_sim::gantt::{render, render_criticalities, GanttOptions};
use rigid_sim::{engine, Schedule};
use rigid_time::Time;

/// E01 — Figure 1: the introductory example. Any ASAP heuristic pays
/// ≈ `P(1+ε)`; an optimal schedule pays `1 + 2Pε`; CatBatch lands next to
/// the optimum.
pub fn fig01_intro() -> String {
    let mut out = String::from("== E01 / Figure 1: intro example (ASAP trap) ==\n");
    let eps = Time::from_ratio(1, 100);
    let mut table = Table::new(&[
        "P",
        "n",
        "Lb",
        "T_opt*",
        "T_asap",
        "T_catbatch",
        "asap/opt",
        "cb/opt",
    ]);
    for p in [4u32, 8, 16, 32] {
        let inst = intro_example(p, eps);
        let lb = analysis::lower_bound(&inst);
        // The optimal witness: A/B ladder first, then all C's in parallel.
        let opt = optimal_witness_intro(p, eps).makespan();
        let asap = Sched::List(Priority::Fifo).run(&inst).makespan();
        let cb = Sched::CatBatch.run(&inst).makespan();
        table.row(vec![
            p.to_string(),
            inst.len().to_string(),
            ft(lb),
            ft(opt),
            ft(asap),
            ft(cb),
            f3(asap.ratio(opt).to_f64()),
            f3(cb.ratio(opt).to_f64()),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\n* T_opt is the witness schedule of the paper (ladder, then all C's in\n  parallel): makespan exactly 1 + 2Pε. ASAP degrades linearly in P = n/3;\n  CatBatch stays within a constant of the optimum.\n",
    );
    out
}

/// Builds and validates the optimal witness schedule for the intro
/// example: `A_k [2kε, (2k+1)ε]`, `B_k [(2k+1)ε, (2k+2)ε]`, all `C_k` in
/// parallel during `[2Pε, 1 + 2Pε]`.
fn optimal_witness_intro(p: u32, eps: Time) -> Schedule {
    let inst = intro_example(p, eps);
    let g = inst.graph();
    let mut s = Schedule::new(p);
    for k in 0..p as i64 {
        let a = g.find_by_label(&format!("A{k}")).expect("A task");
        let b = g.find_by_label(&format!("B{k}")).expect("B task");
        let c = g.find_by_label(&format!("C{k}")).expect("C task");
        s.place(a, eps.mul_int(2 * k), eps.mul_int(2 * k + 1), 1);
        s.place(b, eps.mul_int(2 * k + 1), eps.mul_int(2 * k + 2), p);
        let c_start = eps.mul_int(2 * p as i64);
        s.place(c, c_start, c_start + Time::ONE, 1);
    }
    s.assert_valid(&inst);
    s
}

/// E02 — Figure 2: the category lattice. Prints grid points `λ·2^χ` by
/// power level and verifies the structural facts (odd longitudes,
/// even-λ points shadowed by the level above).
pub fn fig02_lattice() -> String {
    let mut out = String::from("== E02 / Figure 2: category lattice ==\n");
    for chi in (-1..=2).rev() {
        let p = rigid_time::Pow2::new(chi);
        let mut line = format!("chi = {chi:>2}: ");
        let mut lambda = 1i64;
        loop {
            let v = p.grid_point(lambda);
            if v > Time::from_int(8) {
                break;
            }
            line.push_str(&format!("ζ({lambda})={v}  "));
            lambda += 2; // odd longitudes only — even ones belong above
            if lambda > 64 {
                break;
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    // Structural check: every even-λ point coincides with a point one
    // level up.
    for chi in -3..=3 {
        for lambda in (2..=16i64).step_by(2) {
            let below = rigid_time::Pow2::new(chi).grid_point(lambda);
            let above = rigid_time::Pow2::new(chi + 1).grid_point(lambda / 2);
            assert_eq!(below, above, "lattice shadowing violated");
        }
    }
    out.push_str("check: every even-λ grid point is shadowed by the level above ✓\n");
    out
}

/// E03 — Figure 3 + its attribute table: the 11-task example.
pub fn fig03_attributes() -> String {
    let mut out = String::from("== E03 / Figure 3: attribute table of the 11-task example ==\n");
    let inst = figure3();
    let rows = attribute_table(&inst);
    out.push_str(&render_attribute_table(&rows));
    // Machine check against the paper's table.
    let expect: &[(&str, i64, i32, (i64, i64))] = &[
        ("A", 1, 2, (4, 1)),
        ("B", 1, 0, (1, 1)),
        ("C", 1, 1, (2, 1)),
        ("D", 1, 1, (2, 1)),
        ("E", 1, 2, (4, 1)),
        ("F", 7, -1, (7, 2)),
        ("G", 7, -1, (7, 2)),
        ("H", 5, 0, (5, 1)),
        ("I", 1, 2, (4, 1)),
        ("J", 13, -1, (13, 2)),
        ("K", 5, 0, (5, 1)),
    ];
    for (label, lambda, chi, (zn, zd)) in expect {
        let row = rows.iter().find(|r| r.label == *label).expect("row");
        assert_eq!(row.category.lambda, *lambda, "λ of {label}");
        assert_eq!(row.category.chi, *chi, "χ of {label}");
        assert_eq!(row.category.value(), Time::from_ratio(*zn, *zd));
    }
    out.push_str("check: all 11 rows match the paper's table exactly ✓\n");
    out.push_str(
        "\nASAP schedule with unbounded processors (criticalities, Figure 3 bottom-left):\n",
    );
    out.push_str(&render_criticalities(
        inst.graph(),
        &GanttOptions {
            width: 68,
            labels: false,
        },
    ));
    out
}

/// E04 — Figure 4: category lengths of the example's six categories.
pub fn fig04_lengths() -> String {
    let mut out = String::from("== E04 / Figure 4: categories and their lengths (C = 6.8) ==\n");
    let inst = figure3();
    let d = decompose(&inst);
    let mut table = Table::new(&["ζ", "χ", "λ", "tasks", "L_ζ"]);
    for (cat, tasks) in &d.categories {
        let labels: Vec<&str> = tasks
            .iter()
            .map(|&id| inst.graph().spec(id).label_str())
            .collect();
        table.row(vec![
            ft(cat.value()),
            cat.chi.to_string(),
            cat.lambda.to_string(),
            labels.join(","),
            ft(category_length(*cat, d.critical_path)),
        ]);
    }
    out.push_str(&table.render());
    let total = d.total_category_length();
    out.push_str(&format!(
        "Σ L_ζ = {total} (paper: 6.8+4+2+2+1+0.8 = 16.6)\n"
    ));
    assert_eq!(total, Time::from_millis(16, 600));
    out
}

/// E05 — Figure 5: the L-matrix and the category-value matrix for C = 6.8.
pub fn fig05_lmatrix() -> String {
    let mut out = String::from("== E05 / Figure 5: L-matrix L(C) for C = 6.8 ==\n");
    let m = LMatrix::new(Time::from_millis(6, 800));
    out.push_str(&m.render(5, 8));
    out.push_str("category values:\n");
    out.push_str(&m.render_categories(5, 8));
    // Machine check of the distinctive entries.
    assert_eq!(m.entry(1, 1), Time::from_millis(6, 800));
    assert_eq!(m.entry(2, 2), Time::from_millis(2, 800));
    assert_eq!(m.entry(4, 7), Time::from_millis(0, 800));
    assert_eq!(m.entry(4, 8), Time::ZERO);
    out.push_str("check: entries match the paper's matrix ✓\n");
    out
}

/// E06 — Figure 6: the CatBatch run on the example (P = 4), batch by
/// batch, with the Gantt chart and the 15.2 makespan.
pub fn fig06_catbatch_run() -> String {
    let mut out = String::from("== E06 / Figure 6: CatBatch on the Figure 3 example, P = 4 ==\n");
    let inst = figure3();
    let mut cb = CatBatch::new();
    let result = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cb);
    result.schedule.assert_valid(&inst);

    let mut table = Table::new(&[
        "batch ζ",
        "tasks",
        "start",
        "finish",
        "span",
        "lemma6 bound",
    ]);
    let cpath = analysis::critical_path(inst.graph());
    for b in cb.batch_history() {
        let labels: Vec<&str> = b
            .tasks
            .iter()
            .map(|&id| inst.graph().spec(id).label_str())
            .collect();
        let bound = b.area.mul_int(2).div_int(4) + category_length(b.category, cpath);
        table.row(vec![
            ft(b.category.value()),
            labels.join(","),
            ft(b.started_at),
            ft(b.finished_at),
            ft(b.span()),
            ft(bound),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "makespan = {} (paper: 15.2); Lb = {}\n",
        result.makespan(),
        analysis::lower_bound(&inst)
    ));
    assert_eq!(result.makespan(), Time::from_millis(15, 200));
    out.push_str("\nGantt (time → right, one row per processor):\n");
    out.push_str(&render(
        &result.schedule,
        inst.graph(),
        &GanttOptions {
            width: 76,
            labels: true,
        },
    ));
    // Also emit the publication-style SVG next to the text report.
    let svg = rigid_sim::svg::render_svg(
        &result.schedule,
        inst.graph(),
        &rigid_sim::svg::SvgOptions::default(),
    );
    if std::fs::create_dir_all("results").is_ok()
        && std::fs::write("results/fig06_catbatch_run.svg", &svg).is_ok()
    {
        out.push_str("SVG written to results/fig06_catbatch_run.svg\n");
    }
    out
}

/// E07 — Figure 7: the L* matrix under task-length bounds m = 0.9,
/// M = 2.3 (Reduced / Unchanged / Impossible rows).
pub fn fig07_lstar() -> String {
    let mut out = String::from("== E07 / Figure 7: L* matrix for C = 6.8, m = 0.9, M = 2.3 ==\n");
    let m = LMatrix::new(Time::from_millis(6, 800));
    let (lo, hi) = (Time::from_millis(0, 900), Time::from_millis(2, 300));
    let mut rows_text = String::new();
    for i in 1..=5u32 {
        let cells: Vec<String> = (1..=8u32)
            .map(|j| format!("{:>6}", format!("{}", m.entry_bounded(i, j, lo, hi))))
            .collect();
        let kind = row_kind(&m, i, lo, hi);
        rows_text.push_str(&format!("{}   {}\n", cells.join(" "), kind));
    }
    out.push_str(&rows_text);
    // Machine checks (the paper's right-hand matrix).
    assert_eq!(m.entry_bounded(1, 1, lo, hi), Time::from_millis(2, 300));
    assert_eq!(m.entry_bounded(2, 2, lo, hi), Time::from_millis(2, 300));
    assert_eq!(m.entry_bounded(3, 3, lo, hi), Time::from_int(2));
    assert_eq!(m.entry_bounded(4, 7, lo, hi), Time::ZERO);
    assert_eq!(m.entry_bounded(5, 1, lo, hi), Time::ZERO);
    out.push_str("check: R/U/I rows match the paper ✓\n");
    out
}

fn row_kind(m: &LMatrix, i: u32, lo: Time, hi: Time) -> &'static str {
    let mut reduced = false;
    let mut any_positive = false;
    for j in 1..=32u32 {
        let raw = m.entry(i, j);
        let star = m.entry_bounded(i, j, lo, hi);
        if star.is_positive() {
            any_positive = true;
            if star != raw {
                reduced = true;
            }
        }
    }
    if !any_positive {
        "I (impossible)"
    } else if reduced {
        "R (reduced)"
    } else {
        "U (unchanged)"
    }
}

/// Helper reused by tests: the example's category set.
pub fn figure3_categories() -> Vec<Category> {
    decompose(&figure3()).categories.keys().copied().collect()
}
