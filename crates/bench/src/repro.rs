//! The paper's tables, figures and ablations as functions of a shot
//! budget, and the claim ledger they feed.
//!
//! A section writes its tables to `out` and returns the paper claims
//! it checked. Sections that execute a parallel workload (Fig. 3,
//! Fig. 4, Table III, Fig. 6, Sec. II-A, the strategy-comparing
//! ablations, Fig. 2's QuMC table) run it on a
//! [`Service`](qucp_runtime::Service) through [`runner`](crate::runner);
//! plan-only and below-`Strategy` sections (Table II, σ tuning, the
//! mapping ablation, Table I and Fig. 2's SRB campaign over `qucp-srb`)
//! call the stage functions they inspect.
//! [`ledger`] runs every section of [`SECTIONS`] — the ones that check
//! a claim; [`TABLES`] only print — and keeps the claims: one row per
//! paper claim — id, the paper's value, ours, the rule that compares
//! them, a verdict — the committed `REPRO.json`, regenerated and diffed
//! in CI.

use std::io::{self, Write};

use qucp_circuit::library::{self, ResultKind};
use qucp_circuit::Circuit;
use qucp_core::report::{fix, pct, Table};
use qucp_core::{
    allocate_partitions, efs, efs_difference, initial_mapping, route, strategy, CircuitStats,
    CrosstalkTreatment, MappedProgram, PartitionPolicy, Pipeline, Strategy,
};
use qucp_device::{ibm, Device, Link, LinkPair, SIGNIFICANT_RATIO};
use qucp_sim::{ideal_outcome, ExecutionConfig, NoiseScaling, PreparedJob};
use qucp_srb::{run_campaign, srb_overhead, RbConfig};
use qucp_zne::mitigate_distribution;

use crate::runner::{mean_jsd, mean_pst, threshold_ladder, vqe_h2, zne, Rig, VqeArms, ZneArms};
use crate::{combo_circuits, combo_label, EXPERIMENT_SEED, FIG3A_COMBOS, FIG3B_COMBOS};
use Rule::{Below, Exact, Ratio, Within};

/// How a claim's two values are compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Equal at the paper's printed precision.
    Exact,
    /// `|ours − paper|` at most this, in the claim's unit.
    Within(f64),
    /// `ours <` the paper's stated bound.
    Below,
    /// Same direction as the paper and `lo ≤ ours / paper ≤ hi`: the
    /// magnitude cannot match, and the text says what differs.
    Ratio(f64, f64, &'static str),
}

/// One paper claim, checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Stable row id (`fig3a.jsd_gain`).
    pub id: &'static str,
    /// The paper's value as printed (`"10.5 %"`, `"< 10 %"`, `"2.0x"`):
    /// a number, which also fixes the decimals and the unit of `ours`.
    pub paper: &'static str,
    /// Our value.
    pub ours: f64,
    /// The comparison.
    pub rule: Rule,
}

/// Claims from `(id, paper, ours, rule)` rows.
fn claims<const N: usize>(rows: [(&'static str, &'static str, f64, Rule); N]) -> Vec<Claim> {
    let claim = |(id, paper, ours, rule)| Claim {
        id,
        paper,
        ours,
        rule,
    };
    rows.map(claim).into()
}

impl Claim {
    /// The paper's number, its printed decimals and its unit suffix.
    fn printed(&self) -> (f64, usize, &'static str) {
        let text = self.paper.trim_start_matches("< ");
        let end = text
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(text.len());
        let (number, unit) = text.split_at(end);
        let decimals = number.split_once('.').map_or(0, |(_, f)| f.len());
        let value = number.parse().expect("a paper value starts with a number");
        (value, decimals, unit)
    }

    /// `ours`, printed like the paper's value.
    pub fn ours_text(&self) -> String {
        let (_, decimals, unit) = self.printed();
        format!("{}{unit}", fix(self.ours, decimals))
    }

    /// The rule as the ledger prints it.
    pub fn rule_text(&self) -> String {
        match self.rule {
            Rule::Exact => "exact at the printed precision".into(),
            Rule::Within(tol) => format!("|ours - paper| <= {tol}{}", self.printed().2),
            Rule::Below => "ours below the paper's bound".into(),
            Rule::Ratio(lo, hi, why) => {
                format!("same direction, {lo} <= ours/paper <= {hi}: {why}")
            }
        }
    }

    /// Whether the claim holds under its rule.
    pub fn passes(&self) -> bool {
        let paper = self.printed().0;
        match self.rule {
            Rule::Exact => self.ours_text() == self.paper,
            Rule::Within(tol) => (self.ours - paper).abs() <= tol,
            Rule::Below => self.ours < paper,
            Rule::Ratio(lo, hi, _) => (lo..=hi).contains(&(self.ours / paper)),
        }
    }

    /// `pass` or `fail`.
    pub fn verdict(&self) -> &'static str {
        if self.passes() {
            "pass"
        } else {
            "fail"
        }
    }
}

/// A section: writes its tables, returns the claims it checked.
pub type Section = fn(shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>>;

/// The sections that check paper claims, in `repro`'s print order.
pub const SECTIONS: [(&str, Section); 8] = [
    ("queue", queue),
    ("table1", table1),
    ("table2", table2),
    ("sigma", sigma),
    ("fig3", fig3),
    ("fig4", fig4),
    ("table3", table3),
    ("fig6", fig6),
];

/// The sections that only print (they return no claim), after
/// [`SECTIONS`] in `repro`'s print order; the ledger skips them.
pub const TABLES: [(&str, Section); 4] = [
    ("fig2", fig2),
    ("ablation_partition", ablation_partition),
    ("ablation_mapping", ablation_mapping),
    ("ablation_readout", ablation_readout),
];

/// Every claim of every section of [`SECTIONS`] at `shots` per job.
///
/// # Errors
///
/// Never: the sections write to a sink.
pub fn ledger(shots: usize) -> io::Result<Vec<Claim>> {
    let mut all = Vec::new();
    for (_, section) in SECTIONS {
        all.extend(section(shots, &mut io::sink())?);
    }
    Ok(all)
}

/// The ledger as JSON, one row a line (the format of `REPRO.json`; no
/// field needs escaping).
pub fn ledger_json(claims: &[Claim]) -> String {
    let row = |c: &Claim| {
        let (id, paper, ours, rule, verdict) =
            (c.id, c.paper, c.ours_text(), c.rule_text(), c.verdict());
        format!(
            "  {{\"id\": \"{id}\", \"paper\": \"{paper}\", \"ours\": \"{ours}\", \"rule\": \"{rule}\", \"verdict\": \"{verdict}\"}}"
        )
    };
    let rows: Vec<String> = claims.iter().map(row).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

const CHIP: &str = "the synthetic chip's error spread is narrower than the 2021 calibration's";
const GROUPING: &str = "our greedy grouping finds 14 / 15 groups, the paper's 9 / 11";
const DRAW: &str = "a maximum over noisy ratios: one run in the paper, three seeds averaged here";

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// A table with ` | `-separated headers.
fn table(headers: &str) -> Table {
    Table::new(&headers.split(" | ").collect::<Vec<_>>())
}

/// Sec. I / II-A: the cloud-queue motivation, served.
pub fn queue(shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    writeln!(out, "Sec. II-A: two 4-qubit adders on IBM Q 16 Melbourne\n")?;
    let adder = library::by_name("adder").expect("library").circuit();
    let rig = Rig::new(ibm::melbourne(), strategy::qucp(4.0), shots);
    let mut t = table("max parallel | throughput | busy-time utilization | runtime (ns)");
    let mut served = Vec::new();
    for k in [1, 2] {
        let report = rig.drain(k, &[adder.clone(), adder.clone()]);
        let (rate, runtime) = (rig.throughput(&report.batches[0]), report.stats.makespan);
        served.push((rate, runtime));
        let [rate, busy] = [rate, report.stats.mean_throughput].map(pct);
        t.row_owned(vec![k.to_string(), rate, busy, fix(runtime, 0)]);
    }
    write!(out, "{t}")?;
    let [one, two] = [served[0].0, served[1].0].map(|t| 100.0 * t);
    let ratio = served[0].1 / served[1].1;
    Ok(claims([
        ("sec2a.throughput_one_circuit", "26.7 %", one, Exact),
        ("sec2a.throughput_two_circuits", "53.3 %", two, Exact),
        ("sec2a.serial_runtime_ratio", "2.0x", ratio, Within(0.2)),
    ]))
}

/// Table I: the overhead of SRB characterization. The paper's "1-hop
/// pairs" row equals the link count, so both are shown.
pub fn table1(_shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    writeln!(out, "Table I: SRB overhead (paper's in parentheses)\n")?;
    let (a, b) = (
        srb_overhead(&ibm::toronto(), 5),
        srb_overhead(&ibm::manhattan(), 5),
    );
    let mut t = table("Chip | IBM Q 27 Toronto | IBM Q 65 Manhattan");
    for (label, ours, paper) in [
        ("qubit", [a.qubits, b.qubits], Some([27, 65])),
        (
            "links (paper: 1-hop pairs)",
            [a.links, b.links],
            Some([28, 72]),
        ),
        (
            "one-hop link pairs",
            [a.one_hop_pairs, b.one_hop_pairs],
            None,
        ),
        ("groups", [a.groups, b.groups], Some([9, 11])),
        ("seeds", [a.seeds, b.seeds], Some([5, 5])),
        (
            "jobs = 3 x groups x seeds",
            [a.jobs, b.jobs],
            Some([135, 165]),
        ),
    ] {
        let cell = |i: usize| match paper {
            Some(p) => format!("{} ({})", ours[i], p[i]),
            None => ours[i].to_string(),
        };
        t.row_owned(vec![label.into(), cell(0), cell(1)]);
    }
    write!(out, "{t}")?;
    let grouping = Ratio(1.0, 2.0, GROUPING);
    Ok(claims([
        ("table1.toronto_links", "28", a.links as f64, Exact),
        ("table1.manhattan_links", "72", b.links as f64, Exact),
        ("table1.toronto_srb_jobs", "135", a.jobs as f64, grouping),
        ("table1.manhattan_srb_jobs", "165", b.jobs as f64, grouping),
    ]))
}

fn srb_config(shots: usize) -> RbConfig {
    RbConfig {
        lengths: vec![2, 8, 16, 32, 48],
        seeds: 3,
        shots: shots / 16,
        base_seed: 0xF162,
    }
}

/// Fig. 2 and Ablation A4 over one SRB campaign of Toronto: the
/// measured crosstalk map against the injected ground truth, then the
/// full QuMC pipeline — partitioning driven by the campaign's map
/// ([`CampaignReport::crosstalk_map`](qucp_srb::CampaignReport::crosstalk_map)),
/// by the ground truth, and by QuCP's σ.
pub fn fig2(shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    writeln!(out, "Fig. 2: SRB crosstalk map of IBM Q 27 Toronto\n")?;
    let device = ibm::toronto();
    let report = run_campaign(&device, &srb_config(shots));
    let mut t = table("pair | eps(gi) | eps(gi|gj) | ratio | true gamma | significant");
    for p in &report.pairs {
        let [alone, together] = [p.isolated.0, p.simultaneous.0].map(|e| fix(e, 4));
        let [ratio, gamma] = [p.worst_ratio(), p.true_gamma].map(|r| fix(r, 2));
        let (pair, mark) = (
            p.pair.to_string(),
            if p.is_significant() { "YES" } else { "" },
        );
        t.row_owned(vec![pair, alone, together, ratio, gamma, mark.into()]);
    }
    // Accuracy of the SRB estimate on the ground truth's significant pairs.
    let strong: Vec<LinkPair> = (device.crosstalk().significant_pairs().into_iter())
        .map(|(pair, _)| pair)
        .collect();
    let errors: Vec<f64> = (report.pairs.iter())
        .filter(|p| strong.contains(&p.pair))
        .map(|p| (p.worst_ratio() - p.true_gamma).abs() / p.true_gamma)
        .collect();
    let (significant, pairs) = (report.significant().len(), report.pairs.len());
    writeln!(
        out,
        "{t}\n{significant} of {pairs} one-hop pairs exceed the {SIGNIFICANT_RATIO}x threshold."
    )?;
    let (error, truth_pairs) = (100.0 * mean(&errors), strong.len());
    writeln!(
        out,
        "SRB ratio vs true gamma on the {truth_pairs} strong pairs: {error:.1}% mean relative error."
    )?;
    writeln!(out, "Overhead actually paid: {}\n\n", report.overhead)?;
    writeln!(
        out,
        "Ablation A4: QuMC from a real SRB campaign (Toronto)\n"
    )?;
    let srb_map = report.crosstalk_map();
    let flagged = srb_map.len();
    writeln!(
        out,
        "the campaign flagged {flagged} significant pairs (ground truth has {truth_pairs}).\n"
    )?;
    let strategies = [
        strategy::qumc(srb_map),
        strategy::qumc_with_ground_truth(&device),
        strategy::qucp(4.0),
    ];
    let rigs = strategies.map(|strat| Rig::new(device.clone(), strat, shots / 2));
    let mut t = table("workload | QuMC(SRB) | QuMC(truth) | QuCP(4)");
    let mut columns = [Vec::new(), Vec::new(), Vec::new()];
    for combo in &FIG3B_COMBOS[4..] {
        let programs = combo_circuits(combo);
        for (rig, column) in rigs.iter().zip(&mut columns) {
            column.push(mean_pst(&rig.drain(3, &programs).job_results));
        }
        let [srb, truth, qucp] = columns.each_ref().map(|c| fix(c[c.len() - 1], 3));
        t.row_owned(vec![combo_label(combo), srb, truth, qucp]);
    }
    let [srb, truth, qucp] = columns.each_ref().map(|c| mean(c));
    writeln!(
        out,
        "{t}\nMean PST: QuMC(SRB) {srb:.3} | QuMC(truth) {truth:.3} | QuCP {qucp:.3}"
    )?;
    Ok(Vec::new())
}

/// Table II: the benchmark suite.
pub fn table2(_shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    writeln!(out, "Table II: information of benchmarks\n")?;
    let mut t = table("Benchmark | Qubits | Gates | CX | Result | Ideal output");
    let mut matching = 0;
    for b in library::all() {
        let c = b.circuit();
        let counts = [c.width(), c.gate_count(), c.cx_count()];
        matching += usize::from(counts == [b.stats.qubits, b.stats.gates, b.stats.cx]);
        let result = match b.result {
            ResultKind::Deterministic => "1",
            ResultKind::Distribution => "dist",
        };
        let ideal = ideal_outcome(&c).map_or("-".into(), |o| format!("{o:0w$b}", w = c.width()));
        let [qubits, gates, cx] = counts.map(|n| n.to_string());
        t.row_owned(vec![b.name.into(), qubits, gates, cx, result.into(), ideal]);
    }
    write!(out, "{t}")?;
    let matching = matching as f64;
    Ok(claims([("table2.rows_matching", "8", matching, Exact)]))
}

/// A plan's partitions, its total EFS under the device's full
/// ground-truth crosstalk, and the crosstalk pairs it accepted.
fn plan_quality(
    dev: &Device,
    programs: &[Circuit],
    strat: &Strategy,
) -> (Vec<Vec<usize>>, f64, usize) {
    let truth = CrosstalkTreatment::Measured(dev.crosstalk().pairs().collect());
    let (opt, allocs, _) = Pipeline::from_strategy(strat)
        .plan_unmerged(dev, programs, true)
        .expect("plan");
    let mut total = 0.0;
    for (i, alloc) in allocs.iter().enumerate() {
        let other_links: Vec<Link> = (allocs.iter().enumerate())
            .filter(|&(j, _)| j != i)
            .flat_map(|(_, a)| dev.topology().links_within(&a.qubits))
            .collect();
        let stats = CircuitStats::of(&opt[i]);
        total += efs(dev, &alloc.qubits, &stats, &other_links, &truth).score;
    }
    let accepted = allocs.iter().map(|a| a.efs.crosstalk_pairs.len()).sum();
    (
        allocs.into_iter().map(|a| a.qubits).collect(),
        total,
        accepted,
    )
}

/// Sec. IV-A: sweeping σ against QuMC's SRB-measured crosstalk.
///
/// Two convergence measures: exact partition-set agreement, and the gap
/// in *ground-truth* partition quality (the plan's EFS re-evaluated
/// with the device's true γ factors) — what "same results" means
/// operationally, and robust to ties between equally good regions.
/// Small σ accepts placements next to strongly coupled links; from
/// σ = 3 the gap is ~1 % with zero characterization jobs.
pub fn sigma(_shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    writeln!(out, "Sec. IV-A: sigma tuning against QuMC on Toronto\n")?;
    let device = ibm::toronto();
    let workloads: Vec<Vec<Circuit>> = (FIG3A_COMBOS.iter().chain(&FIG3B_COMBOS))
        .map(combo_circuits)
        .collect();
    let qumc = strategy::qumc_with_ground_truth(&device);
    let reference: Vec<_> = (workloads.iter())
        .map(|w| plan_quality(&device, w, &qumc))
        .collect();
    let mut t =
        table("sigma | partition agreement | true-EFS gap vs QuMC | crosstalk pairs accepted");
    let mut at_four = (0.0, 0);
    for sigma in [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0] {
        let (mut agree, mut gap, mut accepted) = (0, 0.0, 0);
        for (w, (qumc_partitions, qumc_quality, _)) in workloads.iter().zip(&reference) {
            let (partitions, quality, pairs) = plan_quality(&device, w, &strategy::qucp(sigma));
            agree += usize::from(&partitions == qumc_partitions);
            gap += 100.0 * (quality - qumc_quality) / qumc_quality / workloads.len() as f64;
            accepted += pairs;
        }
        if sigma == 4.0 {
            at_four = (gap, accepted);
        }
        let (agreement, pairs) = (format!("{agree}/{}", workloads.len()), accepted.to_string());
        t.row_owned(vec![fix(sigma, 1), agreement, format!("{gap:+.2}%"), pairs]);
    }
    write!(out, "{t}")?;
    let (gap, pairs) = (at_four.0, at_four.1 as f64);
    Ok(claims([
        ("sigma4.true_efs_gap_to_qumc", "0.00 %", gap, Within(2.0)),
        ("sigma4.strong_crosstalk_pairs", "0", pairs, Exact),
    ]))
}

/// Fig. 3: three simultaneous benchmarks on Toronto, QuCP vs CNA —
/// (a) JSD on the distribution benchmarks, (b) PST on the
/// deterministic ones. One three-job batch per workload and strategy.
pub fn fig3(shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    let rigs = [strategy::qucp(4.0), strategy::cna()].map(|s| Rig::new(ibm::toronto(), s, shots));
    let mut gains = Vec::new();
    for (title, combos, pst) in [
        ("Fig. 3a: JSD (lower is better)", &FIG3A_COMBOS, false),
        ("Fig. 3b: PST (higher is better)", &FIG3B_COMBOS, true),
    ] {
        let mut t = table("benchmarks | QuCP | CNA");
        let mut scores = [Vec::new(), Vec::new()];
        for combo in combos {
            let programs = combo_circuits(combo);
            for (rig, scores) in rigs.iter().zip(&mut scores) {
                let results = rig.drain(3, &programs).job_results;
                scores.push(if pst {
                    mean_pst(&results)
                } else {
                    mean_jsd(&results)
                });
            }
            let [qucp, cna] = scores.each_ref().map(|s| fix(s[s.len() - 1], 3));
            t.row_owned(vec![combo_label(combo), qucp, cna]);
        }
        let [qucp, cna] = scores.each_ref().map(|s| mean(s));
        let gain = 100.0 * (qucp - cna) / cna * if pst { 1.0 } else { -1.0 };
        writeln!(
            out,
            "{title} of 3 circuits on Toronto\n\n{t}\nMean: QuCP {qucp:.3} vs CNA {cna:.3} -> {gain:.1}% improvement\n"
        )?;
        gains.push(gain);
    }
    Ok(claims([
        ("fig3a.jsd_gain", "10.5 %", gains[0], Ratio(0.5, 2.0, CHIP)),
        ("fig3b.pst_gain", "89.9 %", gains[1], Ratio(0.1, 2.0, CHIP)),
    ]))
}

/// Fig. 4: average PST and hardware throughput versus the fidelity
/// threshold on Manhattan, one to six simultaneous copies.
pub fn fig4(shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    writeln!(out, "Fig. 4: PST and throughput vs threshold, Manhattan\n")?;
    let device = ibm::manhattan();
    let strat = strategy::qucp(4.0);
    let mut knees = Vec::new();
    let mut ends = (0.0, 0.0);
    for name in ["4mod5-v1_22", "alu-v0_27"] {
        let circuit = library::by_name(name).expect("library").circuit();
        // Thresholds that admit k = 1..6 copies: midpoints between
        // consecutive EFS differences.
        let mut diffs = vec![0.0f64];
        for k in 2..=6 {
            diffs.push(efs_difference(&device, &circuit, k, &strat).expect("efs difference"));
        }
        let mut thresholds = vec![0.0f64];
        for k in 1..6 {
            let hi = diffs.get(k + 1).copied().unwrap_or(diffs[k] + 1.0);
            thresholds.push(diffs[k].midpoint(hi.max(diffs[k] + 1e-6)));
        }
        // The measured PST is averaged over three service seeds to
        // smooth sampling noise (the admitted count and the throughput
        // are deterministic).
        let ladder =
            |s| threshold_ladder(&circuit, &thresholds, 6, shots, EXPERIMENT_SEED + 7919 * s);
        let runs: Vec<_> = (0..3u64).map(ladder).collect();
        let pst: Vec<f64> = (0..thresholds.len())
            .map(|i| runs.iter().map(|r| r[i].mean_pst).sum::<f64>() / runs.len() as f64)
            .collect();
        let mut t = table("threshold | simultaneous | throughput | avg PST | EFS difference");
        for (i, p) in runs[0].iter().enumerate() {
            let (copies, throughput) = (p.copies.to_string(), pct(p.throughput));
            let [threshold, diff] = [p.threshold, diffs[i]].map(|x| fix(x, 4));
            t.row_owned(vec![threshold, copies, throughput, fix(pst[i], 3), diff]);
        }
        writeln!(out, "{name}\n\n{t}")?;
        ends = (runs[0][0].throughput, runs[0][5].throughput);
        // "A pronounced fidelity drop once throughput exceeds ~38 %."
        let knee = runs[0]
            .iter()
            .position(|p| p.throughput > 0.38)
            .unwrap_or(0);
        knees.push(mean(&pst[knee..]) / mean(&pst[..knee]));
    }
    let [one, six] = [ends.0, ends.1].map(|t| 100.0 * t);
    Ok(claims([
        ("fig4.throughput_one_copy", "7.7 %", one, Exact),
        ("fig4.throughput_six_copies", "46.2 %", six, Exact),
        ("fig4.pst_past_knee_4mod5", "< 1.000", knees[0], Below),
        ("fig4.pst_past_knee_alu", "< 1.000", knees[1], Below),
    ]))
}

/// Table III and Fig. 5: the H2 ground state under PG (independent)
/// and QuCP + PG (parallel) on Manhattan; exact ground energy
/// −1.85728 Ha.
pub fn table3(shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    writeln!(out, "Table III: H2 under PG and QuCP+PG on Manhattan\n")?;
    let mut t = table("Experiment | process | nc | dE_base (%) | dE_theory (%) | throughput");
    let experiments = [("(a)", 8), ("(b)", 10), ("(c)", 12)].map(|(label, points)| {
        (
            label,
            vqe_h2(points, shots, EXPERIMENT_SEED + points as u64),
        )
    });
    for (label, arms) in &experiments {
        for (name, process, arm) in [
            ("PG", "independent", &arms.independent),
            ("QuCP+PG", "parallel", &arms.parallel),
        ] {
            let [de_base, de_theory] =
                [arms.delta_base(arm), arms.delta_theory(arm)].map(|d| fix(d, 1));
            let (row, nc, rate) = (
                format!("{label} {name}"),
                arm.nc.to_string(),
                pct(arm.throughput),
            );
            t.row_owned(vec![row, process.into(), nc, de_base, de_theory, rate]);
        }
    }
    writeln!(out, "{t}")?;
    for (label, arms) in &experiments {
        let (pg, parallel) = (&arms.independent.output, &arms.parallel.output);
        writeln!(
            out,
            "Fig. 5{label}: energy vs theta (nc = {})\n",
            arms.parallel.nc
        )?;
        let mut t = table("theta | simulator | PG | QuCP+PG");
        for (i, &theta) in parallel.thetas.iter().enumerate() {
            let energies = [arms.noiseless[i], pg.energies[i], parallel.energies[i]];
            let [noiseless, pg, parallel] = energies.map(|e| fix(e, 4));
            t.row_owned(vec![fix(theta, 3), noiseless, pg, parallel]);
        }
        let minima = [
            arms.noiseless_min(),
            pg.min_energy,
            parallel.min_energy,
            arms.exact,
        ];
        let [noiseless, pg, parallel, exact] = minima.map(|e| fix(e, 4));
        writeln!(
            out,
            "{t}minima: simulator {noiseless}, PG {pg}, QuCP+PG {parallel}, theory {exact}\n"
        )?;
    }
    let [a, b, c] = experiments.map(|(_, arms)| arms);
    let pg = 100.0 * a.independent.throughput;
    let rate = |arms: &VqeArms| 100.0 * arms.parallel.throughput;
    let error = |arms: &VqeArms| arms.delta_base(&arms.parallel);
    Ok(claims([
        ("table3.throughput_pg", "3.1 %", pg, Exact),
        ("table3a.throughput_qucp_pg", "49.2 %", rate(&a), Exact),
        ("table3b.throughput_qucp_pg", "61.5 %", rate(&b), Exact),
        ("table3c.throughput_qucp_pg", "73.8 %", rate(&c), Exact),
        ("table3a.de_base_qucp_pg", "< 10.0 %", error(&a), Below),
        ("table3b.de_base_qucp_pg", "< 10.0 %", error(&b), Below),
        ("table3c.de_base_qucp_pg", "< 10.0 %", error(&c), Below),
    ]))
}

/// Fig. 6: absolute error of the eight benchmarks without mitigation,
/// with the ZNE ladder (scales 1.0 / 1.5 / 2.0 / 2.5, best of Linear /
/// Poly / Richardson) as one batch (QuCP+ZNE) and fold by fold (ZNE).
/// Each error is the mean over three service seeds: which factory lands
/// closest is decided by shot noise, so one run's ratios are a draw.
pub fn fig6(shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    writeln!(out, "Fig. 6: |error| of <Z..Z> on Manhattan, 3-seed mean\n")?;
    let mut t = table("benchmark | Baseline | QuCP+ZNE | ZNE | first winner");
    let mut columns = [Vec::new(), Vec::new(), Vec::new()];
    for name in ["adder", "4mod", "fred", "alu", "lin", "qec", "var", "bell"] {
        let circuit = library::by_name(name).expect("library").circuit();
        let seed = |s: u64| (EXPERIMENT_SEED + 7919 * s) ^ (name.len() as u64) << 8;
        let runs: Vec<_> = (0..3).map(|s| zne(&circuit, shots, seed(s))).collect();
        let over_runs =
            |error: fn(&ZneArms) -> f64| runs.iter().map(error).sum::<f64>() / runs.len() as f64;
        let errors = [
            over_runs(ZneArms::baseline_error),
            over_runs(|r| r.parallel.output.error),
            over_runs(|r| r.independent.output.error),
        ];
        let [baseline, parallel, independent] = errors.map(|e| fix(e, 3));
        let winner = match &runs[0].parallel.output.factory {
            Ok(factory) => factory.to_string(),
            Err(e) => e.to_string(),
        };
        t.row_owned(vec![name.into(), baseline, parallel, independent, winner]);
        for (column, e) in columns.iter_mut().zip(errors) {
            column.push(e);
        }
    }
    let [baseline, parallel, independent] = columns.each_ref().map(|c| mean(c));
    let reductions = columns[0]
        .iter()
        .zip(&columns[1])
        .map(|(b, p)| b / p.max(1e-12));
    writeln!(
        out,
        "{t}\nMean error: Baseline {baseline:.3}, QuCP+ZNE {parallel:.3}, ZNE {independent:.3}"
    )?;
    let (gain, best) = (baseline / parallel, reductions.fold(0.0, f64::max));
    Ok(claims([
        ("fig6.mean_reduction", "2.0x", gain, Ratio(0.5, 2.0, CHIP)),
        ("fig6.best_reduction", "11.0x", best, Ratio(0.1, 2.0, DRAW)),
    ]))
}

/// Ablation A1: all six strategies on the sixteen Fig. 3 workloads —
/// how much of QuCP's advantage is noise-aware partitioning, how much
/// crosstalk treatment. QuCP / QuMC should lead on PST / JSD, MultiQC
/// (noise-aware, no crosstalk) sit between, CNA trail; serializing
/// CNA's conflicts trades crosstalk for idle decoherence.
pub fn ablation_partition(shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    writeln!(out, "Ablation A1: strategies on the 16 Fig. 3 workloads\n")?;
    let device = ibm::toronto();
    let mut t = table("strategy | mean EFS | mean PST | mean JSD | conflicts | mean swaps");
    for strat in [
        strategy::qucp(4.0),
        strategy::qumc_with_ground_truth(&device),
        strategy::multiqc(),
        strategy::qucloud(),
        strategy::cna(),
        strategy::cna_serialized(),
    ] {
        let rig = Rig::new(device.clone(), strat, shots / 4);
        let (mut results, mut conflicts) = (Vec::new(), 0);
        for combo in FIG3A_COMBOS.iter().chain(&FIG3B_COMBOS) {
            let report = rig.drain(3, &combo_circuits(combo));
            conflicts += report
                .batches
                .iter()
                .map(|b| b.conflict_count)
                .sum::<usize>();
            results.extend(report.job_results);
        }
        let n = results.len() as f64;
        let efs = results.iter().map(|r| r.result.efs).sum::<f64>() / n;
        let swaps = results.iter().map(|r| r.result.swap_count).sum::<usize>() as f64 / n;
        let [pst, jsd] = [mean_pst(&results), mean_jsd(&results)].map(|x| fix(x, 3));
        let (name, conflicts) = (rig.strategy.name.clone(), conflicts.to_string());
        t.row_owned(vec![name, fix(efs, 4), pst, jsd, conflicts, fix(swaps, 2)]);
    }
    write!(out, "{t}")?;
    Ok(Vec::new())
}

/// Measured fidelity of one mapped program: PST for a deterministic
/// benchmark, 1 − JSD otherwise, scored as the pipeline scores a run
/// ([`MappedProgram::score`]).
fn mapped_fidelity(device: &Device, original: &Circuit, mp: &MappedProgram, shots: usize) -> f64 {
    let cfg = ExecutionConfig::default()
        .with_shots(shots)
        .with_seed(EXPERIMENT_SEED ^ original.name().len() as u64);
    let scaling = NoiseScaling::uniform(mp.circuit.gate_count());
    let job = PreparedJob::prepare(&mp.circuit, &mp.layout, device, &scaling, &[], &cfg)
        .expect("mapped job");
    let logical = mp.into_logical_counts(job.run(&mp.circuit, &cfg));
    let (pst, jsd) = mp.score(job.ideal_probabilities(), &logical);
    pst.unwrap_or(1.0 - jsd)
}

/// Ablation A2: the noise-aware HA-style initial mapping against a
/// trivial (identity) placement. Every benchmark is placed alone on
/// Toronto under QuCP(σ = 4) and routed from both placements; SWAPs and
/// fidelity of each, and the two SWAP totals.
pub fn ablation_mapping(shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    writeln!(out, "Ablation A2: noise-aware vs trivial initial mapping\n")?;
    let device = ibm::toronto();
    let mut t =
        table("benchmark | swaps (HA) | swaps (trivial) | fidelity (HA) | fidelity (trivial)");
    let mut totals = [0; 2];
    let policy = PartitionPolicy::NoiseAware(CrosstalkTreatment::Sigma(4.0));
    for bench in library::all() {
        let circuit = bench.circuit();
        let allocs = allocate_partitions(&device, &[&circuit], &policy).expect("allocation");
        let partition = &allocs[0].qubits;
        let trivial: Vec<usize> = (0..circuit.width()).collect();
        let mapped = [initial_mapping(&device, partition, &circuit), trivial]
            .map(|initial| route(&device, partition, &circuit, &initial, |_| 0.0));
        let fidelity = |mp| fix(mapped_fidelity(&device, &circuit, mp, shots / 2), 3);
        let [fa, fb] = mapped.each_ref().map(fidelity);
        let swaps = mapped.each_ref().map(|mp| mp.swap_count);
        totals = [totals[0] + swaps[0], totals[1] + swaps[1]];
        let [sa, sb] = swaps.map(|s| s.to_string());
        t.row_owned(vec![bench.name.into(), sa, sb, fa, fb]);
    }
    writeln!(
        out,
        "{t}\nTotal swaps: HA {} vs trivial {}",
        totals[0], totals[1]
    )?;
    writeln!(
        out,
        "(fidelity = PST for deterministic benchmarks, 1 - JSD otherwise)"
    )?;
    Ok(Vec::new())
}

/// Ablation A5: measurement error mitigation (Bravyi et al., cited in
/// Sec. IV-D) on top of QuCP parallel execution — how much of the
/// fidelity loss is readout, and how much the tensored-inverse
/// correction recovers.
pub fn ablation_readout(shots: usize, out: &mut dyn Write) -> io::Result<Vec<Claim>> {
    writeln!(out, "Ablation A5: readout mitigation on top of QuCP\n")?;
    let rig = Rig::new(ibm::toronto(), strategy::qucp(4.0), shots);
    let mut t = table("workload | raw PST | mitigated PST | gain");
    let (mut raw, mut mitigated) = (Vec::new(), Vec::new());
    for combo in &FIG3B_COMBOS[..6] {
        let programs = combo_circuits(combo);
        let (mut raw_pst, mut mit_pst) = (0.0, 0.0);
        for (job, program) in rig.drain(3, &programs).job_results.iter().zip(&programs) {
            let target = ideal_outcome(program).expect("deterministic suite");
            raw_pst += job.result.counts.probability(target) / programs.len() as f64;
            // The tensored correction only needs per-qubit rates, which
            // are partition-wide here.
            let errors: Vec<f64> = (job.result.partition.iter())
                .map(|&q| rig.device.calibration().readout_error(q))
                .collect();
            let corrected = mitigate_distribution(&job.result.counts.distribution(), &errors)
                .expect("invertible readout");
            mit_pst += corrected[target] / programs.len() as f64;
        }
        let [before, after] = [raw_pst, mit_pst].map(|p| fix(p, 3));
        let gain = format!("{:+.3}", mit_pst - raw_pst);
        t.row_owned(vec![combo_label(combo), before, after, gain]);
        raw.push(raw_pst);
        mitigated.push(mit_pst);
    }
    let (raw, mitigated) = (mean(&raw), mean(&mitigated));
    let relative = 100.0 * (mitigated - raw) / raw;
    writeln!(
        out,
        "{t}\nMean PST {raw:.3} -> {mitigated:.3} ({relative:+.1}% relative)"
    )?;
    Ok(Vec::new())
}
