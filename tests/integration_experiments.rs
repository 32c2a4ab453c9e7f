//! Integration tests asserting the *shape* of every paper experiment at
//! reduced scale — who wins, what grows, where the structure lands —
//! through the same `qucp_bench::repro` sections the `repro` binary
//! prints, and the committed claim ledger they produce at full scale.

use std::io::sink;

use qucp_bench::repro::{self, Claim};
use qucp_bench::runner::{threshold_ladder, zne};
use qucp_circuit::library;
use qucp_core::{efs_difference, parallel_count_for_threshold, strategy};
use qucp_device::ibm;
use qucp_srb::{srb_groups, srb_overhead};

/// The claim `id` of a section's ledger rows.
fn claim<'a>(claims: &'a [Claim], id: &str) -> &'a Claim {
    claims
        .iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no claim `{id}`"))
}

fn assert_passes(claims: &[Claim], ids: &[&str]) {
    for id in ids {
        let c = claim(claims, id);
        assert!(
            c.passes(),
            "{id}: paper {}, ours {}",
            c.paper,
            c.ours_text()
        );
    }
}

#[test]
fn table1_shape() {
    // Overheads grow with chip size; the job formula matches the paper.
    let claims = repro::table1(0, &mut sink()).unwrap();
    assert!(claims.iter().all(Claim::passes), "{claims:?}");
    let toronto = srb_overhead(&ibm::toronto(), 5);
    let manhattan = srb_overhead(&ibm::manhattan(), 5);
    assert_eq!(claim(&claims, "table1.toronto_links").ours, 28.0);
    assert_eq!(claim(&claims, "table1.manhattan_links").ours, 72.0);
    assert_eq!(toronto.jobs, 3 * toronto.groups * 5);
    assert_eq!(manhattan.jobs, 3 * manhattan.groups * 5);
    assert!(manhattan.jobs >= toronto.jobs);
    // Grouping is far below the pair count (the whole point).
    assert!(toronto.groups < toronto.one_hop_pairs);
    assert_eq!(srb_groups(ibm::toronto().topology()).len(), toronto.groups);
}

#[test]
fn sigma_four_matches_qumc_quality() {
    // The sigma-tuning claim at experiment scale: with sigma = 4, QuCP's
    // chosen partitions are never next to strongly coupled links, like
    // QuMC's (checked through the accepted-crosstalk-pairs count), and
    // their ground-truth quality is QuMC's to within 2 %.
    let claims = repro::sigma(0, &mut sink()).unwrap();
    assert_eq!(claim(&claims, "sigma4.strong_crosstalk_pairs").ours, 0.0);
    assert!(claims.iter().all(Claim::passes), "{claims:?}");
}

#[test]
fn fig3_shape_qucp_beats_cna_on_aggregate() {
    // Reduced Fig. 3: fewer shots. QuCP must beat CNA on aggregate (the
    // paper's headline result), on JSD and on PST.
    let claims = repro::fig3(1024, &mut sink()).unwrap();
    for id in ["fig3a.jsd_gain", "fig3b.pst_gain"] {
        let gain = claim(&claims, id).ours;
        assert!(gain > 0.0, "{id}: QuCP should beat CNA, gain {gain} %");
    }
}

#[test]
fn fig4_shape_threshold_monotone() {
    let device = ibm::manhattan();
    let circuit = library::by_name("4mod5-v1_22").unwrap().circuit();
    let strat = strategy::qucp(4.0);
    // EFS difference is monotone in k.
    let mut last = 0.0;
    for k in 1..=6 {
        let d = efs_difference(&device, &circuit, k, &strat).unwrap();
        assert!(d >= last - 1e-12, "difference not monotone at k={k}");
        last = d;
    }
    // Admission count is monotone in the threshold, 1 at zero, 6 at inf.
    assert_eq!(
        parallel_count_for_threshold(&device, &circuit, 0.0, 6, &strat).unwrap(),
        1
    );
    assert_eq!(
        parallel_count_for_threshold(&device, &circuit, f64::INFINITY, 6, &strat).unwrap(),
        6
    );
    // The service's head-only gate admits exactly those counts, and
    // throughput grows with the admitted count.
    let points = threshold_ladder(&circuit, &[0.0, 0.05, 1e9], 6, 256, 1);
    assert_eq!((points[0].copies, points[2].copies), (1, 6));
    assert!(points.windows(2).all(|w| w[0].copies <= w[1].copies));
    assert!(points
        .windows(2)
        .all(|w| w[0].throughput <= w[1].throughput + 1e-12));
    // The section's ladder lands on the paper's throughputs exactly.
    let claims = repro::fig4(64, &mut sink()).unwrap();
    assert_passes(
        &claims,
        &["fig4.throughput_one_copy", "fig4.throughput_six_copies"],
    );
}

#[test]
fn table3_shape_vqe() {
    let claims = repro::table3(1024, &mut sink()).unwrap();
    // Structure: nc = 16 / 20 / 24 at 49.2 / 61.5 / 73.8 %, 3.1 % alone.
    assert_passes(
        &claims,
        &[
            "table3.throughput_pg",
            "table3a.throughput_qucp_pg",
            "table3b.throughput_qucp_pg",
            "table3c.throughput_qucp_pg",
        ],
    );
    // Error regime: the parallel process lands within ~20% of the
    // baseline minimum at reduced shots (the paper reports <10% on
    // hardware, which the ledger holds it to at 8192 shots).
    for id in [
        "table3a.de_base_qucp_pg",
        "table3b.de_base_qucp_pg",
        "table3c.de_base_qucp_pg",
    ] {
        assert!(claim(&claims, id).ours < 20.0, "{id}");
    }
}

#[test]
fn fig6_shape_zne() {
    // Reduced Fig. 6: mitigation (either form) must beat the unmitigated
    // baseline on aggregate. QuCP+ZNE over the section's eight
    // benchmarks and three seeds — its margin is thin (1.2x), and one
    // benchmark at one seed is a draw of which factory lands closest.
    let claims = repro::fig6(2048, &mut sink()).unwrap();
    let reduction = claim(&claims, "fig6.mean_reduction").ours;
    assert!(
        reduction > 1.0,
        "QuCP+ZNE should beat baseline: {reduction}x"
    );
    // Independent ZNE on two benchmarks.
    let mut baseline = 0.0;
    let mut independent = 0.0;
    for name in ["fredkin", "alu-v0_27"] {
        let circuit = library::by_name(name).unwrap().circuit();
        let arms = zne(&circuit, 2048, 99);
        baseline += arms.baseline_error();
        independent += arms.independent.output.error;
    }
    assert!(
        independent < baseline,
        "ZNE {independent} should beat baseline {baseline}"
    );
}

#[test]
fn queue_motivation_shape() {
    // The motivation served: Melbourne at 26.7 % and 53.3 %, the pair's
    // runtime halved.
    let claims = repro::queue(64, &mut sink()).unwrap();
    assert!(claims.iter().all(Claim::passes), "{claims:?}");
}

/// The string literals of a JSON document whose values are all strings.
fn json_strings(text: &str) -> Vec<String> {
    let mut strings = Vec::new();
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '"' {
            continue;
        }
        let mut s = String::new();
        loop {
            match chars.next().expect("unterminated string") {
                '"' => break,
                '\\' => s.push(chars.next().expect("dangling escape")),
                c => s.push(c),
            }
        }
        strings.push(s);
    }
    strings
}

#[test]
fn the_committed_ledger_has_every_claim_passing() {
    // `REPRO.json` is what `repro --ledger` printed at 8192 shots; CI
    // regenerates and diffs it. Here: its shape, and that no committed
    // verdict is a failure.
    let text = include_str!("../REPRO.json");
    let strings = json_strings(text);
    let keys = ["id", "paper", "ours", "rule", "verdict"];
    assert_eq!(
        strings.len() % (2 * keys.len()),
        0,
        "rows of five string fields"
    );
    let rows: Vec<Vec<&str>> = strings
        .chunks(2 * keys.len())
        .map(|row| {
            let (names, values): (Vec<_>, Vec<_>) = row
                .chunks(2)
                .map(|kv| (kv[0].as_str(), kv[1].as_str()))
                .unzip();
            assert_eq!(names, keys);
            values
        })
        .collect();
    assert!(rows.len() >= 15, "only {} claim rows", rows.len());
    let mut ids: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), rows.len(), "claim ids must be unique");
    for row in &rows {
        assert_eq!(
            row[4], "pass",
            "claim {} is committed as {}",
            row[0], row[4]
        );
    }
    for section in [
        "sec2a", "table1", "table2", "sigma4", "fig3a", "fig3b", "fig4", "table3a", "fig6",
    ] {
        assert!(
            ids.iter().any(|id| id.starts_with(section)),
            "no {section} claim"
        );
    }
    // The file is the ledger's own rendering: one row a line.
    assert_eq!(text.lines().count(), rows.len() + 2);
}

#[test]
fn the_sections_the_ledger_skips_return_no_claim() {
    // `repro --ledger` walks `SECTIONS` alone; plain `repro` also prints
    // `TABLES`, whose sections check no claim at any shot budget.
    for (name, section) in repro::TABLES {
        let claims = section(64, &mut sink()).unwrap();
        assert!(claims.is_empty(), "{name} returns {} claims", claims.len());
        assert!(repro::SECTIONS
            .iter()
            .all(|(claiming, _)| *claiming != name));
    }
}

#[test]
fn fig2_scores_the_srb_estimate_on_the_ground_truths_significant_pairs() {
    // The ground truth draws weak pairs with γ up to 1.8, so a fixed
    // γ > 1.5 cut would mix weak pairs into the "strong" average; the
    // section averages over `significant_pairs()` and says how many.
    let truth = ibm::toronto().crosstalk().significant_pairs().len();
    assert!(truth > 0);
    let mut out = Vec::new();
    let claims = repro::fig2(64, &mut out).unwrap();
    assert!(claims.is_empty());
    let text = String::from_utf8(out).unwrap();
    assert!(
        text.contains(&format!("true gamma on the {truth} strong pairs: ")),
        "{text}"
    );
    // The QuMC table that follows reads the same ground truth.
    assert!(
        text.contains(&format!("(ground truth has {truth})")),
        "{text}"
    );
}
