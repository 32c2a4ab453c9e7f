//! The paper, regenerated: every table, figure and ablation of
//! [`qucp_bench::repro`] from one binary.
//!
//! ```text
//! cargo run --release -p qucp-bench --bin repro                # every section
//! cargo run --release -p qucp-bench --bin repro -- fig3 table3 # some sections
//! cargo run --release -p qucp-bench --bin repro -- --ledger    # REPRO.json
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use qucp_bench::repro::{ledger, ledger_json, SECTIONS, TABLES};
use qucp_bench::PAPER_SHOTS;

fn main() -> io::Result<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    if args == ["--ledger"] {
        write!(out, "{}", ledger_json(&ledger(PAPER_SHOTS)?))?;
        return Ok(ExitCode::SUCCESS);
    }
    let sections = || SECTIONS.iter().chain(&TABLES);
    if let Some(unknown) = args.iter().find(|a| sections().all(|(name, _)| name != a)) {
        let names: Vec<&str> = sections().map(|(name, _)| *name).collect();
        eprintln!("unknown section `{unknown}`; usage: repro [--ledger | section...]");
        eprintln!("sections: {}", names.join(" "));
        return Ok(ExitCode::from(2));
    }
    let mut failed = 0;
    for (name, section) in sections() {
        if args.is_empty() || args.iter().any(|a| a == name) {
            let claims = section(PAPER_SHOTS, &mut out)?;
            writeln!(out)?;
            for c in claims {
                let (id, paper, ours, verdict) = (c.id, c.paper, c.ours_text(), c.verdict());
                writeln!(out, "claim {id}: paper {paper}, ours {ours} -> {verdict}")?;
                failed += usize::from(!c.passes());
            }
            writeln!(out)?;
        }
    }
    if failed > 0 {
        eprintln!("{failed} paper claim(s) fail; `repro --ledger` has the rules");
    }
    Ok(ExitCode::from(u8::from(failed > 0)))
}
