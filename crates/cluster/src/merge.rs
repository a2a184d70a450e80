//! Merged-result digests — the byte-identity comparator.
//!
//! A cluster sweep is correct when its merged cache replays exactly the
//! reports a single-process [`SweepEngine`] run produces. Raw cache files
//! cannot be `cmp`-ed directly (they embed `wall_seconds`, which is
//! machine- and run-dependent), so the comparator hashes each unit's
//! [`RunReport::stable_json`] — the deterministic projection the serve
//! layer already uses for byte-identity — and emits one sorted
//! `"<slug> <hash>"` line per unit. Two digests from byte-identical
//! result sets are byte-identical files, whatever order or process
//! produced them.
//!
//! [`RunReport::stable_json`]: regless_sim::RunReport::stable_json

use crate::assignment::fnv1a64;
use crate::WorkUnit;
use regless_bench::eval_gpu;
use regless_bench::sweep::SweepEngine;

/// One digest line per unit, sorted: `"<cache slug> <16-hex hash of
/// stable_json>"`. Units are resolved through `engine` *without
/// simulating* ([`SweepEngine::lookup`]).
///
/// # Errors
///
/// Returns the slugs of units the engine has no result for — a digest of
/// an incomplete sweep would silently compare unequal for the wrong
/// reason.
pub fn digest_lines(engine: &SweepEngine, units: &[WorkUnit]) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::with_capacity(units.len());
    let mut missing = Vec::new();
    for unit in units {
        match engine.lookup(&unit.bench, unit.design, eval_gpu()) {
            Some(report) => {
                let stable = report.stable_json().to_string_compact();
                lines.push(format!(
                    "{} {:016x}",
                    unit.slug(),
                    fnv1a64(stable.as_bytes())
                ));
            }
            None => missing.push(unit.slug()),
        }
    }
    if !missing.is_empty() {
        missing.sort();
        return Err(missing);
    }
    lines.sort();
    lines.dedup();
    Ok(lines)
}

/// Render digest lines as the file CI `cmp`s (one line per unit, trailing
/// newline).
pub fn render_digest(lines: &[String]) -> String {
    let mut out = String::new();
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_bench::sweep::SweepMode;
    use regless_bench::DesignKind;
    use std::sync::Arc;

    #[test]
    fn digests_are_order_independent_and_detect_gaps() {
        let engine = SweepEngine::with_config(None, SweepMode::Normal);
        let a = WorkUnit::new("rodinia/nn", DesignKind::Baseline);
        let b = WorkUnit::new("rodinia/nn", DesignKind::regless_512());

        // Nothing merged yet: both units are reported missing, sorted.
        let err = digest_lines(&engine, &[a.clone(), b.clone()]).unwrap_err();
        assert_eq!(err.len(), 2);
        assert!(err.windows(2).all(|w| w[0] <= w[1]));

        let eval = eval_gpu();
        let ra = engine.run(&a.bench, a.design, eval);
        engine.insert(&a.bench, a.design, eval, Arc::clone(&ra));
        let rb = engine.run(&b.bench, b.design, eval);
        engine.insert(&b.bench, b.design, eval, Arc::clone(&rb));

        let fwd = digest_lines(&engine, &[a.clone(), b.clone()]).unwrap();
        let rev = digest_lines(&engine, &[b.clone(), a.clone()]).unwrap();
        assert_eq!(fwd, rev, "digest is order independent");
        assert_eq!(fwd.len(), 2);
        for line in &fwd {
            let (slug, hash) = line.split_once(' ').unwrap();
            assert!(slug.ends_with(".json"), "{line}");
            assert_eq!(hash.len(), 16, "{line}");
        }
        let text = render_digest(&fwd);
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));

        // A different report for the same unit changes the digest — the
        // comparator actually looks at report bytes, not just presence.
        let other = SweepEngine::with_config(None, SweepMode::Normal);
        other.insert(&a.bench, a.design, eval, rb);
        other.insert(&b.bench, b.design, eval, ra);
        let swapped = digest_lines(&other, &[a, b]).unwrap();
        assert_ne!(fwd, swapped);
    }
}
