//! Plain-text reproducer files for minimized divergences.
//!
//! A reproducer holds the campaign configuration name plus the shrunk
//! branch-record sequence (non-branch records are inert under update-only
//! replay, so only branches are stored). Committed reproducers live under
//! `crates/check/regressions/` and are replayed by the regression tests on
//! every CI run.
//!
//! Format (`# btb-check reproducer v1`):
//! ```text
//! # btb-check reproducer v1
//! config R-BTB 2BS
//! 0x1008 CondDirect 1 0x2000
//! 0x2004 Return 0 0x0
//! ```

use btb_trace::{BranchKind, TraceRecord, MAX_CODE_ADDR};
use std::io::Write as _;
use std::path::Path;

const HEADER: &str = "# btb-check reproducer v1";

fn kind_name(kind: BranchKind) -> &'static str {
    match kind {
        BranchKind::CondDirect => "CondDirect",
        BranchKind::UncondDirect => "UncondDirect",
        BranchKind::DirectCall => "DirectCall",
        BranchKind::IndirectJump => "IndirectJump",
        BranchKind::IndirectCall => "IndirectCall",
        BranchKind::Return => "Return",
    }
}

fn kind_from_name(name: &str) -> Option<BranchKind> {
    Some(match name {
        "CondDirect" => BranchKind::CondDirect,
        "UncondDirect" => BranchKind::UncondDirect,
        "DirectCall" => BranchKind::DirectCall,
        "IndirectJump" => BranchKind::IndirectJump,
        "IndirectCall" => BranchKind::IndirectCall,
        "Return" => BranchKind::Return,
        _ => return None,
    })
}

/// Serializes a reproducer to its text form.
#[must_use]
pub fn format_repro(config_name: &str, records: &[TraceRecord]) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("config {config_name}\n"));
    for rec in records {
        let Some(kind) = rec.branch_kind() else {
            continue;
        };
        out.push_str(&format!(
            "{:#x} {} {} {:#x}\n",
            rec.pc,
            kind_name(kind),
            u8::from(rec.taken),
            rec.target
        ));
    }
    out
}

/// Parses a reproducer, returning the configuration name and the branch
/// records.
///
/// # Errors
/// Returns a description of the first malformed line.
pub fn parse_repro(text: &str) -> Result<(String, Vec<TraceRecord>), String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or("empty reproducer")?;
    if first.trim() != HEADER {
        return Err(format!("bad header {first:?}, expected {HEADER:?}"));
    }
    let mut config = None;
    let mut records = Vec::new();
    for (n, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("config ") {
            config = Some(name.trim().to_owned());
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse_addr = |s: &str| {
            let s = s.strip_prefix("0x").unwrap_or(s);
            u64::from_str_radix(s, 16).map_err(|e| format!("line {}: bad address: {e}", n + 1))
        };
        let pc = parse_addr(parts.next().ok_or(format!("line {}: missing pc", n + 1))?)?;
        let kind_s = parts
            .next()
            .ok_or(format!("line {}: missing kind", n + 1))?;
        let kind =
            kind_from_name(kind_s).ok_or(format!("line {}: unknown kind {kind_s:?}", n + 1))?;
        let taken = match parts.next() {
            Some("0") => false,
            Some("1") => true,
            other => return Err(format!("line {}: bad taken flag {other:?}", n + 1)),
        };
        let target = parse_addr(
            parts
                .next()
                .ok_or(format!("line {}: missing target", n + 1))?,
        )?;
        if parts.next().is_some() {
            return Err(format!("line {}: trailing fields", n + 1));
        }
        let rec = TraceRecord::branch(pc, kind, taken, target);
        if !rec.in_code_range() {
            return Err(format!(
                "line {}: address above {MAX_CODE_ADDR:#x} (the last MiB is reserved)",
                n + 1
            ));
        }
        records.push(rec);
    }
    let config = config.ok_or("missing `config` line")?;
    Ok((config, records))
}

/// Writes a reproducer file.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_repro(path: &Path, config_name: &str, records: &[TraceRecord]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(format_repro(config_name, records).as_bytes())
}

/// Reads and parses a reproducer file.
///
/// # Errors
/// Returns a description of the I/O or parse failure.
pub fn load_repro(path: &Path) -> Result<(String, Vec<TraceRecord>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_repro(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_kind() {
        let records = vec![
            TraceRecord::branch(0x1000, BranchKind::CondDirect, true, 0x2000),
            TraceRecord::branch(0x1004, BranchKind::UncondDirect, true, 0x3000),
            TraceRecord::branch(0x1008, BranchKind::DirectCall, true, 0x4000),
            TraceRecord::branch(0x100c, BranchKind::IndirectJump, true, 0x5000),
            TraceRecord::branch(0x1010, BranchKind::IndirectCall, true, 0x6000),
            TraceRecord::branch(0x1014, BranchKind::Return, false, 0x0),
        ];
        let text = format_repro("R-BTB 2BS", &records);
        let (config, parsed) = parse_repro(&text).expect("round trip");
        assert_eq!(config, "R-BTB 2BS");
        assert_eq!(parsed, records);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_repro("nonsense").is_err());
        let text = format!("{HEADER}\nconfig X\n0x10 NotAKind 1 0x20\n");
        assert!(parse_repro(&text).is_err());
        let text = format!("{HEADER}\n0x10 Return 1 0x20\n");
        assert!(parse_repro(&text).is_err(), "missing config line");
    }

    #[test]
    fn rejects_code_at_the_top_of_the_address_space() {
        // Used to hang `btb-check replay` in the B-BTB block tracker.
        let text =
            format!("{HEADER}\nconfig B-BTB 2BS Splt\n0xfffffffffffffffc UncondDirect 1 0x1000\n");
        let err = parse_repro(&text).unwrap_err();
        assert!(err.starts_with("line 3: address above"), "{err}");
        let text =
            format!("{HEADER}\nconfig B-BTB 2BS Splt\n0x1000 UncondDirect 1 0xfffffffffff00000\n");
        assert!(parse_repro(&text).is_err(), "target in the last MiB");
    }
}
