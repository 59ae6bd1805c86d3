//! End-to-end audit tests: each seeded fixture tree must trip exactly
//! its analysis, the clean tree must pass, and the real workspace must
//! pass — which keeps the `lint/*.allow` audit ratchets honest under
//! `cargo test`. Also covers the JSON report round-trip and the
//! ratchet-direction check CI runs.

use std::path::PathBuf;

fn fixture(tree: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(tree)
}

fn kinds(report: &xtask::allow::RuleReport) -> Vec<&'static str> {
    report.violations.iter().map(|v| v.kind).collect()
}

#[test]
fn charge_model_fixture_fires() {
    let out = xtask::run_audit(&fixture("audit-violations")).unwrap();
    let r = out.family("charge-model");
    // `good_bw` is charged and `name` is descriptive; `tuner_only` is
    // read by the tuner alone, which is no charge site, so it is as dead
    // as `dead_cost`. Two findings exactly, keyed per field.
    assert_eq!(kinds(r), vec!["dead-const"; 2], "{:?}", r.violations);
    let files: Vec<&str> = r.violations.iter().map(|v| v.file.as_str()).collect();
    assert!(
        files.contains(&"crates/gpusim/src/spec.rs::tuner_only"),
        "{files:?}"
    );
    assert!(
        files.contains(&"crates/gpusim/src/spec.rs::dead_cost"),
        "{files:?}"
    );
    assert!(!out.ok());
}

#[test]
fn fault_reach_fixture_fires() {
    let out = xtask::run_audit(&fixture("audit-violations")).unwrap();
    let r = out.family("fault-reach");
    // `bad_charge` is reachable with no consult on the path;
    // `inner_ok` sits below the consulting hop and must stay clean.
    assert_eq!(kinds(r), vec!["unguarded-charge"], "{:?}", r.violations);
    assert_eq!(r.violations[0].file, "crates/netsim/src/bad.rs");
    assert!(r.violations[0].msg.contains("bad_charge"));
    assert!(!r.violations.iter().any(|v| v.msg.contains("inner_ok")));
}

#[test]
fn counter_live_fixture_fires() {
    let out = xtask::run_audit(&fixture("audit-violations")).unwrap();
    let r = out.family("counter-live");
    let ks = kinds(r);
    for kind in ["unregistered-name", "dead-name", "metrics-chain"] {
        assert!(ks.contains(&kind), "missing {kind} in {ks:?}");
    }
    assert!(r
        .violations
        .iter()
        .any(|v| v.kind == "dead-name" && v.file.ends_with("::DEAD_NAME")));
}

#[test]
fn unsafe_fixture_fires() {
    let out = xtask::run_audit(&fixture("audit-violations")).unwrap();
    let ks = kinds(out.family("unsafe"));
    for kind in ["unsanctioned-unsafe", "missing-safety"] {
        assert!(ks.contains(&kind), "missing {kind} in {ks:?}");
    }
}

#[test]
fn clean_fixture_tree_is_clean() {
    let out = xtask::run_audit(&fixture("audit-clean")).unwrap();
    assert!(out.ok(), "clean tree failed:\n{}", out.render_text());
}

#[test]
fn workspace_audit_is_clean() {
    let root = xtask::workspace_root();
    let out = xtask::run_audit(&root).unwrap();
    assert!(
        out.files_scanned > 40 && out.fns_indexed > 500,
        "expected the simulator crates in the graph, got {} files / {} fns",
        out.files_scanned,
        out.fns_indexed
    );
    assert!(out.ok(), "workspace audit failed:\n{}", out.render_text());
}

#[test]
fn audit_json_report_round_trips() {
    let out = xtask::run_audit(&fixture("audit-violations")).unwrap();
    let text = xtask::report::render_json(&out.reports);
    let v = xtask::report::json::parse(&text).expect("report JSON parses");
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(out.ok()));
    let rules = v.get("rules").and_then(|r| r.as_obj()).unwrap();
    for family in xtask::audit::AUDIT_FAMILIES {
        let rep = rules
            .get(family)
            .unwrap_or_else(|| panic!("{family} missing"));
        let parsed = rep.get("violations").and_then(|a| a.as_arr()).unwrap();
        assert_eq!(parsed.len(), out.family(family).violations.len());
    }
}

#[test]
fn ratchet_accepts_tightening_and_known_new_families() {
    let known = ["panic", "unsafe"];
    let errs = xtask::allow::ratchet_check(
        &fixture("ratchet/base"),
        &fixture("ratchet/tightened"),
        &known,
    )
    .unwrap();
    assert!(errs.is_empty(), "{errs:?}");
    // A family this binary defines may introduce its first allow file.
    let errs =
        xtask::allow::ratchet_check(&fixture("ratchet/base"), &fixture("ratchet/newfam"), &known)
            .unwrap();
    assert!(errs.is_empty(), "{errs:?}");
}

#[test]
fn ratchet_rejects_loosening_and_unknown_families() {
    let known = ["panic", "unsafe"];
    let errs = xtask::allow::ratchet_check(
        &fixture("ratchet/base"),
        &fixture("ratchet/loosened"),
        &known,
    )
    .unwrap();
    // One grown count (a.rs 2→3) and one new entry (c.rs).
    assert_eq!(errs.len(), 2, "{errs:?}");
    let errs =
        xtask::allow::ratchet_check(&fixture("ratchet/base"), &fixture("ratchet/rogue"), &known)
            .unwrap();
    assert_eq!(errs.len(), 1, "{errs:?}");
}
