//! Typo guard for `TURQUOIS_*` environment knobs.
//!
//! Every experiment binary calls [`warn_unknown_env_vars`] at startup.
//! A misspelled knob (`TURQUOIS_REPETITIONS`, `TURQUOIS_SIZE`, …) is
//! silently ignored by `std::env::var` lookups, which turns a typo into
//! a full-length default run — expensive and confusing. The guard
//! prints one stderr warning per unrecognized `TURQUOIS_`-prefixed
//! variable instead; it never aborts, because an unknown variable may
//! belong to a newer or older build of the same binaries.

/// Every `TURQUOIS_*` variable some binary or test in this workspace
/// reads. Keep in sync when adding a knob; the
/// `known_list_matches_source` test greps the workspace to enforce it.
pub const KNOWN_ENV_VARS: &[&str] = &[
    "TURQUOIS_BENCH_JSON",
    "TURQUOIS_CHECK_SCHEDULES",
    "TURQUOIS_FM_FORCE_STALL",
    "TURQUOIS_HOTPATH_STATS",
    "TURQUOIS_NO_MEMO",
    "TURQUOIS_PARTITION_JSON",
    "TURQUOIS_REPS",
    "TURQUOIS_SABOTAGE",
    "TURQUOIS_SIZES",
    "TURQUOIS_THREADS",
    "TURQUOIS_TIME_LIMIT",
];

/// Warns on stderr about any `TURQUOIS_*` environment variable that no
/// binary in this workspace reads, and returns the offending names.
/// Call once at the top of each experiment binary's `main`.
pub fn warn_unknown_env_vars() -> Vec<String> {
    let mut unknown: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TURQUOIS_") && !KNOWN_ENV_VARS.contains(&k.as_str()))
        .collect();
    unknown.sort();
    for name in &unknown {
        eprintln!(
            "warning: unrecognized environment variable {name} is ignored \
             (known TURQUOIS_* knobs: {})",
            KNOWN_ENV_VARS.join(", ")
        );
    }
    unknown
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_typos_and_accepts_known_knobs() {
        // Set-and-inspect in one test: env mutation is process-global,
        // so keep every case in a single #[test] to avoid races with
        // parallel test threads touching TURQUOIS_* variables. The memo
        // switch reads its variable once; latch it first so setting
        // TURQUOIS_NO_MEMO here cannot leak into other tests.
        turquois_crypto::telemetry::memo_enabled();
        std::env::set_var("TURQUOIS_REPETITIONS", "50");
        std::env::set_var("TURQUOIS_FM_FORCE_STAL", "1");
        std::env::set_var("TURQUOIS_REPS", "2");
        std::env::set_var("TURQUOIS_FM_FORCE_STALL", "1");
        std::env::set_var("TURQUOIS_PARTITION_JSON", "/tmp/bp.json");
        std::env::set_var("TURQUOIS_NO_MEMO", "1");
        std::env::set_var("TURQUOIS_NO_MEMOS", "1");
        let unknown = warn_unknown_env_vars();
        std::env::remove_var("TURQUOIS_REPETITIONS");
        std::env::remove_var("TURQUOIS_FM_FORCE_STAL");
        std::env::remove_var("TURQUOIS_REPS");
        std::env::remove_var("TURQUOIS_FM_FORCE_STALL");
        std::env::remove_var("TURQUOIS_PARTITION_JSON");
        std::env::remove_var("TURQUOIS_NO_MEMO");
        std::env::remove_var("TURQUOIS_NO_MEMOS");
        assert!(unknown.contains(&"TURQUOIS_REPETITIONS".to_string()));
        assert!(unknown.contains(&"TURQUOIS_FM_FORCE_STAL".to_string()));
        assert!(unknown.contains(&"TURQUOIS_NO_MEMOS".to_string()));
        assert!(!unknown.contains(&"TURQUOIS_REPS".to_string()));
        assert!(!unknown.contains(&"TURQUOIS_FM_FORCE_STALL".to_string()));
        assert!(!unknown.contains(&"TURQUOIS_PARTITION_JSON".to_string()));
        assert!(!unknown.contains(&"TURQUOIS_NO_MEMO".to_string()));
    }

    #[test]
    fn known_list_is_sorted_and_deduped() {
        let mut sorted = KNOWN_ENV_VARS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, KNOWN_ENV_VARS, "keep KNOWN_ENV_VARS sorted");
    }

    /// Every `"TURQUOIS_*"` string literal in the workspace's Rust
    /// sources (this file's deliberate typos aside) names a known knob,
    /// and every known knob is read somewhere.
    #[test]
    fn known_list_matches_source() {
        fn scan(dir: &std::path::Path, found: &mut std::collections::BTreeSet<String>) {
            for entry in std::fs::read_dir(dir).expect("readable source dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    scan(&path, found);
                } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with(file!()) {
                    let text = std::fs::read_to_string(&path).expect("utf-8 source");
                    for (i, _) in text.match_indices("\"TURQUOIS_") {
                        let name: String = text[i + 1..]
                            .chars()
                            .take_while(|c| {
                                c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_'
                            })
                            .collect();
                        if text[i + 1 + name.len()..].starts_with('"') {
                            found.insert(name);
                        }
                    }
                }
            }
        }
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut found = std::collections::BTreeSet::new();
        for dir in ["crates", "src", "tests", "examples"] {
            scan(&root.join(dir), &mut found);
        }
        let known: std::collections::BTreeSet<String> =
            KNOWN_ENV_VARS.iter().map(|s| s.to_string()).collect();
        assert_eq!(found, known, "KNOWN_ENV_VARS out of sync with the sources");
    }
}
