//! CI differential smoke: the verification memo caches must be
//! invisible to every simulated result. Runs the `table1` binary on a
//! shrunk grid with memoization force-disabled via `TURQUOIS_NO_MEMO=1`
//! and with it enabled, and asserts (a) the stdout bytes are identical
//! with the hot-path stats line off, and (b) with the stats line on,
//! both modes report the same cache bookkeeping. Any divergence means a
//! cache leaked into simulated time, a verdict, or the rendered
//! statistics, or that one mode took a different lookup path.

use std::process::Command;

/// Runs the `table1` binary on a shrunk grid with memoization disabled
/// or enabled, and with or without the hot-path stats line, and
/// returns its stdout.
fn run_table1(no_memo: bool, hotpath_stats: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table1"));
    cmd.env("TURQUOIS_SIZES", "4,7")
        .env("TURQUOIS_REPS", "2")
        .env("TURQUOIS_TIME_LIMIT", "120")
        // Keep the child's host-timing JSON out of the source tree.
        .env(
            "TURQUOIS_BENCH_JSON",
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_memo_differential.json"),
        );
    if hotpath_stats {
        cmd.env("TURQUOIS_HOTPATH_STATS", "1");
    } else {
        cmd.env_remove("TURQUOIS_HOTPATH_STATS");
    }
    if no_memo {
        cmd.env("TURQUOIS_NO_MEMO", "1");
    } else {
        cmd.env_remove("TURQUOIS_NO_MEMO");
    }
    let out = cmd.output().expect("table1 runs");
    assert!(
        out.status.success(),
        "table1 (no_memo={no_memo}, hotpath_stats={hotpath_stats}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 table")
}

/// The `verifies`, `cache-hits` and `cache-misses` fields of every
/// hot-path stats line in `table`. `sha-blocks` is left out: disabled
/// memoization re-executes the hashing, so it legitimately differs.
fn cache_bookkeeping(table: &str) -> Vec<(String, u64)> {
    let fields: Vec<(String, u64)> = table
        .lines()
        .filter_map(|line| line.split_once(" | hotpath: "))
        .flat_map(|(_, stats)| stats.split_whitespace())
        .filter_map(|field| field.split_once('='))
        .filter(|(name, _)| matches!(*name, "verifies" | "cache-hits" | "cache-misses"))
        .map(|(name, value)| (name.to_string(), value.parse().expect("integer counter")))
        .collect();
    assert!(!fields.is_empty(), "no hotpath stats line in:\n{table}");
    fields
}

#[test]
fn table1_output_is_byte_identical_with_and_without_memoization() {
    let disabled = run_table1(true, false);
    let enabled = run_table1(false, false);
    assert!(
        !enabled.is_empty(),
        "table1 produced no output — smoke setup is broken"
    );
    assert_eq!(
        disabled, enabled,
        "memoization changed table1's stdout:\n--- no-memo ---\n{disabled}\n--- memo ---\n{enabled}"
    );

    // The hit/miss bookkeeping is mode-independent by construction; any
    // drift here means one mode took a different code path.
    let disabled = cache_bookkeeping(&run_table1(true, true));
    let enabled = cache_bookkeeping(&run_table1(false, true));
    assert_eq!(disabled, enabled, "cache bookkeeping diverged between memo modes");
}
