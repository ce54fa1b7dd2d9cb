//! `query`'s replay mode, driven through the built binary. The replay's true
//! counts come from the tenant's checkpoint, while its answers fold in the
//! writes pending in the tenant's WAL; a cardinality replay with writes
//! pending must therefore print no q-error rather than one scored against
//! stale counts.

use std::path::Path;
use std::process::Command;

/// Runs `setlearn ARGS`, asserts it succeeded and returns its stdout.
fn setlearn(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_setlearn")).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "setlearn {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn cardinality_replay_is_not_scored_while_writes_are_pending() {
    let root = std::env::temp_dir().join(format!("setlearn-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("t")).unwrap();
    let root_arg = root.to_str().unwrap();
    let sets = Path::new(root_arg).join("t").join("collection.json");
    setlearn(&[
        "generate", "--dataset", "sd", "--sets", "200", "--seed", "3",
        "--out", sets.to_str().unwrap(),
    ]);
    let train = [
        "train", "--task", "cardinality", "--root", root_arg, "--collection", "t",
        "--epochs", "3", "--refine-epochs", "1", "--max-subset", "2",
    ];
    setlearn(&train);
    let replay = ["query", "--root", root_arg, "--collection", "t", "--limit", "60",
        "--max-subset", "1"];

    // Forty more sets holding element 0: the answer for {0} grows by 40,
    // the checkpoint's count for {0} does not.
    let before = setlearn(&["query", "--root", root_arg, "--collection", "t", "--query", "0"]);
    let inserts = vec!["0"; 40].join(";");
    setlearn(&["ingest", "--root", root_arg, "--collection", "t", "--insert", &inserts]);
    let after = setlearn(&["query", "--root", root_arg, "--collection", "t", "--query", "0"]);
    assert_ne!(before, after, "the pending inserts are served");
    let pending = setlearn(&replay);
    assert!(
        pending.contains("q-error not scored: 40 writes pending (train folds them)"),
        "replay over pending writes: {pending}"
    );

    // A train folds the writes into the checkpoint: the replay scores again.
    setlearn(&train);
    let folded = setlearn(&replay);
    assert!(folded.contains("cardinality queries: mean q-error "), "{folded}");
    let _ = std::fs::remove_dir_all(&root);
}
