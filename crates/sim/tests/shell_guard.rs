//! Shell-purity guard: the sans-IO refactor moved the whole per-process
//! protocol — dedup, snapshots, anti-entropy policy, sync backoff — into
//! `pcb-broadcast::Endpoint`. The shells (the simulator's event loop and
//! the runtime's node loop) must never grow it back: any reference to the
//! protocol's internals from a shell source file means the chaos
//! certificates and the live path have started to diverge again.
//!
//! This is a source-text guard on purpose. The tokens below are internal
//! identifiers a shell has no legitimate reason to even *mention*; an
//! import or a re-implementation both trip it.
//!
//! A second rule guards the other direction: the sans-IO crates
//! (`pcb-broadcast`, `pcb-clock`) own no threads or channels, so a
//! worker pool cannot grow back beside the one sequential ingest path.
//! (Independent sweep points still parallelise in `sim::pool`.)

use std::fs;
use std::path::Path;

/// Identifiers that may only appear inside `pcb-broadcast`:
/// duplicate-suppression internals, durable-snapshot internals, and the
/// anti-entropy backoff machinery.
const FORBIDDEN: &[&str] =
    &["DedupFilter", "ProcessSnapshot", "encode_snapshot", "sync_in_flight", "idle_backoff"];

/// Shell sources, relative to this crate's manifest dir. These files own
/// scheduling, IO/fault interpretation, and oracles — nothing else.
const SHELLS: &[&str] =
    &["src/engine.rs", "src/chaos.rs", "../runtime/src/node.rs", "../runtime/src/loopback.rs"];

/// Source directories of the sans-IO crates, and what none of their
/// files may mention.
const SANS_IO: &[&str] = &["../broadcast/src", "../clock/src"];
const CONCURRENCY: &[&str] = &["std::thread", "mpsc", "crossbeam"];

/// Every `.rs` file directly under `dir`, as `(path, text)`.
fn sources(dir: &Path) -> Vec<(String, String)> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("guard cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .map(|path| {
            let text = fs::read_to_string(&path).expect("read source");
            (path.display().to_string(), text)
        })
        .collect()
}

/// One line per place a file in `files` mentions one of `tokens`.
fn mentions(files: &[(String, String)], tokens: &[&str]) -> Vec<String> {
    let mut found = Vec::new();
    for (path, text) in files {
        for (lineno, line) in text.lines().enumerate() {
            for token in tokens {
                if line.contains(token) {
                    found.push(format!("{path}:{}: `{token}` in: {}", lineno + 1, line.trim()));
                }
            }
        }
    }
    found
}

#[test]
fn shells_do_not_regrow_protocol_logic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let shells: Vec<(String, String)> = SHELLS
        .iter()
        .map(|rel| {
            let path = root.join(rel);
            let text = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("guard cannot read {}: {e}", path.display()));
            ((*rel).to_string(), text)
        })
        .collect();
    let offences = mentions(&shells, FORBIDDEN);
    assert!(
        offences.is_empty(),
        "shell source references protocol internals — move that logic into \
         pcb-broadcast::Endpoint instead:\n{}",
        offences.join("\n")
    );
}

#[test]
fn guard_token_list_is_still_meaningful() {
    // If the protocol crate renames these internals the guard silently
    // guards nothing, so require each token to still exist there.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let corpus: String =
        sources(&root.join("../broadcast/src")).into_iter().map(|(_, text)| text).collect();
    for token in FORBIDDEN {
        assert!(
            corpus.contains(token),
            "guard token `{token}` no longer exists in pcb-broadcast — update the guard list"
        );
    }
}

#[test]
fn sans_io_crates_own_no_threads_or_channels() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offences = Vec::new();
    for dir in SANS_IO {
        let files = sources(&root.join(dir));
        assert!(!files.is_empty(), "guard found no sources under {dir}");
        offences.extend(mentions(&files, CONCURRENCY));
    }
    assert!(
        offences.is_empty(),
        "a sans-IO crate mentions threads or channels — one node scales by one \
         endpoint per core, run by its shell:\n{}",
        offences.join("\n")
    );
}
