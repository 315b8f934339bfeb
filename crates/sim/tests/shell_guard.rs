//! Shell-purity guard: the sans-IO refactor moved the whole per-process
//! protocol — dedup, snapshots, anti-entropy policy, sync backoff — into
//! `pcb-broadcast::Endpoint`. The in-memory shells (the simulator's event
//! loops and the runtime's certification harness) must never grow it
//! back: any reference to the protocol's internals from a shell source
//! file means the chaos certificates and the shell have started to
//! diverge again. The daemon persists snapshots, so it names those
//! internals by necessity; the certification harness replays recorded
//! runs through its start-up and persist code instead.
//!
//! This is a source-text guard on purpose. The tokens below are internal
//! identifiers a shell has no legitimate reason to even *mention*; an
//! import or a re-implementation both trip it.
//!
//! A second rule guards the other direction: the sans-IO crates
//! (`pcb-broadcast`, `pcb-clock`) own no threads or channels, so a
//! worker pool cannot grow back beside the one sequential ingest path.
//! (Independent sweep points still parallelise in `sim::pool`.) The
//! runtime crate spawns no thread either: each process is one poll loop
//! around one endpoint.
//!
//! A third rule keeps one codec per artefact: one JSON parser
//! (`pcb_telemetry::json`), one LEB128 reader (`pcb_broadcast::wire`),
//! and one format version each for wire frames and snapshots, so a
//! second format cannot return unnoticed.
//!
//! A fourth pins how the daemon waits and what may be `unsafe`: its loop
//! blocks in `poll(2)`, never in a sleep or on one socket, and that one
//! foreign call (`runtime::ready`) and the benchmark's counting
//! allocator are the only `unsafe` code under `crates/*/src`.
//!
//! A fifth keeps the specification (`pcb_clock::spec`) apart in both
//! directions: it names nothing of its own crate, so a bug in the tuned
//! code cannot leak into the oracle it is tested against, and no source
//! under `crates/*/src` calls it, so production never runs it.

use std::fs;
use std::path::Path;

/// Identifiers that may only appear inside `pcb-broadcast`:
/// duplicate-suppression internals, durable-snapshot internals, and the
/// anti-entropy backoff machinery.
const FORBIDDEN: &[&str] =
    &["DedupFilter", "ProcessSnapshot", "encode_snapshot", "sync_in_flight", "idle_backoff"];

/// Shell sources, relative to this crate's manifest dir. These files own
/// scheduling, IO/fault interpretation, and oracles — nothing else.
const SHELLS: &[&str] = &["src/engine.rs", "src/chaos.rs", "../runtime/tests/equivalence.rs"];

/// Source directories of the sans-IO crates, and what none of their
/// files may mention.
const SANS_IO: &[&str] = &["../broadcast/src", "../clock/src"];
const CONCURRENCY: &[&str] = &["std::thread", "mpsc", "crossbeam"];

/// What no file of the runtime crate (`bin/` included) may mention: it
/// may sleep, but it may not start a second thread of control.
const SPAWNING: &[&str] =
    &["thread::spawn", "thread::Builder", "thread::scope", "mpsc", "crossbeam"];

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

/// Every `.rs` file under `crates/*/src`, recursively, as
/// `(path relative to crates/, text)`.
fn workspace_sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut paths = Vec::new();
    for krate in fs::read_dir(&crates).expect("read crates/") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut paths);
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(&crates).expect("under crates/").display().to_string();
            (rel, fs::read_to_string(&path).expect("read source"))
        })
        .collect()
}

#[test]
fn runtime_is_one_poll_loop_per_process() {
    let runtime: Vec<_> = workspace_sources()
        .into_iter()
        .filter(|(path, _)| path.starts_with("runtime/src/"))
        .collect();
    assert!(
        runtime.iter().any(|(path, _)| path == "runtime/src/daemon.rs"),
        "guard lost the daemon"
    );
    let offences = mentions(&runtime, SPAWNING);
    assert!(
        offences.is_empty(),
        "the runtime starts a thread or a channel — every runtime process is one \
         poll loop around one endpoint:\n{}",
        offences.join("\n")
    );
}

/// The link (`runtime/src/link.rs`, its test network and enumerator under
/// `link/`) is a state machine: time comes in as an argument, datagrams
/// go out into a sink. A socket, a file or a clock there would make its
/// tests depend on the host again. And the unit tests of the socket
/// shell and the daemon run in synthetic time: none reads the wall clock
/// or sleeps.
#[test]
fn the_link_does_no_io_and_unit_tests_read_no_clock() {
    let sources = workspace_sources();
    let link: Vec<_> = sources
        .iter()
        .filter(|(path, _)| path == "runtime/src/link.rs" || path.starts_with("runtime/src/link/"))
        .cloned()
        .collect();
    assert!(link.len() >= 2, "guard lost the link");
    let mut offences = mentions(
        &link,
        &["std::net", "UdpSocket", "std::fs", "Instant", "SystemTime", "thread::sleep"],
    );
    for file in ["runtime/src/udp.rs", "runtime/src/daemon.rs"] {
        let (_, text) = sources.iter().find(|(path, _)| path == file).expect("runtime source");
        let tests = text.split_once("#[cfg(test)]").map_or("", |(_, tests)| tests);
        assert!(!tests.is_empty(), "guard lost the unit tests of {file}");
        offences.extend(mentions(
            &[(file.to_string(), tests.to_string())],
            &["Instant", "SystemTime", "thread::sleep"],
        ));
    }
    assert!(
        offences.is_empty(),
        "the link does IO, or a unit test reads the wall clock — pass time in and \
         drive links over the test network (`link::net`):\n{}",
        offences.join("\n")
    );
}

/// The daemon's loop blocks in `poll(2)` until a socket or a timer needs
/// it; a fixed sleep per turn is what it replaced.
#[test]
fn daemon_waits_on_readiness_never_on_a_sleep() {
    let sources = workspace_sources();
    let (_, daemon) =
        sources.iter().find(|(path, _)| path == "runtime/src/daemon.rs").expect("daemon source");
    let offences =
        mentions(&[("runtime/src/daemon.rs".into(), daemon.clone())], &["thread::sleep"]);
    assert!(
        offences.is_empty(),
        "the daemon sleeps — wait in `ready::wait` on its sockets and next deadline:\n{}",
        offences.join("\n")
    );
}

/// Nor does the daemon block on one socket: every connection stays
/// non-blocking and waits in the same `poll(2)`. A `/metrics` socket
/// read blocking with a timeout held the whole loop for that timeout.
#[test]
fn daemon_never_blocks_on_one_socket() {
    let sources = workspace_sources();
    let (_, daemon) =
        sources.iter().find(|(path, _)| path == "runtime/src/daemon.rs").expect("daemon source");
    let offences = mentions(
        &[("runtime/src/daemon.rs".into(), daemon.clone())],
        &["set_nonblocking(false)", "set_read_timeout", "set_write_timeout"],
    );
    assert!(
        offences.is_empty(),
        "the daemon blocks on a socket — keep it non-blocking and let `ready::wait` \
         say when it is ready:\n{}",
        offences.join("\n")
    );
}

/// The files that may use the `unsafe` keyword: the `poll(2)` binding
/// and the benchmark's counting allocator.
const UNSAFE_HOMES: &[&str] = &["bench/src/alloc.rs", "runtime/src/ready.rs"];

/// Whether `line` uses the `unsafe` keyword — a block, fn, impl or
/// extern — rather than naming the `unsafe_code` lint or the word.
fn uses_unsafe(line: &str) -> bool {
    line.match_indices("unsafe").any(|(at, token)| {
        let before = line[..at].chars().next_back();
        let after = line[at + token.len()..].chars().next();
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '-')
            && after.is_some_and(|c| c == ' ' || c == '{')
    })
}

#[test]
fn unsafe_code_lives_in_two_files() {
    let mut offences = Vec::new();
    let mut seen = Vec::new();
    for (path, text) in workspace_sources() {
        for (lineno, line) in text.lines().enumerate() {
            if !uses_unsafe(line) {
                continue;
            }
            if UNSAFE_HOMES.contains(&path.as_str()) {
                seen.push(path.clone());
            } else {
                offences.push(format!("{path}:{}: {}", lineno + 1, line.trim()));
            }
        }
    }
    for home in UNSAFE_HOMES {
        assert!(seen.iter().any(|p| p == home), "the guard no longer finds the unsafe in {home}");
    }
    assert!(
        offences.is_empty(),
        "`unsafe` outside {UNSAFE_HOMES:?} — keep foreign calls behind `ready`:\n{}",
        offences.join("\n")
    );
}

/// Whether `line` masks a byte's seven value bits — the heart of any
/// LEB128 reader (`& 0x7f`, not `& 0x7ff`).
fn masks_seven_bits(line: &str) -> bool {
    let line = line.to_ascii_lowercase();
    line.match_indices("& 0x7f").any(|(at, token)| {
        !line[at + token.len()..].starts_with(|c: char| c.is_ascii_hexdigit() || c == '_')
    })
}

#[test]
fn one_codec_per_artefact() {
    let sources = workspace_sources();
    let mut offences = Vec::new();
    let mut seen = (false, false);
    for (path, text) in &sources {
        let (json, leb) = (path == "telemetry/src/json.rs", path == "broadcast/src/wire.rs");
        for (lineno, line) in text.lines().enumerate() {
            // A JSON parser dispatches on the byte (or char) that opens an object.
            if line.contains("b'{'") || line.contains("'{' =>") {
                seen.0 |= json;
                if !json {
                    offences.push(format!(
                        "{path}:{}: a second JSON parser: {}",
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
            if masks_seven_bits(line) {
                seen.1 |= leb;
                if !leb {
                    offences.push(format!(
                        "{path}:{}: a second LEB128 reader: {}",
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    assert!(seen.0 && seen.1, "the guard no longer finds the one JSON parser or LEB128 reader");
    for file in ["broadcast/src/wire.rs", "broadcast/src/snapshot.rs"] {
        let (_, text) = sources.iter().find(|(path, _)| path == file).expect("codec source");
        let versions: Vec<&str> = text
            .lines()
            .map(|l| l.trim_start().trim_start_matches("pub(crate) ").trim_start_matches("pub "))
            .filter(|l| l.starts_with("const ") && l.contains("VERSION"))
            .collect();
        if versions.len() != 1 {
            offences.push(format!("{file}: {} version constants: {versions:?}", versions.len()));
        }
    }
    assert!(
        offences.is_empty(),
        "one codec per artefact — decode through pcb_telemetry::json and \
         pcb_broadcast::wire::take_uvar, and give each format one version:\n{}",
        offences.join("\n")
    );
}

#[test]
fn the_spec_and_production_do_not_meet() {
    const SPEC: &str = "clock/src/spec.rs";
    let (spec, others): (Vec<_>, Vec<_>) =
        workspace_sources().into_iter().partition(|(path, _)| path == SPEC);
    assert_eq!(spec.len(), 1, "the guard lost {SPEC}");
    let mut offences = mentions(&spec, &["crate::", "super::"]);
    offences.extend(mentions(&others, &["spec::"]));
    assert!(
        offences.is_empty(),
        "the specification must use only std, and only tests and benches may call it:\n{}",
        offences.join("\n")
    );
}
