//! Hostile bytes at the RPC JSON line — what any local client can send a
//! daemon, up to its 1 MiB line cap. `json::parse` must be total (a
//! value or an error, never a panic) and must claim heap in proportion to
//! the line: at most `CEILING_PER_BYTE · n + CEILING_FLAT` bytes for a
//! line of `n` bytes, whatever its shape.

use pcb_bench::alloc::{counted, CountingAlloc};
use pcb_telemetry::json;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Heap bytes a parse may claim per input byte, plus a flat allowance,
/// set by measurement over the shapes below (1 B – 4 KiB lines): the
/// dearest is an array of one-key objects at 106.5 B per byte — each
/// `{"":0},` is a B-tree leaf of ≈ 630 B for 7 input bytes — then nested
/// arrays of those (87), one-element arrays (48), flat arrays (32), many
/// keys (11), long strings (1). Lines under 40 bytes claimed at most
/// 760 B. The ceiling leaves ≈ 20 % over each.
const CEILING_PER_BYTE: u64 = 128;
const CEILING_FLAT: u64 = 1024;

/// The characters JSON is made of, so random lines get past the first
/// byte often enough to reach every branch of the parser.
const ALPHABET: &[u8] = b"{}[]\":,0123456789.eE+-\\u/bfnrt lsa\x01\xc3\xa9";

fn random_line(rng: &mut StdRng, n: usize) -> String {
    let bytes: Vec<u8> = (0..n).map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())]).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `item` repeated, `sep` between, until the line holds about `n`
/// bytes between `open` and `close`.
fn repeated(open: &str, item: &str, sep: &str, close: &str, n: usize) -> String {
    let count = n.saturating_sub(open.len() + close.len()) / (item.len() + sep.len());
    format!("{open}{}{close}", vec![item; count].join(sep))
}

/// Every shape the parser allocates for, at about `n` bytes each, plus
/// noise and a damaged real RPC line.
fn hostile_lines(rng: &mut StdRng, n: usize) -> Vec<String> {
    let keys: String = (0..n / 8).map(|i| format!("\"k{i}\":{i},")).collect();
    let mut rpc = r#"{"op":"publish","payload":12}"#.as_bytes().to_vec();
    let at = rng.random_range(0..rpc.len());
    rpc[at] = ALPHABET[rng.random_range(0..ALPHABET.len())];
    rpc.truncate(rng.random_range(0..=rpc.len()));
    vec![
        random_line(rng, n),
        String::from_utf8_lossy(&rpc).into_owned(),
        "[".repeat(n / 2) + &"]".repeat(n / 2),
        "{\"k\":".repeat(n / 5),
        repeated("[", "{\"\":0}", ",", "]", n),
        repeated("[", "[0]", ",", "]", n),
        repeated("[", "0", ",", "]", n),
        repeated("[", "\"\"", ",", "]", n),
        repeated("{\"a\":[", "{\"\":[]}", ",", "]}", n),
        format!("{{{keys}\"end\":0}}"),
        repeated("\"", "x", "", "\"", n),
        repeated("\"", "\\u00e9", "", "\"", n),
        repeated("\"", "é", "", "\"", n),
        repeated("[", "1.5e-300", ",", "]", n),
    ]
}

fn parse_within_ceiling(line: &str) -> Result<(), String> {
    let (_, claimed, outcome) = counted(|| json::parse(line).map(drop));
    let ceiling = CEILING_PER_BYTE * line.len() as u64 + CEILING_FLAT;
    if claimed > ceiling {
        let head: String = line.chars().take(80).collect();
        return Err(format!(
            "parsing {} bytes ({outcome:?}) allocated {claimed} B, ceiling {ceiling} B: {head}…",
            line.len()
        ));
    }
    Ok(())
}

// One test in this binary: the counter is process-wide, and a second
// test thread's allocations would land in this one's tally.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn parse_is_total_and_claims_no_more_than_its_line_pays_for(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..4096usize);
        for line in hostile_lines(&mut rng, n) {
            let verdict = parse_within_ceiling(&line);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }
}
