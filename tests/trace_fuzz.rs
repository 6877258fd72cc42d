//! Byte-mutation fuzzing of `TraceReader` on the committed fixtures.
//!
//! Each case applies one to three seeded mutations to a fixture: replace,
//! insert or delete one byte, or truncate the file. The reader must return
//! `Ok` or a parse error that names a line of the mutated input; it must
//! never panic. Mutated bytes take all 256 values, so inputs that are not
//! UTF-8 are covered too: they must also give a `TraceError::Parse`.

use ftoa::workload::{TraceError, TraceReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Mutations per fixture.
const CASES: usize = 500;

/// SplitMix64: a tiny seeded generator, so every case is reproducible.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A replacement or inserted byte. Half the draws come from the bytes the
/// grammar is made of, so mutations often still parse and reach the later
/// checks; the rest are any byte at all.
fn mutant_byte(rng: &mut SplitMix) -> u8 {
    const GRAMMAR: &[u8] = b"0123456789-+.eE \t\n#wtconfigslotsregriddefaultsvelocityinfNaN";
    if rng.next() & 1 == 0 {
        GRAMMAR[rng.below(GRAMMAR.len())]
    } else {
        rng.next() as u8
    }
}

fn mutate(bytes: &mut Vec<u8>, rng: &mut SplitMix) {
    for _ in 0..1 + rng.below(3) {
        if bytes.is_empty() {
            bytes.push(mutant_byte(rng));
            continue;
        }
        let at = rng.below(bytes.len());
        match rng.below(4) {
            0 => bytes[at] = mutant_byte(rng),
            1 => bytes.insert(at, mutant_byte(rng)),
            2 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
}

fn fuzz(fixture: &str, seed: u64) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces").join(fixture);
    let original = std::fs::read(path).unwrap();
    assert!(TraceReader::read(original.as_slice()).is_ok(), "{fixture} must parse unmutated");
    let mut rng = SplitMix(seed);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for case in 0..CASES {
        let mut bytes = original.clone();
        mutate(&mut bytes, &mut rng);
        // Lines as `BufRead::lines` splits them: on `\n`, with no empty
        // line after a trailing one.
        let newlines = bytes.iter().filter(|&&b| b == b'\n').count();
        let lines = (newlines + usize::from(!bytes.ends_with(b"\n"))).max(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| TraceReader::read(bytes.as_slice())));
        match outcome {
            Err(_) => panic!("{fixture} case {case}: the reader panicked"),
            Ok(Ok(_)) => accepted += 1,
            Ok(Err(TraceError::Parse { line, message })) => {
                assert!(
                    (1..=lines).contains(&line),
                    "{fixture} case {case}: line {line} of {lines}: {message}"
                );
                rejected += 1;
            }
            Ok(Err(err)) => panic!("{fixture} case {case}: error without a line number: {err}"),
        }
    }
    // Both outcomes occur, so the mutations reach past the header checks.
    assert!(accepted > 0 && rejected > 0, "{fixture}: {accepted} accepted, {rejected} rejected");
}

#[test]
fn mutated_small_fixture_parses_or_names_a_line() {
    fuzz("fixture_small.trace", 2017);
}

#[test]
fn mutated_weighted_fixture_parses_or_names_a_line() {
    fuzz("fixture_weighted.trace", 7);
}
