//! Mutation smoke over the SPARK-C corpus: the frontend must answer every
//! malformed or extreme input with `Ok` or diagnostics, never a panic.
//!
//! Each corpus program gets a fixed, seeded series of mutations:
//! truncations, token deletions, duplications and swaps, huge numeric
//! literals and `bound(100000)` trip bounds. Only `spark_front::compile`
//! runs (parse, sema, lowering); nothing is synthesized, so a mutation that
//! asks for an enormous unrolling cannot hang the test.
//!
//! Two extreme inputs are pinned on each side of a limit: nesting at and
//! past the parser's [`MAX_NESTING`], and loops within and past the
//! unrolling limits of `loop-unroll-all`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spark_bench::corpus::corpus_paths;
use spark_core::{synthesize_source, FlowOptions, SourceSynthesisError, SynthesisError};
use spark_front::MAX_NESTING;
use spark_ir::Env;

const MUTATIONS_PER_PROGRAM: usize = 300;

/// Literals past every width the language has, `u64` included.
const HUGE_LITERALS: [&str; 4] = [
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "99999999999999999999999999999999999999999999",
];

/// Splits `source` into tokens: identifier/number runs, whitespace runs and
/// single punctuation characters. Concatenating them gives `source` back.
fn tokenize(source: &str) -> Vec<&str> {
    fn class(c: char) -> u8 {
        if c.is_alphanumeric() || c == '_' {
            0
        } else if c.is_whitespace() {
            1
        } else {
            2
        }
    }
    let mut tokens = Vec::new();
    let mut start = 0;
    let mut chars = source.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let joins_next = chars
            .peek()
            .is_some_and(|&(_, next)| class(c) != 2 && class(next) == class(c));
        if !joins_next {
            tokens.push(&source[start..i + c.len_utf8()]);
            start = i + c.len_utf8();
        }
    }
    tokens
}

/// Indices of the tokens that are not whitespace.
fn solid(tokens: &[&str]) -> Vec<usize> {
    (0..tokens.len())
        .filter(|&i| !tokens[i].trim().is_empty())
        .collect()
}

/// One seeded mutation of `source`, with a description for failure reports.
fn mutate(source: &str, rng: &mut StdRng) -> (String, String) {
    let mut tokens: Vec<String> = tokenize(source).into_iter().map(String::from).collect();
    let view: Vec<&str> = tokens.iter().map(String::as_str).collect();
    let solid = solid(&view);
    let pick = |rng: &mut StdRng| solid[rng.gen_range(0..solid.len())];
    // Too few tokens to pick from: truncate.
    let kind = if solid.len() < 2 {
        0
    } else {
        rng.gen_range(0..7u32)
    };
    let description = match kind {
        0 => {
            let mut at = rng.gen_range(0..source.len().max(1));
            while !source.is_char_boundary(at) {
                at -= 1;
            }
            return (source[..at].to_string(), format!("truncate at byte {at}"));
        }
        1 => {
            let at = pick(rng);
            let removed = std::mem::take(&mut tokens[at]);
            format!("delete token {at} `{removed}`")
        }
        2 => {
            let at = pick(rng);
            let run = rng.gen_range(2..6usize).min(tokens.len() - at);
            for token in &mut tokens[at..at + run] {
                token.clear();
            }
            format!("delete tokens {at}..{}", at + run)
        }
        3 => {
            let numbers: Vec<usize> = solid
                .iter()
                .copied()
                .filter(|&i| tokens[i].starts_with(|c: char| c.is_ascii_digit()))
                .collect();
            let huge = HUGE_LITERALS[rng.gen_range(0..HUGE_LITERALS.len())];
            let at = if numbers.is_empty() {
                pick(rng)
            } else {
                numbers[rng.gen_range(0..numbers.len())]
            };
            let replaced = std::mem::replace(&mut tokens[at], huge.to_string());
            format!("replace token {at} `{replaced}` with {huge}")
        }
        4 => {
            // Every existing trip bound becomes huge; a program without one
            // gets a `bound(100000)` spliced in after a random token.
            let bounds: Vec<usize> = (0..tokens.len().saturating_sub(2))
                .filter(|&i| tokens[i] == "bound" && tokens[i + 1] == "(")
                .map(|i| i + 2)
                .collect();
            if bounds.is_empty() {
                let at = pick(rng);
                tokens[at].push_str(" bound(100000)");
                format!("insert bound(100000) after token {at}")
            } else {
                for &at in &bounds {
                    tokens[at] = "100000".to_string();
                }
                "set every trip bound to 100000".to_string()
            }
        }
        5 => {
            let at = pick(rng);
            let copy = tokens[at].clone();
            tokens[at].push_str(&copy);
            format!("duplicate token {at} `{copy}`")
        }
        _ => {
            let i = rng.gen_range(0..solid.len() - 1);
            let (a, b) = (solid[i], solid[i + 1]);
            tokens.swap(a, b);
            format!("swap tokens {a} and {b}")
        }
    };
    (tokens.concat(), description)
}

#[test]
fn tokenize_round_trips() {
    let source = "u8 f(u8 a[4]) {\n  x = a[0] + 12; // done\n}";
    let tokens = tokenize(source);
    assert_eq!(tokens.concat(), source);
    assert!(tokens.contains(&"12") && tokens.contains(&"a") && tokens.contains(&"\n  "));
}

#[test]
fn mutated_corpus_never_panics_the_frontend() {
    let mut panics = Vec::new();
    let mut outcomes = [0usize; 2];
    for (index, path) in corpus_paths().into_iter().enumerate() {
        let source = std::fs::read_to_string(&path).expect("corpus program is readable");
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + index as u64);
        for round in 0..MUTATIONS_PER_PROGRAM {
            let (mut mutated, mut description) = mutate(&source, &mut rng);
            // Every fourth input stacks a second mutation on the first.
            if round % 4 == 3 {
                let (again, more) = mutate(&mutated, &mut rng);
                mutated = again;
                description = format!("{description}, then {more}");
            }
            match catch_unwind(AssertUnwindSafe(|| spark_front::compile(&mutated))) {
                Ok(result) => outcomes[usize::from(result.is_ok())] += 1,
                Err(_) => panics.push(format!("{name}: {description}")),
            }
        }
    }
    assert!(
        panics.is_empty(),
        "spark_front::compile panicked on {} mutated inputs:\n  {}",
        panics.len(),
        panics.join("\n  ")
    );
    // The series reaches both outcomes, so it exercises the error paths
    // and not only inputs the mutations left intact.
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}

/// `s = ((…(a)…));` with `parens` pairs of parentheses: the statement's
/// expression is one nesting level and each parenthesis one more.
fn nested_parens(parens: usize) -> String {
    format!(
        "void f(u8 a, out u8 s) {{ s = {}a{}; }}",
        "(".repeat(parens),
        ")".repeat(parens)
    )
}

#[test]
fn nesting_past_the_parser_limit_is_a_located_diagnostic() {
    // The deepest accepted input goes through the whole frontend and the
    // AST evaluator on the 2 MiB test thread.
    let compiled = spark_front::compile(&nested_parens(MAX_NESTING - 1)).unwrap();
    let env = Env::new().with_scalar("a", 9);
    assert_eq!(compiled.evaluate("f", &env).unwrap().scalar("s"), Some(9));
    // One level more, and the 3,000 levels that used to overflow the stack.
    for parens in [MAX_NESTING, 3000] {
        let diagnostics = spark_front::compile(&nested_parens(parens)).unwrap_err();
        assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
        let diagnostic = &diagnostics[0];
        assert!(
            diagnostic.message.contains("parser's limit"),
            "{diagnostic}"
        );
        // Located just inside the parenthesis that goes one level too deep
        // (columns count from 1).
        let col = "void f(u8 a, out u8 s) { s = ".len() + MAX_NESTING + 1;
        assert_eq!((diagnostic.line, diagnostic.col), (1, col as u32));
    }
}

/// `for` loops of `trips` iterations each, nested `depth` deep, around one
/// accumulation.
fn nested_loops(depth: usize, trips: u32) -> String {
    let mut body = "s = s + a;".to_string();
    for level in 0..depth {
        body = format!("for (i{level} = 1; i{level} <= {trips}; i{level}++) {{ {body} }}");
    }
    let indices: String = (0..depth).map(|level| format!("u32 i{level}; ")).collect();
    format!("void f(u32 a, out u32 s) {{ {indices}s = 0; {body} }}")
}

#[test]
fn unrolling_past_its_limits_fails_in_loop_unroll_all() {
    let flow = FlowOptions::microprocessor_block(2000.0);
    // Within both limits, the nested loops unroll and synthesize.
    synthesize_source(&nested_loops(2, 20), &flow).unwrap();
    // Two nested 4,000-iteration loops pass the per-loop limit but would
    // make 16M copies; a single 5,000-iteration loop passes the per-loop
    // limit itself.
    for (depth, trips, why) in [(2, 4000, "operations"), (1, 5000, "iterations")] {
        let Err(SourceSynthesisError::Synthesis(error @ SynthesisError::Unroll(_))) =
            synthesize_source(&nested_loops(depth, trips), &flow)
        else {
            panic!("{depth} loop(s) of {trips} iterations did not fail in unrolling");
        };
        let message = error.to_string();
        assert!(
            message.contains("`loop-unroll-all`") && message.contains(why),
            "{message}"
        );
    }
}
