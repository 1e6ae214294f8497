//! Decoder totality for the request decoder (ROADMAP 6(a)): seeded random
//! and mutated lines through `parse_request` → `Query::validate` /
//! `Mutation::validate`, the path every server connection runs on every
//! line it reads. Each line must come back `Ok` or as a typed error, never
//! a panic (a panic under the delta-buffer mutex poisons a server's write
//! path; a stack overflow aborts the process). What validation accepts
//! must also be safe to run: valid queries are planned and executed, valid
//! `update` boxes are decomposed into a `DeltaBuffer`, and valid `apply`
//! runs go through the server's own geometry check into the buffer.
//!
//! The lines cover the `partial` and `apply` shapes, ragged term lists,
//! coordinates and extents near `usize::MAX`, integers past `i128`, and
//! deep nesting. CI runs this file in release too: overflow checks differ.

use shiftsplit::array::{NdArray, Shape};
use shiftsplit::core::tiling::StandardTiling;
use shiftsplit::datagen::SplitMix64;
use shiftsplit::maintain::{DeltaBuffer, FlushMode};
use shiftsplit::query::execute_plans_tiled;
use shiftsplit::storage::{wstore::mem_store, IoStats};
use ss_serve::proto::{self, Mutation, Op};
use ss_serve::server;
use std::panic::{catch_unwind, AssertUnwindSafe};

const LEVELS: [u32; 2] = [4, 3];
const DIMS: [usize; 2] = [16, 8];
const LINES: usize = 20_000;

/// Numbers and values a hostile client would pick: the domain's edges,
/// `usize` / `i128` limits and one past them, non-integers, other types.
const VALUES: &[&str] = &[
    "0",
    "1",
    "2",
    "7",
    "8",
    "15",
    "16",
    "-1",
    "-0",
    "0.5",
    "-2.5",
    "1e308",
    "1e999",
    "18446744073709551615",
    "18446744073709551614",
    "18446744073709551616",
    "9223372036854775807",
    "170141183460469231731687303715884105727",
    "170141183460469231731687303715884105728",
    "\"3\"",
    "null",
    "true",
    "[]",
    "[1]",
    "{}",
];

/// Fragments spliced into lines by the mutator.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"",
    "-",
    "0",
    "9",
    "e",
    ".",
    "\\u",
    "\\",
    "null",
    " ",
    "é",
    "18446744073709551615",
];

const OPS: &[&str] = &[
    "point",
    "range_sum",
    "update",
    "commit",
    "partial",
    "apply",
    "flush",
];

struct Gen(SplitMix64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.below(n)
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    /// Mostly in-range coordinates, sometimes a hostile value.
    fn number(&mut self) -> String {
        if self.below(8) == 0 {
            self.pick(VALUES).to_string()
        } else {
            self.below(10).to_string()
        }
    }

    /// An array of `len` numbers — usually the domain's rank.
    fn array(&mut self, len: usize) -> String {
        let len = if self.below(8) == 0 {
            self.below(4)
        } else {
            len
        };
        let items: Vec<String> = (0..len).map(|_| self.number()).collect();
        format!("[{}]", items.join(","))
    }

    fn list(&mut self, max: usize, item: impl Fn(&mut Self) -> String) -> String {
        let items: Vec<String> = (0..self.below(max)).map(|_| item(self)).collect();
        format!("[{}]", items.join(","))
    }

    /// A request of a random op, its fields mostly well-formed.
    fn line(&mut self) -> String {
        let op = self.pick(OPS);
        let mut fields = vec![format!(r#""op":"{op}""#)];
        if self.below(4) != 0 {
            fields.push(format!(r#""id":{}"#, self.number()));
        }
        if self.below(4) == 0 {
            fields.push(format!(r#""trace":{}"#, self.number()));
        }
        match op {
            "point" => fields.push(format!(r#""pos":{}"#, self.array(2))),
            "range_sum" => {
                fields.push(format!(r#""lo":{}"#, self.array(2)));
                fields.push(format!(r#""hi":{}"#, self.array(2)));
            }
            "update" => {
                let dims = [1 + self.below(4), 1 + self.below(4)];
                let cells = if self.below(4) == 0 {
                    self.below(20)
                } else {
                    dims[0] * dims[1]
                };
                let dims = if self.below(4) == 0 {
                    self.array(2)
                } else {
                    format!("[{},{}]", dims[0], dims[1])
                };
                fields.push(format!(r#""at":{}"#, self.array(2)));
                fields.push(format!(r#""dims":{dims}"#));
                fields.push(format!(r#""data":{}"#, self.array(cells)));
            }
            // A ragged term has its own rank.
            "partial" => fields.push(format!(
                r#""terms":{}"#,
                self.list(12, |g| {
                    let rank = if g.below(10) == 0 { g.below(4) } else { 2 };
                    format!("[{},{}]", g.array(rank), g.number())
                })
            )),
            "apply" => fields.push(format!(r#""ops":{}"#, self.list(12, |g| g.array(3)))),
            _ => {}
        }
        if self.below(8) == 0 {
            fields.remove(self.below(fields.len()));
        }
        format!("{{{}}}", fields.join(","))
    }

    /// One to four splices: delete a span, insert a token, duplicate a
    /// span, or truncate.
    fn mutate(&mut self, line: &str) -> String {
        let mut chars: Vec<char> = line.chars().collect();
        for _ in 0..1 + self.below(4) {
            let at = self.below(chars.len() + 1);
            let end = (at + self.below(8)).min(chars.len());
            match self.below(4) {
                0 => {
                    chars.drain(at..end);
                }
                1 => {
                    let token = self.pick(TOKENS);
                    chars.splice(at..at, token.chars());
                }
                2 => {
                    let span: Vec<char> = chars[at..end].to_vec();
                    chars.splice(at..at, span);
                }
                _ => chars.truncate(at),
            }
        }
        chars.into_iter().collect()
    }

    fn noise(&mut self) -> String {
        (0..self.below(40)).map(|_| self.pick(TOKENS)).collect()
    }
}

/// What a server would run for `line`; returns which way it went.
fn run(
    line: &str,
    store: &mut impl shiftsplit::storage::CoeffRead,
    buf: &mut DeltaBuffer,
) -> &'static str {
    let req = match proto::parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            assert!(
                matches!(e.kind, "parse" | "unknown_op" | "bad_request"),
                "untyped error {:?} for {line}",
                e.kind
            );
            return "refused";
        }
    };
    match req.op {
        Op::Query(q) => {
            if q.validate(&DIMS).is_err() {
                return "invalid";
            }
            execute_plans_tiled(store, [&q.plan(&LEVELS)]);
            q.op()
        }
        Op::Mutation(m) => {
            if m.validate(&DIMS).is_err() {
                return "invalid";
            }
            match m {
                Mutation::Update { at, dims, data } => {
                    let delta = NdArray::from_vec(Shape::new(&dims), data);
                    buf.add_box_standard(&tiling(), &LEVELS, &at, &delta);
                    "update"
                }
                Mutation::Apply { runs } => {
                    if server::check_ops(&tiling(), &runs).is_err() {
                        return "outside";
                    }
                    server::buffer_ops(buf, &runs);
                    "apply"
                }
                Mutation::Commit => "commit",
            }
        }
    }
}

fn tiling() -> StandardTiling {
    StandardTiling::new(&LEVELS, &[2, 2])
}

#[test]
fn every_request_line_is_ok_or_a_typed_error() {
    let mut store = mem_store(tiling(), 1 << 10, IoStats::new());
    let mut buf = DeltaBuffer::for_map(&tiling(), FlushMode::Exact);
    let max = usize::MAX;
    let mut lines = vec![
        format!(r#"{{"op":"update","at":[{max},0],"dims":[2,1],"data":[1,2]}}"#),
        format!(r#"{{"op":"update","at":[0,0],"dims":[{max},1],"data":[1]}}"#),
        format!(r#"{{"op":"update","at":[1,1],"dims":[{max},{max}],"data":[1]}}"#),
        format!(r#"{{"op":"range_sum","lo":[0,0],"hi":[{max},{max}]}}"#),
        format!(r#"{{"op":"partial","terms":[[[{max},0],1.0]]}}"#),
        format!(r#"{{"op":"apply","ops":[[{max},{max},1.0]]}}"#),
        r#"{"op":"partial","terms":[[[1,2],0.5],[[3],1],[[1,2,3],2]]}"#.to_string(),
        r#"{"op":"partial","terms":[[[],0.5]]}"#.to_string(),
        r#"{"op":"partial","terms":[]}"#.to_string(),
        format!(r#"{{"op":"point","pos":{}}}"#, "[".repeat(100_000)),
        "{\"a\":".repeat(50_000),
    ];
    let mut gen = Gen(SplitMix64::new(0xf022));
    while lines.len() < LINES {
        let line = match gen.below(8) {
            0 => gen.noise(),
            1..=4 => gen.line(),
            _ => {
                let line = gen.line();
                gen.mutate(&line)
            }
        };
        lines.push(line);
    }

    let mut seen = std::collections::BTreeMap::<&str, usize>::new();
    for line in &lines {
        let outcome = catch_unwind(AssertUnwindSafe(|| run(line, &mut store, &mut buf)));
        match outcome {
            Ok(way) => *seen.entry(way).or_default() += 1,
            Err(_) => panic!("request line panicked: {line}"),
        }
    }
    // Not vacuous: every op is accepted somewhere, and so are refusals.
    for way in [
        "refused",
        "invalid",
        "point",
        "range_sum",
        "partial",
        "update",
        "apply",
        "outside",
        "commit",
    ] {
        assert!(seen.get(way).copied().unwrap_or(0) >= 20, "{way}: {seen:?}");
    }
}

/// A first term of rank R followed by N scalars is ~2R + 2N bytes. Sizing
/// the plan from the first term's rank times the element count asked for
/// R·N·8 bytes (here 200 GB) before the second element was looked at, and a
/// failed allocation aborts the process — no `catch_unwind` can catch it.
#[test]
fn a_wide_first_term_before_junk_is_refused_not_reserved() {
    let (rank, junk) = (50_000, 500_000);
    let line = format!(
        r#"{{"id":1,"op":"partial","terms":[[[{}],1]{}]}}"#,
        vec!["0"; rank].join(","),
        ",0".repeat(junk)
    );
    let started = std::time::Instant::now();
    let err = proto::parse_request(&line).unwrap_err();
    assert_eq!(
        (err.id, err.kind),
        (Some(1), "bad_request"),
        "{}",
        err.message
    );
    assert!(err.message.contains("terms[1]"), "{}", err.message);
    assert!(started.elapsed().as_secs() < 10, "{:?}", started.elapsed());
}
