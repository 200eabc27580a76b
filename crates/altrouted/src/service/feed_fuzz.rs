//! Byte-level fuzzing of the feed ingest path against a plain reference.
//!
//! The reference frames with `split('\n')` and the line cap, and parses
//! with the `split_whitespace` parser `parse_line` had before it gained
//! its byte tokenizer ([`reference_parse_line`], kept here verbatim). The
//! real path frames with `take(cap).read_until` ([`LineReader`]) and
//! tokenizes ASCII lines by byte. Over random bytes, protocol-shaped
//! noise, multi-byte characters straddling the cap, a 16 MiB
//! newline-free run and tiny, interrupting readers, the two must agree
//! on every framed line, every parse result (message included), the
//! [`FeedSummary`] and the update bytes, and the line buffer must never
//! grow past the cap.

use super::*;
use crate::config::mesh_plane;
use crate::control::ControllerTuning;
use altroute_telemetry::feed::{FeedEvent, FeedHeader, FeedParseError, FEED_MAGIC, FEED_VERSION};

/// A seeded splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

fn bad(message: impl Into<String>) -> FeedParseError {
    FeedParseError {
        message: message.into(),
    }
}

fn reference_time(s: &str) -> Result<f64, FeedParseError> {
    let t: f64 = s.parse().map_err(|_| bad(format!("bad time `{s}`")))?;
    if !t.is_finite() || t < 0.0 {
        return Err(bad(format!("time must be finite and >= 0, got `{s}`")));
    }
    Ok(t)
}

fn reference_node(s: &str) -> Result<usize, FeedParseError> {
    s.parse().map_err(|_| bad(format!("bad node id `{s}`")))
}

/// `parse_line` as it was before the byte tokenizer: `trim` plus
/// `split_whitespace` over every line.
fn reference_parse_line(line: &str) -> Result<FeedLine, FeedParseError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(FeedLine::Blank);
    }
    let mut fields = trimmed.split_whitespace();
    let tag = fields.next().expect("non-empty after trim");
    let line = match tag {
        FEED_MAGIC => {
            let version = fields.next().ok_or_else(|| bad("header missing version"))?;
            if version != FEED_VERSION {
                return Err(bad(format!(
                    "unsupported feed version `{version}` (expected {FEED_VERSION})"
                )));
            }
            let nodes = fields
                .next()
                .and_then(|f| f.strip_prefix("nodes="))
                .ok_or_else(|| bad("header missing nodes=<N>"))?;
            let nodes: usize = nodes
                .parse()
                .map_err(|_| bad(format!("bad node count `{nodes}`")))?;
            if nodes < 2 {
                return Err(bad(format!("need at least 2 nodes, got {nodes}")));
            }
            FeedLine::Header(FeedHeader { nodes })
        }
        "a" => {
            let time = reference_time(fields.next().ok_or_else(|| bad("arrival missing time"))?)?;
            let src = reference_node(fields.next().ok_or_else(|| bad("arrival missing src"))?)?;
            let dst = reference_node(fields.next().ok_or_else(|| bad("arrival missing dst"))?)?;
            FeedLine::Event(FeedEvent::Arrival { time, src, dst })
        }
        "end" => {
            let time = reference_time(fields.next().ok_or_else(|| bad("end missing time"))?)?;
            FeedLine::Event(FeedEvent::End { time })
        }
        other => return Err(bad(format!("unknown record tag `{other}`"))),
    };
    if fields.next().is_some() {
        return Err(bad("trailing fields"));
    }
    Ok(line)
}

/// One reference-framed line: its bytes, or `None` when over the cap.
type Framed<'a> = Option<&'a [u8]>;

/// Frames `input` with `split('\n')` and the cap: a line whose bytes and
/// `\n` do not fit in [`MAX_FEED_LINE_BYTES`] is skipped (`None`); a
/// terminated line loses one trailing `\r`.
fn reference_frames(input: &[u8]) -> Vec<Framed<'_>> {
    let mut segments: Vec<&[u8]> = input.split(|&b| b == b'\n').collect();
    // The text after the last `\n` is a line only if it is not empty.
    let last = segments.pop().expect("split yields at least one segment");
    let mut frames: Vec<Framed<'_>> = segments
        .into_iter()
        .map(|line| {
            (line.len() < MAX_FEED_LINE_BYTES).then(|| line.strip_suffix(b"\r").unwrap_or(line))
        })
        .collect();
    if !last.is_empty() {
        frames.push((last.len() < MAX_FEED_LINE_BYTES).then_some(last));
    }
    frames
}

/// `run_feed` over reference framing and parsing, with the same
/// stream rules. Returns the summary or the error kind, and the update
/// bytes written either way.
fn reference_run_feed(
    controller: &mut Controller,
    input: &[u8],
) -> (Result<FeedSummary, io::ErrorKind>, Vec<u8>) {
    let mut summary = FeedSummary::default();
    let mut out = Vec::new();
    let mut saw_header = false;
    let mut pending = Vec::new();
    for frame in reference_frames(input) {
        summary.lines += 1;
        let parsed = match frame {
            Some(bytes) => match std::str::from_utf8(bytes) {
                Ok(line) => reference_parse_line(line).map_err(drop),
                Err(_) => return (Err(io::ErrorKind::InvalidData), out),
            },
            None => Err(()),
        };
        match parsed {
            Ok(FeedLine::Blank) => {}
            Ok(FeedLine::Header(h)) => {
                if h.nodes != controller.plane().nodes {
                    return (Err(io::ErrorKind::InvalidData), out);
                }
                saw_header = true;
            }
            Ok(FeedLine::Event(ev)) => {
                if !saw_header {
                    return (Err(io::ErrorKind::InvalidData), out);
                }
                if controller.push(ev, &mut pending).is_err() {
                    summary.rejected += 1;
                }
                for update in pending.drain(..) {
                    out.extend_from_slice(render_update(&update).as_bytes());
                    summary.updates += 1;
                }
                if controller.done() {
                    summary.ended = true;
                    break;
                }
            }
            Err(()) => summary.parse_errors += 1,
        }
    }
    (Ok(summary), out)
}

fn fuzz_controller() -> Controller {
    Controller::new(
        mesh_plane(3, 10, 2),
        ControllerTuning {
            window: 1.0,
            recompute_every: 2,
            alpha: 0.5,
            ..ControllerTuning::default()
        },
    )
}

/// A reader that hands out at most `max_chunk` bytes per `read` and
/// fails every `interrupt_every`-th call with `Interrupted`.
struct Chunked<'a> {
    data: &'a [u8],
    max_chunk: usize,
    interrupt_every: usize,
    calls: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(self.interrupt_every) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = self.data.len().min(self.max_chunk).min(buf.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Frames `input` through [`LineReader`], checking the buffer bound
/// after every line, and compares the lines with the reference framing.
fn assert_framing_matches<I: BufRead>(mut input: I, data: &[u8], case: &str) {
    let mut reader = LineReader::new();
    let mut frames = Vec::new();
    let outcome = loop {
        match reader.next(&mut input) {
            Ok(Some(RawLine::Line(line))) => frames.push(Some(line.as_bytes().to_vec())),
            Ok(Some(RawLine::TooLong)) => frames.push(None),
            Ok(None) => break Ok(()),
            Err(e) => break Err(e.kind()),
        }
        assert!(
            reader.buf.capacity() <= MAX_FEED_LINE_BYTES,
            "{case}: line buffer grew to {}",
            reader.buf.capacity()
        );
    };
    // The reference stops at the first line that is not UTF-8.
    let mut expected = Vec::new();
    let mut expected_outcome = Ok(());
    for frame in reference_frames(data) {
        if let Some(bytes) = frame {
            if std::str::from_utf8(bytes).is_err() {
                expected_outcome = Err(io::ErrorKind::InvalidData);
                break;
            }
        }
        expected.push(frame.map(<[u8]>::to_vec));
    }
    assert_eq!(outcome, expected_outcome, "{case}: framing outcome");
    assert_eq!(frames, expected, "{case}: framed lines");
}

/// Runs `data` through `run_feed` (via `input`) and the reference, and
/// asserts they agree.
fn assert_feed_matches<I: BufRead>(input: I, data: &[u8], case: &str) {
    let mut controller = fuzz_controller();
    let mut out = Vec::new();
    let got = run_feed(&mut controller, input, &mut out, None).map_err(|e| e.kind());
    let mut reference = fuzz_controller();
    let (expected, expected_out) = reference_run_feed(&mut reference, data);
    assert_eq!(got, expected, "{case}: summary");
    assert_eq!(out, expected_out, "{case}: update bytes");
    assert_eq!(controller.windows(), reference.windows(), "{case}: windows");
    assert_eq!(controller.solves(), reference.solves(), "{case}: solves");
}

/// Checks `data` read from a plain slice (one buffer holding it all) and
/// from a tiny `BufReader` over a chunked, interrupting reader.
fn check(data: &[u8], rng: &mut Rng, case: &str) {
    assert_feed_matches(data, data, case);
    assert_framing_matches(data, data, case);
    let (capacity, max_chunk, interrupt_every) =
        (1 + rng.below(16), 1 + rng.below(7), 3 + rng.below(5));
    let chunked = || {
        BufReader::with_capacity(
            capacity,
            Chunked {
                data,
                max_chunk,
                interrupt_every,
                calls: 0,
            },
        )
    };
    assert_feed_matches(chunked(), data, case);
    assert_framing_matches(chunked(), data, case);
}

/// Separators: the ASCII whitespace `char::is_whitespace` accepts, runs
/// of it, Unicode whitespace, and look-alikes that are not whitespace.
const SEPARATORS: [&str; 14] = [
    " ", " ", " ", "\t", "\x0B", "\x0C", "\r", "  ", " \t ", "\u{A0}", "\u{85}", "\u{2003}",
    "\u{3000}", "\u{200B}",
];

/// Field values: well-formed, signed, exotic and malformed.
const VALUES: [&str; 20] = [
    "0",
    "1",
    "2",
    "3",
    "+1",
    "+0.5",
    "-0",
    "-1",
    "1e3",
    "1.",
    ".5",
    ".",
    "inf",
    "NaN",
    "0x10",
    "\u{663}",
    "1\u{0}",
    "99999999999999999999",
    "",
    "#",
];

/// One protocol-shaped line, often well-formed, without a terminator.
fn noisy_line(rng: &mut Rng, clock: &mut f64) -> String {
    *clock += rng.below(1000) as f64 / 700.0;
    let time = if rng.below(20) == 0 {
        rng.pick(&VALUES).to_string()
    } else {
        clock.to_string()
    };
    let node = |rng: &mut Rng| {
        if rng.below(10) == 0 {
            rng.pick(&VALUES).to_string()
        } else {
            rng.below(4).to_string()
        }
    };
    let mut fields: Vec<String> = match rng.below(12) {
        0 => vec!["end".into(), time],
        1 => vec![
            FEED_MAGIC.into(),
            rng.pick(&[FEED_VERSION, "v2", "V1"]).into(),
            rng.pick(&[
                "nodes=3", "nodes=2", "nodes=+3", "nodes=1", "nodes3", "nodes=",
            ])
            .into(),
        ],
        2 => vec!["#".into(), "comment".into()],
        3 => vec![rng.pick(&["b", "A", "a\u{301}", "\u{0}", "ä"]).into(), time],
        _ => vec!["a".into(), time, node(rng), node(rng)],
    };
    if rng.below(8) == 0 {
        fields.truncate(rng.below(fields.len() + 1));
    }
    if rng.below(10) == 0 {
        fields.push(rng.pick(&VALUES).into());
    }
    let mut line = String::new();
    if rng.below(6) == 0 {
        line.push_str(rng.pick(&SEPARATORS));
    }
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            line.push_str(rng.pick(&SEPARATORS));
        }
        line.push_str(field);
    }
    if rng.below(6) == 0 {
        line.push_str(rng.pick(&SEPARATORS));
    }
    line
}

/// A protocol-shaped feed: usually a header first, then noisy lines with
/// mixed terminators, sometimes ending unterminated.
fn noisy_feed(rng: &mut Rng) -> Vec<u8> {
    let mut feed = String::new();
    if rng.below(10) != 0 {
        feed.push_str("altroute-feed v1 nodes=3\n");
    }
    let mut clock = 0.0;
    for _ in 0..rng.below(60) {
        feed.push_str(&noisy_line(rng, &mut clock));
        feed.push_str(rng.pick(&["\n", "\n", "\n", "\r\n", "\r\r\n", "\n\r"]));
    }
    if rng.below(3) == 0 {
        feed.push_str(&noisy_line(rng, &mut clock));
    }
    feed.into_bytes()
}

#[test]
fn parse_line_matches_the_split_whitespace_parser() {
    let mut rng = Rng(0xFEED);
    let mut clock = 0.0;
    for _ in 0..50_000 {
        let line = noisy_line(&mut rng, &mut clock);
        assert_eq!(parse_line(&line), reference_parse_line(&line), "{line:?}");
        // Random ASCII, biased towards separators, digits and tags.
        let ascii: String = (0..rng.below(24))
            .map(|_| match rng.below(4) {
                0 => char::from(b"\t\n\x0B\x0C\r  "[rng.below(7)]),
                1 => char::from(b"0123456789.+-e"[rng.below(14)]),
                2 => char::from(b"a end#"[rng.below(6)]),
                _ => char::from(rng.below(128) as u8),
            })
            .collect();
        assert_eq!(
            parse_line(&ascii),
            reference_parse_line(&ascii),
            "{ascii:?}"
        );
    }
}

#[test]
fn random_bytes_match_the_reference() {
    let mut rng = Rng(0xB17E5);
    for case in 0..300 {
        let mut data = Vec::new();
        if case % 2 == 0 {
            data.extend_from_slice(b"altroute-feed v1 nodes=3\n");
        }
        for _ in 0..rng.below(400) {
            data.push(match rng.below(8) {
                0 => b'\n',
                1 => b'\r',
                2 => 0,
                3 => 0x0B,
                4 => *b"a 0123456789".get(rng.below(12)).unwrap(),
                _ => rng.next() as u8,
            });
        }
        check(&data, &mut rng, &format!("random bytes #{case}"));
    }
}

#[test]
fn noisy_feeds_match_the_reference() {
    let mut rng = Rng(0x5EED);
    for case in 0..300 {
        let data = noisy_feed(&mut rng);
        check(&data, &mut rng, &format!("noisy feed #{case}"));
    }
}

#[test]
fn lines_at_the_cap_match_the_reference() {
    let mut rng = Rng(0xCA9);
    // Multi-byte characters ending just inside, on and just past the cap,
    // terminated by `\n`, `\r\n` or end of stream, and an invalid byte
    // in the same places.
    for tail in ["é", "\u{20AC}", "\u{1F600}", "\r", "\u{FFFD}"] {
        for len in MAX_FEED_LINE_BYTES - 6..=MAX_FEED_LINE_BYTES + 2 {
            for end in ["\n", "\r\n", ""] {
                let mut line = "#".repeat(len - tail.len());
                line.push_str(tail);
                let data = format!("altroute-feed v1 nodes=3\na 0.5 0 1\n{line}{end}a 1.5 1 2\n");
                check(
                    data.as_bytes(),
                    &mut rng,
                    &format!("{len}-byte line + {end:?}"),
                );
                let mut invalid = data.into_bytes();
                let at = 35 + len - tail.len();
                invalid[at] = 0xFF;
                check(
                    &invalid,
                    &mut rng,
                    &format!("{len}-byte invalid line + {end:?}"),
                );
            }
        }
    }
}

#[test]
fn a_16_mib_newline_free_run_matches_the_reference() {
    let mut data = b"altroute-feed v1 nodes=3\na 0.5 0 1\n".to_vec();
    data.resize(data.len() + (16 << 20), b'x');
    data.extend_from_slice(b"\na 1.5 1 2\nend 3\n");
    assert_feed_matches(BufReader::new(&data[..]), &data, "16 MiB run");
    assert_framing_matches(BufReader::new(&data[..]), &data, "16 MiB run");
    // Unterminated: the run reaches end of stream.
    data.truncate(data.len() - 18);
    assert_feed_matches(&data[..], &data, "16 MiB run at end of stream");
    assert_framing_matches(&data[..], &data, "16 MiB run at end of stream");
}
