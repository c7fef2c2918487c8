//! The serving request model and the one-line reply codec.
//!
//! One request or response per line, ASCII keywords, no framing beyond
//! `\n` — the protocol a human can drive with `nc`. Read requests map onto
//! the engine's query surface (boolean, phrase, proximity, vector); write
//! requests (`ADD`/`FLUSH`/`CHECKPOINT`) never become a [`Request`]: the
//! listener loop ([`crate::wire`]) hands them to the writer path directly.
//!
//! A reply is `OK <stamp> <payload>` or `ERR <code> <message>`. The
//! [`Payload`] renders (`Display`) and parses ([`Payload::parse`]) its own
//! body, once; the [`Stamp`] in front of it is what differs between
//! endpoints — one **epoch** on a shard ([`Response`]), an epoch vector on
//! the router. The stamp names the state the result was computed at,
//! which is what makes results checkable against an oracle replay: a
//! result is correct iff it equals the single-threaded answer at that
//! same epoch.

use crate::error::ServeError;
use invidx_core::types::DocId;
use invidx_ir::{Bm25Params, EngineQuery};

/// A read request, executed by the reader pool under the shared lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `QUERY <boolean expression>` — e.g. `(cat and dog) or mouse`.
    Boolean(String),
    /// `PHRASE <words>` — contiguous in-order match.
    Phrase(String),
    /// `NEAR <w1> <w2> <window>` — proximity predicate.
    Near(String, String, u32),
    /// `LIKE <k> <text>` — top-k vector-model search seeded by a text.
    Like(usize, String),
    /// `RANK <k> <text>` — BM25 ranked top-k seeded by a text, scored
    /// with the service's configured `(k1, b)` and WAND-pruned.
    Rank(usize, String),
    /// `DF <term>...` — document frequency per term plus the engine's
    /// document and token counts: the fan-out phase of the router's
    /// distributed LIKE and RANK.
    Df(Vec<String>),
    /// `WLIKE <k> <n> <term>:<weight-bits-hex>...` — top-k scoring with
    /// caller-supplied per-term contributions, applied in wire order.
    /// Weights travel as `f64::to_bits` hex so shipped idf values survive
    /// the wire bit-exactly; that is what makes sharded LIKE scores equal
    /// an unsharded engine's, to the last ulp.
    WeightedLike(usize, Vec<(String, u64)>),
    /// `WRANK <k> <k1-hex> <b-hex> <avgdl-hex> <n> <term>:<idf-bits-hex>...`
    /// — BM25 top-k with caller-supplied idf weights and corpus-global
    /// parameters: the second phase of the router's distributed RANK.
    /// Every `f64` travels as `f64::to_bits` hex, so sharded scores equal
    /// an unsharded engine's to the last ulp.
    WeightedRank {
        /// Result budget.
        k: usize,
        /// `f64::to_bits` of the BM25 `k1` parameter.
        k1_bits: u64,
        /// `f64::to_bits` of the BM25 `b` parameter.
        b_bits: u64,
        /// `f64::to_bits` of the corpus-global average document length.
        avgdl_bits: u64,
        /// `(term, idf-bits)` in canonical sorted order.
        terms: Vec<(String, u64)>,
    },
    /// `DOC <id>` — fetch a stored document.
    Doc(u32),
    /// `STATS` — serving counters and epoch.
    Stats,
    /// `PING` — liveness check, never queued.
    Ping,
}

impl Request {
    /// Parse one request line. Unknown verbs and malformed operands are
    /// [`ServeError::BadRequest`].
    pub fn parse(line: &str) -> Result<Self, ServeError> {
        let bad = |m: String| ServeError::BadRequest(m);
        let line = line.trim();
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        match verb.to_ascii_uppercase().as_str() {
            "QUERY" if !rest.is_empty() => Ok(Self::Boolean(rest.to_string())),
            "PHRASE" if !rest.is_empty() => Ok(Self::Phrase(rest.to_string())),
            "NEAR" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                let [w1, w2, win] = parts.as_slice() else {
                    return Err(bad(format!("NEAR wants `w1 w2 window`, got {rest:?}")));
                };
                let window = win.parse().map_err(|e| bad(format!("NEAR window: {e}")))?;
                Ok(Self::Near(w1.to_string(), w2.to_string(), window))
            }
            "LIKE" => {
                let (k, text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| bad(format!("LIKE wants `k text`, got {rest:?}")))?;
                let k = k.parse().map_err(|e| bad(format!("LIKE k: {e}")))?;
                Ok(Self::Like(k, text.trim().to_string()))
            }
            "RANK" => {
                let (k, text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| bad(format!("RANK wants `k text`, got {rest:?}")))?;
                let k = k.parse().map_err(|e| bad(format!("RANK k: {e}")))?;
                Ok(Self::Rank(k, text.trim().to_string()))
            }
            "DF" => {
                if rest.is_empty() {
                    return Err(bad("DF wants at least one term".into()));
                }
                Ok(Self::Df(rest.split_whitespace().map(str::to_string).collect()))
            }
            "WLIKE" => {
                let mut it = rest.split_whitespace();
                let k = operand("WLIKE", "k", it.next())?;
                Ok(Self::WeightedLike(k, weighted_terms("WLIKE", it)?))
            }
            "WRANK" => {
                let mut it = rest.split_whitespace();
                let k = operand("WRANK", "k", it.next())?;
                let k1_bits = wrank_bits(it.next(), "k1 bits")?;
                let b_bits = wrank_bits(it.next(), "b bits")?;
                let avgdl_bits = wrank_bits(it.next(), "avgdl bits")?;
                let terms = weighted_terms("WRANK", it)?;
                Ok(Self::WeightedRank { k, k1_bits, b_bits, avgdl_bits, terms })
            }
            "DOC" => {
                let id = rest.parse().map_err(|e| bad(format!("DOC id: {e}")))?;
                Ok(Self::Doc(id))
            }
            "STATS" if rest.is_empty() => Ok(Self::Stats),
            "PING" if rest.is_empty() => Ok(Self::Ping),
            "" => Err(bad("empty request".into())),
            other => Err(bad(format!("unknown verb {other:?}"))),
        }
    }

    /// The typed engine query this request asks for — the one place wire
    /// verbs meet the engine's query surface. `None` for `STATS` and
    /// `PING`, which the serving layer answers itself. `RANK` carries no
    /// parameters on the wire, so it is scored with the given `bm25`.
    pub fn engine_query(&self, bm25: Bm25Params) -> Option<EngineQuery> {
        let decode = |terms: &[(String, u64)]| -> Vec<(String, f64)> {
            terms.iter().map(|(t, bits)| (t.clone(), f64::from_bits(*bits))).collect()
        };
        Some(match self {
            Self::Boolean(q) => EngineQuery::Boolean(q.clone()),
            Self::Phrase(p) => EngineQuery::Phrase(p.clone()),
            Self::Near(w1, w2, win) => {
                EngineQuery::Near { w1: w1.clone(), w2: w2.clone(), window: *win }
            }
            Self::Like(k, text) => EngineQuery::Like { text: text.clone(), k: *k },
            Self::Rank(k, text) => EngineQuery::Rank { text: text.clone(), k: *k, params: bm25 },
            Self::Df(terms) => EngineQuery::Dfs(terms.clone()),
            Self::WeightedLike(k, terms) => {
                EngineQuery::WeightedLike { terms: decode(terms), k: *k }
            }
            Self::WeightedRank { k, k1_bits, b_bits, avgdl_bits, terms } => {
                EngineQuery::WeightedRank {
                    terms: decode(terms),
                    k: *k,
                    params: Bm25Params {
                        k1: f64::from_bits(*k1_bits),
                        b: f64::from_bits(*b_bits),
                    },
                    avgdl: f64::from_bits(*avgdl_bits),
                }
            }
            Self::Doc(id) => EngineQuery::Doc(DocId(*id)),
            Self::Stats | Self::Ping => return None,
        })
    }

    /// The normalized cache key, or `None` for uncacheable requests
    /// (`DOC` is cheap and identity-keyed; `STATS`/`PING` are not queries).
    ///
    /// Normalization makes textually different spellings of the same query
    /// share one cache entry: case-folded, parentheses spaced out, all
    /// whitespace runs collapsed — `" Cat AND( dog )"` and `"cat and (dog)"`
    /// both key as `b:cat and ( dog )`.
    pub fn cache_key(&self) -> Option<String> {
        match self {
            Self::Boolean(q) => Some(format!("b:{}", normalize_query(q))),
            Self::Phrase(p) => Some(format!("p:{}", normalize_query(p))),
            Self::Near(w1, w2, win) => Some(format!(
                "n:{}:{}:{win}",
                w1.to_ascii_lowercase(),
                w2.to_ascii_lowercase()
            )),
            Self::Like(k, text) => Some(format!("l:{k}:{}", normalize_query(text))),
            Self::Rank(k, text) => Some(format!("r:{k}:{}", normalize_query(text))),
            // DF/WLIKE/WRANK are the router's internal fan-out verbs: the
            // router caches at its own layer (keyed by the client request),
            // so caching the halves again would only double the memory.
            Self::Df(_) | Self::WeightedLike(_, _) | Self::WeightedRank { .. } => None,
            Self::Doc(_) | Self::Stats | Self::Ping => None,
        }
    }

    /// Render as a request line (inverse of [`Request::parse`]).
    pub fn to_wire(&self) -> String {
        match self {
            Self::Boolean(q) => format!("QUERY {q}"),
            Self::Phrase(p) => format!("PHRASE {p}"),
            Self::Near(w1, w2, win) => format!("NEAR {w1} {w2} {win}"),
            Self::Like(k, text) => format!("LIKE {k} {text}"),
            Self::Rank(k, text) => format!("RANK {k} {text}"),
            Self::Df(terms) => format!("DF {}", terms.join(" ")),
            Self::WeightedLike(k, terms) => format!("WLIKE {k}{}", Weighted(terms)),
            Self::WeightedRank { k, k1_bits, b_bits, avgdl_bits, terms } => {
                format!("WRANK {k} {k1_bits:x} {b_bits:x} {avgdl_bits:x}{}", Weighted(terms))
            }
            Self::Doc(id) => format!("DOC {id}"),
            Self::Stats => "STATS".to_string(),
            Self::Ping => "PING".to_string(),
        }
    }
}

/// Renders the ` <n> <term>:<weight-bits-hex>...` tail of a `WLIKE`/`WRANK`
/// line; [`weighted_terms`] parses it.
struct Weighted<'a>(&'a [(String, u64)]);

impl std::fmt::Display for Weighted<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, " {}", self.0.len())?;
        self.0.iter().try_for_each(|(term, bits)| write!(f, " {term}:{bits:x}"))
    }
}

fn weighted_terms(
    verb: &str,
    it: std::str::SplitWhitespace<'_>,
) -> Result<Vec<(String, u64)>, ServeError> {
    let bad = |m: String| ServeError::BadRequest(m);
    counted(verb, "term", it, |t| {
        let (term, bits) =
            t.rsplit_once(':').ok_or_else(|| bad(format!("{verb} term {t:?} missing ':'")))?;
        let bits = u64::from_str_radix(bits, 16)
            .map_err(|e| bad(format!("{verb} weight bits: {e}")))?;
        Ok((term.to_string(), bits))
    })
}

/// One whitespace-separated operand of a request or reply line.
fn operand<T: std::str::FromStr<Err: std::fmt::Display>>(
    verb: &str,
    what: &str,
    token: Option<&str>,
) -> Result<T, ServeError> {
    let token = token.ok_or_else(|| ServeError::BadRequest(format!("{verb} missing {what}")))?;
    token.parse().map_err(|e| ServeError::BadRequest(format!("{verb} {what}: {e}")))
}

/// One hex-encoded `f64::to_bits` operand of a `WRANK` line.
fn wrank_bits(token: Option<&str>, what: &str) -> Result<u64, ServeError> {
    let token =
        token.ok_or_else(|| ServeError::BadRequest(format!("WRANK missing {what}")))?;
    u64::from_str_radix(token, 16)
        .map_err(|e| ServeError::BadRequest(format!("WRANK {what}: {e}")))
}

/// Lowercase-hex encode arbitrary bytes for line-framed transport (the
/// WALTAIL reply body ships WAL record payloads this way — hex keeps the
/// one-line-per-record framing byte-safe).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Invert [`to_hex`].
pub fn from_hex(text: &str) -> Result<Vec<u8>, ServeError> {
    let bad = |m: String| ServeError::BadRequest(m);
    let text = text.trim();
    if !text.is_ascii() {
        return Err(bad("hex line has non-ASCII bytes".into()));
    }
    if !text.len().is_multiple_of(2) {
        return Err(bad(format!("hex line has odd length {}", text.len())));
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&text[i..i + 2], 16).map_err(|e| bad(format!("hex byte: {e}")))
        })
        .collect()
}

/// Case-fold, space out parentheses, collapse whitespace.
pub fn normalize_query(text: &str) -> String {
    text.to_ascii_lowercase()
        .replace('(', " ( ")
        .replace(')', " ) ")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Serving counters reported by `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Documents in the index.
    pub docs: u64,
    /// Queries executed (cache hits included).
    pub queries: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Capacity evictions.
    pub cache_evictions: u64,
    /// Stale-epoch lazy drops.
    pub cache_stale_drops: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests expired in the queue.
    pub timeouts: u64,
    /// Batches ingested by the writer.
    pub batches: u64,
}

impl ServeStats {
    /// Every counter under its wire name, in wire order: the one list the
    /// `STATS` rendering, its parser and the router's per-shard sum walk.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 9] {
        [
            ("docs", &mut self.docs),
            ("queries", &mut self.queries),
            ("cache_hits", &mut self.cache_hits),
            ("cache_misses", &mut self.cache_misses),
            ("cache_evictions", &mut self.cache_evictions),
            ("cache_stale_drops", &mut self.cache_stale_drops),
            ("shed", &mut self.shed),
            ("timeouts", &mut self.timeouts),
            ("batches", &mut self.batches),
        ]
    }
}

/// What a successfully executed request returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Matching document ids, ascending (boolean/phrase/proximity).
    Docs(Vec<u32>),
    /// Ranked `(doc, score)` hits, best first (vector model).
    Hits(Vec<(u32, f64)>),
    /// `DF` answer: the engine's corpus counters plus one document
    /// frequency per requested term (0 for unknown words), in request
    /// order. The token count rides along so the router can compute the
    /// corpus-global average document length for distributed BM25.
    Df {
        /// Documents in the engine.
        docs: u64,
        /// Total lexer tokens across those documents.
        tokens: u64,
        /// Per-term document frequencies, in request order.
        dfs: Vec<u64>,
    },
    /// A stored document, if present.
    Text(Option<String>),
    /// Serving counters.
    Stats(ServeStats),
    /// `PING` answer.
    Pong,
}

/// The reply body — everything after the stamp: `DOCS 2 1 5`, `PONG`, ...
impl std::fmt::Display for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Docs(ids) => {
                write!(f, "DOCS {}", ids.len())?;
                ids.iter().try_for_each(|id| write!(f, " {id}"))
            }
            Payload::Hits(hits) => {
                // `{score}` is Rust's shortest-round-trip f64 rendering:
                // parsing it back yields the identical bits, so scores can
                // be oracle-checked for exact equality across the wire.
                write!(f, "HITS {}", hits.len())?;
                hits.iter().try_for_each(|(id, score)| write!(f, " {id}:{score}"))
            }
            Payload::Df { docs, tokens, dfs } => {
                write!(f, "DF {docs} {tokens} {}", dfs.len())?;
                dfs.iter().try_for_each(|df| write!(f, " {df}"))
            }
            Payload::Text(Some(text)) => write!(f, "TEXT {}", text.escape_default()),
            Payload::Text(None) => f.write_str("NONE"),
            Payload::Stats(stats) => {
                f.write_str("STATS")?;
                // A copy (twelve words), because the one field list lends `&mut`.
                let mut stats = *stats;
                stats.fields_mut().iter().try_for_each(|(name, v)| write!(f, " {name}={v}"))
            }
            Payload::Pong => f.write_str("PONG"),
        }
    }
}

/// The counted lists of the protocol, requests and replies alike: a
/// leading `<n>`, then exactly `n` items (`what`s, for the error text).
fn counted<T>(
    kind: &str,
    what: &str,
    mut it: std::str::SplitWhitespace<'_>,
    item: impl Fn(&str) -> Result<T, ServeError>,
) -> Result<Vec<T>, ServeError> {
    let bad = |m: String| ServeError::BadRequest(m);
    let n: usize = it
        .next()
        .ok_or_else(|| bad(format!("{kind} missing {what} count")))?
        .parse()
        .map_err(|e| bad(format!("{kind} count: {e}")))?;
    let items: Vec<T> = it.map(item).collect::<Result<_, _>>()?;
    if items.len() != n {
        return Err(bad(format!("{kind} count {n} != {} {what}s", items.len())));
    }
    Ok(items)
}

impl Payload {
    /// Parse a reply body back (inverse of the `Display` rendering).
    pub fn parse(body: &str) -> Result<Self, ServeError> {
        let bad = |m: String| ServeError::BadRequest(m);
        let (kind, args) = body.split_once(' ').unwrap_or((body, ""));
        Ok(match kind {
            "DOCS" => Payload::Docs(counted(kind, "id", args.split_whitespace(), |t| {
                t.parse().map_err(|e| bad(format!("doc id: {e}")))
            })?),
            "HITS" => Payload::Hits(counted(kind, "hit", args.split_whitespace(), |t| {
                let (id, score) =
                    t.split_once(':').ok_or_else(|| bad(format!("hit {t:?} missing ':'")))?;
                Ok((
                    id.parse().map_err(|e| bad(format!("hit id: {e}")))?,
                    score.parse().map_err(|e| bad(format!("hit score: {e}")))?,
                ))
            })?),
            "DF" => {
                let mut it = args.split_whitespace();
                let docs = operand(kind, "docs", it.next())?;
                let tokens = operand(kind, "tokens", it.next())?;
                let dfs = counted(kind, "value", it, |t| {
                    t.parse().map_err(|e| bad(format!("df value: {e}")))
                })?;
                Payload::Df { docs, tokens, dfs }
            }
            "TEXT" => Payload::Text(Some(unescape(args)?)),
            "NONE" => Payload::Text(None),
            "STATS" => {
                let mut stats = ServeStats::default();
                for kv in args.split_whitespace() {
                    let (k, v) =
                        kv.split_once('=').ok_or_else(|| bad(format!("stats field {kv:?}")))?;
                    let v: u64 = v.parse().map_err(|e| bad(format!("stats {k}: {e}")))?;
                    let mut fields = stats.fields_mut();
                    let field = fields
                        .iter_mut()
                        .find(|(name, _)| *name == k)
                        .ok_or_else(|| bad(format!("unknown stats field {k:?}")))?;
                    *field.1 = v;
                }
                Payload::Stats(stats)
            }
            "PONG" => Payload::Pong,
            other => return Err(bad(format!("unknown payload kind {other:?}"))),
        })
    }
}

/// What stands between `OK` and the payload: the state the answer was
/// computed at. A shard stamps one epoch (`OK 3 ...`), the router one
/// epoch per shard, comma-joined (`OK 4,3,4 ...`); everything after the
/// stamp is the same [`Payload`] codec.
pub trait Stamp: Sized {
    /// Append the stamp's wire form.
    fn render(&self, out: &mut String);
    /// Parse the wire form back.
    fn parse(text: &str) -> Result<Self, ServeError>;
}

impl Stamp for u64 {
    fn render(&self, out: &mut String) {
        use std::fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{self}");
    }

    fn parse(text: &str) -> Result<Self, ServeError> {
        text.parse().map_err(|e| ServeError::BadRequest(format!("epoch {text:?}: {e}")))
    }
}

impl Stamp for Vec<u64> {
    fn render(&self, out: &mut String) {
        for (i, epoch) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            epoch.render(out);
        }
    }

    fn parse(text: &str) -> Result<Self, ServeError> {
        text.split(',').map(u64::parse).collect()
    }
}

/// Start a success line: `OK <stamp> ` — the caller appends the body (a
/// rendered [`Payload`], or a write acknowledgement such as `ADDED 2`).
pub(crate) fn ok_line(stamp: &impl Stamp) -> String {
    let mut line = String::from("OK ");
    stamp.render(&mut line);
    line.push(' ');
    line
}

/// Render a successful answer: `OK <stamp> <payload>`.
pub fn reply_to_wire(stamp: &impl Stamp, payload: &Payload) -> String {
    use std::fmt::Write as _;
    let mut line = ok_line(stamp);
    // Writing into a `String` cannot fail.
    let _ = write!(line, "{payload}");
    line
}

/// Parse a reply line back into `Ok((stamp, payload))` / `Err(ServeError)`
/// — the client half of the protocol, for either stamp. Error lines keep
/// only their code; the free-text message is not reconstructed
/// field-by-field.
pub fn parse_reply<S: Stamp>(
    line: &str,
) -> Result<Result<(S, Payload), ServeError>, ServeError> {
    let bad = |m: String| ServeError::BadRequest(m);
    let line = line.trim_end();
    if let Some(rest) = line.strip_prefix("ERR ") {
        let (code, msg) = rest.split_once(' ').unwrap_or((rest, ""));
        let err = match code {
            "overloaded" => ServeError::Overloaded { depth: 0, high_water: 0 },
            "timeout" => ServeError::Timeout {
                waited: std::time::Duration::ZERO,
                deadline: std::time::Duration::ZERO,
            },
            "badrequest" => ServeError::BadRequest(msg.to_string()),
            "engine" => ServeError::Engine(msg.to_string()),
            "shutdown" => ServeError::Shutdown,
            other => return Err(bad(format!("unknown error code {other:?}"))),
        };
        return Ok(Err(err));
    }
    let rest = line
        .strip_prefix("OK ")
        .ok_or_else(|| bad(format!("response line {line:?} is neither OK nor ERR")))?;
    let (stamp, body) =
        rest.split_once(' ').ok_or_else(|| bad("OK line missing payload".into()))?;
    Ok(Ok((S::parse(stamp)?, Payload::parse(body)?)))
}

/// A successful answer: the payload plus the epoch it was computed at.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Batch epoch of the snapshot the result reflects.
    pub epoch: u64,
    /// The result itself.
    pub payload: Payload,
}

impl Response {
    /// Render as a response line: `OK <epoch> <payload>`.
    pub fn to_wire(&self) -> String {
        reply_to_wire(&self.epoch, &self.payload)
    }
}

/// Render an error as a response line: `ERR <code> <message>`.
pub fn error_to_wire(err: &ServeError) -> String {
    format!("ERR {} {err}", err.code())
}

/// [`parse_reply`] for a shard's single-epoch stamp, used by the load
/// generator and tests.
pub fn parse_response(line: &str) -> Result<Result<Response, ServeError>, ServeError> {
    Ok(parse_reply(line)?.map(|(epoch, payload)| Response { epoch, payload }))
}

/// Invert [`str::escape_default`] for the subset it emits.
fn unescape(text: &str) -> Result<String, ServeError> {
    let bad = |m: &str| ServeError::BadRequest(format!("TEXT unescape: {m}"));
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('\\') => out.push('\\'),
            Some('\'') => out.push('\''),
            Some('"') => out.push('"'),
            Some('0') => out.push('\0'),
            Some('u') => {
                let rest: String = chars.clone().collect();
                let inner = rest
                    .strip_prefix('{')
                    .and_then(|r| r.split_once('}'))
                    .ok_or_else(|| bad("malformed \\u{...}"))?;
                let code =
                    u32::from_str_radix(inner.0, 16).map_err(|_| bad("bad hex in \\u{...}"))?;
                out.push(char::from_u32(code).ok_or_else(|| bad("invalid scalar"))?);
                for _ in 0..inner.0.len() + 2 {
                    chars.next();
                }
            }
            _ => return Err(bad("dangling backslash")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_lines() {
        assert_eq!(
            Request::parse("QUERY (cat and dog) or mouse").unwrap(),
            Request::Boolean("(cat and dog) or mouse".into())
        );
        assert_eq!(
            Request::parse("  near cat dog 5 ").unwrap(),
            Request::Near("cat".into(), "dog".into(), 5)
        );
        assert_eq!(
            Request::parse("LIKE 3 incremental index updates").unwrap(),
            Request::Like(3, "incremental index updates".into())
        );
        assert_eq!(
            Request::parse("RANK 5 inverted list maintenance").unwrap(),
            Request::Rank(5, "inverted list maintenance".into())
        );
        assert_eq!(Request::parse("DOC 17").unwrap(), Request::Doc(17));
        assert_eq!(Request::parse("STATS").unwrap(), Request::Stats);
        assert_eq!(Request::parse("PING").unwrap(), Request::Ping);
        for bad in [
            "", "QUERY", "NEAR cat dog", "NEAR cat dog x", "LIKE 3", "RANK 3", "RANK x cat",
            "DOC abc", "FROB x",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn request_wire_round_trips() {
        for req in [
            Request::Boolean("(cat and dog) or mouse".into()),
            Request::Phrase("inverted lists".into()),
            Request::Near("cat".into(), "dog".into(), 5),
            Request::Like(7, "some text".into()),
            Request::Rank(4, "some other text".into()),
            Request::Df(vec!["cat".into(), "dog".into()]),
            Request::WeightedLike(
                2,
                vec![("cat".into(), 1.5f64.to_bits()), ("dog".into(), 0.1f64.to_bits())],
            ),
            Request::WeightedRank {
                k: 3,
                k1_bits: 1.2f64.to_bits(),
                b_bits: 0.75f64.to_bits(),
                avgdl_bits: (10.0f64 / 3.0).to_bits(),
                terms: vec![("cat".into(), 2.0f64.ln().to_bits()), ("dog".into(), 0.1f64.to_bits())],
            },
            Request::Doc(3),
            Request::Stats,
            Request::Ping,
        ] {
            assert_eq!(Request::parse(&req.to_wire()).unwrap(), req);
        }
    }

    #[test]
    fn wlike_weight_bits_survive_the_wire_exactly() {
        // 0.1 has no finite binary expansion — if the wire rendered the
        // weight as decimal text, the bits would drift.
        let w = 0.1f64 + 0.2f64;
        let req = Request::WeightedLike(5, vec![("x".into(), w.to_bits())]);
        let Request::WeightedLike(_, terms) = Request::parse(&req.to_wire()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(f64::from_bits(terms[0].1).to_bits(), w.to_bits());
        for bad in ["WLIKE", "WLIKE 3", "WLIKE 3 1", "WLIKE 3 1 nocolon", "WLIKE 3 2 a:1"] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(Request::parse("DF").is_err());
    }

    #[test]
    fn wrank_operands_survive_the_wire_exactly() {
        let req = Request::WeightedRank {
            k: 9,
            k1_bits: 1.2f64.to_bits(),
            b_bits: 0.75f64.to_bits(),
            avgdl_bits: (7.0f64 / 3.0).to_bits(),
            terms: vec![("alpha".into(), (0.1f64 + 0.2).to_bits())],
        };
        assert_eq!(Request::parse(&req.to_wire()).unwrap(), req);
        for bad in [
            "WRANK",
            "WRANK 3",
            "WRANK 3 ff",
            "WRANK 3 ff ff",
            "WRANK 3 ff ff ff",
            "WRANK 3 ff ff ff 1",
            "WRANK 3 ff ff ff 1 nocolon",
            "WRANK 3 xx ff ff 0",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn normalization_folds_spelling_variants() {
        assert_eq!(
            Request::Boolean(" Cat AND( dog )".into()).cache_key(),
            Request::Boolean("cat and (dog)".into()).cache_key()
        );
        assert_ne!(
            Request::Boolean("cat".into()).cache_key(),
            Request::Phrase("cat".into()).cache_key()
        );
        assert_ne!(
            Request::Like(3, "cat".into()).cache_key(),
            Request::Like(4, "cat".into()).cache_key()
        );
        assert_ne!(
            Request::Like(3, "cat".into()).cache_key(),
            Request::Rank(3, "cat".into()).cache_key()
        );
        assert_eq!(
            Request::Rank(3, " Cat  dog".into()).cache_key(),
            Request::Rank(3, "cat dog".into()).cache_key()
        );
        assert_eq!(Request::Doc(1).cache_key(), None);
        assert_eq!(Request::Stats.cache_key(), None);
    }

    #[test]
    fn response_wire_round_trips() {
        let cases = vec![
            Response { epoch: 3, payload: Payload::Docs(vec![1, 5, 9]) },
            Response { epoch: 0, payload: Payload::Docs(vec![]) },
            Response { epoch: 8, payload: Payload::Hits(vec![(4, 1.5), (2, 0.25)]) },
            // Non-dyadic scores must round-trip bit-exactly for the
            // router's oracle checks to use ==.
            Response {
                epoch: 8,
                payload: Payload::Hits(vec![(1, 0.1f64 + 0.2f64), (9, 2.0f64.ln())]),
            },
            Response { epoch: 5, payload: Payload::Df { docs: 42, tokens: 314, dfs: vec![7, 0, 3] } },
            Response { epoch: 0, payload: Payload::Df { docs: 0, tokens: 0, dfs: vec![] } },
            Response {
                epoch: 2,
                payload: Payload::Text(Some("line one\nline \"two\"\ttab".into())),
            },
            Response { epoch: 2, payload: Payload::Text(Some("caf\u{e9} \u{1F600}".into())) },
            Response { epoch: 1, payload: Payload::Text(None) },
            Response {
                epoch: 9,
                payload: Payload::Stats(ServeStats {
                    docs: 10,
                    queries: 7,
                    cache_hits: 3,
                    cache_misses: 4,
                    cache_evictions: 1,
                    cache_stale_drops: 2,
                    shed: 5,
                    timeouts: 6,
                    batches: 8,
                }),
            },
            Response { epoch: 4, payload: Payload::Pong },
        ];
        for resp in cases {
            let line = resp.to_wire();
            assert!(!line.contains('\n'), "payload leaked a newline: {line:?}");
            assert_eq!(parse_response(&line).unwrap().unwrap(), resp);
        }
    }

    #[test]
    fn error_wire_round_trips_codes() {
        for err in [
            ServeError::Overloaded { depth: 9, high_water: 8 },
            ServeError::Timeout {
                waited: std::time::Duration::from_millis(5),
                deadline: std::time::Duration::from_millis(2),
            },
            ServeError::BadRequest("nope".into()),
            ServeError::Shutdown,
        ] {
            let parsed = parse_response(&error_to_wire(&err)).unwrap().unwrap_err();
            assert_eq!(parsed.code(), err.code());
        }
        assert!(parse_response("GARBAGE").is_err());
        assert!(parse_response("OK x DOCS 0").is_err());
        assert!(parse_response("OK 1 DOCS 2 5").is_err());
    }
}
