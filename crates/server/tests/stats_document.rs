//! The stats document's schema, pinned key by key on both backends: every
//! key in order (nested keys as `parent.child`) with the kind of its value.
//! Scripts read this document by key (`"admission":{"budget"`,
//! `"deadline_exceeded":N`, `"abandoned_pairs":N`, `"admission":null`), so
//! its keys, nesting, order, integer counters and `null` members are part of
//! the interface. The document must also parse as strict JSON, with a
//! snapshot path containing `"` and `\` escaped.

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_io::paged::{open_paged, PagedOptions};
use effres_io::snapshot::save_snapshot;
use effres_server::{Client, Server, ServerOptions};
use effres_service::{EngineOptions, QueryEngine, ResistanceBackend};
use std::path::PathBuf;
use std::sync::Arc;

/// The paged server's document: every key of the schema.
const PAGED_SCHEMA: [&str; 63] = [
    "backend: str",
    "nodes: int",
    "snapshot_version: int",
    "snapshot_path: null",
    "epoch: int",
    "reloads: int",
    "health: str",
    "scrubber: obj",
    "scrubber.pages_scrubbed: int",
    "scrubber.scrub_failures: int",
    "scrubber.quarantined: int",
    "uptime_secs: num",
    "connections: int",
    "requests: int",
    "errors: obj",
    "errors.protocol: int",
    "errors.frame: int",
    "errors.deadline_closes: int",
    "errors.idle_closes: int",
    "errors.busy_rejections: int",
    "errors.store_failures: int",
    "errors.partial_batches: int",
    "lifecycle: obj",
    "lifecycle.cancelled_batches: int",
    "lifecycle.deadline_exceeded: int",
    "lifecycle.disconnect_cancels: int",
    "lifecycle.abandoned_pairs: int",
    "lifecycle.brownout_entries: int",
    "lifecycle.brownout_exits: int",
    "lifecycle.brownout_active: bool",
    "service: obj",
    "service.queries: int",
    "service.batches: int",
    "service.pair_cache_hits: int",
    "service.pair_cache_misses: int",
    "service.pair_cache_entries: int",
    "service.pair_cache_capacity: int",
    "service.page_cache_hits: int",
    "service.page_cache_misses: int",
    "service.page_bytes_read: int",
    "service.page_column_runs: int",
    "service.page_value_reads: int",
    "service.page_readahead_reads: int",
    "service.page_retries: int",
    "service.page_faulted_reads: int",
    "service.page_skeleton_reads: int",
    "admission: obj",
    "admission.budget: int",
    "admission.available: int",
    "admission.waiting: int",
    "admission.leases: int",
    "admission.queued: int",
    "admission.shed_queue_full: int",
    "admission.shed_timeout: int",
    "admission.shed_doomed: int",
    "latency_us: obj",
    "latency_us.count: int",
    "latency_us.mean: num",
    "latency_us.p50: int",
    "latency_us.p95: int",
    "latency_us.p99: int",
    "latency_us.max: int",
    "throughput_qps: num",
];

/// The resident server's document, bound without a snapshot version and
/// with a snapshot path: no scrubber and no admission ledger.
fn resident_schema() -> Vec<&'static str> {
    PAGED_SCHEMA
        .iter()
        .filter(|key| !key.starts_with("scrubber.") && !key.starts_with("admission."))
        .map(|&key| match key {
            "snapshot_version: int" => "snapshot_version: null",
            "snapshot_path: null" => "snapshot_path: str",
            "scrubber: obj" => "scrubber: null",
            "admission: obj" => "admission: null",
            key => key,
        })
        .collect()
}

/// A parsed JSON value; numbers keep their literal.
#[derive(Debug)]
enum Value {
    Null,
    Bool,
    Num(String),
    Str(String),
    Obj(Vec<(String, Value)>),
}

/// A strict recursive-descent JSON parser for compact documents without
/// arrays (the stats document's shape); panics on anything else.
struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Value {
        let mut parser = Parser { text, at: 0 };
        let value = parser.value();
        assert_eq!(parser.at, text.len(), "trailing bytes: {text}");
        value
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.text[self.at..].starts_with(token);
        if hit {
            self.at += token.len();
        }
        hit
    }

    fn expect(&mut self, token: &str) {
        assert!(
            self.eat(token),
            "expected {token} at byte {}: {}",
            self.at,
            self.text
        );
    }

    fn value(&mut self) -> Value {
        if self.eat("null") {
            Value::Null
        } else if self.eat("true") || self.eat("false") {
            Value::Bool
        } else if self.text[self.at..].starts_with('"') {
            Value::Str(self.string())
        } else if self.eat("{") {
            let mut fields = Vec::new();
            while !self.eat("}") {
                if !fields.is_empty() {
                    self.expect(",");
                }
                let key = self.string();
                self.expect(":");
                fields.push((key, self.value()));
            }
            Value::Obj(fields)
        } else {
            Value::Num(self.number())
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> String {
        let start = self.at;
        let digits = |parser: &mut Self| {
            let run = parser.text[parser.at..]
                .bytes()
                .take_while(u8::is_ascii_digit)
                .count();
            parser.at += run;
            run
        };
        self.eat("-");
        let int_start = self.at;
        let int = digits(self);
        assert!(int > 0, "a number needs digits at byte {start}");
        assert!(
            int == 1 || !self.text[int_start..].starts_with('0'),
            "leading zero at byte {start}"
        );
        if self.eat(".") {
            assert!(digits(self) > 0, "bare decimal point at byte {start}");
        }
        if self.eat("e") || self.eat("E") {
            let _ = self.eat("+") || self.eat("-");
            assert!(digits(self) > 0, "empty exponent at byte {start}");
        }
        self.text[start..self.at].to_string()
    }

    fn string(&mut self) -> String {
        self.expect("\"");
        let mut out = String::new();
        let mut chars = self.text[self.at..].char_indices();
        loop {
            let (i, c) = chars.next().expect("unterminated string");
            match c {
                '"' => {
                    self.at += i + 1;
                    return out;
                }
                '\\' => match chars.next().expect("dangling escape").1 {
                    escaped @ ('"' | '\\' | '/') => out.push(escaped),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = (0..4).map(|_| chars.next().expect("\\u").1).collect();
                        let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                        out.push(char::from_u32(code).expect("scalar value"));
                    }
                    other => panic!("invalid escape \\{other}"),
                },
                c if (c as u32) < 0x20 => panic!("unescaped control character"),
                c => out.push(c),
            }
        }
    }
}

/// Flattens a document into `key: kind` lines, in order.
fn schema(value: &Value, prefix: &str, out: &mut Vec<String>) {
    let Value::Obj(fields) = value else {
        panic!("not an object: {value:?}");
    };
    for (key, value) in fields {
        let path = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        let kind = match value {
            Value::Null => "null",
            Value::Bool => "bool",
            Value::Num(literal) if literal.bytes().all(|b| b.is_ascii_digit()) => "int",
            Value::Num(_) => "num",
            Value::Str(_) => "str",
            Value::Obj(_) => "obj",
        };
        out.push(format!("{path}: {kind}"));
        if let Value::Obj(_) = value {
            schema(value, &path, out);
        }
    }
}

fn schema_of(document: &str) -> Vec<String> {
    let mut keys = Vec::new();
    schema(&Parser::parse(document), "", &mut keys);
    keys
}

fn estimator() -> EffectiveResistanceEstimator {
    let graph = generators::grid_2d(6, 6, 0.5, 2.0, 5).expect("generator");
    EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build")
}

/// Serves `engine`, answers one batch, and returns the live stats document
/// and the final one the serve loop hands back at shutdown.
fn stats_documents<B: ResistanceBackend + 'static>(
    engine: QueryEngine<B>,
    snapshot_version: Option<u32>,
    snapshot_path: Option<PathBuf>,
) -> (String, String) {
    let server = Server::bind_with(
        "127.0.0.1:0",
        engine,
        snapshot_version,
        snapshot_path,
        ServerOptions::default(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    let pairs: Vec<(u64, u64)> = (0..40).map(|i| (i % 36, (i * 7 + 1) % 36)).collect();
    client.query_batch(&pairs).expect("batch");
    let live = client.stats_json().expect("stats");
    client.shutdown_server().expect("shutdown");
    let last = runner.join().expect("server thread").expect("serve loop");
    (live, last)
}

#[test]
fn the_resident_stats_document_keeps_its_schema_and_escapes_the_path() {
    let path = PathBuf::from("/srv/snap\"shots\\grid.snap");
    let engine = QueryEngine::new(Arc::new(estimator()), EngineOptions::default());
    let (live, last) = stats_documents(engine, None, Some(path.clone()));
    for document in [&live, &last] {
        assert_eq!(schema_of(document), resident_schema(), "{document}");
        assert!(document.contains(r#""snapshot_path":"/srv/snap\"shots\\grid.snap","#));
        let Value::Obj(fields) = Parser::parse(document) else {
            unreachable!("schema_of checked the object");
        };
        let reported = fields.iter().find(|(key, _)| key == "snapshot_path");
        assert!(
            matches!(reported, Some((_, Value::Str(p))) if p.as_str() == path.to_str().unwrap()),
            "{document}"
        );
    }
    assert!(live.contains(r#""backend":"resident","#), "{live}");
    assert!(live.contains(r#""admission":null,"#), "{live}");
}

#[test]
fn the_paged_stats_document_keeps_its_schema() {
    let dir = std::env::temp_dir().join("effres-stats-document");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot = dir.join("grid6.snap");
    save_snapshot(&snapshot, &estimator(), None).expect("save");
    let paged = open_paged(
        &snapshot,
        &PagedOptions {
            columns_per_page: 4,
            cache_pages: 4,
            cache_shards: 1,
            ..PagedOptions::default()
        },
    )
    .expect("open");
    let engine = QueryEngine::new(Arc::new(paged), EngineOptions::default());
    let (live, last) = stats_documents(engine, Some(3), None);
    for document in [&live, &last] {
        assert_eq!(schema_of(document), PAGED_SCHEMA, "{document}");
    }
    assert!(live.contains(r#""backend":"paged","#), "{live}");
    assert!(live.contains(r#""admission":{"budget":"#), "{live}");
    assert!(live.contains(r#""scrubber":{"pages_scrubbed":"#), "{live}");
}
