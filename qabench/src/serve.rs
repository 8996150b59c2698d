//! The `serve_http` workload: the release `relpat-serve` binary driven over
//! loopback by this process, first in a closed loop with one client, then
//! open loop on a ladder of fixed rates.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use relpat_kb::{generate, qald_questions, KbConfig, KnowledgeBase};
use relpat_obs::{Json, Rng};
use relpat_qa::Pipeline;
use relpat_sparql::QueryResult;

use crate::openloop;
use crate::report::{peak_rss_mb, Layers, Outcome};
use crate::spans::{both_ways, self_time_by_name, Tracer};
use crate::stats::{mean, ratio};
use crate::{gen, Args};

/// Open-loop rates, requests per second, lowest first. The lowest rung
/// supplies the reported latency percentiles.
const RATES: &[f64] = &[200.0, 400.0, 800.0, 1200.0, 1600.0];
/// Share of the run spent on the lowest rung; the other rungs split the
/// time left after the closed loop.
const LOW_RUNG_SHARE: f64 = 0.5;
const CLOSED_LOOP_SHARE: f64 = 0.2;
/// Latency limits from the server's default objectives (`--slo-answer-ms`,
/// `--slo-sparql-ms`), checked on the 99th percentile.
const ANSWER_LIMIT_US: f64 = 250_000.0;
const SPARQL_LIMIT_US: f64 = 100_000.0;
/// Share of requests that are raw SPARQL; the rest are questions.
const SPARQL_SHARE: f64 = 0.1;
/// Entries in the seeded request sequence (cycled). `answered_ratio` is
/// judged over all of them, so a seed moves it by only about 0.002.
const MIX_LEN: usize = 16_384;
const SERVER_STARTS: usize = 3;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Req {
    Answer(String),
    Sparql(String),
}

impl Req {
    fn path_and_body(&self) -> (&'static str, String) {
        match self {
            Req::Answer(q) => (
                "/answer",
                Json::obj().set("question", q.as_str()).to_string(),
            ),
            Req::Sparql(s) => ("/sparql", Json::obj().set("query", s.as_str()).to_string()),
        }
    }
}

/// What the in-process system returns for a request, in the shape the
/// server renders it.
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    Answers(Vec<String>),
    Rows(Vec<Vec<Option<String>>>),
    Boolean(bool),
}

impl Expected {
    fn answered(&self) -> bool {
        match self {
            Expected::Answers(a) => !a.is_empty(),
            Expected::Rows(r) => !r.is_empty(),
            Expected::Boolean(b) => *b,
        }
    }

    /// Parses a 200 response body into the same shape.
    fn from_body(req: &Req, body: &[u8]) -> Option<Expected> {
        let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
        let strings = |v: &Json| -> Option<Vec<Option<String>>> {
            v.as_array()?
                .iter()
                .map(|c| match c {
                    Json::Null => Some(None),
                    other => other.as_str().map(|s| Some(s.to_string())),
                })
                .collect()
        };
        match req {
            Req::Answer(_) => {
                let answers = strings(json.get("answers")?)?;
                Some(Expected::Answers(
                    answers.into_iter().collect::<Option<Vec<_>>>()?,
                ))
            }
            Req::Sparql(_) => match json.get("kind")?.as_str()? {
                "boolean" => Some(Expected::Boolean(json.get("value")?.as_bool()?)),
                _ => {
                    let rows = json.get("rows")?.as_array()?;
                    Some(Expected::Rows(
                        rows.iter().map(strings).collect::<Option<Vec<_>>>()?,
                    ))
                }
            },
        }
    }
}

fn expected(kb: &KnowledgeBase, pipeline: &Pipeline<'_>, req: &Req) -> Expected {
    match req {
        Req::Answer(q) => Expected::Answers(pipeline.answer(q).answer_texts(kb)),
        Req::Sparql(s) => match kb.query(s).expect("generated SPARQL runs") {
            QueryResult::Boolean(b) => Expected::Boolean(b),
            QueryResult::Solutions(sols) => Expected::Rows(
                sols.rows
                    .iter()
                    .map(|r| {
                        r.iter()
                            .map(|c| c.as_ref().map(|t| t.to_string()))
                            .collect()
                    })
                    .collect(),
            ),
        },
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes every
/// connection after one response). Returns the status and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// A running server process; dropping it stops the process.
struct Server {
    child: Option<Child>,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the binary on a free port and waits until `/readyz` returns
    /// 200. Returns the server and the time from spawn to ready.
    fn start(bin: &Path) -> std::io::Result<(Server, f64)> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child: Some(child),
            addr: ([127, 0, 0, 1], 0).into(),
            drain: None,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("server exited before listening"));
            }
            if let Some(rest) = line.strip_prefix("listening on http://") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr = addr.parse().map_err(std::io::Error::other)?;
                break;
            }
        }
        server.drain = Some(std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        }));
        loop {
            if let Ok((200, _)) = http(server.addr, "GET", "/readyz", "") {
                return Ok((server, start.elapsed().as_secs_f64()));
            }
            if start.elapsed() > Duration::from_secs(120) {
                return Err(std::io::Error::other("server not ready after 120 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Asks the server to drain, then waits for it (killing it after 10 s).
    fn stop(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let _ = http(self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = child.kill();
        let _ = child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sends request `i` of the mix and checks the body. Returns (ok,
/// answered, response bytes).
fn exchange(addr: SocketAddr, req: &Req, want: &Expected) -> (bool, bool, usize) {
    let (path, body) = req.path_and_body();
    match http(addr, "POST", path, &body) {
        Ok((200, body)) => {
            let got = Expected::from_body(req, &body);
            (got.as_ref() == Some(want), want.answered(), body.len())
        }
        _ => (false, false, 0),
    }
}

pub fn run_serve(args: &Args, out: &mut Outcome) {
    let bin = args
        .serve_bin
        .as_deref()
        .expect("serve_http needs --serve-bin");

    // The same system in-process, as the oracle for every response body.
    let kb: &'static KnowledgeBase = Box::leak(Box::new(generate(&KbConfig::default())));
    out.provenance_kb(1, kb);
    let pipeline = Pipeline::new(kb);
    let mut rng = Rng::seed_from_u64(args.seed);
    let questions: Vec<String> = qald_questions(kb)
        .into_iter()
        .map(|q| q.text)
        .chain(gen::templated_pool(kb).into_iter().map(|t| t.text))
        .collect();
    let sparql: Vec<String> = qald_questions(kb)
        .into_iter()
        .filter_map(|q| q.gold_sparql)
        .chain(
            gen::store_queries(&gen::StorePools::new(kb), &mut rng, 200)
                .into_iter()
                .map(|q| q.text),
        )
        .collect();
    let mix: Vec<Req> = (0..MIX_LEN)
        .map(|_| {
            if rng.gen_bool(SPARQL_SHARE) {
                Req::Sparql(sparql[rng.gen_range(0..sparql.len())].clone())
            } else {
                Req::Answer(questions[rng.gen_range(0..questions.len())].clone())
            }
        })
        .collect();
    let mut memo: HashMap<&Req, Expected> = HashMap::new();
    let want: Vec<Expected> = mix
        .iter()
        .map(|r| {
            memo.entry(r)
                .or_insert_with(|| expected(kb, &pipeline, r))
                .clone()
        })
        .collect();

    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SERVER_STARTS {
        if let Some(mut s) = server.take() {
            Server::stop(&mut s);
        }
        match Server::start(bin) {
            Ok((s, t)) => {
                setup.push(t);
                server = Some(s);
            }
            Err(e) => {
                out.fail_check(format!("server did not start: {e}"));
                return;
            }
        }
    }
    let mut server = server.expect("started above");
    out.setup(&setup);
    let addr = server.addr;

    let attempted = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let send = |i: usize| {
        let k = i % MIX_LEN;
        let (ok, _, _) = exchange(addr, &mix[k], &want[k]);
        attempted.fetch_add(1, Relaxed);
        failed.fetch_add(u64::from(!ok), Relaxed);
        ok
    };

    // Warm the server's caches, then one client in a closed loop.
    let warm = Instant::now();
    let mut i = 0;
    while warm.elapsed().as_secs_f64() < 0.3 {
        exchange(addr, &mix[i % MIX_LEN], &want[i % MIX_LEN]);
        i += 1;
    }
    let closed_s = args.seconds * CLOSED_LOOP_SHARE;
    let start = Instant::now();
    let mut done = 0;
    while start.elapsed().as_secs_f64() < closed_s {
        send(i);
        done += 1;
        i += 1;
    }
    out.set(
        "throughput_ops_s",
        done as f64 / start.elapsed().as_secs_f64(),
    );

    // Open loop on the rate ladder, at most `nproc` requests in flight.
    let conns = std::thread::available_parallelism().map_or(2, usize::from);
    let rest_s =
        args.seconds * (1.0 - CLOSED_LOOP_SHARE - LOW_RUNG_SHARE) / (RATES.len() - 1) as f64;
    let mut max_rate = 0.0;
    let mut offset = i;
    for (r, &rate) in RATES.iter().enumerate() {
        let seconds = if r == 0 {
            args.seconds * LOW_RUNG_SHARE
        } else {
            rest_s
        };
        let count = (rate * seconds).ceil() as usize;
        let kinds: Vec<bool> = (0..count)
            .map(|j| matches!(mix[(offset + j) % MIX_LEN], Req::Sparql(_)))
            .collect();
        let samples = openloop::run(rate, count, conns, |j| send(offset + j));
        offset += count;
        // The backlog grows when sends in the last quarter run later than
        // two request periods plus the 2 ms accept poll and some slack.
        let rung = openloop::summarize(&samples, 2e6 / rate + 5_000.0);
        let p99_of = |sparql: bool| {
            let lat: Vec<f64> = samples
                .iter()
                .filter(|s| kinds[s.index] == sparql)
                .map(|s| {
                    if s.ok {
                        s.latency_ns() as f64 / 1e3
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            crate::stats::percentile(&crate::stats::sorted(&lat), 99.0)
        };
        let meets = p99_of(false) <= ANSWER_LIMIT_US
            && p99_of(true) <= SPARQL_LIMIT_US
            && !rung.backlog_grew;
        out.extra(format!("rate_{rate}_p50_us"), rung.p50_us, "us");
        out.extra(format!("rate_{rate}_p99_us"), rung.p99_us, "us");
        out.extra(format!("rate_{rate}_lag_p50_us"), rung.lag_p50_us, "us");
        out.extra(
            format!("rate_{rate}_meets_limit"),
            f64::from(u8::from(meets)),
            "bool",
        );
        if r == 0 {
            out.set("latency_p50_us", rung.p50_us);
            out.extra("latency_p90_us", rung.p90_us, "us");
            out.extra("latency_p99_us", rung.p99_us, "us");
            out.extra("loadgen.lag_p50_us", rung.lag_p50_us, "us");
            out.extra("loadgen.lag_max_us", rung.lag_max_us, "us");
            out.extra("samples", samples.len() as f64, "count");
        }
        if meets {
            max_rate = rate;
        }
    }
    out.extra("max_rate_rps", max_rate, "1/s");
    out.set("peak_rss_mb", peak_rss_mb(&server.pid()).unwrap_or(0.0));

    // Answered is judged over the whole mix, outside the timed loops;
    // correct is the share of responses equal to the in-process system's.
    let n = attempted.load(Relaxed);
    let bad = failed.load(Relaxed);
    out.quality(
        n,
        bad,
        want.iter().filter(|w| w.answered()).count() as f64 / MIX_LEN as f64,
        (n - bad) as f64 / n as f64,
    );

    if args.trace {
        traced_serve(args, kb, addr, &mix, &want, out);
    }
    server.stop();
}

fn traced_serve(
    args: &Args,
    kb: &'static KnowledgeBase,
    addr: SocketAddr,
    mix: &[Req],
    want: &[Expected],
    out: &mut Outcome,
) {
    // The server's request handler, in-process, on the same requests.
    let app = relpat_serve::App::new(relpat_obs::TraceStoreConfig::default());
    app.install_pipeline(Pipeline::new(kb));
    let pipeline = Pipeline::new(kb);
    let mut t = Tracer::default();
    let (mut bytes, mut matched, mut n) = (0usize, 0u64, 0u64);
    let mut overhead_ns = Vec::new();
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds {
        let k = i % MIX_LEN;
        let req = &mix[k];
        let (path, body) = req.path_and_body();
        t.begin_request();
        let root = t.enter("serve.request");
        let (wire, in_span, u, s) =
            both_ways(&mut t, i, "serve.wire", || exchange(addr, req, &want[k]));
        untraced_ns += u;
        traced_ns += s;
        let request = relpat_serve::Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: Vec::new(),
            body: body.into_bytes(),
        };
        let span = t.enter("serve.handle");
        let response = app.handle(&request);
        let handle_ns = t.exit(span);
        if let Req::Answer(q) = req {
            let span = t.enter("qa.pipeline");
            std::hint::black_box(pipeline.answer(q));
            overhead_ns.push(handle_ns.saturating_sub(t.exit(span)) as f64);
        }
        t.exit(root);
        n += 1;
        bytes += response.body.len();
        let in_process = Expected::from_body(req, &response.body);
        matched += u64::from(
            wire.0 && in_span.0 && response.status == 200 && in_process.as_ref() == Some(&want[k]),
        );
        i += 1;
    }
    let by_name = self_time_by_name(t.spans());
    let per = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |e| e.1 as f64 / 1e3 / e.0 as f64)
    };
    let handle_us = per("serve.handle");
    let wire_us = per("serve.wire");
    let mut layers = Layers::default();
    layers.set("serve.handle_us", handle_us);
    layers.set("serve.app_overhead_us", mean(&overhead_ns) / 1e3);
    layers.set("serve.transport_us", wire_us - handle_us);
    layers.set("serve.response_bytes", bytes as f64 / n as f64);
    layers.set(
        "obs.trace_overhead_ratio",
        ratio(untraced_ns as f64, traced_ns as f64),
    );
    layers.set("trace.decomposition_ok", ratio(matched as f64, n as f64));
    if matched != n {
        out.fail_check(format!(
            "in-process handler disagreed with the server on {} of {n}",
            n - matched
        ));
    }
    if let Some(lag) = out.extra_value("loadgen.lag_p50_us") {
        layers.set("loadgen.lag_us", lag);
    }
    out.layers(layers);
}
