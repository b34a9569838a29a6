//! End-to-end socket tests: the determinism contract (a served page is
//! byte-identical to the simulated path's page), hostile-input behavior over
//! real connections, keep-alive, backpressure, rate limiting, observability
//! endpoints, and graceful shutdown, each asserted against the epoll event
//! loop over real loopback connections.

use geoserp_engine::{EngineConfig, SearchEngine, SearchService, GEOLOCATION_HEADER, SEARCH_HOST};
use geoserp_geo::{Seed, UsGeography};
use geoserp_net::{
    encode_request, ip, parse_response, Request, Response, SimNet, Status, WireLimits,
};
use geoserp_serve::{
    loadgen, ClusterConfig, LoadgenConfig, LoadgenReport, ServeConfig, ServedWorld, ShardedCluster,
    SocketServer,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 2015;

fn world() -> ServedWorld {
    ServedWorld::build(SEED, EngineConfig::paper_defaults()).unwrap()
}

/// The simulated reference: the same world seed behind a [`SimNet`], DNS
/// pinned to datacenter 0 — mirroring how the socket server dispatches.
fn sim_reference() -> (UsGeography, Arc<SimNet>) {
    let world_seed = Seed::new(SEED);
    let geo = UsGeography::generate(world_seed);
    let corpus = Arc::new(geoserp_corpus::WebCorpus::generate(&geo, world_seed));
    let net = Arc::new(SimNet::builder(Seed::new(7)).build());
    let engine = Arc::new(
        SearchEngine::builder(corpus, &geo, world_seed)
            .config(EngineConfig::paper_defaults())
            .obs(Arc::clone(net.obs()))
            .build()
            .unwrap(),
    );
    let addrs = SearchService::install(&net, engine);
    net.dns().pin(SEARCH_HOST, addrs[0]);
    (geo, net)
}

/// Send raw bytes, half-close, read the full reply.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server may reply and close before the client finishes writing
    // (e.g. an oversized head gets its 400 mid-upload) — tolerate that.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    stream.read_to_end(&mut out).ok();
    out
}

/// Read exactly one response off an open connection.
fn read_response(stream: &mut TcpStream) -> Option<Response> {
    let limits = WireLimits::new().max_body_bytes(8 * 1024 * 1024);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((resp, used)) = parse_response(&buf, &limits).ok()? {
            assert_eq!(used, buf.len(), "no trailing bytes after one response");
            return Some(resp);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// One request over a fresh TCP connection.
fn request_tcp(addr: SocketAddr, req: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&encode_request(req).unwrap()).unwrap();
    read_response(&mut stream).expect("server must reply")
}

fn search_req(geo: &UsGeography, q: &str) -> Request {
    Request::get(SEARCH_HOST, "/search")
        .with_query("q", q)
        .with_header(
            GEOLOCATION_HEADER,
            geo.cuyahoga_districts[0].coord.to_gps_string(),
        )
        .with_header("User-Agent", "Mozilla/5.0 (iPhone; Safari 8)")
}

#[test]
fn served_pages_are_byte_identical_to_the_sim_path_epoll() {
    let (geo, net) = sim_reference();
    let world = world();
    let server = SocketServer::start("127.0.0.1:0", &world, ServeConfig::new()).unwrap();
    let addr = server.local_addr();

    // The simulated client and the TCP client share the loopback source
    // address, so the mirrored sequence numbers line up request-for-request.
    for query in ["Hospital", "starbuks", "Coffee"] {
        let req = search_req(&geo, query);
        let (sim_resp, _) = net.request(ip("127.0.0.1"), &req).unwrap();
        let tcp_resp = request_tcp(addr, &req);
        assert_eq!(
            tcp_resp, sim_resp,
            "query {query:?}: served response must equal the simulated one"
        );
        assert_eq!(tcp_resp.status, Status::Ok);
        assert_eq!(tcp_resp.header("X-Datacenter"), Some("dc0"));
        // Both pages parse to the same SERP, byte for byte.
        assert_eq!(tcp_resp.body, sim_resp.body);
        assert!(geoserp_serp::parse(&tcp_resp.body_text()).is_ok());
    }
    server.shutdown();
}

#[test]
fn hostile_inputs_get_400s_and_never_kill_the_server_epoll() {
    let (geo, _) = sim_reference();
    let world = world();
    let server = SocketServer::start(
        "127.0.0.1:0",
        &world,
        ServeConfig::new().limits(WireLimits::new().max_head_bytes(4096)),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut oversized = b"GET / HTTP/1.1\r\nHost: h\r\nX-Pad: ".to_vec();
    oversized.extend(std::iter::repeat_n(b'x', 8192));
    oversized.extend_from_slice(b"\r\n\r\n");
    let corpus: Vec<(&str, Vec<u8>)> = vec![
        (
            "unknown method",
            b"BREW /pot HTTP/1.1\r\nHost: h\r\n\r\n".to_vec(),
        ),
        ("garbage bytes", b"\x00\xff\x13\x37garbage\r\n\r\n".to_vec()),
        ("truncated request", b"GET /sea".to_vec()),
        ("missing host", b"GET / HTTP/1.1\r\n\r\n".to_vec()),
        ("oversized head", oversized),
        (
            "bad content length",
            b"GET / HTTP/1.1\r\nHost: h\r\nContent-Length: ten\r\n\r\n".to_vec(),
        ),
    ];
    for (label, bytes) in &corpus {
        let reply = send_raw(addr, bytes);
        assert!(!reply.is_empty(), "{label}: server must reply, not hang up");
        let (resp, _) = parse_response(&reply, &WireLimits::default())
            .unwrap_or_else(|e| panic!("{label}: unparseable reply: {e}"))
            .unwrap_or_else(|| panic!("{label}: truncated reply"));
        assert_eq!(resp.status, Status::BadRequest, "{label}");
    }

    // After the whole corpus, the server still serves good requests.
    let resp = request_tcp(addr, &search_req(&geo, "Hospital"));
    assert_eq!(resp.status, Status::Ok);
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_per_connection_epoll() {
    let (geo, _) = sim_reference();
    let world = world();
    let server = SocketServer::start("127.0.0.1:0", &world, ServeConfig::new()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for query in ["Hospital", "Bank", "Park"] {
        stream
            .write_all(&encode_request(&search_req(&geo, query)).unwrap())
            .unwrap();
        let resp = read_response(&mut stream).expect("keep-alive reply");
        assert_eq!(resp.status, Status::Ok, "{query}");
    }
    drop(stream);

    // keep_alive(false): the server answers one request and closes.
    let server2 =
        SocketServer::start("127.0.0.1:0", &world, ServeConfig::new().keep_alive(false)).unwrap();
    let mut stream = TcpStream::connect(server2.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&encode_request(&search_req(&geo, "Hospital")).unwrap())
        .unwrap();
    assert!(read_response(&mut stream).is_some());
    stream
        .write_all(&encode_request(&search_req(&geo, "Bank")).unwrap())
        .ok();
    assert!(
        read_response(&mut stream).is_none(),
        "without keep-alive the connection must close after one response"
    );
    server.shutdown();
    server2.shutdown();
}

#[test]
fn healthz_and_metrics_expose_the_shared_hub_epoll() {
    let (geo, _) = sim_reference();
    let world = world();
    let server = SocketServer::start("127.0.0.1:0", &world, ServeConfig::new()).unwrap();
    let addr = server.local_addr();

    let health = request_tcp(addr, &Request::get(SEARCH_HOST, "/healthz"));
    assert_eq!(health.status, Status::Ok);
    assert_eq!(health.body_text(), "ok\n");

    assert_eq!(
        request_tcp(addr, &search_req(&geo, "Hospital")).status,
        Status::Ok
    );
    let metrics = request_tcp(addr, &Request::get(SEARCH_HOST, "/metrics"));
    assert_eq!(metrics.status, Status::Ok);
    let text = metrics.body_text();
    assert!(
        text.contains("# TYPE geoserp_serve_requests counter"),
        "{text}"
    );
    assert!(text.contains("geoserp_engine_queries 1"), "{text}");
    server.shutdown();
}

#[test]
fn serve_layer_rate_limit_returns_429_epoll() {
    let (geo, _) = sim_reference();
    let world = world();
    let server = SocketServer::start(
        "127.0.0.1:0",
        &world,
        ServeConfig::new().rate_limit(3, 60_000),
    )
    .unwrap();
    let addr = server.local_addr();
    for _ in 0..3 {
        assert_eq!(
            request_tcp(addr, &search_req(&geo, "Bank")).status,
            Status::Ok
        );
    }
    let resp = request_tcp(addr, &search_req(&geo, "Bank"));
    assert_eq!(resp.status, Status::TooManyRequests);
    assert_eq!(resp.header("X-Reason"), Some("serve-layer rate limit"));
    // Probes are exempt: health stays green while search is throttled.
    assert_eq!(
        request_tcp(addr, &Request::get(SEARCH_HOST, "/healthz")).status,
        Status::Ok
    );
    server.shutdown();
}

#[test]
fn full_accept_queue_sheds_load_with_503_epoll() {
    let world = world();
    let server = SocketServer::start(
        "127.0.0.1:0",
        &world,
        ServeConfig::new()
            .workers(1)
            .queue_depth(1)
            .read_timeout_ms(3_000),
    )
    .unwrap();
    let addr = server.local_addr();

    // Occupy the single worker with a connection that never completes a
    // request, and fill the one admission slot with a second idle
    // connection.
    let stall_worker = TcpStream::connect(addr).unwrap();
    stall_worker.set_nodelay(true).ok();
    (&stall_worker).write_all(b"GET /sl").unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let _fill_queue = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // Subsequent connections must be shed with an inline 503.
    let mut shed = false;
    let mut probes = 0u64;
    for _ in 0..5 {
        let mut probe = TcpStream::connect(addr).unwrap();
        probes += 1;
        probe
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        if let Some(resp) = read_response(&mut probe) {
            assert_eq!(resp.status, Status::ServiceUnavailable);
            assert_eq!(resp.header("X-Reason"), Some("accept queue full"));
            shed = true;
            break;
        }
    }
    assert!(
        shed,
        "expected at least one 503 while the pool was saturated"
    );
    drop(stall_worker);
    server.shutdown();

    // Every connect lands in exactly one of `serve.connections` (admitted)
    // or `serve.rejected_busy` (shed). The event loop once counted shed
    // connections in both.
    let m = world.hub.metrics();
    let connections = m.counter("serve.connections").get();
    let rejected = m.counter("serve.rejected_busy").get();
    assert_eq!(
        connections + rejected,
        2 + probes, // stall_worker + fill_queue + probes
        "connects must be counted admitted xor shed \
         (connections={connections}, rejected_busy={rejected})"
    );
}

/// Regression: the accept path once wrote shed 503s with a *blocking*
/// `write_all` under the write timeout — one peer refusing to read could
/// stall all accepts for seconds. Saturate the server, then hit it with a
/// storm of probes that never read their 503s: the whole storm must be
/// refused promptly. (A true zero-window stall of a 60-byte write is not
/// constructible over loopback — kernel buffers absorb it — so the test
/// pins the observable symptom: accept latency stays bounded while shed
/// targets sit on unread responses.)
#[test]
fn shed_storm_never_stalls_accepts_epoll() {
    let world = world();
    let server = SocketServer::start(
        "127.0.0.1:0",
        &world,
        ServeConfig::new()
            .workers(1)
            .queue_depth(1)
            .read_timeout_ms(8_000)
            .write_timeout_ms(8_000),
    )
    .unwrap();
    let addr = server.local_addr();

    let stall_worker = TcpStream::connect(addr).unwrap();
    (&stall_worker).write_all(b"GET /sl").unwrap();
    let _fill_queue = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // 20 connections that will each be shed and never read the 503.
    let started = Instant::now();
    let mut deaf_probes = Vec::new();
    for _ in 0..20 {
        deaf_probes.push(TcpStream::connect(addr).unwrap());
    }
    // One more probe that does read: it must still get its refusal fast —
    // far faster than even one 8 s write timeout, let alone twenty.
    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let resp = read_response(&mut probe);
    let elapsed = started.elapsed();
    assert!(
        resp.is_some_and(|r| r.status == Status::ServiceUnavailable),
        "trailing probe must be shed with a 503"
    );
    assert!(
        elapsed < Duration::from_secs(3),
        "shed storm stalled the accept path for {elapsed:?}"
    );
    drop(deaf_probes);
    drop(stall_worker);
    server.shutdown();
}

/// Regression: the event loop's read soft cap (64 KiB) once applied even
/// when the parser had consumed nothing — a single request larger than
/// the cap (any body up to the 1 MiB default limit) livelocked its
/// reactor thread: nothing complete to parse, nothing to flush, and
/// `fill` refusing to read. A body over the cap must be read through and
/// served, alone and pipelined behind a small request.
#[test]
fn bodies_larger_than_the_read_soft_cap_are_served_epoll() {
    let world = world();
    let server = SocketServer::start("127.0.0.1:0", &world, ServeConfig::new()).unwrap();
    let addr = server.local_addr();
    let limits = WireLimits::new();

    let body = vec![b'x'; 100 * 1024]; // > the 64 KiB soft cap, < max_body_bytes
    let large = {
        let mut bytes = format!(
            "POST /healthz HTTP/1.1\r\nHost: {SEARCH_HOST}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(&body);
        bytes
    };

    let reply = send_raw(addr, &large);
    assert!(
        !reply.is_empty(),
        "a 100 KiB-body request must be answered, not livelocked"
    );
    let (resp, _) = parse_response(&reply, &limits).unwrap().unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.body_text(), "ok\n");

    // Pipelined: a small request followed by the large one in a single
    // write, so the parser makes progress at the soft cap and then stalls
    // on the large tail.
    let mut pipelined =
        format!("GET /healthz HTTP/1.1\r\nHost: {SEARCH_HOST}\r\n\r\n").into_bytes();
    pipelined.extend_from_slice(&large);
    let reply = send_raw(addr, &pipelined);
    let (first, used) = parse_response(&reply, &limits)
        .unwrap()
        .unwrap_or_else(|| panic!("first pipelined response truncated"));
    assert_eq!(first.status, Status::Ok);
    let (second, _) = parse_response(&reply[used..], &limits)
        .unwrap()
        .unwrap_or_else(|| panic!("second pipelined response truncated"));
    assert_eq!(second.status, Status::Ok);
    server.shutdown();
}

/// The determinism contract is IPv4-only (sequence numbers and rate-limit
/// keys are defined over `Ipv4Addr`): an IPv6 peer gets a typed 400, not a
/// silent collapse onto `0.0.0.0`'s counters. Skipped when the host has no
/// usable loopback IPv6.
#[test]
fn ipv6_peers_get_a_typed_400_epoll() {
    let world = world();
    let Ok(server) = SocketServer::start("[::1]:0", &world, ServeConfig::new()) else {
        eprintln!("skipping: cannot bind [::1] (no IPv6 loopback)");
        return;
    };
    let addr = server.local_addr();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        eprintln!("skipping: cannot connect to [::1] (no IPv6 loopback)");
        return;
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The rejection is by peer address; it arrives whether or not a
    // request is ever sent, so just read.
    let resp = read_response(&mut stream).expect("server must reply before closing");
    assert_eq!(resp.status, Status::BadRequest);
    assert_eq!(
        resp.header("X-Reason"),
        Some("ipv4-only determinism contract")
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_and_stops_accepting_epoll() {
    let (geo, _) = sim_reference();
    let world = world();
    let server = SocketServer::start(
        "127.0.0.1:0",
        &world,
        ServeConfig::new().read_timeout_ms(500),
    )
    .unwrap();
    let addr = server.local_addr();
    assert_eq!(
        request_tcp(addr, &search_req(&geo, "Hospital")).status,
        Status::Ok
    );
    server.shutdown();
    // Every thread is joined by the time shutdown returns; a new connection
    // must not be served.
    let served_after = TcpStream::connect(addr).is_ok_and(|mut s| {
        s.set_read_timeout(Some(Duration::from_millis(500))).ok();
        s.write_all(&encode_request(&search_req(&geo, "Bank")).unwrap())
            .is_ok()
            && read_response(&mut s).is_some()
    });
    assert!(!served_after, "server answered after shutdown");
}

/// Regression: graceful shutdown used to wait out the read timeout for
/// every idle keep-alive connection. The event loop's drain path closes
/// idle connections the moment the shutdown waker fires, so shutdown
/// latency is bounded by epsilon even with a 10 s read timeout and several
/// parked connections.
#[test]
fn epoll_drain_closes_idle_keepalive_connections_promptly() {
    let (geo, _) = sim_reference();
    let world = world();
    let server = SocketServer::start(
        "127.0.0.1:0",
        &world,
        ServeConfig::new().workers(2).read_timeout_ms(10_000),
    )
    .unwrap();
    let addr = server.local_addr();

    // Three keep-alive connections, each completing one request, then
    // parked idle.
    let mut parked = Vec::new();
    for query in ["Hospital", "Bank", "Park"] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(&encode_request(&search_req(&geo, query)).unwrap())
            .unwrap();
        assert!(read_response(&mut stream).is_some(), "{query}");
        parked.push(stream);
    }

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "drain with idle keep-alive connections took {elapsed:?} \
         (read timeout was 10 s — idle conns must be closed by the drain \
         path, not waited out)"
    );
    // The parked connections were really closed: reads see EOF.
    for mut stream in parked {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "peer must see EOF");
    }
}

/// A keep-alive connection that goes idle after its response is closed at
/// its read deadline: not before the timeout, and not long after it. The
/// server counts whole milliseconds and arms the deadline after the
/// request arrives, so the lower bound is taken from the send, less 1 ms.
#[test]
fn an_idle_keep_alive_connection_closes_at_its_read_deadline_epoll() {
    let world = world();
    let server = SocketServer::start(
        "127.0.0.1:0",
        &world,
        ServeConfig::new().read_timeout_ms(300),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let sent = Instant::now();
    stream
        .write_all(&encode_request(&Request::get(SEARCH_HOST, "/healthz")).unwrap())
        .unwrap();
    let resp = read_response(&mut stream).expect("keep-alive reply");
    assert_eq!(resp.status, Status::Ok);
    let answered = Instant::now();

    let mut buf = [0u8; 16];
    let read = stream.read(&mut buf);
    let closed = Instant::now();
    assert!(matches!(read, Ok(0)), "the server must close: {read:?}");
    let since_send = closed - sent;
    let idle = closed - answered;
    assert!(
        since_send >= Duration::from_millis(299),
        "closed {since_send:?} after the request, before the 300 ms deadline"
    );
    assert!(
        idle < Duration::from_secs(1),
        "closed {idle:?} after idling"
    );
    server.shutdown();
}

/// A client that pipelines requests and never reads stalls its flush: the
/// write deadline closes it, and the one event loop serves another client
/// meanwhile. The deaf client sees the close without reading: once the
/// server has closed, the next bytes it sends draw a reset.
#[test]
fn a_client_that_never_reads_is_closed_at_its_write_deadline_epoll() {
    let world = world();
    let server = SocketServer::start(
        "127.0.0.1:0",
        &world,
        ServeConfig::new()
            .workers(1)
            .write_timeout_ms(300)
            .read_timeout_ms(30_000),
    )
    .unwrap();
    let addr = server.local_addr();

    // 4,000 responses of ~2.2 KB overflow any loopback buffering of a peer
    // that reads nothing; the first 1,000 requests are sent before the
    // other client connects, so the stall comes first.
    let request = encode_request(&Request::get(SEARCH_HOST, "/metrics")).unwrap();
    let deaf = TcpStream::connect(addr).unwrap();
    deaf.set_write_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let started = Instant::now();
    let (first_sent, first_sent_rx) = std::sync::mpsc::channel();
    let writer = {
        let mut deaf = deaf.try_clone().unwrap();
        std::thread::spawn(move || {
            deaf.write_all(&request.repeat(1_000)).unwrap();
            first_sent.send(()).unwrap();
            deaf.write_all(&request.repeat(3_000))
        })
    };
    first_sent_rx.recv().unwrap();

    let mut other = TcpStream::connect(addr).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    other
        .write_all(&encode_request(&Request::get(SEARCH_HOST, "/healthz")).unwrap())
        .unwrap();
    let resp = read_response(&mut other).expect("the other client is served");
    assert_eq!(resp.status, Status::Ok);
    let other_served = Instant::now();

    // A writer still blocked at the close gets the reset itself; otherwise
    // probe with one empty line every 5 ms.
    let deaf_closed = match writer.join().unwrap() {
        Err(e) => {
            let reset = matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe);
            assert!(reset, "the writer failed without a reset: {e}");
            Instant::now()
        }
        Ok(()) => {
            deaf.set_nonblocking(true).unwrap();
            loop {
                let probe = (&deaf).write(b"\r\n");
                if matches!(probe, Err(e) if e.kind() != ErrorKind::WouldBlock) {
                    break Instant::now();
                }
                assert!(
                    started.elapsed() < Duration::from_secs(20),
                    "the stalled client was never closed"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    let since_start = deaf_closed - started;
    let since_other = deaf_closed - other_served;
    assert!(
        since_start >= Duration::from_millis(299),
        "closed {since_start:?} after it started writing, before its 300 ms deadline"
    );
    assert!(
        since_other >= Duration::from_millis(200) && since_other < Duration::from_secs(1),
        "closed {since_other:?} after the other client was served"
    );
    server.shutdown();
}

/// Every request of a loadgen run got a `200`, and the throughput counts
/// exactly those responses.
fn assert_all_ok(report: &LoadgenReport, requests: usize, shape: &str) {
    assert_eq!(report.requests, requests, "{shape}");
    assert_eq!(
        (report.ok, report.errors),
        (requests, 0),
        "{shape}: {report:?}"
    );
    assert_eq!(
        (report.throughput_rps * report.elapsed_s).round() as usize,
        requests,
        "{shape}: throughput is responses per second"
    );
    assert!(report.p50_us > 0, "{shape}: {report:?}");
    assert!(report.p99_us >= report.p50_us, "{shape}: {report:?}");
}

#[test]
fn loadgen_measures_the_server() {
    // The engine's per-IP limit raised as every serving entry point
    // raises it: all loadgen clients share 127.0.0.1.
    let config = ServeConfig::new().workers(2);
    let world =
        ServedWorld::build(SEED, config.engine_config(EngineConfig::paper_defaults())).unwrap();
    let server = SocketServer::start("127.0.0.1:0", &world, config).unwrap();
    let addr = server.local_addr().to_string();
    for keep_alive in [true, false] {
        let cfg = LoadgenConfig::new()
            .requests(80)
            .concurrency(16)
            .keep_alive(keep_alive);
        let report = loadgen::run(&addr, &cfg).unwrap();
        assert_all_ok(&report, 80, &format!("2 workers, keep-alive {keep_alive}"));
    }
    server.shutdown();

    let cluster = ShardedCluster::start(
        "127.0.0.1:0",
        SEED,
        EngineConfig::paper_defaults(),
        ClusterConfig::new(2, 2),
    )
    .unwrap();
    let cfg = LoadgenConfig::new().requests(40).concurrency(4);
    let report = loadgen::run(&cluster.router_addr().to_string(), &cfg).unwrap();
    assert_all_ok(&report, 40, "2x2 router");
    cluster.shutdown();
}

#[test]
fn loadgen_counts_no_throughput_against_a_closed_port() {
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    // The listener is dropped: nothing accepts on `addr` any more.
    let cfg = LoadgenConfig::new().requests(50).concurrency(2);
    let report = loadgen::run(&addr.to_string(), &cfg).unwrap();
    assert_eq!((report.ok, report.errors), (0, 50), "{report:?}");
    assert_eq!(report.throughput_rps, 0.0, "{report:?}");
}
