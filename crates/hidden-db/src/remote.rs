//! [`RemoteBackend`]: a [`SearchBackend`] living on the other side of a
//! TCP socket, served by the `hdb-server` crate.
//!
//! This is the real counterpart of the simulated
//! [`LatencyBackend`](crate::LatencyBackend): every evaluation is one
//! request/response exchange over the [`wire`](crate::wire) protocol, so
//! `HiddenDb::over(RemoteBackend::connect(addr)?, k)` puts an actual
//! network between the paper's estimators and the corpus while the whole
//! budget / accounting / memo / session stack runs unchanged on the
//! client.
//!
//! Connections are pooled: each request checks one out (opening a new
//! socket only when the pool is empty), so concurrent estimation workers
//! ride concurrent connections and a serial drill-down reuses one warm
//! socket.
//!
//! ## Send, then receive
//!
//! Every exchange is split in two. `send` encodes the request once, into
//! a buffer that holds the whole frame (length prefix included), writes
//! it on a checked-out connection and returns an in-flight handle owning
//! that connection and those bytes. `recv` later reads the replies and
//! checks the connection back in. A [`SearchBackend`] call is simply the
//! two back to back; a [`FederatedBackend`](crate::FederatedBackend)
//! instead sends one probe to every fleet member before it receives any,
//! so the members' round trips overlap. A handle dropped unread closes
//! its connection rather than pooling a socket with a reply still in it.
//! If a pooled connection turns out stale, the handle re-sends its stored
//! frame bytes on a fresh socket, without encoding again.
//!
//! The incremental walk fast path maps onto server-side sessions:
//! [`SearchBackend::walk_state`] opens a session (the server materialises
//! the root match set) and probes reference it by `(sid, level)`.
//!
//! ## Pipelined extends
//!
//! [`SearchBackend::extend_state`] costs **zero** round trips: it only
//! records a pending branch commitment in the client-side walk node. The
//! next probe resolves the pending chain in one exchange — a single
//! fused `WalkExtendEvaluate` / `WalkExtendClassify` frame when one
//! extend is pending, or one `Batch` frame (extends + fused probe,
//! answered with one response per member) when several are. A drill-down
//! step — commit a branch, probe a child — therefore costs exactly one
//! round trip, down from two. Extends replay idempotently on the server
//! (extend-from-level truncates deeper levels first), which is what
//! makes the pooled-connection stale retry safe — and the retry paths
//! enforce it structurally: [`Request::replayable`] gates every re-send,
//! so a message that must not be replayed (`WalkOpen` allocates a fresh
//! session per send) can never ride a retry, whichever method a caller
//! picks.
//!
//! Every fast-path degradation (evicted session, failed open) falls back
//! to re-rooting a fresh session or fresh evaluation, both bit-identical,
//! so transport hiccups can slow a walk down but never change a result;
//! hard failures surface as [`HdbError::Transport`].

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::backend::{Classified, Evaluation, SearchBackend, WalkState};
use crate::error::{HdbError, Result};
use crate::obs::MetricsSnapshot;
use crate::query::{Predicate, Query};
use crate::ranking::{RankingFunction, RankingSpec, RowIdRanking};
use crate::schema::{AttrId, Schema};
use crate::wire::{read_response, Request, Response, PROTOCOL_VERSION};

/// Default cap on pooled idle connections.
const DEFAULT_MAX_IDLE: usize = 8;

/// Default per-operation I/O timeout: long enough for a paper-scale
/// evaluation, short enough that a hung server surfaces as a typed error
/// rather than a stuck client.
const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The connection pool + request plumbing shared by a [`RemoteBackend`]
/// and the walk-session handles it spawns.
struct ClientCore {
    addr: String,
    idle: Mutex<Vec<TcpStream>>,
    max_idle: usize,
    io_timeout: Duration,
    /// Wire exchanges performed (one per request frame sent, batches
    /// included) — the round-trip economics evidence.
    requests: AtomicU64,
    /// Exchanges re-sent on a fresh socket after a pooled connection
    /// turned out stale. Every retry is also counted in `requests`.
    retries: AtomicU64,
}

/// A request frame written on a checked-out connection whose replies are
/// not read yet: the handle between [`ClientCore::send`] and
/// [`ClientCore::recv`]. It owns the connection and the frame bytes, so a
/// stale pooled connection is retried by re-sending the same bytes on a
/// fresh socket. Dropping it unread closes the connection — a socket
/// with unread replies never goes back to the idle pool, where it would
/// hand the next request a leftover reply.
pub(crate) struct InFlight {
    stream: TcpStream,
    frame: Vec<u8>,
    /// A failed exchange may be re-sent once on a fresh socket: the
    /// stream came from the idle pool (the server may have dropped it
    /// while idle) and the request is [`Request::replayable`].
    retry: bool,
}

impl ClientCore {
    fn open(&self) -> Result<TcpStream> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| HdbError::Transport(format!("connect to {} failed: {e}", self.addr)))?;
        let setup = stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(self.io_timeout)))
            .and_then(|()| stream.set_write_timeout(Some(self.io_timeout)));
        setup.map_err(|e| HdbError::Transport(format!("socket setup failed: {e}")))?;
        Ok(stream)
    }

    // Poison recovery throughout this file: the idle pool is a plain Vec
    // of sockets with no cross-field invariant, so a panicked holder
    // leaves it fully usable — recover instead of unwinding.
    fn checkout(&self) -> Option<TcpStream> {
        self.idle.lock().unwrap_or_else(|p| p.into_inner()).pop()
    }

    fn checkin(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().unwrap_or_else(|p| p.into_inner());
        if idle.len() < self.max_idle {
            idle.push(stream);
        } // else: drop (close) the surplus connection
    }

    /// Writes `req` as one frame on a pooled connection (a fresh one when
    /// the pool is empty) and returns without reading the reply. The
    /// stale-connection retry is gated on [`Request::replayable`]
    /// **structurally**: a non-replayable request (`WalkOpen`, which
    /// allocates a fresh session per send) gets exactly one attempt
    /// whoever sends it, so no call site can double-apply an effect.
    fn send(&self, req: &Request) -> Result<InFlight> {
        let frame = req.encode_frame()?;
        match self.checkout() {
            Some(stream) => self.write(InFlight { stream, frame, retry: req.replayable() }),
            None => self.write(InFlight { stream: self.open()?, frame, retry: false }),
        }
    }

    /// Puts a flight's frame on the wire in one write (one segment on
    /// loopback); a retryable flight whose pooled socket refuses the
    /// write moves to a fresh one.
    fn write(&self, mut flight: InFlight) -> Result<InFlight> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match flight.stream.write_all(&flight.frame) {
            Ok(()) => Ok(flight),
            Err(_) if flight.retry => self.resend(flight.frame),
            Err(e) => Err(HdbError::Transport(format!("write failed: {e}"))),
        }
    }

    /// The stale-connection retry: the same frame bytes on a fresh socket.
    fn resend(&self, frame: Vec<u8>) -> Result<InFlight> {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.write(InFlight { stream: self.open()?, frame, retry: false })
    }

    /// Reads the reply to a one-request frame and checks the connection
    /// back in. Streamed (chunked-page) replies are reassembled.
    fn recv(&self, flight: InFlight) -> Result<Response> {
        self.recv_with(flight, read_reply)
    }

    /// Reads the `n` replies to a `Batch` frame, in member order. A retry
    /// re-sends the **whole** frame, which is safe because it is gated on
    /// every member being replayable: extends replay idempotently (the
    /// server truncates the stack to the parent before pushing, so a batch
    /// whose fused probe already committed converges to the same stack on
    /// the second pass) and probes are reads.
    fn recv_batch(&self, flight: InFlight, n: usize) -> Result<Vec<Response>> {
        self.recv_with(flight, |stream| (0..n).map(|_| read_reply(stream)).collect())
    }

    fn recv_with<T>(
        &self,
        flight: InFlight,
        read: impl Fn(&mut TcpStream) -> Result<T>,
    ) -> Result<T> {
        let InFlight { mut stream, frame, retry } = flight;
        let got = match read(&mut stream) {
            Err(_) if retry => {
                // Stale pooled connection: drop it, replay on a fresh one.
                stream = self.resend(frame)?.stream;
                read(&mut stream)?
            }
            got => got?,
        };
        self.checkin(stream);
        Ok(got)
    }

    /// One request/response exchange: [`ClientCore::send`] then
    /// [`ClientCore::recv`].
    fn request(&self, req: &Request) -> Result<Response> {
        self.recv(self.send(req)?)
    }
}

fn read_reply(stream: &mut TcpStream) -> Result<Response> {
    read_response(stream)?
        .ok_or_else(|| HdbError::Transport("server closed the connection".into()))
}

/// Converts a protocol-level error response into `Err`, handing every
/// other variant to the caller's matcher.
fn ok_or_err(resp: Response) -> Result<Response> {
    match resp {
        Response::Error(e) => Err(e),
        other => Ok(other),
    }
}

fn unexpected(what: &str, got: &Response) -> HdbError {
    HdbError::Transport(format!("protocol error: expected {what}, got {got:?}"))
}

/// Client-side handle of one server-side walk session. All levels of a
/// walk share the handle; dropping the last clone closes the session
/// (best effort — the server also evicts by LRU).
struct RemoteSessionHandle {
    core: Arc<ClientCore>,
    sid: u64,
}

impl Drop for RemoteSessionHandle {
    fn drop(&mut self) {
        // Close only over an already-idle connection: a drop must never
        // block on a dead server, and an unclosed session just ages out
        // of the server's LRU table.
        let Some(stream) = self.core.checkout() else { return };
        let Ok(frame) = Request::WalkClose { sid: self.sid }.encode_frame() else { return };
        if let Ok(flight) = self.core.write(InFlight { stream, frame, retry: false }) {
            // recv checks the connection back in only after a clean reply.
            let _ = self.core.recv(flight);
        }
    }
}

/// Where one walk node stands with respect to the server.
enum NodeState {
    /// The server knows this node: `(sid, level)` in a live session.
    Committed { session: Arc<RemoteSessionHandle>, level: u32 },
    /// The extend that created this node has not crossed the wire yet —
    /// it will piggyback on the next probe. `pred` extends the parent;
    /// the node's full query lives on [`RemoteNode::query`].
    Pending { pred: Predicate },
    /// The server rejected this node's extend with a typed error; probes
    /// through it go to fresh evaluation instead of retrying forever.
    Broken,
}

/// One node of the client-side walk tree. Children keep their parent
/// chain alive (`Arc`), so a pending node can always resolve upward to
/// the nearest committed ancestor.
struct RemoteNode {
    /// The node's full query — the re-root anchor after an eviction.
    query: Query,
    parent: Option<Arc<RemoteNode>>,
    state: Mutex<NodeState>,
}

impl RemoteNode {
    fn set_state(&self, state: NodeState) {
        *self.state.lock().unwrap_or_else(|p| p.into_inner()) = state;
    }
}

/// The payload a [`RemoteBackend`] stores in a [`WalkState`].
struct RemoteWalk {
    node: Arc<RemoteNode>,
}

/// How a probe should reach the server, resolved from the walk tree.
enum Anchor {
    /// Nearest committed ancestor plus the pending chain (shallowest
    /// first) that must commit on the way to the probed node.
    Chain {
        session: Arc<RemoteSessionHandle>,
        level: u32,
        pendings: Vec<Arc<RemoteNode>>,
    },
    /// No usable server session behind this node — evaluate fresh.
    Fresh,
}

/// Walks from `node` up to the nearest committed ancestor, collecting
/// pending nodes along the way.
fn anchor_of(node: &Arc<RemoteNode>) -> Anchor {
    let mut pendings = Vec::new();
    let mut cur = Arc::clone(node);
    loop {
        let next = {
            let state = cur.state.lock().unwrap_or_else(|p| p.into_inner());
            match &*state {
                NodeState::Committed { session, level } => {
                    let (session, level) = (Arc::clone(session), *level);
                    pendings.reverse();
                    return Anchor::Chain { session, level, pendings };
                }
                NodeState::Broken => return Anchor::Fresh,
                NodeState::Pending { .. } => cur.parent.clone(),
            }
        };
        pendings.push(Arc::clone(&cur));
        match next {
            Some(parent) => cur = parent,
            None => return Anchor::Fresh,
        }
    }
}

/// The pending `pred` of a node (the node must be in `Pending` state;
/// a concurrent commit makes this `None` and the caller re-resolves).
fn pending_pred(node: &RemoteNode) -> Option<Predicate> {
    match &*node.state.lock().unwrap_or_else(|p| p.into_inner()) {
        NodeState::Pending { pred } => Some(*pred),
        _ => None,
    }
}

/// How the reply of a sent walk probe is to be read.
enum Plan {
    /// A fresh `Evaluate`: no usable server session behind the node.
    Fresh,
    /// A plain probe at a committed node.
    Walk,
    /// The pending extend chain (shallowest first, the probed node's
    /// parent last) plus the fused probe: one reply per pending node,
    /// each committed into its node as it is read.
    Chain { session: Arc<RemoteSessionHandle>, pendings: Vec<Arc<RemoteNode>> },
}

/// A walk probe whose request is on the wire and whose reply is unread —
/// what [`RemoteBackend`]'s `send_*_from` methods return and the matching
/// `recv_*_from` methods consume, so a caller can put several servers'
/// probes on the wire before it waits for any of them.
pub(crate) struct Sent {
    flight: InFlight,
    plan: Plan,
}

/// What the replies of a [`Sent`] probe came to.
enum Settled {
    /// The reply to a fresh `Evaluate`.
    Fresh(Response),
    /// The reply to a plain walk probe (possibly re-sent on a re-rooted
    /// session).
    Walk(Response),
    /// The fused probe's reply; its chain is committed.
    Fused(Response),
    /// No usable session (an extend was rejected, or re-rooting after a
    /// vanished session failed): evaluate fresh.
    Broken,
}

/// A [`SearchBackend`] speaking the hidden-DB wire protocol to an
/// `hdb-server` over pooled TCP connections.
///
/// The schema and corpus size are fetched once at connect time (the
/// hidden-database model is static); every other operation is one
/// request/response round trip — including a drill-down extend+probe,
/// which travels as one fused or batched frame (see the module docs).
pub struct RemoteBackend {
    core: Arc<ClientCore>,
    schema: Schema,
    len: usize,
}

impl std::fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("addr", &self.core.addr)
            .field("len", &self.len)
            .finish()
    }
}

impl RemoteBackend {
    /// Connects to an `hdb-server` at `addr` (e.g. `"127.0.0.1:7171"`),
    /// performs the version handshake, and fetches the schema and corpus
    /// size.
    ///
    /// # Errors
    /// [`HdbError::Transport`] if the server is unreachable, speaks a
    /// different protocol version, or answers malformed frames.
    pub fn connect(addr: impl Into<String>) -> Result<Self> {
        Self::connect_with(addr, DEFAULT_MAX_IDLE, DEFAULT_IO_TIMEOUT)
    }

    /// [`RemoteBackend::connect`] with an explicit idle-connection cap and
    /// per-operation I/O timeout.
    ///
    /// # Errors
    /// Same as [`RemoteBackend::connect`].
    pub fn connect_with(
        addr: impl Into<String>,
        max_idle: usize,
        io_timeout: Duration,
    ) -> Result<Self> {
        let core = Arc::new(ClientCore {
            addr: addr.into(),
            idle: Mutex::new(Vec::new()),
            max_idle: max_idle.max(1),
            io_timeout,
            requests: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        });
        match ok_or_err(core.request(&Request::Hello { version: PROTOCOL_VERSION })?)? {
            Response::Hello { version } if version == PROTOCOL_VERSION => {}
            Response::Hello { version } => {
                return Err(HdbError::Transport(format!(
                    "protocol version mismatch: client {PROTOCOL_VERSION}, server {version}"
                )))
            }
            other => return Err(unexpected("Hello", &other)),
        }
        let schema = match ok_or_err(core.request(&Request::Schema)?)? {
            Response::Schema(s) => s,
            other => return Err(unexpected("Schema", &other)),
        };
        let len = match ok_or_err(core.request(&Request::Len)?)? {
            Response::Len(n) => usize::try_from(n)
                .map_err(|_| HdbError::Transport("corpus size overflows usize".into()))?,
            other => return Err(unexpected("Len", &other)),
        };
        Ok(Self { core, schema, len })
    }

    /// The server address this backend talks to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.core.addr
    }

    /// Idle pooled connections right now (diagnostics).
    #[must_use]
    pub fn idle_connections(&self) -> usize {
        self.core.idle.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Wire exchanges performed so far (one per frame sent — a batched
    /// extend chain plus probe counts once). This is the round-trip
    /// economics evidence: with pipelined extends, a drill-down step
    /// adds exactly one.
    #[must_use]
    pub fn requests_sent(&self) -> u64 {
        self.core.requests.load(Ordering::Relaxed)
    }

    /// Exchanges that were re-sent on a fresh socket after a pooled
    /// connection turned out stale. Retries are replay-gated (see the
    /// module docs) and each one is also counted in
    /// [`RemoteBackend::requests_sent`].
    #[must_use]
    pub fn retries_sent(&self) -> u64 {
        self.core.retries.load(Ordering::Relaxed)
    }

    /// Fetches the **server's** metrics snapshot over the wire
    /// ([`Request::Stats`]) — the same series its Prometheus endpoint
    /// renders, so a client can audit the server-side query ledger
    /// without scraping a second port.
    ///
    /// # Errors
    /// [`HdbError::Transport`] when the exchange fails or the server
    /// answers with anything but a snapshot.
    pub fn server_stats(&self) -> Result<MetricsSnapshot> {
        match ok_or_err(self.core.request(&Request::Stats)?)? {
            Response::Stats(snap) => Ok(snap),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// One cheap request/response round trip ([`Request::Len`]) proving
    /// the server is alive and answering protocol — the fleet health
    /// checker's probe. Also re-validates that the server still reports
    /// the corpus size learned at connect time, so a restarted server
    /// with different data is detected instead of silently merged.
    ///
    /// # Errors
    /// [`HdbError::Transport`] when the exchange fails or the reported
    /// size changed.
    pub fn ping(&self) -> Result<()> {
        match ok_or_err(self.core.request(&Request::Len)?)? {
            Response::Len(n) if usize::try_from(n) == Ok(self.len) => Ok(()),
            Response::Len(n) => Err(HdbError::Transport(format!(
                "server at {} now reports {n} rows (expected {})",
                self.core.addr, self.len
            ))),
            other => Err(unexpected("Len", &other)),
        }
    }

    fn spec_of(ranking: &dyn RankingFunction) -> Result<RankingSpec> {
        ranking.wire_spec().ok_or_else(|| {
            HdbError::Transport(
                "ranking function has no wire spec; only RankingSpec-describable rankings \
                 can cross the network"
                    .into(),
            )
        })
    }

    /// Re-roots a walk node after its session vanished server-side:
    /// opens a fresh session whose root *is* the node's query, so probes
    /// from the node stay incremental. Returns the new session id, or
    /// `None` when the open failed (callers then evaluate fresh).
    fn re_root(&self, node: &RemoteNode) -> Option<u64> {
        match self.core.request(&Request::WalkOpen { root: node.query.clone() }) {
            Ok(Response::Session { sid }) => {
                let session =
                    Arc::new(RemoteSessionHandle { core: Arc::clone(&self.core), sid });
                node.set_state(NodeState::Committed { session, level: 0 });
                Some(sid)
            }
            _ => None,
        }
    }

    /// Plans a walk probe from `parent` and writes its frame without
    /// waiting for the reply. `fresh()` builds the fresh evaluation used
    /// when no server session is usable, `walk(sid, level)` the plain
    /// probe at a committed node, and `fused(sid, level, ext_child,
    /// ext_pred)` the fused extend-and-probe that ends a pending chain —
    /// sent alone when one extend is pending, else as the last member of
    /// a `Batch` behind the other extends.
    fn send_probe(
        &self,
        parent: &WalkState,
        fresh: impl FnOnce() -> Request,
        walk: impl FnOnce(u64, u32) -> Request,
        fused: impl FnOnce(u64, u32, Query, Predicate) -> Request,
    ) -> Result<Sent> {
        let anchor = parent.payload::<RemoteWalk>().map_or(Anchor::Fresh, |w| anchor_of(&w.node));
        let (req, plan) = match anchor {
            Anchor::Fresh => (fresh(), Plan::Fresh),
            Anchor::Chain { session, level, pendings } if pendings.is_empty() => {
                (walk(session.sid, level), Plan::Walk)
            }
            Anchor::Chain { session, level, pendings } => {
                match chain_request(session.sid, level, &pendings, fused) {
                    Some(req) => (req, Plan::Chain { session, pendings }),
                    // Concurrently committed under us — rare; degrade fresh.
                    None => (fresh(), Plan::Fresh),
                }
            }
        };
        Ok(Sent { flight: self.core.send(&req)?, plan })
    }

    /// Reads a sent probe's replies and commits each acknowledged extend
    /// into its node. A session that vanished server-side is re-rooted at
    /// the probed node's parent and the plain probe `walk(sid, 0)` re-sent
    /// there — the one serial round trip this path can add.
    fn settle(&self, sent: Sent, walk: impl FnOnce(u64, u32) -> Request) -> Result<Settled> {
        let Sent { flight, plan } = sent;
        let (session, pendings) = match plan {
            Plan::Fresh => return Ok(Settled::Fresh(self.core.recv(flight)?)),
            Plan::Walk => return Ok(Settled::Walk(self.core.recv(flight)?)),
            Plan::Chain { session, pendings } => (session, pendings),
        };
        let Some((last, body)) = pendings.split_last() else {
            return Ok(Settled::Broken);
        };
        let probe = if body.is_empty() {
            self.core.recv(flight)?
        } else {
            let mut resps = self.core.recv_batch(flight, pendings.len())?.into_iter();
            for node in body {
                match resps.next() {
                    Some(Response::Level { level }) => node.set_state(NodeState::Committed {
                        session: Arc::clone(&session),
                        level,
                    }),
                    Some(Response::SessionGone) => return self.re_probe(last, walk),
                    Some(_) | None => {
                        node.set_state(NodeState::Broken);
                        return Ok(Settled::Broken);
                    }
                }
            }
            match resps.next() {
                Some(resp) => resp,
                None => return Ok(Settled::Broken),
            }
        };
        match &probe {
            Response::SessionGone => return self.re_probe(last, walk),
            Response::ExtendClassified { level, .. } | Response::ExtendEvaluation { level, .. } => {
                last.set_state(NodeState::Committed { session, level: *level });
            }
            _ => {}
        }
        Ok(Settled::Fused(probe))
    }

    /// Re-roots `node` and re-sends the plain probe from it.
    fn re_probe(&self, node: &RemoteNode, walk: impl FnOnce(u64, u32) -> Request) -> Result<Settled> {
        match self.re_root(node) {
            Some(sid) => Ok(Settled::Walk(self.core.request(&walk(sid, 0))?)),
            None => Ok(Settled::Broken),
        }
    }

    /// Writes a fresh [`SearchBackend::evaluate`] request; read it with
    /// [`RemoteBackend::recv_evaluate`].
    pub(crate) fn send_evaluate(
        &self,
        q: &Query,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<InFlight> {
        let ranking = Self::spec_of(ranking)?;
        self.core.send(&Request::Evaluate { query: q.clone(), k: k as u64, ranking })
    }

    /// Reads the reply of [`RemoteBackend::send_evaluate`].
    pub(crate) fn recv_evaluate(&self, flight: InFlight) -> Result<Evaluation> {
        evaluation_of(self.core.recv(flight)?)
    }

    /// Writes a [`SearchBackend::exact_count`] request; read it with
    /// [`RemoteBackend::recv_exact_count`].
    pub(crate) fn send_exact_count(&self, q: &Query) -> Result<InFlight> {
        self.core.send(&Request::ExactCount { query: q.clone() })
    }

    /// Reads the reply of [`RemoteBackend::send_exact_count`].
    pub(crate) fn recv_exact_count(&self, flight: InFlight) -> Result<usize> {
        match ok_or_err(self.core.recv(flight)?)? {
            Response::Count(n) => usize::try_from(n)
                .map_err(|_| HdbError::Transport("count overflows usize".into())),
            other => Err(unexpected("Count", &other)),
        }
    }

    /// Writes the `WalkOpen` of [`SearchBackend::walk_state`]; finish it
    /// with [`RemoteBackend::recv_walk_open`].
    pub(crate) fn send_walk_open(&self, q: &Query) -> Result<InFlight> {
        self.core.send(&Request::WalkOpen { root: q.clone() })
    }

    /// Reads the reply of [`RemoteBackend::send_walk_open`]. A failed
    /// open falls back to fresh evaluation: correctness is preserved and
    /// a genuinely dead server will surface a Transport error on the next
    /// charged probe.
    pub(crate) fn recv_walk_open(&self, sent: Result<InFlight>, q: &Query) -> WalkState {
        match sent.and_then(|flight| self.core.recv(flight)) {
            Ok(Response::Session { sid }) => WalkState::with_payload(RemoteWalk {
                node: Arc::new(RemoteNode {
                    query: q.clone(),
                    parent: None,
                    state: Mutex::new(NodeState::Committed {
                        session: Arc::new(RemoteSessionHandle {
                            core: Arc::clone(&self.core),
                            sid,
                        }),
                        level: 0,
                    }),
                }),
            }),
            _ => WalkState::fallback(),
        }
    }

    /// Writes the probe of [`SearchBackend::evaluate_from`]; read it with
    /// [`RemoteBackend::recv_evaluate_from`].
    pub(crate) fn send_evaluate_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<Sent> {
        let spec = Self::spec_of(ranking)?;
        self.send_probe(
            parent,
            || Request::Evaluate { query: child.clone(), k: k as u64, ranking: spec },
            |sid, parent_level| Request::WalkEvaluate {
                sid,
                parent_level,
                child: child.clone(),
                pred,
                k: k as u64,
                ranking: spec,
            },
            |sid, parent_level, ext_child, ext_pred| Request::WalkExtendEvaluate {
                sid,
                parent_level,
                ext_child,
                ext_pred,
                child: child.clone(),
                pred,
                k: k as u64,
                ranking: spec,
            },
        )
    }

    /// Reads the replies of [`RemoteBackend::send_evaluate_from`].
    pub(crate) fn recv_evaluate_from(
        &self,
        sent: Sent,
        child: &Query,
        pred: Predicate,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<Evaluation> {
        let spec = Self::spec_of(ranking)?;
        let walk = |sid, parent_level| Request::WalkEvaluate {
            sid,
            parent_level,
            child: child.clone(),
            pred,
            k: k as u64,
            ranking: spec,
        };
        match self.settle(sent, walk)? {
            Settled::Fresh(resp) => evaluation_of(resp),
            Settled::Walk(resp) => match ok_or_err(resp)? {
                Response::Evaluation(ev) => Ok(ev),
                Response::SessionGone => self.evaluate(child, k, ranking),
                other => Err(unexpected("Evaluation", &other)),
            },
            Settled::Fused(resp) => match ok_or_err(resp)? {
                Response::ExtendEvaluation { evaluation, .. } => Ok(evaluation),
                other => Err(unexpected("ExtendEvaluation", &other)),
            },
            Settled::Broken => self.evaluate(child, k, ranking),
        }
    }

    /// Writes the probe of [`SearchBackend::classify_from`]; read it with
    /// [`RemoteBackend::recv_classify_from`].
    pub(crate) fn send_classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Sent> {
        self.send_probe(
            parent,
            || Request::Evaluate { query: child.clone(), k: k as u64, ranking: RankingSpec::RowId },
            |sid, parent_level| Request::WalkClassify {
                sid,
                parent_level,
                child: child.clone(),
                pred,
                k: k as u64,
            },
            |sid, parent_level, ext_child, ext_pred| Request::WalkExtendClassify {
                sid,
                parent_level,
                ext_child,
                ext_pred,
                child: child.clone(),
                pred,
                k: k as u64,
            },
        )
    }

    /// Reads the replies of [`RemoteBackend::send_classify_from`].
    pub(crate) fn recv_classify_from(
        &self,
        sent: Sent,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let fresh = || -> Result<Classified> {
            Ok(Classified::from_evaluation(self.evaluate(child, k, &RowIdRanking)?, k))
        };
        let walk = |sid, parent_level| Request::WalkClassify {
            sid,
            parent_level,
            child: child.clone(),
            pred,
            k: k as u64,
        };
        match self.settle(sent, walk)? {
            Settled::Fresh(resp) => Ok(Classified::from_evaluation(evaluation_of(resp)?, k)),
            Settled::Walk(resp) => match ok_or_err(resp)? {
                Response::Classified(c) => Ok(c),
                Response::SessionGone => fresh(),
                other => Err(unexpected("Classified", &other)),
            },
            Settled::Fused(resp) => match ok_or_err(resp)? {
                Response::ExtendClassified { classified, .. } => Ok(classified),
                other => Err(unexpected("ExtendClassified", &other)),
            },
            Settled::Broken => fresh(),
        }
    }
}

/// The frame resolving a pending chain: the fused probe alone when one
/// extend is pending, else a `Batch` of the other extends plus the fused
/// probe. `None` when a node was committed concurrently.
fn chain_request(
    sid: u64,
    base_level: u32,
    pendings: &[Arc<RemoteNode>],
    fused: impl FnOnce(u64, u32, Query, Predicate) -> Request,
) -> Option<Request> {
    let (last, body) = pendings.split_last()?;
    let mut batch = if body.is_empty() { Vec::new() } else { Vec::with_capacity(pendings.len()) };
    let mut level = base_level;
    for node in body {
        batch.push(Request::WalkExtend {
            sid,
            parent_level: level,
            child: node.query.clone(),
            pred: pending_pred(node)?,
        });
        level += 1;
    }
    let probe = fused(sid, level, last.query.clone(), pending_pred(last)?);
    if batch.is_empty() {
        return Some(probe);
    }
    batch.push(probe);
    Some(Request::Batch(batch))
}

fn evaluation_of(resp: Response) -> Result<Evaluation> {
    match ok_or_err(resp)? {
        Response::Evaluation(ev) => Ok(ev),
        other => Err(unexpected("Evaluation", &other)),
    }
}

impl SearchBackend for RemoteBackend {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn len(&self) -> usize {
        self.len
    }

    fn evaluate(&self, q: &Query, k: usize, ranking: &dyn RankingFunction) -> Result<Evaluation> {
        self.recv_evaluate(self.send_evaluate(q, k, ranking)?)
    }

    fn fill_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.counters.insert("hdb_remote_requests_total".into(), self.requests_sent());
        snap.counters.insert("hdb_remote_retries_total".into(), self.retries_sent());
    }

    fn exact_count(&self, q: &Query) -> Result<usize> {
        self.recv_exact_count(self.send_exact_count(q)?)
    }

    fn exact_sum(&self, attr: AttrId, q: &Query) -> Result<f64> {
        let req = Request::ExactSum { attr: attr as u64, query: q.clone() };
        match ok_or_err(self.core.request(&req)?)? {
            Response::Sum(x) => Ok(x),
            other => Err(unexpected("Sum", &other)),
        }
    }

    fn walk_state(&self, q: &Query) -> WalkState {
        self.recv_walk_open(self.send_walk_open(q), q)
    }

    /// Zero round trips: the branch commitment is recorded client-side
    /// and piggybacks onto the next probe (see the module docs).
    fn extend_state(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        _recycled: WalkState,
    ) -> WalkState {
        let Some(walk) = parent.payload::<RemoteWalk>() else {
            // No server session behind the parent: open one rooted at
            // the child so the subtree below is still incremental.
            return self.walk_state(child);
        };
        WalkState::with_payload(RemoteWalk {
            node: Arc::new(RemoteNode {
                query: child.clone(),
                parent: Some(Arc::clone(&walk.node)),
                state: Mutex::new(NodeState::Pending { pred }),
            }),
        })
    }

    fn evaluate_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
        ranking: &dyn RankingFunction,
    ) -> Result<Evaluation> {
        let sent = self.send_evaluate_from(parent, child, pred, k, ranking)?;
        self.recv_evaluate_from(sent, child, pred, k, ranking)
    }

    fn classify_from(
        &self,
        parent: &WalkState,
        child: &Query,
        pred: Predicate,
        k: usize,
    ) -> Result<Classified> {
        let sent = self.send_classify_from(parent, child, pred, k)?;
        self.recv_classify_from(sent, child, pred, k)
    }
}
