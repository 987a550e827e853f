//! Cluster-aware client: route a session to its ring owner and follow
//! the service's redirects.
//!
//! [`ClusterClient`] wraps one [`ReconnectingClient`] with the routing
//! brain a multi-node deployment needs. At connect time it reads the
//! discovery file (DESIGN.md §15), builds the consistent-hash ring, and
//! dials the node that owns the session. From then on two signals can
//! move it:
//!
//! - **`NotOwner { owner }`** — the authoritative answer from a node
//!   whose ownership fence says the session hashes elsewhere. The
//!   client re-dials `owner` and `Resume`s the session there; the
//!   reconnecting layer re-sends the unacked window, so no event is
//!   lost or duplicated across the move.
//! - **Connection failure** — the owner may simply be dead. After the
//!   inner client gives up, the cluster client re-reads the discovery
//!   file; if the membership `generation` moved or the ring now maps
//!   the session to a different node, it redirects and resumes there
//!   (the handoff/recovery path is expected to have installed the
//!   session on its new owner).
//!
//! Both loops are bounded by [`MAX_ROUTE_HOPS`]: a cluster whose nodes
//! disagree about ownership surfaces as a typed
//! [`ClusterError::RoutingLoop`] instead of a livelock.
//!
//! Known limitation: `Open` is fire-and-forget on the wire, so a
//! session opened against a *stale* view is bounced asynchronously —
//! the `NotOwner` shows up in the frame stream, the client follows it,
//! and the subsequent `Resume` on the true owner is rejected with
//! `UnknownSession` (nothing ever opened there). Callers should open
//! sessions with a current discovery file; the redirect machinery is
//! for ownership changes *after* open, which is the case that matters
//! (drain, crash, membership change).
//!
//! [`hand_off`] is the other side of a move: it pushes drained or
//! recovered [`SessionSnapshot`]s to their ring owners over wire-v4
//! `Handoff` frames, both for a node's graceful drain and for a
//! recovery agent replaying a dead node's WAL.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use grandma_cluster::{read_cluster, ClusterView, DiscoveryError};
use grandma_events::InputEvent;

use crate::client::{ClientError, ReconnectingClient, RetryPolicy};
use crate::session::SessionSnapshot;
use crate::wire::{encode_client, ClientFrame, FrameBuffer, ServerFrame, WIRE_VERSION};

/// Redirect/refresh cycles one operation may burn before the client
/// declares the cluster inconsistent. Each hop is a full dial + resume,
/// so this is generous: a healthy cluster resolves in one.
pub const MAX_ROUTE_HOPS: u32 = 4;

/// Why a cluster-routed operation failed for good.
#[derive(Debug)]
pub enum ClusterError {
    /// The discovery file could not be read or parsed.
    Discovery(DiscoveryError),
    /// The wire client failed and re-routing could not fix it.
    Client(ClientError),
    /// The discovery file lists no nodes: nothing can own the session.
    NoOwner,
    /// Redirects/refreshes exceeded [`MAX_ROUTE_HOPS`] without landing:
    /// nodes disagree about ownership (split registry, thrashing ring).
    RoutingLoop {
        /// Hops burned before giving up.
        hops: u32,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Discovery(e) => write!(f, "cluster discovery: {e}"),
            ClusterError::Client(e) => write!(f, "cluster client: {e}"),
            ClusterError::NoOwner => write!(f, "cluster has no registered nodes"),
            ClusterError::RoutingLoop { hops } => {
                write!(f, "no node accepted ownership after {hops} redirects")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<DiscoveryError> for ClusterError {
    fn from(e: DiscoveryError) -> Self {
        ClusterError::Discovery(e)
    }
}

impl From<ClientError> for ClusterError {
    fn from(e: ClientError) -> Self {
        ClusterError::Client(e)
    }
}

/// A client for one session on a multi-node cluster. See the module
/// docs for the routing rules.
pub struct ClusterClient {
    path: PathBuf,
    view: ClusterView,
    inner: ReconnectingClient,
    /// A `NotOwner` spotted in the frame stream (rather than surfaced
    /// as an error): followed lazily at the next operation.
    pending_redirect: Option<SocketAddr>,
    /// Frames drained from the inner client, routing chatter removed.
    inbox: Vec<ServerFrame>,
    redirects: u64,
}

impl ClusterClient {
    /// Reads the discovery file at `cluster_file`, dials the node the
    /// ring maps `session` to, and opens the session there.
    pub fn connect(
        cluster_file: &Path,
        session: u64,
        policy: RetryPolicy,
    ) -> Result<Self, ClusterError> {
        let view = read_cluster(cluster_file)?;
        let owner = view.owner_addr(session).ok_or(ClusterError::NoOwner)?;
        let inner = ReconnectingClient::connect(owner, session, policy)?;
        Ok(Self {
            path: cluster_file.to_path_buf(),
            view,
            inner,
            pending_redirect: None,
            inbox: Vec::new(),
            redirects: 0,
        })
    }

    /// The session this client drives.
    pub fn session(&self) -> u64 {
        self.inner.session()
    }

    /// The node address currently believed to own the session.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Times the client moved to a different node (redirect or
    /// membership refresh).
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Times the inner connection was re-established after loss.
    pub fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }

    /// Window events re-sent across all resumes.
    pub fn resent_events(&self) -> u64 {
        self.inner.resent_events()
    }

    /// The membership view the client last read.
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    /// Sends one event, following redirects as needed; returns the seq
    /// it was assigned.
    pub fn send_event(&mut self, event: InputEvent) -> Result<u32, ClusterError> {
        self.follow_pending();
        match self.inner.send_event(event) {
            Ok(seq) => {
                self.drain_inner();
                Ok(seq)
            }
            Err(e) => {
                // The event already sits in the unacked window with its
                // seq assigned; re-routing resumes the session on the
                // right node and re-sends the window, so feeding it
                // again would duplicate it.
                self.reroute(e)?;
                Ok(self.inner.last_assigned_seq())
            }
        }
    }

    /// Closes the session (following redirects) and returns every frame
    /// received over the client's lifetime.
    pub fn close(&mut self) -> Result<Vec<ServerFrame>, ClusterError> {
        self.follow_pending();
        let mut hops = 0u32;
        loop {
            match self.inner.close() {
                Ok(frames) => {
                    self.absorb(frames);
                    return Ok(std::mem::take(&mut self.inbox));
                }
                Err(e) => self.step_route(e, &mut hops)?,
            }
        }
    }

    /// Frames received so far, in order, with routing chatter
    /// (`NotOwner` for this session) filtered out and acted on.
    pub fn take_frames(&mut self) -> Vec<ServerFrame> {
        self.drain_inner();
        std::mem::take(&mut self.inbox)
    }

    /// Test/chaos hook: kill the connection abruptly.
    pub fn force_disconnect(&mut self) {
        self.inner.force_disconnect();
    }

    /// Sent-but-unacked events still in the resume window.
    pub fn unacked_events(&self) -> usize {
        self.inner.unacked_events()
    }

    /// Reads pending server frames (waiting up to `wait`) into the
    /// inbox without sending anything, re-routing if the read surfaces
    /// an ownership change.
    pub fn pump(&mut self, wait: std::time::Duration) -> Result<(), ClusterError> {
        self.follow_pending();
        if let Err(e) = self.inner.pump(wait) {
            self.reroute(e)?;
        }
        self.drain_inner();
        Ok(())
    }

    /// Follows a `NotOwner` previously spotted in the frame stream.
    fn follow_pending(&mut self) {
        if let Some(owner) = self.pending_redirect.take() {
            self.hop(owner);
        }
    }

    /// Files `frames` into the client's inbox, peeling off `NotOwner`
    /// chatter for this session and remembering the most recent owner
    /// hint for the next operation.
    fn absorb(&mut self, frames: Vec<ServerFrame>) {
        let session = self.inner.session();
        for frame in frames {
            match frame {
                ServerFrame::NotOwner { session: s, owner } if s == session => {
                    self.pending_redirect = Some(owner);
                }
                other => self.inbox.push(other),
            }
        }
    }

    /// Moves whatever the inner client has received into the inbox.
    fn drain_inner(&mut self) {
        let frames = self.inner.take_frames();
        self.absorb(frames);
    }

    fn hop(&mut self, owner: SocketAddr) {
        if owner != self.inner.addr() {
            self.redirects += 1;
        }
        self.inner.redirect(owner);
    }

    /// One routing step for a failed operation: follow an explicit
    /// redirect, or refresh membership and see whether the session
    /// moved. `Ok(())` means "retry the operation"; `Err` is final.
    fn step_route(&mut self, err: ClientError, hops: &mut u32) -> Result<(), ClusterError> {
        *hops += 1;
        if *hops > MAX_ROUTE_HOPS {
            return Err(ClusterError::RoutingLoop { hops: *hops });
        }
        match err {
            ClientError::Redirected { owner } => {
                self.hop(owner);
                Ok(())
            }
            other => {
                // The node may be dead or restarted: consult the
                // registry before giving up.
                let view = read_cluster(&self.path)?;
                let owner = view
                    .owner_addr(self.inner.session())
                    .ok_or(ClusterError::NoOwner)?;
                let generation_moved = view.generation != self.view.generation;
                self.view = view;
                if owner != self.inner.addr() {
                    self.hop(owner);
                    Ok(())
                } else if generation_moved {
                    // Same owner but the membership changed under us
                    // (e.g. the node re-registered after a restart):
                    // worth one more try.
                    Ok(())
                } else {
                    Err(ClusterError::Client(other))
                }
            }
        }
    }

    /// Re-routes until a node accepts the session or the hop budget is
    /// gone; used when an operation already failed.
    fn reroute(&mut self, first: ClientError) -> Result<(), ClusterError> {
        let mut hops = 0u32;
        let mut err = first;
        loop {
            self.step_route(err, &mut hops)?;
            match self.inner.reconnect() {
                Ok(()) => return Ok(()),
                Err(e) => err = e,
            }
        }
    }
}

/// Connect, read and write timeout of one handoff connection.
const HANDOFF_TIMEOUT: Duration = Duration::from_secs(5);

/// Hands each snapshot to the node `view` maps its session to, over one
/// cached connection per peer, waiting for each `HandoffAck`. Returns
/// the snapshots that were not acked, in order: their owner is missing
/// from the ring or unreachable, it answered with a fault, or the
/// connection failed. The caller decides their fate (a draining node
/// reinstalls them for its WAL; a recovery agent treats any as lost).
pub fn hand_off(view: &ClusterView, snapshots: Vec<SessionSnapshot>) -> Vec<SessionSnapshot> {
    let mut peers: Vec<(SocketAddr, Option<HandoffPeer>)> = Vec::new();
    let mut refused = Vec::new();
    for snapshot in snapshots {
        let acked = view.owner_addr(snapshot.session).is_some_and(|addr| {
            if !peers.iter().any(|(a, _)| *a == addr) {
                peers.push((addr, HandoffPeer::dial(addr)));
            }
            peers
                .iter_mut()
                .find(|(a, _)| *a == addr)
                .and_then(|(_, p)| p.as_mut())
                .is_some_and(|p| p.handoff(&snapshot))
        });
        if !acked {
            refused.push(snapshot);
        }
    }
    refused
}

/// One outbound handoff connection to a peer node: a plain wire-v4
/// client that only ever sends `Handoff` frames.
struct HandoffPeer {
    stream: TcpStream,
    frames: FrameBuffer,
    scratch: Vec<u8>,
    chunk: Vec<u8>,
}

impl HandoffPeer {
    fn dial(addr: SocketAddr) -> Option<Self> {
        let stream = TcpStream::connect_timeout(&addr, HANDOFF_TIMEOUT).ok()?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(HANDOFF_TIMEOUT));
        let _ = stream.set_write_timeout(Some(HANDOFF_TIMEOUT));
        let mut peer = Self {
            stream,
            frames: FrameBuffer::new(),
            scratch: Vec::new(),
            chunk: vec![0u8; 16 * 1024],
        };
        peer.send_frame(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .ok()?;
        Some(peer)
    }

    fn send_frame(&mut self, frame: &ClientFrame) -> std::io::Result<()> {
        self.scratch.clear();
        encode_client(frame, &mut self.scratch);
        self.stream.write_all(&self.scratch)
    }

    /// Sends one snapshot and waits for its `HandoffAck`; a fault, an
    /// undecodable reply, or any I/O failure counts as a refusal.
    fn handoff(&mut self, snapshot: &SessionSnapshot) -> bool {
        let mut payload = Vec::new();
        snapshot.encode(&mut payload);
        if self
            .send_frame(&ClientFrame::Handoff { snapshot: payload })
            .is_err()
        {
            return false;
        }
        loop {
            match self.frames.next_server() {
                Ok(Some(ServerFrame::HandoffAck { session, .. }))
                    if session == snapshot.session =>
                {
                    return true;
                }
                Ok(Some(ServerFrame::Fault { session, .. }))
                    if session == snapshot.session || session == 0 =>
                {
                    return false;
                }
                Ok(Some(_)) => {}
                Ok(None) => match self.stream.read(&mut self.chunk) {
                    Ok(0) | Err(_) => return false,
                    Ok(n) => self.frames.extend(self.chunk.get(..n).unwrap_or(&[])),
                },
                Err(_) => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{ServeConfig, SessionRouter, ShardMsg};
    use crate::tcp::TcpService;
    use grandma_cluster::{register_node, remove_node};
    use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
    use grandma_events::{Button, EventKind, EventScript};
    use grandma_synth::datasets;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn recognizer() -> Arc<EagerRecognizer> {
        let data = datasets::eight_way(0x5eed, 10, 0);
        let (rec, _) =
            EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
                .expect("training succeeds");
        Arc::new(rec)
    }

    fn tmp_registry(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "grandma-cluster-client-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("cluster.json")
    }

    /// Starts one serve node, registers it in `file`, and installs an
    /// ownership fence that re-reads the registry on every check.
    fn start_node(
        id: &str,
        file: &Path,
        rec: Arc<EagerRecognizer>,
    ) -> (TcpService, Arc<SessionRouter>) {
        let router = SessionRouter::new(rec, ServeConfig::default());
        let service = TcpService::start(router.clone(), "127.0.0.1:0").expect("bind");
        let me = service.local_addr();
        register_node(file, id, me).expect("register");
        let path = file.to_path_buf();
        router.set_fence(Arc::new(move |session| {
            let view = read_cluster(&path).ok()?;
            match view.owner_addr(session) {
                Some(owner) if owner != me => Some(owner),
                _ => None,
            }
        }));
        (service, router)
    }

    fn two_gestures() -> Vec<grandma_events::InputEvent> {
        let data = datasets::eight_way(0x717e, 0, 2);
        EventScript::new()
            .then_gesture(&data.testing[0].gesture, Button::Left)
            .then_gesture(&data.testing[1].gesture, Button::Left)
            .into_events()
    }

    /// Index one past the first gesture's `MouseUp`: a cut point whose
    /// final event always produces an acking `Outcome` frame.
    fn first_gesture_len(events: &[grandma_events::InputEvent]) -> usize {
        events
            .iter()
            .position(|e| matches!(e.kind, EventKind::MouseUp { .. }))
            .expect("script contains an up event")
            + 1
    }

    fn pump_until_quiesced(client: &mut ClusterClient) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while client.unacked_events() > 0 {
            assert!(Instant::now() < deadline, "client never quiesced");
            client.pump(Duration::from_millis(10)).expect("pump");
        }
    }

    fn substantive(frames: Vec<ServerFrame>) -> Vec<ServerFrame> {
        frames
            .into_iter()
            .filter(|f| {
                matches!(
                    f,
                    ServerFrame::Recognized { .. }
                        | ServerFrame::Manipulate { .. }
                        | ServerFrame::Outcome { .. }
                )
            })
            .collect()
    }

    /// The same session driven start-to-finish on a single unmolested
    /// node: the byte-level truth a migrated run must match.
    fn control_run(
        rec: Arc<EagerRecognizer>,
        session: u64,
        events: &[grandma_events::InputEvent],
        tag: &str,
    ) -> Vec<ServerFrame> {
        let file = tmp_registry(tag);
        let (mut service, router) = start_node("solo", &file, rec);
        let mut client =
            ClusterClient::connect(&file, session, RetryPolicy::default()).expect("connect");
        for &event in events {
            client.send_event(event).expect("send");
        }
        let frames = substantive(client.close().expect("close"));
        service.shutdown();
        router.shutdown();
        let _ = std::fs::remove_dir_all(file.parent().expect("parent"));
        frames
    }

    /// Moves every session off `from` onto `to` via drain + Handoff,
    /// acking each snapshot, and drops `from` from the registry.
    fn migrate_all(file: &Path, from_id: &str, from: &SessionRouter, to: &SessionRouter) -> usize {
        let snapshots = from.drain_sessions();
        let moved = snapshots.len();
        for snapshot in snapshots {
            let session = snapshot.session;
            let last_seq = snapshot.last_seq;
            let (tx, rx) = std::sync::mpsc::channel();
            to.submit(ShardMsg::Handoff {
                conn: 0,
                snapshot: Box::new(snapshot),
                reply: tx.into(),
            })
            .expect("submit handoff");
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(ServerFrame::HandoffAck {
                    session: s,
                    last_seq: l,
                }) => {
                    assert_eq!((s, l), (session, last_seq));
                }
                other => panic!("expected HandoffAck, got {other:?}"),
            }
        }
        remove_node(file, from_id).expect("deregister");
        moved
    }

    #[test]
    fn routes_to_the_ring_owner_and_survives_node_death() {
        let rec = recognizer();
        let file = tmp_registry("death");
        let (mut svc_a, router_a) = start_node("a", &file, rec.clone());
        let (mut svc_b, router_b) = start_node("b", &file, rec.clone());
        let view = read_cluster(&file).expect("read");
        let session = (1..500u64)
            .find(|&s| view.owner_addr(s) == Some(svc_a.local_addr()))
            .expect("some session maps to node a");
        let events = two_gestures();
        let cut = first_gesture_len(&events);
        let control = control_run(rec, session, &events, "death-control");

        let policy = RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            ..RetryPolicy::default()
        };
        let mut client = ClusterClient::connect(&file, session, policy).expect("connect");
        assert_eq!(
            client.addr(),
            svc_a.local_addr(),
            "must dial the ring owner"
        );
        let mut moved_frames = Vec::new();
        for &event in &events[..cut] {
            client.send_event(event).expect("send");
        }
        pump_until_quiesced(&mut client);
        moved_frames.extend(client.take_frames());

        // Node a dies after its sessions were handed to node b.
        assert_eq!(migrate_all(&file, "a", &router_a, &router_b), 1);
        svc_a.shutdown();
        router_a.shutdown();

        for &event in &events[cut..] {
            client
                .send_event(event)
                .expect("send survives the dead node");
        }
        moved_frames.extend(client.close().expect("close"));
        assert_eq!(client.addr(), svc_b.local_addr(), "ends on the successor");
        assert!(client.redirects() >= 1, "membership refresh must redirect");
        assert_eq!(
            substantive(moved_frames),
            control,
            "migrated session must match the unmoved control byte for byte"
        );
        let metrics = router_b.metrics().snapshot();
        assert_eq!(metrics.sessions_handed_off, 1);
        assert_eq!(metrics.sessions_resumed, 1);
        svc_b.shutdown();
        router_b.shutdown();
        let _ = std::fs::remove_dir_all(file.parent().expect("parent"));
    }

    #[test]
    fn follows_a_not_owner_bounce_from_a_live_node() {
        let rec = recognizer();
        let file = tmp_registry("bounce");
        let (mut svc_a, router_a) = start_node("a", &file, rec.clone());
        let (mut svc_b, router_b) = start_node("b", &file, rec.clone());
        let view = read_cluster(&file).expect("read");
        let session = (1..500u64)
            .find(|&s| view.owner_addr(s) == Some(svc_a.local_addr()))
            .expect("some session maps to node a");
        let events = two_gestures();
        let cut = first_gesture_len(&events);
        let control = control_run(rec, session, &events, "bounce-control");

        let mut client =
            ClusterClient::connect(&file, session, RetryPolicy::default()).expect("connect");
        let mut moved_frames = Vec::new();
        for &event in &events[..cut] {
            client.send_event(event).expect("send");
        }
        pump_until_quiesced(&mut client);
        moved_frames.extend(client.take_frames());

        // The session moves to node b but node a stays up: the next
        // resume lands on a, whose fence answers NotOwner, and the
        // client must follow the bounce instead of erroring.
        assert_eq!(migrate_all(&file, "a", &router_a, &router_b), 1);
        client.force_disconnect();

        for &event in &events[cut..] {
            client.send_event(event).expect("send follows the redirect");
        }
        moved_frames.extend(client.close().expect("close"));
        assert_eq!(client.addr(), svc_b.local_addr(), "ends on the new owner");
        assert!(client.redirects() >= 1, "NotOwner must count as a redirect");
        assert_eq!(
            substantive(moved_frames),
            control,
            "bounced session must match the unmoved control byte for byte"
        );
        assert!(
            router_a.metrics().snapshot().not_owner_redirects >= 1,
            "node a must have fenced the resume"
        );
        assert_eq!(router_b.metrics().snapshot().sessions_handed_off, 1);
        svc_a.shutdown();
        router_a.shutdown();
        svc_b.shutdown();
        router_b.shutdown();
        let _ = std::fs::remove_dir_all(file.parent().expect("parent"));
    }
}
