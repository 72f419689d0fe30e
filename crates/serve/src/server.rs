//! The TCP front end: [`ServerState`] as an [`httpd::Service`] on the
//! shared accept loop ([`httpd::serve`]: N acceptor threads, capped
//! request reading, clean shutdown).
//!
//! Each acceptor handles accepted connections inline, query evaluation
//! included: [`crate::answer_batch`] is a sequential map, so the acceptor
//! count is the daemon's whole parallelism and no request opens a
//! thread-pool region. Shutdown is cooperative: `POST /shutdown` (or
//! [`ServeHandle::shutdown`]) raises the flag, and each acceptor that
//! observes it makes one wake connection so the next blocked `accept`
//! returns and the cascade drains every thread.

use crate::http::{handle_request, ServerState};
use crate::release::ServeError;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stpt_obs::httpd::{self, Request, Response};

/// Telemetry: connections currently being handled.
static IN_FLIGHT: stpt_obs::Gauge = stpt_obs::Gauge::new("serve.in_flight");
/// Telemetry: connections accepted over the daemon's lifetime.
static CONNECTIONS_TOTAL: stpt_obs::Counter = stpt_obs::Counter::new("serve.connections_total");

/// Backing count for the [`IN_FLIGHT`] gauge (gauges are set, not
/// incremented, so the true count lives here).
static IN_FLIGHT_COUNT: AtomicU64 = AtomicU64::new(0);

impl httpd::Service for ServerState {
    fn respond(&self, req: &Request) -> Response {
        handle_request(self, req)
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn connection(&self, open: bool) {
        let current = if open {
            CONNECTIONS_TOTAL.add(1);
            IN_FLIGHT_COUNT.fetch_add(1, Ordering::SeqCst) + 1
        } else {
            IN_FLIGHT_COUNT.fetch_sub(1, Ordering::SeqCst) - 1
        };
        IN_FLIGHT.set(current as f64);
    }
}

/// A running daemon: the bound address plus the acceptor threads.
#[derive(Debug)]
pub struct ServeHandle {
    /// Address the listener actually bound (port resolved if `:0`).
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    listener: httpd::Listener,
}

impl ServeHandle {
    /// Raise the shutdown flag and wake one blocked acceptor; the exit
    /// cascade wakes the rest. Safe to call more than once.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        httpd::wake(self.addr);
    }

    /// Block until every acceptor thread has exited. Call after
    /// [`ServeHandle::shutdown`] (or after a client posted `/shutdown`).
    pub fn join(self) -> Result<(), ServeError> {
        self.listener.join().map_err(ServeError::Io)
    }

    /// The shared server state (release cache, shutdown flag).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }
}

/// Bind `addr` and start `acceptors` acceptor threads over `state`, each
/// request body capped at [`httpd::DEFAULT_BODY_CAP`]. Returns once the
/// listener is bound and every thread is running; the daemon then serves
/// until shutdown is requested.
pub fn serve(
    state: Arc<ServerState>,
    addr: &str,
    acceptors: usize,
) -> Result<ServeHandle, ServeError> {
    let listener = httpd::serve(Arc::clone(&state), addr, acceptors, httpd::DEFAULT_BODY_CAP)
        .map_err(ServeError::Io)?;
    Ok(ServeHandle {
        addr: listener.addr,
        state,
        listener,
    })
}
