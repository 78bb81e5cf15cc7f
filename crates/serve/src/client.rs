//! A minimal blocking [`Client`] for the serve protocol.
//!
//! The client is a thin framing wrapper: pipelining, in-order
//! responses, a per-call read timeout (a stalled daemon becomes a typed
//! [`FrameError::TimedOut`], never an infinite block), and no opinions
//! about failures. Retrying belongs to the caller: [`crate::loadgen`]
//! reconnects and resubmits under exponential backoff, stamping every
//! job with an idempotency key so the daemon executes it once.

use crate::net::{Bind, Conn};
use crate::protocol::{read_frame_timeout, write_frame, FrameError, Request, Response};
use std::time::Duration;

/// How long the raw connection's OS-level read timeout is: the poll
/// granularity for stop flags and deadlines, not a failure threshold.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Connection-level configuration for [`Client`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientConfig {
    /// Overall deadline for one [`Client::recv`]: when no complete
    /// frame arrives in time the call fails with a typed
    /// [`FrameError::TimedOut`]. `None` blocks indefinitely (the
    /// pre-PR-9 behavior — only sensible against a trusted local
    /// daemon).
    pub read_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// One connection to a daemon.
pub struct Client {
    conn: Conn,
    config: ClientConfig,
}

impl Client {
    /// Dials the daemon with the default config (30 s read timeout).
    pub fn connect(bind: &Bind) -> std::io::Result<Client> {
        Client::connect_with(bind, ClientConfig::default())
    }

    /// Dials the daemon with an explicit config.
    pub fn connect_with(bind: &Bind, config: ClientConfig) -> std::io::Result<Client> {
        let conn = Conn::connect(bind)?;
        // A short OS timeout makes reads poll-able; the real deadline
        // lives in `recv` so `read_timeout` can change per call site.
        conn.set_read_timeout(Some(POLL_INTERVAL))?;
        Ok(Client { conn, config })
    }

    /// Changes the per-`recv` read timeout on a live connection.
    pub fn set_read_timeout(&mut self, read_timeout: Option<Duration>) {
        self.config.read_timeout = read_timeout;
    }

    /// Sends one message. Responses come back strictly in send order —
    /// pipelining is encouraged; interleave [`Client::recv`] calls as
    /// suits the workload. Generic so tests can send frames that are
    /// *not* valid requests and observe the typed protocol errors.
    pub fn send<T: serde::Serialize>(&mut self, msg: &T) -> std::io::Result<()> {
        write_frame(&mut self.conn, msg)
    }

    /// Receives the next response, honoring the configured read
    /// timeout.
    pub fn recv(&mut self) -> Result<Response, FrameError> {
        let body = read_frame_timeout(
            &mut self.conn,
            crate::protocol::MAX_FRAME,
            &|| false,
            self.config.read_timeout,
        )?;
        let text = std::str::from_utf8(&body).map_err(|e| {
            FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                e.to_string(),
            ))
        })?;
        serde_json::from_str(text).map_err(|e| {
            FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                e.to_string(),
            ))
        })
    }

    /// Sends a request and blocks for its response. Only valid when no
    /// other responses are outstanding (otherwise the reply returned
    /// here is the oldest outstanding one, not this request's).
    pub fn call(&mut self, req: &Request) -> Result<Response, FrameError> {
        self.send(req).map_err(FrameError::Io)?;
        self.recv()
    }
}
