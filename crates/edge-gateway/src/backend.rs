//! The dispatcher's routing seam: everything the gateway needs from
//! "whatever serves the images" — admission, completion, load, lifecycle —
//! as a trait, so the same batching/priority/deadline front-end runs over
//! one resident [`Session`] (the [`SessionBackend`] wrapper a `Session`
//! converts into when handed to [`crate::Gateway::over`]) or over a whole fleet of replica
//! sessions (the `edge-fleet` crate implements [`Backend`] with
//! least-loaded routing and elastic scale behind it).
//!
//! Tickets cross this seam as [`RouteTicket`]s — a `(replica, image)` pair
//! — because each replica session numbers its images independently from 0:
//! a bare image id would collide across replicas.

use edge_runtime::{RuntimeReport, Session, SwapReport};
use edgesim::ExecutionPlan;
use std::time::Duration;
use tensor::Tensor;

/// A claim on one in-flight image, unique across every replica a backend
/// routes over: `replica` disambiguates the per-session `image` sequence
/// numbers (a single-session backend always uses replica `0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteTicket {
    /// The replica the image was routed to.
    pub replica: u64,
    /// The image sequence number within that replica's session.
    pub image: u32,
}

/// What a successful admission hands back to the dispatcher.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    /// The claim to poll/wait on.
    pub ticket: RouteTicket,
    /// The serving epoch the image was admitted under (trace correlation).
    pub epoch: u64,
}

/// The serving substrate behind a [`crate::Gateway`] dispatcher.
///
/// Errors cross the seam as strings (the dispatcher wraps them in
/// [`crate::GatewayError::Runtime`]); `Ok(None)` from [`Backend::try_submit`]
/// means "no capacity right now, come back" — the dispatcher drains
/// completions and waits for a credit, exactly as it did against a bare
/// session's window.
pub trait Backend: Send + Sync + 'static {
    /// A fatal serving failure, if one happened.  The dispatcher resolves
    /// all outstanding work with it and closes.
    fn failure(&self) -> Option<String>;

    /// Free admission slots right now, summed over whatever can accept
    /// work — the dispatcher sizes dispatch waves to this.
    fn available_credits(&self) -> usize;

    /// Tries to admit one image.  `model` is the client's model id
    /// (`None` = the backend's default); a backend serving a single model
    /// may ignore it, a multi-tenant backend routes by it and errors on
    /// ids it does not serve.
    fn try_submit(&self, model: Option<&str>, image: &Tensor) -> Result<Option<Admission>, String>;

    /// Blocks until an admission slot frees up or `timeout` elapses.
    fn wait_for_credit(&self, timeout: Duration);

    /// Claims one ready completion, if any.
    fn try_recv(&self) -> Option<(RouteTicket, Tensor)>;

    /// Waits up to `timeout` for `ticket`'s output; `Ok(None)` on timeout.
    fn wait_timeout(
        &self,
        ticket: RouteTicket,
        timeout: Duration,
    ) -> Result<Option<Tensor>, String>;

    /// A live metrics snapshot (fleet backends roll replicas up into one
    /// report).
    fn report(&self) -> RuntimeReport;

    /// Hot-swaps the execution plan underneath (fleet backends apply it to
    /// every replica of their default model).
    fn apply_plan(&self, plan: &ExecutionPlan) -> Result<SwapReport, String>;

    /// Drains everything and returns the final rolled-up report.
    fn shutdown(self: Box<Self>) -> Result<RuntimeReport, String>;
}

/// The classic one-session backend: every request routes to the one
/// resident [`Session`], model ids are ignored (there is exactly one
/// model), and tickets carry replica id `0`.
pub struct SessionBackend {
    session: Session,
}

impl From<Session> for Box<dyn Backend> {
    fn from(session: Session) -> Self {
        Box::new(SessionBackend { session })
    }
}

impl SessionBackend {
    fn route(ticket: edge_runtime::Ticket) -> RouteTicket {
        RouteTicket {
            replica: 0,
            image: ticket.image(),
        }
    }

    fn session_ticket(&self, ticket: RouteTicket) -> Result<edge_runtime::Ticket, String> {
        if ticket.replica != 0 {
            return Err(format!(
                "single-session backend asked about replica {}",
                ticket.replica
            ));
        }
        self.session
            .ticket_for(ticket.image)
            .ok_or_else(|| format!("image {} was never submitted", ticket.image))
    }
}

impl Backend for SessionBackend {
    fn failure(&self) -> Option<String> {
        self.session.failure()
    }

    fn available_credits(&self) -> usize {
        self.session.available_credits()
    }

    fn try_submit(
        &self,
        _model: Option<&str>,
        image: &Tensor,
    ) -> Result<Option<Admission>, String> {
        match self.session.try_submit(image) {
            Ok(Some(ticket)) => Ok(Some(Admission {
                ticket: Self::route(ticket),
                epoch: self.session.epoch(),
            })),
            Ok(None) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    fn wait_for_credit(&self, timeout: Duration) {
        self.session.wait_for_credit(timeout);
    }

    fn try_recv(&self) -> Option<(RouteTicket, Tensor)> {
        self.session
            .try_recv()
            .map(|(ticket, output)| (Self::route(ticket), output))
    }

    fn wait_timeout(
        &self,
        ticket: RouteTicket,
        timeout: Duration,
    ) -> Result<Option<Tensor>, String> {
        let ticket = self.session_ticket(ticket)?;
        self.session
            .wait_timeout(ticket, timeout)
            .map_err(|e| e.to_string())
    }

    fn report(&self) -> RuntimeReport {
        self.session.metrics()
    }

    fn apply_plan(&self, plan: &ExecutionPlan) -> Result<SwapReport, String> {
        self.session.apply_plan(plan).map_err(|e| e.to_string())
    }

    fn shutdown(self: Box<Self>) -> Result<RuntimeReport, String> {
        self.session.shutdown().map_err(|e| e.to_string())
    }
}
