//! Link-failure schedules for the §4.2.2 failure experiments.
//!
//! The paper disables link pairs (2↔3, then 7↔9) for entire runs and
//! observes that blocking rises while the ordering of the policy curves is
//! preserved. [`FailureSchedule`] supports that static form plus timed
//! down/up events for transient-failure studies (an extension: the paper
//! only evaluates static failures).

use altroute_netgraph::graph::LinkId;

/// A timed link state change — the kernel's own event type, so a
/// schedule hands its events to the kernel without conversion.
pub use altroute_simcore::kernel::LinkEvent as FailureEvent;

/// A failure plan for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureSchedule {
    /// Links down for the whole run.
    statically_down: Vec<LinkId>,
    /// Timed changes, unordered (the engine sorts into its event queue).
    events: Vec<FailureEvent>,
}

impl FailureSchedule {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Links down from the start and never repaired (the paper's form).
    pub fn static_down(links: impl IntoIterator<Item = LinkId>) -> Self {
        Self {
            statically_down: links.into_iter().collect(),
            events: Vec::new(),
        }
    }

    /// Adds a timed outage `[down_at, up_at)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= down_at < up_at` and both are finite.
    pub fn with_outage(mut self, link: LinkId, down_at: f64, up_at: f64) -> Self {
        assert!(
            down_at.is_finite() && up_at.is_finite() && down_at >= 0.0 && down_at < up_at,
            "invalid outage window [{down_at}, {up_at})"
        );
        self.events.push(FailureEvent {
            link,
            at: down_at,
            up: false,
        });
        self.events.push(FailureEvent {
            link,
            at: up_at,
            up: true,
        });
        self
    }

    /// Links down for the whole run.
    pub fn statically_down(&self) -> &[LinkId] {
        &self.statically_down
    }

    /// Timed events.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Whether the schedule does anything at all.
    pub fn is_empty(&self) -> bool {
        self.statically_down.is_empty() && self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_schedule() {
        let s = FailureSchedule::static_down([3, 7]);
        assert_eq!(s.statically_down(), &[3, 7]);
        assert!(s.events().is_empty());
        assert!(!s.is_empty());
        assert!(FailureSchedule::none().is_empty());
    }

    #[test]
    fn outage_produces_paired_events() {
        let s = FailureSchedule::none()
            .with_outage(2, 10.0, 20.0)
            .with_outage(5, 15.0, 16.0);
        assert_eq!(s.events().len(), 4);
        assert!(s.events().contains(&FailureEvent {
            link: 2,
            at: 10.0,
            up: false
        }));
        assert!(s.events().contains(&FailureEvent {
            link: 2,
            at: 20.0,
            up: true
        }));
    }

    #[test]
    #[should_panic(expected = "invalid outage window")]
    fn inverted_window_panics() {
        FailureSchedule::none().with_outage(0, 5.0, 5.0);
    }
}
