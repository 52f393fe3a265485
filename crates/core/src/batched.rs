//! The [`Batched`] decorator: run any immediate-injection protocol under
//! the ℓ-reduction's phase-batched staging (Def. 2.4).
//!
//! HPTS carries its own phase structure; every other protocol here injects
//! immediately. `Batched<P>` flips that switch without touching `P`'s
//! forwarding logic, which makes the *staging* dimension of the capacity
//! matrix ([`StagingMode`](aqt_model::StagingMode) exempt vs counted)
//! exercisable with any protocol — the conformance and conservation suites
//! sweep it over the greedy families.

use aqt_model::{ForwardingPlan, InjectionMode, NetworkState, Protocol, Round, Topology};

/// Wraps a protocol and stages its injections in phases of length `len`
/// (accepted at rounds `t ≡ 0 mod len`), leaving the forwarding decisions
/// untouched.
///
/// Only meaningful around protocols whose own
/// [`injection_mode`](Protocol::injection_mode) is
/// [`InjectionMode::Immediate`]; wrapping an already-batched protocol
/// would silently override its phase length.
///
/// # Examples
///
/// ```
/// use aqt_core::{Batched, Greedy, GreedyPolicy};
/// use aqt_model::{Injection, Path, Pattern, Simulation};
///
/// let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
/// let protocol = Batched::new(Greedy::new(GreedyPolicy::Fifo), 2);
/// let mut sim = Simulation::new(Path::new(4), protocol, &pattern)?;
/// sim.step()?;
/// assert_eq!(sim.state().staged_len(), 1); // staged until round 2
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Batched<P> {
    inner: P,
    len: u64,
}

impl<P> Batched<P> {
    /// Stages `inner`'s injections in phases of `len` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(inner: P, len: u64) -> Self {
        assert!(len >= 1, "phase length must be positive");
        Batched { inner, len }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The phase length ℓ.
    pub fn phase_len(&self) -> u64 {
        self.len
    }
}

impl<T: Topology, P: Protocol<T>> Protocol<T> for Batched<P> {
    fn name(&self) -> String {
        format!("Batched[l={}]-{}", self.len, self.inner.name())
    }

    fn injection_mode(&self) -> InjectionMode {
        InjectionMode::Batched { len: self.len }
    }

    fn plan(
        &mut self,
        round: Round,
        topology: &T,
        state: &NetworkState,
        plan: &mut ForwardingPlan,
    ) {
        self.inner.plan(round, topology, state, plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Greedy, GreedyPolicy};
    use aqt_model::{Injection, Path, Pattern, Simulation};

    #[test]
    fn stages_until_phase_boundaries_then_drains() {
        let l = 3u64;
        let p: Pattern = (0..6u64).map(|t| Injection::new(t, 0, 3)).collect();
        let protocol = Batched::new(Greedy::new(GreedyPolicy::Fifo), l);
        let mut sim = Simulation::new(Path::new(4), protocol, &p).unwrap();
        for _ in 0..3 {
            let o = sim.step().unwrap();
            assert_eq!(o.accepted, 0);
        }
        assert_eq!(sim.state().staged_len(), 3);
        let o = sim.step().unwrap(); // round 3: acceptance
        assert_eq!(o.accepted, 3);
        sim.run_past_horizon(12).unwrap();
        assert!(sim.is_drained());
        assert_eq!(sim.metrics().delivered, 6);
    }

    #[test]
    fn name_and_mode_reflect_the_wrap() {
        let b = Batched::new(Greedy::new(GreedyPolicy::Lifo), 4);
        assert_eq!(Protocol::<Path>::name(&b), "Batched[l=4]-Greedy-LIFO");
        assert_eq!(
            Protocol::<Path>::injection_mode(&b),
            InjectionMode::Batched { len: 4 }
        );
        assert_eq!(b.phase_len(), 4);
        assert_eq!(b.inner().policy(), GreedyPolicy::Lifo);
    }

    #[test]
    #[should_panic(expected = "phase length")]
    fn zero_phase_length_rejected() {
        let _ = Batched::new(Greedy::new(GreedyPolicy::Fifo), 0);
    }
}
