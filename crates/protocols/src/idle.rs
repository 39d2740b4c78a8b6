use ps_simnet::SimTime;

/// The idle policy of a token ring: how long a member with nothing to do
/// keeps the token, and whether a member that gets something to do has to
/// wake the ring.
///
/// A token that rotates at full rate through an idle group is pure
/// overhead, so the hold backs off: a member that receives the token with
/// no work, having seen no ring traffic since the token's previous visit,
/// doubles its hold (`base << level`, capped); any traffic takes it back to
/// the base hold. Under load every member sees traffic between visits and
/// the ring runs at the base hold throughout. The price of a sleeping ring
/// is paid by whoever ends the silence: a member that gets work while the
/// ring [`may_sleep`](Self::may_sleep) broadcasts a *wake*, on which every
/// member calls [`traffic`](Self::traffic) and the holder forwards at once.
///
/// One definition, two rings: [`crate::TokenOrderLayer`]'s ordering token
/// and the switching protocol's NORMAL token.
#[derive(Debug, Clone)]
pub struct IdleBackoff {
    base: SimTime,
    max_level: u32,
    level: u32,
    /// Ring traffic since the token's previous visit here.
    seen: bool,
    last_traffic: SimTime,
}

/// The hold never grows beyond `base << MAX_LEVEL` (64×).
const MAX_LEVEL: u32 = 6;

impl IdleBackoff {
    /// A ring whose idle token is held `base` at each member while there
    /// is traffic. Zero means continuous circulation: the hold stays zero
    /// and the ring never sleeps.
    pub fn new(base: SimTime) -> Self {
        // Joining counts as traffic: the first visit holds the base.
        Self { base, max_level: MAX_LEVEL, level: 0, seen: true, last_traffic: SimTime::ZERO }
    }

    /// Lowers the cap until a rotation of `members` sleeping holds stays
    /// under `limit` — for a ring with a watchdog that reads a long
    /// silence as a lost token. Call it before the ring starts.
    pub fn cap_rotation(&mut self, members: usize, limit: SimTime) {
        while self.max_level > 0 && self.rotation(members, self.max_level) >= limit {
            self.max_level -= 1;
        }
    }

    fn rotation(&self, members: usize, level: u32) -> SimTime {
        self.base.mul(members as u64).mul(1 << level)
    }

    /// Ring traffic — a message, a wake, work of this member's own: back
    /// to the base hold.
    pub fn traffic(&mut self, now: SimTime) {
        self.level = 0;
        self.seen = true;
        self.last_traffic = now;
    }

    /// The token arrived and there is nothing to do with it: backs off if
    /// the ring was silent since its previous visit, and returns how long
    /// to hold it (zero: forward at once).
    pub fn idle_visit(&mut self) -> SimTime {
        if !std::mem::take(&mut self.seen) {
            self.level = (self.level + 1).min(self.max_level);
        }
        self.hold()
    }

    /// The hold in force, `base << level` — what a hold timer lost to a
    /// crash is re-armed with.
    pub fn hold(&self) -> SimTime {
        self.base.mul(1 << self.level)
    }

    /// Whether some member may be sitting on the token for longer than the
    /// base hold: this member has backed off itself, or has seen no ring
    /// traffic for one base rotation (in which others may have).
    pub fn may_sleep(&self, now: SimTime, members: usize) -> bool {
        self.base > SimTime::ZERO
            && (self.level > 0
                || now.saturating_sub(self.last_traffic) >= self.rotation(members, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> SimTime = SimTime::from_millis;

    #[test]
    fn silence_doubles_the_hold_up_to_the_cap_and_traffic_resets_it() {
        let mut idle = IdleBackoff::new(MS(1));
        assert_eq!(idle.idle_visit(), MS(1), "joining counts as traffic");
        let holds: Vec<_> = (0..8).map(|_| idle.idle_visit().as_micros() / 1000).collect();
        assert_eq!(holds, [2, 4, 8, 16, 32, 64, 64, 64]);
        idle.traffic(MS(500));
        assert_eq!(idle.hold(), MS(1));
        assert_eq!(idle.idle_visit(), MS(1), "traffic since the previous visit");
        assert_eq!(idle.idle_visit(), MS(2));
    }

    #[test]
    fn a_ring_sleeps_once_backed_off_or_silent_for_a_base_rotation() {
        let mut idle = IdleBackoff::new(MS(1));
        idle.traffic(MS(100));
        assert!(!idle.may_sleep(MS(100), 8));
        assert!(!idle.may_sleep(MS(107), 8));
        assert!(idle.may_sleep(MS(108), 8), "eight base holds of silence");
        idle.traffic(MS(108));
        idle.idle_visit();
        assert!(!idle.may_sleep(MS(109), 8));
        idle.idle_visit();
        assert!(idle.may_sleep(MS(109), 8), "backed off itself");
    }

    #[test]
    fn a_zero_base_circulates_continuously_and_never_sleeps() {
        let mut idle = IdleBackoff::new(SimTime::ZERO);
        for _ in 0..10 {
            assert_eq!(idle.idle_visit(), SimTime::ZERO);
        }
        assert!(!idle.may_sleep(SimTime::from_secs(100), 8));
    }

    #[test]
    fn the_cap_keeps_a_sleeping_rotation_under_the_limit() {
        for (base_ms, members, top_ms) in [(1, 8, 64), (2, 8, 128), (10, 8, 160), (400, 8, 400)] {
            let mut idle = IdleBackoff::new(MS(base_ms));
            idle.cap_rotation(members, MS(2500));
            let top = (0..10).map(|_| idle.idle_visit()).max().unwrap();
            assert_eq!(top, MS(top_ms), "base {base_ms} ms");
        }
    }
}
