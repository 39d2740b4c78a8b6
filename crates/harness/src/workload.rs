#[cfg(test)]
mod tests {
    //! Checks on the steady workload the harness experiments send: the
    //! paper's "subgroup of varying size is sending 50 messages per second
    //! per member", drawn from [`ps_workload::TrafficSpec`] with
    //! [`ps_workload::Profile::Steady`].

    use ps_bytes::Bytes;
    use ps_simnet::SimTime;
    use ps_trace::ProcessId;
    use ps_workload::TrafficSpec;

    /// `active` of ten members sending at `rate` from 100 ms to 10 s.
    fn spec(active: u16, rate: f64) -> TrafficSpec {
        TrafficSpec {
            group: 10,
            senders: active,
            rate,
            body_bytes: 1024,
            start: SimTime::from_millis(100),
            end: SimTime::from_secs(10),
            seed: 1,
            ..TrafficSpec::default()
        }
    }

    fn sends(spec: &TrafficSpec) -> Vec<(SimTime, ProcessId, Bytes)> {
        spec.generate().into_sends().collect()
    }

    #[test]
    fn periodic_rate_is_close() {
        let s = spec(4, 50.0);
        let sends = sends(&s);
        let expected = 4.0 * 50.0 * 9.9; // ~9.9 s of workload
        let got = sends.len() as f64;
        assert!((got - expected).abs() / expected < 0.05, "got {got}, expected ~{expected}");
    }

    #[test]
    fn senders_are_the_last_k_members() {
        let s = spec(3, 10.0);
        for (_, p, _) in sends(&s) {
            assert!((7..10).contains(&p.0));
        }
        assert_eq!(spec(10, 10.0).sender_set().len(), 10);
    }

    #[test]
    #[should_panic(expected = "more senders")]
    fn oversized_subgroup_rejected() {
        let _ = TrafficSpec { group: 3, senders: 4, ..TrafficSpec::default() }.sender_set();
    }

    #[test]
    fn output_is_sorted_and_deterministic() {
        let s = spec(5, 20.0);
        let a = sends(&s);
        let b = sends(&s);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn bodies_are_distinct_per_message() {
        let s = spec(2, 30.0);
        let sends = sends(&s);
        let mut bodies: Vec<&Bytes> = sends.iter().map(|(_, _, b)| b).collect();
        bodies.sort();
        let before = bodies.len();
        bodies.dedup();
        assert_eq!(bodies.len(), before, "workload bodies must not collide");
    }
}
