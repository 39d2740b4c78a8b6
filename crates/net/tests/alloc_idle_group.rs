//! A launched group's memory exists before its threads run: between
//! `UdpGroup::launch` returning and a `run_until` returning, node threads
//! that start, wait on their sockets and see nothing to do make no
//! allocator call — so what a run measures from launch on does not depend
//! on how soon the OS starts each thread.
//!
//! The counter is process-wide (the node threads are not the test's), so
//! this binary holds this one test.

use ps_net::{NetConfig, UdpGroup};
use ps_prof::alloc::{self, Counting};
use ps_simnet::SimTime;
use ps_stack::{Driver, GroupSpec, Stack};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn an_idle_launched_group_allocates_nothing() {
    let spec = GroupSpec::new(4).seed(5).stack_factory(|_, _, _| Stack::new(vec![]));
    let mut group = UdpGroup::launch(spec, NetConfig::default());
    let before = alloc::process_calls();
    group.run_until(SimTime::from_millis(50));
    let during = alloc::process_calls() - before;
    let report = group.shutdown();
    assert_eq!(during, 0, "allocator calls while four idle node threads started and waited");
    assert_eq!(report.delivered_per_process, vec![0; 4]);
    assert_eq!(report.malformed_per_process, vec![0; 4]);
}
