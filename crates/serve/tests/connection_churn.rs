//! Connection churn must leak neither fds nor threads.
//!
//! The only test in this binary on purpose: it compares the **process-wide**
//! `/proc/self/status` thread count, so any sibling test spawning a reactor in the same
//! process would move the number under it.

use std::sync::Arc;
use std::time::Duration;

use nc_schema::Query;
use nc_serve::{ModelRegistry, ModelSelector, ServeClient, ServingEstimator, TcpServer};
use neurocard::infer::SamplerScratch;
use neurocard::EstimateError;

struct Fixed(f64);
impl ServingEstimator for Fixed {
    fn default_samples(&self) -> usize {
        1
    }
    fn serve(
        &self,
        _query: &Query,
        _samples: usize,
        _scratch: &mut SamplerScratch,
    ) -> Result<f64, EstimateError> {
        Ok(self.0)
    }
}

/// How many OS threads this process currently has (Linux: /proc).
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn connection_churn_leaks_neither_fds_nor_threads() {
    let registry = Arc::new(ModelRegistry::new());
    registry.register(1, "m", Arc::new(Fixed(1.0))).unwrap();
    let server = TcpServer::bind(registry, "127.0.0.1:0").unwrap();
    let baseline_threads = thread_count();
    // A burst of short-lived clients: each connects, queries, disconnects.  The
    // old front-end spawned (and could accumulate) one thread per connection;
    // the reactor's thread count must not move at all.
    for _ in 0..32 {
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        client
            .estimate(&ModelSelector::latest(1, "m"), &Query::join(&["t"]))
            .unwrap();
    }
    assert_eq!(thread_count(), baseline_threads);
    // Each close removes its bookkeeping — the server must not accumulate one
    // leaked fd per past connection.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.live_connections() > 0 && std::time::Instant::now() < deadline {
        #[expect(
            clippy::disallowed_methods,
            reason = "a test polls the server's counters"
        )]
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.live_connections(), 0);
    assert_eq!(server.served(), 32);
    assert_eq!(server.stats().accepted, 32);
    server.shutdown();
}
