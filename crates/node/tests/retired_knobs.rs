//! A retired `TVA_*` knob is a usage error, not a silently ignored
//! setting: `tva-node serve` exits 2 before it binds a socket, naming the
//! variable.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The `TVA_*` variables the code no longer reads: each became a
/// constant, a path derived from the results directory, or a flag.
const RETIRED: [&str; 13] = [
    "TVA_OBS_PERFETTO",
    "TVA_OBS_DIR",
    "TVA_CHECK_DIR",
    "TVA_OBS_FLIGHT",
    "TVA_SWEEP_WORKERS",
    "TVA_ATTACK_TRIALS",
    "TVA_ATTACK_SEED",
    "TVA_ATTACK_HOSTS",
    "TVA_ATTACK_SECS",
    "TVA_NODE_BATCH",
    "TVA_NODE_LINK_BPS",
    "TVA_NODE_FLOWS",
    "TVA_NODE_STATS_ADDR",
];

#[test]
fn serve_rejects_each_retired_knob_by_name() {
    for name in RETIRED {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tva-node"))
            .args(["serve", "--bind", "127.0.0.1:0", "--peer", "127.0.0.1:9"])
            .env(name, "64")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tva-node");
        // A daemon that accepted the knob would serve forever: bound the wait.
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll tva-node") {
                break status;
            }
            if Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                panic!("tva-node serve kept running with {name} set");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let out = child.wait_with_output().expect("collect tva-node stderr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(name), "{name} not named: {stderr}");
    }
}
