//! End-to-end flight-recorder check: a sweep job that panics mid-run must
//! leave a black-box dump of the last trace events on disk, and the sweep
//! failure must point at it.
//!
//! This lives in its own integration-test binary because it configures the
//! recorder through process-global environment variables; sharing a
//! process with other tests would race their reads.

use tva_experiments::sweep::run_all_checked;
use tva_experiments::{Attack, ScenarioConfig, Scheme};
use tva_sim::SimTime;

#[test]
fn panicking_sweep_job_dumps_its_flight_recorder() {
    let dir = std::env::temp_dir().join(format!("tva_obs_flight_{}", std::process::id()));
    std::env::set_var("TVA_OBS", "1");
    std::env::set_var("TVA_RESULTS_DIR", &dir);

    // file_size = 0 trips the sender's "nothing to send" assertion after
    // the engine has started (packets have already flowed), so the ring
    // holds history when the panic unwinds through the sweep harness.
    let poison = ScenarioConfig {
        scheme: Scheme::Tva,
        attack: Attack::None,
        n_users: 2,
        transfers_per_user: 2,
        file_size: 0,
        duration: SimTime::from_secs(30),
        ..ScenarioConfig::default()
    };
    let failures = run_all_checked(vec![poison]).expect_err("poisoned job must fail");
    assert_eq!(failures.len(), 1);

    let dump = failures[0]
        .flight_dump
        .as_ref()
        .expect("flight recorder dump path attached to the failure");
    assert!(dump.starts_with(dir.join("obs")), "dump lands in <results>/obs: {}", dump.display());
    let text = std::fs::read_to_string(dump).expect("dump file exists");
    let doc = serde_json::from_str(&text).expect("dump is valid JSON");
    let serde_json::Value::Object(root) = doc else { panic!("dump is an object") };
    assert_eq!(
        root.get("reason"),
        Some(&serde_json::Value::String("panic in sweep job".into()))
    );
    let Some(serde_json::Value::Array(events)) = root.get("events") else {
        panic!("dump has an events array");
    };
    for ev in events {
        let serde_json::Value::Object(e) = ev else { panic!("event is an object") };
        assert!(e.get("t").is_some() && e.get("kind").is_some() && e.get("line").is_some());
    }
    assert!(
        failures[0].to_string().contains("flight recorder"),
        "failure display names the dump: {}",
        failures[0]
    );

    std::fs::remove_dir_all(&dir).ok();
}
