//! Multi-threaded parameter sweeps: one simulation per (scheme, attacker
//! count) point, fanned out across CPU cores, results returned in input
//! order regardless of completion order.
//!
//! A panicking scenario must not take the sweep down with it: each job runs
//! under `catch_unwind`, the shared job-queue lock tolerates poisoning (a
//! worker dying while holding it would otherwise wedge every other worker),
//! and failures come back as values naming the exact configuration that
//! blew up instead of a hang or a bare `expect` abort.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;

use crate::scenario::{run, ScenarioConfig, ScenarioResult};

/// A sweep job that panicked, with enough context to reproduce it alone.
#[derive(Debug)]
pub struct SweepFailure {
    /// Position of the failing configuration in the input vector.
    pub index: usize,
    /// The configuration that panicked.
    pub config: ScenarioConfig,
    /// The panic payload, if it was a string.
    pub message: String,
    /// Where the worker's flight-recorder ring was dumped, when a recorder
    /// was active (`TVA_OBS` on): the last packet-level events before the
    /// panic, black-box style.
    pub flight_dump: Option<PathBuf>,
}

impl fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} ({} attack={:?} attackers={} users={} seed={}) panicked: {}",
            self.index,
            self.config.scheme.name(),
            self.config.attack,
            self.config.n_attackers,
            self.config.n_users,
            self.config.seed,
            self.message,
        )?;
        if let Some(p) = &self.flight_dump {
            write!(f, " [flight recorder: {}]", p.display())?;
        }
        Ok(())
    }
}

/// Dumps the worker thread's flight recorder after a panic, returning the
/// dump path if a recorder was active and the write succeeded.
fn dump_flight_on_panic(index: usize) -> Option<PathBuf> {
    let ocfg = tva_obs::ObsConfig::from_env();
    if !ocfg.enabled {
        return None;
    }
    std::fs::create_dir_all(&ocfg.dir).ok()?;
    let path = ocfg.dir.join(format!("flight_panic_job{index}.json"));
    match tva_obs::dump_thread_flight(&path, "panic in sweep job") {
        Ok(true) => Some(path),
        _ => None,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

enum Outcome {
    Done(Box<ScenarioResult>),
    Panicked(String, Option<PathBuf>),
}

/// Runs every configuration in parallel, preserving order. Configurations
/// that panic are collected into `Err` (sorted by input position) rather
/// than aborting the process; the survivors' results are discarded in that
/// case, since a partial sweep is not a figure.
pub fn run_all_checked(
    configs: Vec<ScenarioConfig>,
) -> Result<Vec<(ScenarioConfig, ScenarioResult)>, Vec<SweepFailure>> {
    let workers = thread::available_parallelism().map_or(4, |n| n.get());
    let total = configs.len();
    let (job_tx, job_rx) = mpsc::channel::<(usize, ScenarioConfig)>();
    let job_rx = std::sync::Arc::new(std::sync::Mutex::new(job_rx));
    let (res_tx, res_rx) = mpsc::channel::<(usize, ScenarioConfig, Outcome)>();

    for (i, cfg) in configs.into_iter().enumerate() {
        job_tx.send((i, cfg)).expect("queueing jobs");
    }
    drop(job_tx);

    thread::scope(|scope| {
        for _ in 0..workers.min(total.max(1)) {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            scope.spawn(move || loop {
                let job = {
                    // Tolerate poisoning: recv() can't leave the receiver
                    // in a broken state, and refusing the lock would hang
                    // the whole sweep after one panic elsewhere.
                    let rx = match job_rx.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    rx.recv()
                };
                let Ok((i, cfg)) = job else { break };
                let outcome = match catch_unwind(AssertUnwindSafe(|| run(&cfg))) {
                    Ok(result) => Outcome::Done(Box::new(result)),
                    Err(payload) => {
                        Outcome::Panicked(panic_message(payload), dump_flight_on_panic(i))
                    }
                };
                if res_tx.send((i, cfg, outcome)).is_err() {
                    break;
                }
            });
        }
        drop(res_tx);
        let mut slots: Vec<Option<(ScenarioConfig, ScenarioResult)>> =
            (0..total).map(|_| None).collect();
        let mut failures = Vec::new();
        for (i, cfg, outcome) in res_rx {
            let done = slots.iter().filter(|s| s.is_some()).count() + failures.len() + 1;
            match outcome {
                Outcome::Done(result) => {
                    eprintln!(
                        "  [{}/{}] {} k={} fraction={:.3} time={:.2}s",
                        done,
                        total,
                        cfg.scheme.name(),
                        cfg.n_attackers,
                        result.summary.completion_fraction,
                        result.summary.avg_completion_secs,
                    );
                    slots[i] = Some((cfg, *result));
                }
                Outcome::Panicked(message, flight_dump) => {
                    eprintln!(
                        "  [{}/{}] {} k={} PANICKED: {}",
                        done,
                        total,
                        cfg.scheme.name(),
                        cfg.n_attackers,
                        message,
                    );
                    failures.push(SweepFailure { index: i, config: cfg, message, flight_dump });
                }
            }
        }
        if failures.is_empty() {
            Ok(slots.into_iter().map(|s| s.expect("all jobs completed")).collect())
        } else {
            failures.sort_by_key(|f| f.index);
            Err(failures)
        }
    })
}

/// Runs every configuration, in parallel, preserving order; panics with a
/// report naming each failing configuration if any job blew up.
pub fn run_all(configs: Vec<ScenarioConfig>) -> Vec<(ScenarioConfig, ScenarioResult)> {
    match run_all_checked(configs) {
        Ok(results) => results,
        Err(failures) => {
            let report: Vec<String> = failures.iter().map(|f| f.to_string()).collect();
            panic!("{} sweep job(s) failed:\n  {}", report.len(), report.join("\n  "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Attack, Scheme};
    use tva_sim::SimTime;

    fn mk(scheme: Scheme) -> ScenarioConfig {
        ScenarioConfig {
            scheme,
            attack: Attack::None,
            n_users: 2,
            transfers_per_user: 2,
            duration: SimTime::from_secs(30),
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn sweep_preserves_order_and_runs() {
        let results = run_all(vec![mk(Scheme::Internet), mk(Scheme::Tva)]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0.scheme, Scheme::Internet);
        assert_eq!(results[1].0.scheme, Scheme::Tva);
        for (cfg, r) in &results {
            assert!(
                r.summary.completion_fraction > 0.99,
                "{} clean network should complete, got {}",
                cfg.scheme.name(),
                r.summary.completion_fraction
            );
        }
    }

    #[test]
    fn panicking_job_is_reported_not_hung() {
        // file_size = 0 trips the sender's "nothing to send" assertion
        // inside the scenario, on a worker thread. The sweep must survive,
        // finish the healthy jobs' bookkeeping, and name the culprit.
        let poison = ScenarioConfig { file_size: 0, ..mk(Scheme::Tva) };
        let configs = vec![mk(Scheme::Internet), poison, mk(Scheme::Tva)];
        let failures = run_all_checked(configs).expect_err("the bad job must surface");
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 1);
        assert_eq!(failures[0].config.file_size, 0);
        assert!(!failures[0].message.is_empty());
        let shown = failures[0].to_string();
        assert!(shown.contains("job 1"), "display names the job: {shown}");
    }

    #[test]
    fn run_all_panics_cleanly_on_failure() {
        let poison = ScenarioConfig { file_size: 0, ..mk(Scheme::Tva) };
        let err = catch_unwind(AssertUnwindSafe(|| run_all(vec![poison])))
            .expect_err("must propagate");
        let msg = panic_message(err);
        assert!(msg.contains("1 sweep job(s) failed"), "{msg}");
    }
}
