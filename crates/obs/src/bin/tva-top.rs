//! `tva-top`: a terminal dashboard over a running `tva-node serve`
//! daemon's stats socket.
//!
//! Usage: `tva-top [--addr HOST:PORT] [--interval-ms N] [--once] [--raw]`
//!
//! Each tick sends one datagram to the stats address and renders the
//! NDJSON snapshot that comes back: live pps (from snapshot diffs),
//! drops, queue depth, latency percentiles, the top-offender source
//! prefixes from the sampled flow records, and a short pps history
//! chart. `--once` prints a single frame and exits (no screen clearing)
//! — the form the CI smoke snapshot-tests. `--raw` (implies `--once`)
//! prints the validated snapshot line verbatim instead of rendering,
//! which is how shell scripts capture snapshots for `obscheck` without
//! needing a UDP client of their own. Exits non-zero if the daemon does
//! not answer or the snapshot fails schema validation.

use std::net::UdpSocket;
use std::process::ExitCode;
use std::time::Duration;

use serde_json::Value;
use tva_obs::{ascii_chart, top, Series};

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn poll(sock: &UdpSocket, buf: &mut [u8]) -> Result<Value, String> {
    sock.send(b"?").map_err(|e| format!("send failed: {e}"))?;
    let n = sock.recv(buf).map_err(|e| format!("no snapshot from daemon: {e}"))?;
    let text = std::str::from_utf8(&buf[..n]).map_err(|e| format!("non-UTF8 reply: {e}"))?;
    serde_json::from_str(text.trim()).map_err(|e| format!("unparseable snapshot: {e}"))
}

fn num_at(doc: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = doc;
    for key in path {
        let Value::Object(m) = cur else { return None };
        cur = m.get(key)?;
    }
    match cur {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = arg_value(&args, "--addr").unwrap_or("127.0.0.1:47100");
    let raw = args.iter().any(|a| a == "--raw");
    let once = raw || args.iter().any(|a| a == "--once");
    let interval =
        Duration::from_millis(arg_value(&args, "--interval-ms").and_then(|v| v.parse().ok()).unwrap_or(1000));

    let sock = match UdpSocket::bind("127.0.0.1:0").and_then(|s| {
        s.connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(2)))?;
        Ok(s)
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tva-top: cannot reach {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut buf = vec![0u8; 1 << 20];
    let mut prev: Option<Value> = None;
    let mut history = Series { label: "forwarded pps".into(), points: Vec::new() };
    let mut t = 0.0f64;

    loop {
        let curr = match poll(&sock, &mut buf) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("tva-top: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Track forwarded-pps history for the chart.
        if let (Some(p), Some(tx0), Some(tx1), Some(n0), Some(n1)) = (
            prev.as_ref(),
            prev.as_ref().and_then(|p| num_at(p, &["metrics", "counters", "node.tx_frames"])),
            num_at(&curr, &["metrics", "counters", "node.tx_frames"]),
            prev.as_ref().and_then(|p| num_at(p, &["now_ns"])),
            num_at(&curr, &["now_ns"]),
        ) {
            let _ = p;
            let dt = (n1 - n0) / 1e9;
            if dt > 0.0 {
                t += dt;
                history.points.push((t, (tx1 - tx0) / dt));
            }
        }
        if raw {
            // Validate, then emit the snapshot as one machine-readable line
            // (re-serialized, so the output is canonical regardless of how
            // the daemon formatted it).
            if let Err(e) = tva_obs::snapshot::validate(&curr) {
                eprintln!("tva-top: bad snapshot: {e}");
                return ExitCode::FAILURE;
            }
            match serde_json::to_string(&curr) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("tva-top: cannot serialize snapshot: {e}");
                    return ExitCode::FAILURE;
                }
            }
            return ExitCode::SUCCESS;
        }
        let chart = if history.points.is_empty() {
            String::new()
        } else {
            ascii_chart("pps history (x: seconds)", std::slice::from_ref(&history), 60, 6)
        };
        match top::render(prev.as_ref(), &curr, Some(&chart)) {
            Ok(frame) => {
                if !once {
                    // Clear and home, keeping the frame flicker-free.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{frame}");
            }
            Err(e) => {
                eprintln!("tva-top: bad snapshot: {e}");
                return ExitCode::FAILURE;
            }
        }
        if once {
            return ExitCode::SUCCESS;
        }
        prev = Some(curr);
        std::thread::sleep(interval);
    }
}
