//! A misused `mhfl-server` / `mhfl-worker` stops with a usage error (exit
//! code 2) before binding or connecting anything, instead of silently
//! running with a default in place of the mistyped flag.

use std::process::Command;

#[test]
fn net_binaries_refuse_misuse_with_code_2() {
    let server = env!("CARGO_BIN_EXE_mhfl-server");
    let worker = env!("CARGO_BIN_EXE_mhfl-worker");
    // An empty endpoint keeps every case from binding or connecting, so a
    // binary that ignored the misuse would fail on the endpoint instead.
    let cases: [(&str, &[&str]); 7] = [
        (server, &["--listen", "tcp:", "--wokers", "4"]),
        (server, &["--listen", "tcp:", "--sed", "7"]),
        (server, &["--workers", "two"]),
        (worker, &["--connect", "tcp:", "--sed", "7"]),
        (worker, &["--connect", "tcp:", "--die-after", "soon"]),
        (worker, &["--connect"]),
        // The thread count is the server's flag; each dispatch carries it.
        (worker, &["--connect", "tcp:", "--parallelism", "threads:2"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran something");
    }
}
