//! A misused bench binary stops with a usage error (exit code 2) before
//! running anything, instead of silently running something else.

use std::process::Command;

#[test]
fn misuse_exits_with_code_2_and_a_usage_line() {
    let reproduce = env!("CARGO_BIN_EXE_reproduce");
    let population_scale = env!("CARGO_BIN_EXE_population_scale");
    let cases: [(&str, &[&str]); 10] = [
        (reproduce, &["fig4", "--qiuck"]),
        (reproduce, &["fig10", "--quick"]),
        (reproduce, &["fig4", "--quick", "--paper"]),
        (reproduce, &["--all", "--quick", "--checkpoint-dir"]),
        (reproduce, &["--quick"]),
        (reproduce, &["--all", "fig4", "--quick"]),
        (reproduce, &["fig4", "--quick", "--checkpoint-every", "5"]),
        (
            reproduce,
            &[
                "fig4",
                "--quick",
                "--checkpoint-every",
                "0",
                "--checkpoint-dir",
                "d",
            ],
        ),
        (population_scale, &["--quick", "--rss-ceiling", "600"]),
        (population_scale, &["--quick", "--clients"]),
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
