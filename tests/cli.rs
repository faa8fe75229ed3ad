//! End-to-end tests of the `lusail-cli` binary: generate a federation to
//! disk, query it back, explain a plan, and exercise the error paths.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lusail-cli"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lusail-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_query_explain_roundtrip() {
    let dir = tempdir("roundtrip");
    let out = cli()
        .args([
            "generate",
            "--workload",
            "lubm",
            "--out",
            dir.to_str().unwrap(),
            "--size",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Generated files exist.
    assert!(dir.join("univ-0.nt").exists());
    assert!(dir.join("univ-1.nt").exists());
    assert!(dir.join("queries/Q3.rq").exists());

    // Query them back.
    let out = cli()
        .args([
            "query",
            "--endpoint",
            dir.join("univ-0.nt").to_str().unwrap(),
            "--endpoint",
            dir.join("univ-1.nt").to_str().unwrap(),
            "--query-file",
            dir.join("queries/Q3.rq").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rows in"), "no summary line:\n{stdout}");
    assert!(stdout.contains("remote requests"));

    // FedX returns the same row count.
    let out_fedx = cli()
        .args([
            "query",
            "--engine",
            "fedx",
            "--endpoint",
            dir.join("univ-0.nt").to_str().unwrap(),
            "--endpoint",
            dir.join("univ-1.nt").to_str().unwrap(),
            "--query-file",
            dir.join("queries/Q3.rq").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out_fedx.status.success());
    let rows = |s: &str| -> String {
        s.lines()
            .find(|l| l.contains("rows in"))
            .unwrap_or("")
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_string()
    };
    assert_eq!(
        rows(&stdout),
        rows(&String::from_utf8_lossy(&out_fedx.stdout)),
        "engines disagree via CLI"
    );

    // Explain prints a plan.
    let out = cli()
        .args([
            "explain",
            "--endpoint",
            dir.join("univ-0.nt").to_str().unwrap(),
            "--endpoint",
            dir.join("univ-1.nt").to_str().unwrap(),
            "--query-file",
            dir.join("queries/Q4.rq").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("global join variables"), "{stdout}");
    assert!(stdout.contains("subquery 1"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The offline statistics workflow end to end: `stats` writes one
/// `.stats` file per endpoint, `query --stats DIR` loads them back and
/// elides probes — same rows, strictly fewer remote requests than the
/// plain run — and `query --stats build` (in-process summaries) issues
/// exactly as many requests as the file-loaded run, pinning the text
/// round-trip as faithful.
#[test]
fn stats_build_and_load_elide_requests_without_changing_rows() {
    let dir = tempdir("stats");
    let out = cli()
        .args([
            "generate",
            "--workload",
            "lubm",
            "--out",
            dir.to_str().unwrap(),
            "--size",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args([
            "stats",
            "--endpoint",
            dir.join("univ-0.nt").to_str().unwrap(),
            "--endpoint",
            dir.join("univ-1.nt").to_str().unwrap(),
            "--out",
            dir.join("stats").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("stats/univ-0.stats").exists());
    assert!(dir.join("stats/univ-1.stats").exists());

    let run = |stats_arg: Option<&str>| -> String {
        let mut args = vec![
            "query".to_string(),
            "--endpoint".into(),
            dir.join("univ-0.nt").to_str().unwrap().into(),
            "--endpoint".into(),
            dir.join("univ-1.nt").to_str().unwrap().into(),
            "--query-file".into(),
            dir.join("queries/Q1.rq").to_str().unwrap().into(),
        ];
        if let Some(s) = stats_arg {
            args.push("--stats".into());
            args.push(s.into());
        }
        let out = cli().args(&args).output().expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // (rows, remote requests, store rows scanned) of the summary line.
    let summary = |s: &str| -> [u64; 3] {
        let line = s.lines().find(|l| l.contains("rows in")).expect("summary");
        let words: Vec<&str> = line.split_whitespace().collect();
        let before = |word: &str| -> u64 {
            let at = words.iter().position(|w| *w == word).expect(word) - 1;
            words[at].parse().expect(word)
        };
        [
            words[0].parse().expect("row count"),
            before("remote"),
            before("store"),
        ]
    };

    let wire = run(None);
    let loaded = run(Some(dir.join("stats").to_str().unwrap()));
    let built = run(Some("build"));
    let [wire_rows, wire_reqs, wire_scanned] = summary(&wire);
    let [loaded_rows, loaded_reqs, loaded_scanned] = summary(&loaded);
    assert_eq!(wire_rows, loaded_rows, "statistics changed the row count");
    // A conclusive answer takes a probe out of its endpoint's coalesced
    // request — the request goes only when all of them do — and spares
    // the endpoint the rows the probe would have scanned.
    assert!(
        loaded_reqs <= wire_reqs && loaded_scanned < wire_scanned,
        "statistics elided nothing: {loaded_reqs} vs {wire_reqs} requests, \
         {loaded_scanned} vs {wire_scanned} store rows scanned"
    );
    assert_eq!(
        summary(&loaded),
        summary(&built),
        "file-loaded statistics diverge from in-process summaries"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `.stats` file written before its endpoint file grew would answer the
/// new predicate with a conclusive 0 and drop its rows without a warning,
/// so `--stats DIR` refuses a file whose triple total is not the
/// endpoint's, naming the file and both counts.
#[test]
fn stale_stats_file_is_refused() {
    let dir = tempdir("stale-stats");
    let (a, b) = (dir.join("a.nt"), dir.join("b.nt"));
    std::fs::write(&a, "<http://a/s1> <http://x/p> <http://a/o1> .\n").unwrap();
    std::fs::write(&b, "<http://b/s1> <http://x/p> <http://b/o1> .\n").unwrap();
    let stats_dir = dir.join("stats");
    let out = cli()
        .args(["stats", "--endpoint", a.to_str().unwrap()])
        .args(["--endpoint", b.to_str().unwrap()])
        .args(["--out", stats_dir.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let mut grown = std::fs::read_to_string(&a).unwrap();
    grown.push_str("<http://a/s1> <http://x/q> <http://a/new> .\n");
    std::fs::write(&a, grown).unwrap();

    let query = |stats: Option<&str>| {
        let mut cmd = cli();
        cmd.args(["query", "--endpoint", a.to_str().unwrap()])
            .args(["--endpoint", b.to_str().unwrap()])
            .args(["--query", "SELECT ?s ?o WHERE { ?s <http://x/q> ?o }"]);
        if let Some(s) = stats {
            cmd.args(["--stats", s]);
        }
        cmd.output().expect("spawn")
    };
    let wire = query(None);
    assert!(wire.status.success());
    assert!(String::from_utf8_lossy(&wire.stdout).contains("\n1 rows in "));

    let stale = query(Some(stats_dir.to_str().unwrap()));
    assert!(!stale.status.success(), "a stale .stats file was attached");
    let stderr = String::from_utf8_lossy(&stale.stderr);
    assert!(
        stderr.contains("a.stats")
            && stderr.contains("describes 1 triples")
            && stderr.contains("holds 2"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn demo_prints_the_interlink_row() {
    let out = cli().arg("demo").output().expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MIT"), "{stdout}");
    assert!(stdout.contains("GJVs [\"U\"]"), "{stdout}");
}

#[test]
fn error_paths_exit_nonzero_with_messages() {
    // No subcommand.
    let out = cli().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Unknown engine.
    let dir = tempdir("errors");
    std::fs::write(
        dir.join("a.nt"),
        "<http://x/s> <http://x/p> <http://x/o> .\n",
    )
    .unwrap();
    let out = cli()
        .args([
            "query",
            "--endpoint",
            dir.join("a.nt").to_str().unwrap(),
            "--query",
            "SELECT * WHERE { ?s ?p ?o }",
            "--engine",
            "nope",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown engine"));

    // Malformed SPARQL.
    let out = cli()
        .args([
            "query",
            "--endpoint",
            dir.join("a.nt").to_str().unwrap(),
            "--query",
            "SELECT WHERE {",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));

    // Corrupt endpoint file.
    std::fs::write(dir.join("bad.nt"), "not ntriples\n").unwrap();
    let out = cli()
        .args([
            "query",
            "--endpoint",
            dir.join("bad.nt").to_str().unwrap(),
            "--query",
            "SELECT * WHERE { ?s ?p ?o }",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("N-Triples parse error"));

    // A zero worker budget is refused, not clamped to one.
    let out = cli()
        .args([
            "query",
            "--endpoint",
            dir.join("a.nt").to_str().unwrap(),
            "--query",
            "SELECT * WHERE { ?s ?p ?o }",
            "--threads",
            "0",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad --threads (want a positive integer)")
    );

    // A port outside u16 is refused, not truncated into another port, and
    // so is a zero limit that would shed, time out or clamp every query.
    // A server that accepted one would serve forever, so the children are
    // spawned at once, polled together and killed rather than waited on.
    let refused = [
        ("--port", "70000"),
        ("--max-in-flight", "0"),
        ("--tenant-quota", "0"),
        ("--deadline-ms", "0"),
        ("--threads", "0"),
    ];
    let mut children: Vec<_> = refused
        .iter()
        .map(|&(flag, value)| {
            let mut cmd = cli();
            cmd.args(["serve", "--endpoint", dir.join("a.nt").to_str().unwrap()]);
            if flag != "--port" {
                cmd.args(["--port", "0"]);
            }
            cmd.args([flag, value])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn")
        })
        .collect();
    let mut statuses = vec![None; children.len()];
    let started = std::time::Instant::now();
    while statuses.iter().any(Option::is_none)
        && started.elapsed() < std::time::Duration::from_secs(10)
    {
        for (child, status) in children.iter_mut().zip(&mut statuses) {
            if status.is_none() {
                *status = child.try_wait().expect("poll");
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    for (child, status) in children.iter_mut().zip(&statuses) {
        if status.is_none() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    for ((child, status), (flag, value)) in children.iter_mut().zip(statuses).zip(refused) {
        let status = status
            .unwrap_or_else(|| panic!("serve {flag} {value} kept running instead of failing"));
        assert!(!status.success(), "serve {flag} {value}");
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        let message = match value {
            "0" => format!("bad {flag} (want a positive integer)"),
            _ => format!("bad {flag}"),
        };
        assert!(stderr.contains(&message), "serve {flag} {value}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replica_and_kill_flags_fail_over_and_name_unknown_endpoints() {
    let dir = tempdir("replica");
    let out = cli()
        .args([
            "generate",
            "--workload",
            "lubm",
            "--out",
            dir.to_str().unwrap(),
            "--size",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::copy(dir.join("univ-0.nt"), dir.join("univ-0-replica.nt")).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let query = |extra: &[String]| {
        let mut cmd = cli();
        cmd.args(["query", "--endpoint", &path("univ-0.nt")])
            .args(["--endpoint", &path("univ-1.nt")])
            .args(["--query-file", &path("queries/Q2.rq")])
            .args(extra);
        cmd.output().expect("spawn")
    };

    // The primary dies after two requests; its replica absorbs the rest.
    let out = query(&[
        "--replica".into(),
        format!("univ-0={}", path("univ-0-replica.nt")),
        "--kill".into(),
        "univ-0:2".into(),
        "--explain-analyze".into(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("killing endpoint univ-0\n"), "{stdout}");
    assert!(stdout.contains("complete: true"), "{stdout}");
    assert!(
        stdout.contains("\n  failover: endpoint 0 -> 2 on "),
        "{stdout}"
    );

    // A replica of, or a kill for, an endpoint nobody loaded is refused.
    for (extra, message) in [
        (
            vec![
                "--replica".into(),
                format!("nope={}", path("univ-0-replica.nt")),
            ],
            "no endpoint named \"nope\"",
        ),
        (
            vec!["--kill".into(), "nope".into()],
            "no endpoint with that name",
        ),
    ] {
        let out = query(&extra);
        assert!(!out.status.success(), "{extra:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{extra:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
