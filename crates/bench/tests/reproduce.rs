//! The `reproduce` command line: experiments that share one process print what they print
//! alone, and bad invocations exit 2 naming the problem.

use std::process::{Command, Output};

/// Runs `reproduce` with `args`, with no `NC_*` variable inherited except `extra_env`.
fn reproduce(args: &[&str], extra_env: &[(&str, &str)]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("NC_") {
            command.env_remove(name);
        }
    }
    command.args(args).envs(extra_env.iter().copied());
    command.output().expect("reproduce runs")
}

/// The section of `stdout` that starts with the header line `=== {title}` and runs to the
/// next experiment's header (or the end).
fn section(stdout: &[u8], title: &str) -> String {
    let stdout = String::from_utf8_lossy(stdout);
    let start = stdout
        .find(&format!("=== {title}"))
        .unwrap_or_else(|| panic!("no {title:?} section in:\n{stdout}"));
    let rest = &stdout[start..];
    let end = rest[1..].find("\n=== ").map_or(rest.len(), |i| i + 2);
    rest[..end].to_string()
}

#[test]
fn an_experiment_prints_the_same_after_another_in_one_process() {
    let alone = reproduce(&["--smoke", "table2"], &[]);
    let after = reproduce(&["--smoke", "table5", "table2"], &[]);
    assert!(alone.status.success() && after.status.success());
    let table2 = section(&alone.stdout, "Table 2");
    assert!(table2.contains("NeuroCard") && table2.contains("Paper (real IMDB)"));
    assert_eq!(section(&after.stdout, "Table 2"), table2);
    assert!(section(&after.stdout, "Table 5").contains("(E) uniform join samples"));
}

#[test]
fn an_unknown_experiment_exits_2_naming_it() {
    let out = reproduce(&["--smoke", "table2", "table9"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("table9") && stderr.contains("figure7d"),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing runs before the arguments are checked"
    );
}

#[test]
fn saving_an_artifact_needs_exactly_one_experiment() {
    let path = std::env::temp_dir().join(format!("nc_reproduce_test_{}.ncar", std::process::id()));
    let path = path.to_string_lossy();
    for args in [&["--smoke", "table2", "table3"][..], &["--smoke"]] {
        let out = reproduce(args, &[("NC_SAVE_ARTIFACT", &path)]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("NC_SAVE_ARTIFACT"), "{stderr}");
        assert!(out.stdout.is_empty());
    }
    assert!(!std::path::Path::new(&*path).exists());
}
