//! `repro`'s argument check: anything that is not `all` or a known
//! artifact is refused before any run starts, `all` included.

use std::process::Command;

#[test]
fn unknown_argument_is_refused_even_beside_all() {
    for args in [
        &["--reference-engine", "all"][..],
        &["all", "fig9"],
        &["fig1", "bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown artifact"), "{args:?}: {stderr}");
    }
}
