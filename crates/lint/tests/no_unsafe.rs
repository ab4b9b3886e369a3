//! Pins the workspace's `unsafe` budget to the committed allowlist:
//! the total number of `unsafe` tokens across every workspace and vendor
//! source must equal the number of allowlist entries. The only entries
//! are the three sites of the counting allocator in
//! `tests/hot_paths_alloc_free.rs`; library code stays unsafe-free.
//! Adding an unsafe block without an allowlist entry (plus its SAFETY
//! comment) breaks this test *and* the lint gate.

use std::path::PathBuf;

#[test]
fn unsafe_token_count_equals_allowlist_entries() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let cfg = kinet_lint::load_workspace_config(&root).expect("committed policy");
    let files = kinet_lint::workspace_files(&root).expect("workspace walk");
    let mut sites = Vec::new();
    for (rel, path) in &files {
        let src = std::fs::read_to_string(path).expect("readable source");
        for tok in kinet_lint::lexer::lex(&src) {
            if tok.is_ident("unsafe") {
                sites.push(format!("{rel}:{}", tok.line));
            }
        }
    }
    assert_eq!(
        sites.len(),
        cfg.unsafe_allow.len(),
        "unsafe tokens vs allowlist entries — sites: {sites:?}"
    );
    assert_eq!(
        cfg.unsafe_allow,
        vec!["tests/hot_paths_alloc_free.rs"; 3],
        "unsafe is budgeted only for the allocation test's counting allocator"
    );
}
