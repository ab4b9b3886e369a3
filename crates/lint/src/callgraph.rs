//! A conservative, name-based workspace call graph.
//!
//! Nodes are the [`crate::symbols::FnItem`]s of every scanned file; edges
//! come from three call shapes found in a body's token stream:
//!
//! * **direct** — `helper(...)`: resolves to every *free* function with
//!   that bare name (a method can only be called bare through a `use`
//!   import, which this model does not track — such sites ledger);
//! * **qualified** — `Owner::helper(...)`: resolves to nodes whose
//!   `impl`/`trait` owner matches (`Self::` resolves against the caller's
//!   own impl block), falling back to free-function matching when no
//!   owner matches (the path segment may be a module, not a type);
//! * **method** — `x.helper(...)`: resolves to every *method* node with
//!   that name, whatever its owner — the receiver's type is unknown, so
//!   the graph over-approximates.
//!
//! Over-approximation is visible, never silent: every call site that
//! resolves to nothing lands in the unresolved-edge **ledger** (a
//! name → site-count map), method names that collide with ubiquitous
//! `std` methods ([`STD_SHADOWED`]) are deliberately routed to the ledger
//! instead of producing edges to every same-named workspace method,
//! qualified calls on `std` container/primitive types ([`STD_QUALIFIERS`])
//! ledger instead of falling back (an edge from every `Vec::new(...)` to
//! every workspace `fn new` would drown the graph in constructors), and
//! multi-candidate sites are counted in `ambiguous_call_sites`. The
//! ledger and counts fold into `callgraph.json` via [`CallGraphSummary`].
//!
//! Determinism: nodes are ordered by (file, line, name) over the sorted
//! file list, adjacency lists are sorted and deduped, and the build takes
//! no locks and spawns no threads — the same inputs produce the same
//! graph bytes for any file visit order or `KINET_THREADS` value (pinned
//! by proptests in `tests/callgraph_props.rs`).

use crate::lexer::{TokKind, Token};
use crate::reach::{scan_effects, EffectSite};
use crate::symbols::{is_expr_keyword, FnItem};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Method names shadowed by ubiquitous `std`/prelude methods: a `.name(`
/// site with one of these names is *recorded in the ledger* instead of
/// resolved, because edges to every same-named workspace method would be
/// noise, and edges to the real `std` implementation are outside the
/// graph by definition.
pub const STD_SHADOWED: [&str; 73] = [
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "chain",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "default",
    "display",
    "drain",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "map",
    "map_err",
    "max",
    "min",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "parse",
    "position",
    "push",
    "read",
    "remove",
    "rev",
    "skip",
    "sort",
    "split",
    "sum",
    "take",
    "trim",
    "values",
    "write",
    "zip",
];

/// Qualifiers that name `std` container/primitive types: a
/// `Qualifier::fn(...)` site whose qualifier is one of these (and whose
/// owner lookup found nothing — a vendored shim *may* implement the type)
/// goes straight to the ledger instead of falling back to bare-name
/// matching.
pub const STD_QUALIFIERS: [&str; 34] = [
    "Arc",
    "BTreeMap",
    "BTreeSet",
    "Box",
    "Cell",
    "Duration",
    "HashMap",
    "HashSet",
    "Instant",
    "Mutex",
    "OnceLock",
    "Option",
    "Ordering",
    "Path",
    "PathBuf",
    "Rc",
    "RefCell",
    "Result",
    "RwLock",
    "String",
    "SystemTime",
    "Vec",
    "VecDeque",
    "char",
    "f32",
    "f64",
    "i32",
    "i64",
    "str",
    "u16",
    "u32",
    "u64",
    "u8",
    "usize",
];

/// One call site extracted from a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call {
    /// Callee name as written.
    pub callee: String,
    /// Path qualifier immediately before `::callee`, if any.
    pub owner: Option<String>,
    /// `true` for `.callee(...)` method syntax.
    pub method: bool,
    /// 1-based line of the call site.
    pub line: usize,
}

/// Everything the interprocedural stage needs from one function body.
#[derive(Clone, Debug, Default)]
pub struct BodyScan {
    /// Call sites, in order of appearance.
    pub calls: Vec<Call>,
    /// Primitive effect sites (wall-clock, hash iteration, panics, …).
    pub effects: Vec<EffectSite>,
}

/// Extracts call sites and effect sites from one body's code tokens.
/// `hash_names` are the file's hash-container binding names (for the
/// hash-iteration effect).
pub fn scan_body(body: &[&Token], hash_names: &[String]) -> BodyScan {
    BodyScan {
        calls: scan_calls(body),
        effects: scan_effects(body, hash_names),
    }
}

fn scan_calls(body: &[&Token]) -> Vec<Call> {
    let mut out = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if t.kind != TokKind::Ident || is_expr_keyword(&t.text) {
            continue;
        }
        if !body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue; // macros (`name!`) and bare mentions are not calls
        }
        let prev = i.checked_sub(1).map(|p| body[p]);
        if prev.is_some_and(|p| p.is_punct('.')) {
            out.push(Call {
                callee: t.text.clone(),
                owner: None,
                method: true,
                line: t.line,
            });
            continue;
        }
        // `Owner :: callee (` — the two preceding puncts are `::`.
        let qualified = i >= 2 && body[i - 1].is_punct(':') && body[i - 2].is_punct(':');
        let owner = if qualified {
            i.checked_sub(3)
                .map(|p| body[p])
                .filter(|o| o.kind == TokKind::Ident)
                .map(|o| o.text.clone())
        } else {
            None
        };
        if qualified && owner.is_none() {
            // `<T as Trait>::f(...)` and friends: qualifier unknowable by
            // name — treat as a bare call so it still over-approximates.
        }
        out.push(Call {
            callee: t.text.clone(),
            owner,
            method: false,
            line: t.line,
        });
    }
    out
}

/// One graph node: a function plus everything scanned from its body.
#[derive(Clone, Debug)]
pub struct Node {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// The item (name, owner, line, body range).
    pub item: FnItem,
    /// `true` when the file is test-scoped (`tests/`, `benches/`,
    /// `examples/`, `src/bin/`): such nodes are never call candidates
    /// for non-test callers — library code cannot link against them.
    pub test_scope: bool,
    /// Effect sites found in the body.
    pub effects: Vec<EffectSite>,
    /// Raw call sites (kept for diagnostics; edges live in the graph).
    pub calls: Vec<Call>,
}

impl Node {
    /// `Owner::name` or bare `name` — used in chains and root specs.
    pub fn display(&self) -> String {
        self.item.qualified()
    }
}

/// `true` for paths whose items only exist under test/bench/bin targets.
pub fn test_scoped_path(rel: &str) -> bool {
    rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.contains("/src/bin/")
        || rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
}

/// The resolved workspace call graph.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Nodes ordered by (file, line, name) over the sorted file list.
    pub nodes: Vec<Node>,
    /// Sorted, deduped adjacency: `adj[i]` = indices `nodes[i]` may call.
    pub adj: Vec<Vec<usize>>,
    /// Unresolved-edge ledger: callee key → number of call sites that
    /// resolved to nothing. Method-syntax keys are prefixed with `.`;
    /// qualified keys keep their `Owner::` prefix.
    pub unresolved: BTreeMap<String, usize>,
    /// Call sites that resolved to more than one candidate.
    pub ambiguous_call_sites: usize,
}

impl CallGraph {
    /// Builds the graph from per-file node lists. `files` may arrive in
    /// any order — nodes are sorted before resolution, so the result is
    /// order-invariant.
    pub fn build(files: Vec<(String, Vec<Node>)>) -> CallGraph {
        let mut files = files;
        files.sort_by(|a, b| a.0.cmp(&b.0));
        let mut nodes: Vec<Node> = Vec::new();
        for (_, mut ns) in files {
            ns.sort_by(|a, b| {
                (a.item.line, a.item.name.as_str()).cmp(&(b.item.line, b.item.name.as_str()))
            });
            nodes.extend(ns);
        }
        // Name indexes. BTreeMaps keep candidate lists sorted by node id.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            by_name.entry(&n.item.name).or_default().push(id);
            if let Some(o) = &n.item.owner {
                by_owner.entry((o, &n.item.name)).or_default().push(id);
            }
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut unresolved: BTreeMap<String, usize> = BTreeMap::new();
        let mut ambiguous = 0usize;
        for (id, n) in nodes.iter().enumerate() {
            for call in &n.calls {
                let (candidates, key) = resolve(call, n, &nodes, &by_name, &by_owner);
                match candidates {
                    Some(c) if !c.is_empty() => {
                        if c.len() > 1 {
                            ambiguous += 1;
                        }
                        adj[id].extend(c);
                    }
                    _ => *unresolved.entry(key).or_insert(0) += 1,
                }
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        CallGraph {
            nodes,
            adj,
            unresolved,
            ambiguous_call_sites: ambiguous,
        }
    }

    /// Total resolved edge count.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Node ids whose qualified or bare name matches `spec`
    /// (`Owner::name` or `name`), excluding test-scoped nodes.
    pub fn resolve_root(&self, spec: &str) -> Vec<usize> {
        let (owner, name) = match spec.split_once("::") {
            Some((o, n)) => (Some(o), n),
            None => (None, spec),
        };
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.test_scope)
            .filter(|(_, n)| {
                n.item.name == name
                    && match owner {
                        Some(o) => n.item.owner.as_deref() == Some(o),
                        None => true,
                    }
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Breadth-first reachability from `roots`, returning each reached
    /// node's predecessor (`parent[i]`, usize::MAX for roots/unreached).
    /// Deterministic: roots are visited in the given order and adjacency
    /// is sorted.
    pub fn bfs(&self, roots: &[usize]) -> Vec<usize> {
        const UNSEEN: usize = usize::MAX;
        let mut parent = vec![UNSEEN; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        for &r in roots {
            parent[r] = UNSEEN;
        }
        parent
    }

    /// The `root → … → node` chain implied by a [`CallGraph::bfs`] parent
    /// table, rendered with qualified names.
    pub fn chain(&self, parent: &[usize], mut node: usize) -> String {
        let mut names = vec![self.nodes[node].display()];
        while parent[node] != usize::MAX {
            node = parent[node];
            names.push(self.nodes[node].display());
        }
        names.reverse();
        names.join(" → ")
    }
}

fn resolve(
    call: &Call,
    caller: &Node,
    nodes: &[Node],
    by_name: &BTreeMap<&str, Vec<usize>>,
    by_owner: &BTreeMap<(&str, &str), Vec<usize>>,
) -> (Option<Vec<usize>>, String) {
    let visible = |ids: &Vec<usize>| -> Vec<usize> {
        ids.iter()
            .copied()
            .filter(|&id| caller.test_scope || !nodes[id].test_scope)
            .collect()
    };
    if call.method {
        let key = format!(".{}", call.callee);
        if STD_SHADOWED.contains(&call.callee.as_str()) {
            return (None, key);
        }
        let cands = by_name
            .get(call.callee.as_str())
            .map(|ids| {
                visible(ids)
                    .into_iter()
                    .filter(|&id| nodes[id].item.owner.is_some())
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        return (Some(cands).filter(|c| !c.is_empty()), key);
    }
    // Bare and fallback resolution only considers free functions: a
    // method can only be called bare through a `use Type::method` import,
    // which this name model does not track.
    let free = |ids: &Vec<usize>| -> Vec<usize> {
        visible(ids)
            .into_iter()
            .filter(|&id| nodes[id].item.owner.is_none())
            .collect()
    };
    if let Some(owner) = &call.owner {
        // `Self::helper()` names the caller's own impl block.
        let owner = if owner == "Self" {
            caller.item.owner.as_deref().unwrap_or("Self")
        } else {
            owner.as_str()
        };
        let key = format!("{owner}::{}", call.callee);
        if let Some(ids) = by_owner.get(&(owner, call.callee.as_str())) {
            let cands = visible(ids);
            if !cands.is_empty() {
                return (Some(cands), key);
            }
        }
        if STD_QUALIFIERS.contains(&owner) || STD_SHADOWED.contains(&call.callee.as_str()) {
            return (None, key);
        }
        // The qualifier may be a module path segment, not a type: fall
        // back to free-function matching so the edge is not lost.
        let cands = by_name
            .get(call.callee.as_str())
            .map(&free)
            .unwrap_or_default();
        return (Some(cands).filter(|c| !c.is_empty()), key);
    }
    let key = call.callee.clone();
    let cands = by_name
        .get(call.callee.as_str())
        .map(&free)
        .unwrap_or_default();
    (Some(cands).filter(|c| !c.is_empty()), key)
}

/// One unresolved-ledger row for `callgraph.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Callee key (`.method`, `Owner::fn`, or bare `fn`).
    pub callee: String,
    /// Number of call sites that resolved to nothing.
    pub sites: usize,
}

/// Per-root reachability row for `callgraph.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RootReach {
    /// Which analysis owns the root (`taint` or `panic`).
    pub analysis: String,
    /// Root spec as written in policy (`FleetService::run`).
    pub root: String,
    /// Reachable-set size, root included. 0 = the spec matched nothing
    /// (which is itself a finding).
    pub reachable: usize,
}

/// The machine-readable graph summary CI uploads as `callgraph.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CallGraphSummary {
    /// Schema version for downstream diffing.
    pub schema_version: usize,
    /// `.rs` files whose items entered the graph.
    pub files: usize,
    /// Function nodes.
    pub nodes: usize,
    /// Resolved (deduped) edges.
    pub edges: usize,
    /// Call sites that resolved to more than one candidate.
    pub ambiguous_call_sites: usize,
    /// Total call sites in the unresolved ledger.
    pub unresolved_sites: usize,
    /// The full unresolved ledger, sorted by callee key.
    pub unresolved: Vec<LedgerEntry>,
    /// Per-root reachable-set sizes for every analysis root.
    pub roots: Vec<RootReach>,
}

impl CallGraphSummary {
    /// Assembles the summary from a built graph plus the per-root
    /// reachability rows computed by [`crate::reach`].
    pub fn new(files: usize, graph: &CallGraph, roots: Vec<RootReach>) -> Self {
        let unresolved: Vec<LedgerEntry> = graph
            .unresolved
            .iter()
            .map(|(callee, sites)| LedgerEntry {
                callee: callee.clone(),
                sites: *sites,
            })
            .collect();
        CallGraphSummary {
            schema_version: crate::report::SCHEMA_VERSION,
            files,
            nodes: graph.nodes.len(),
            edges: graph.edge_count(),
            ambiguous_call_sites: graph.ambiguous_call_sites,
            unresolved_sites: unresolved.iter().map(|e| e.sites).sum(),
            unresolved,
            roots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::symbols::parse_items;

    fn file_nodes(rel: &str, src: &str) -> (String, Vec<Node>) {
        let toks = lex(src);
        let code: Vec<&Token> = toks.iter().filter(|t| t.is_code()).collect();
        let names = crate::rules::hash_bindings(&code);
        let nodes = parse_items(&code)
            .into_iter()
            .map(|item| {
                let scan = item
                    .body
                    .map(|(s, e)| scan_body(&code[s..e], &names))
                    .unwrap_or_default();
                Node {
                    file: rel.to_string(),
                    item,
                    test_scope: test_scoped_path(rel),
                    effects: scan.effects,
                    calls: scan.calls,
                }
            })
            .collect();
        (rel.to_string(), nodes)
    }

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(files.iter().map(|(r, s)| file_nodes(r, s)).collect())
    }

    fn ids(g: &CallGraph, name: &str) -> Vec<usize> {
        g.resolve_root(name)
    }

    #[test]
    fn direct_qualified_and_method_calls_resolve() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn top() { helper(); Store::read_all(); self.score(); }\n\
             fn helper() {}\n\
             impl Store { fn read_all() {} }\n\
             impl Model { fn score(&self) {} }\n",
        )]);
        let top = ids(&g, "top")[0];
        let callees: Vec<String> = g.adj[top].iter().map(|&i| g.nodes[i].display()).collect();
        assert_eq!(callees, ["helper", "Store::read_all", "Model::score"]);
    }

    #[test]
    fn std_shadowed_methods_land_in_the_ledger_not_the_graph() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn top(v: &[u8]) { v.iter(); v.len(); self.custom_step(); }\n\
             impl Engine { fn iter(&self) {} fn custom_step(&self) {} }\n",
        )]);
        let top = ids(&g, "top")[0];
        let callees: Vec<String> = g.adj[top].iter().map(|&i| g.nodes[i].display()).collect();
        assert_eq!(callees, ["Engine::custom_step"], "iter/len shadowed");
        assert_eq!(g.unresolved.get(".iter"), Some(&1));
        assert_eq!(g.unresolved.get(".len"), Some(&1));
    }

    #[test]
    fn test_scoped_candidates_are_invisible_to_library_callers() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn top() { run_case(); }\n"),
            ("crates/a/tests/t.rs", "fn run_case() { top(); }\n"),
        ]);
        let top = ids(&g, "top")[0];
        assert!(g.adj[top].is_empty(), "src cannot call into tests");
        assert_eq!(g.unresolved.get("run_case"), Some(&1));
        // The test caller sees the library fn fine.
        let tc = g
            .nodes
            .iter()
            .position(|n| n.item.name == "run_case")
            .unwrap();
        assert_eq!(g.adj[tc], [top]);
    }

    #[test]
    fn self_calls_resolve_in_the_impl_and_std_qualifiers_ledger() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "impl Engine { fn step(&self) { Self::helper_fx(); let v = Vec::new(); drop(v); } \
             fn helper_fx() {} }\n\
             fn new() {}\n",
        )]);
        let step = ids(&g, "Engine::step")[0];
        let callees: Vec<String> = g.adj[step].iter().map(|&i| g.nodes[i].display()).collect();
        assert_eq!(callees, ["Engine::helper_fx"], "no edge to the free `new`");
        assert_eq!(g.unresolved.get("Vec::new"), Some(&1));
        assert_eq!(g.unresolved.get("drop"), Some(&1));
    }

    #[test]
    fn bare_calls_never_resolve_to_methods() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn top() { refresh_fx(); }\n\
             impl Cache { fn refresh_fx(&self) {} }\n",
        )]);
        let top = ids(&g, "top")[0];
        assert!(g.adj[top].is_empty());
        assert_eq!(g.unresolved.get("refresh_fx"), Some(&1));
    }

    #[test]
    fn build_is_file_order_invariant() {
        let files = [
            ("crates/a/src/lib.rs", "fn a() { b(); }\n"),
            ("crates/b/src/lib.rs", "fn b() { a(); }\n"),
        ];
        let fwd = graph(&files);
        let rev = CallGraph::build(vec![
            file_nodes(files[1].0, files[1].1),
            file_nodes(files[0].0, files[0].1),
        ]);
        let names = |g: &CallGraph| -> Vec<String> { g.nodes.iter().map(Node::display).collect() };
        assert_eq!(names(&fwd), names(&rev));
        assert_eq!(fwd.adj, rev.adj);
    }

    #[test]
    fn bfs_chains_render_shortest_paths() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )]);
        let (a, c) = (ids(&g, "a")[0], ids(&g, "c")[0]);
        let parent = g.bfs(&[a]);
        assert_eq!(g.chain(&parent, c), "a → b → c");
    }
}
