//! Structural rules XT08–XT10: cross-function analyses over the item
//! trees of [`crate::syntax`] and the call graph of [`crate::callgraph`].
//!
//! * **XT08 — schedule-dependent randomness.** A raw RNG draw inside a
//!   closure passed to the parallel seam is only deterministic when it
//!   consumes a pre-forked child RNG bound *by* the closure (a parameter
//!   or a local). Draws on captured state depend on worker interleaving.
//! * **XT09 — budget dominance.** Every call-graph path from a public
//!   sanitize/release entry point to a noise sampler in `crates/dp` must
//!   pass a `spend_*` accountant call first; violations carry the
//!   offending call chain.
//! * **XT10 — hermeticity.** `std::env::var`/`var_os` outside the
//!   designated choke points (`vendor/rayon`'s `STPT_THREADS` resolution,
//!   and the bench harness entry `ExperimentEnv::from_env`, which parses
//!   the scale knobs and the `stpt-obs` settings under an allow) makes
//!   runs depend on ambient process state.

use std::collections::{HashSet, VecDeque};

use crate::callgraph::{self, is_draw_name, CallGraph};
use crate::lexer::TokenKind;
use crate::rules::{Diagnostic, FileRole, SourceFile};
use crate::syntax::{self, receiver_root, Closure, ItemTree};

/// Calls that *are* the parallel seam: a closure passed directly to one of
/// these runs on worker threads.
const PAR_DIRECT: &[&str] = &["run_chunks", "par_map", "install", "scope_chunks"];

/// Adapter methods that carry a worker-side closure when the receiver
/// chain went parallel (`.par_iter()` / `.into_par_iter()`).
const PAR_ADAPTERS: &[&str] = &[
    "map",
    "flat_map",
    "for_each",
    "filter",
    "filter_map",
    "fold",
    "reduce",
];

/// The receiver-chain markers that make an adapter parallel.
const PAR_MARKERS: &[&str] = &["par_iter", "into_par_iter"];

/// Entry points for XT09: the public release surface of the workspace.
/// `sanitize` covers every `Mechanism` impl (baselines) by bare name.
const XT09_ENTRIES: &[&str] = &[
    "run_stpt",
    "run_stpt_on_dataset",
    "sanitize_partitions",
    "ldp_release",
    "sanitize",
];

/// Qualified (`Type::method`) XT09 entry points — methods whose bare name
/// is too generic to match on (`run` would pull in every `run` in the
/// workspace).
const XT09_QUALIFIED_ENTRIES: &[&str] = &["ReleasePipeline::run"];

/// File prefix of the post-processing crate: code here transforms released
/// (already-noisy) data and must be sampler-free *unconditionally* —
/// Theorem 3's ε-freeness holds only for functions of the release, so even
/// a budget-dominated draw is a bug, not an accounting question.
const XT09_POSTPROCESS_PREFIX: &str = "crates/postprocess/";

/// File prefixes where `std::env::var` is the sanctioned configuration
/// choke point. The bench harness entry is the other one; it carries an
/// explicit allow instead of a path exemption.
const XT10_CHOKE_POINTS: &[&str] = &["vendor/rayon/"];

/// Run all structural rules over the workspace. Diagnostics are
/// *unfiltered* — the caller applies `xtask-allow` suppression.
pub fn check_workspace(files: &[SourceFile]) -> Vec<Diagnostic> {
    let trees: Vec<ItemTree> = files.iter().map(syntax::parse).collect();
    let graph = callgraph::build(files, &trees);

    let mut diags = Vec::new();
    for (file, tree) in files.iter().zip(&trees) {
        xt08_schedule_dependent_randomness(file, tree, &mut diags);
        xt10_hermeticity(file, &mut diags);
    }
    xt09_budget_dominance(&graph, &mut diags);
    xt09_postprocess_purity(&graph, &mut diags);

    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    diags.dedup();
    diags
}

fn ident_at(file: &SourceFile, i: usize) -> Option<&str> {
    match file.lexed.tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(file: &SourceFile, i: usize) -> Option<char> {
    match file.lexed.tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

// ---- XT08 --------------------------------------------------------------

/// Flag RNG draws inside parallel-seam closures whose randomness source is
/// captured from the enclosing scope.
fn xt08_schedule_dependent_randomness(
    file: &SourceFile,
    tree: &ItemTree,
    out: &mut Vec<Diagnostic>,
) {
    for cl in &tree.closures {
        if !is_par_closure(file, cl) {
            continue;
        }
        let mut allowed: HashSet<&str> = HashSet::new();
        allowed.extend(cl.params.iter().map(String::as_str));
        allowed.extend(cl.locals.iter().map(String::as_str));
        scan_par_body(file, cl, &allowed, out);
    }
}

/// Is this closure an argument to a parallel-seam call?
fn is_par_closure(file: &SourceFile, cl: &Closure) -> bool {
    let Some(name_tok) = enclosing_call(file, cl.start) else {
        return false;
    };
    let Some(name) = ident_at(file, name_tok) else {
        return false;
    };
    if PAR_DIRECT.contains(&name) {
        return true;
    }
    PAR_ADAPTERS.contains(&name)
        && receiver_chain_idents(file, name_tok)
            .iter()
            .any(|id| PAR_MARKERS.contains(&id.as_str()))
}

/// Token index of the name of the call whose argument list contains
/// `tok` — i.e. walk left to the innermost unclosed `(` and take the
/// identifier before it.
fn enclosing_call(file: &SourceFile, tok: usize) -> Option<usize> {
    let mut i = tok;
    if i > 0 && ident_at(file, i - 1) == Some("move") {
        i -= 1;
    }
    let mut depth = 0i32;
    while i > 0 {
        i -= 1;
        match punct_at(file, i) {
            Some(')') | Some(']') | Some('}') => depth += 1,
            Some('(') => {
                if depth == 0 {
                    if i > 0 && ident_at(file, i - 1).is_some() {
                        return Some(i - 1);
                    }
                    return None;
                }
                depth -= 1;
            }
            Some('[') | Some('{') => {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    None
}

/// All identifiers on the receiver chain of a method call, walking left
/// from the method-name token across `.`/`::` segments and balanced
/// `(…)`/`[…]`/turbofish groups.
fn receiver_chain_idents(file: &SourceFile, name_tok: usize) -> Vec<String> {
    let mut out = Vec::new();
    if name_tok == 0 || punct_at(file, name_tok - 1) != Some('.') {
        return out;
    }
    let mut i = name_tok - 1; // at the `.`
    while i > 0 {
        i -= 1;
        match &file.lexed.tokens[i].kind {
            TokenKind::Punct(')') | TokenKind::Punct(']') => {
                let (open, close) = if punct_at(file, i) == Some(')') {
                    ('(', ')')
                } else {
                    ('[', ']')
                };
                let mut depth = 0i32;
                loop {
                    match punct_at(file, i) {
                        Some(c) if c == close => depth += 1,
                        Some(c) if c == open => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if i == 0 {
                        return out;
                    }
                    i -= 1;
                }
            }
            TokenKind::Punct('>') => {
                let mut depth = 0i32;
                loop {
                    match punct_at(file, i) {
                        Some('>') => depth += 1,
                        Some('<') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if i == 0 {
                        return out;
                    }
                    i -= 1;
                }
            }
            TokenKind::Punct('.') | TokenKind::Punct(':') => {}
            TokenKind::Ident(s) => out.push(s.clone()),
            _ => break,
        }
    }
    out
}

/// Scan one parallel closure body for draws on captured sources.
fn scan_par_body(
    file: &SourceFile,
    cl: &Closure,
    allowed: &HashSet<&str>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &file.lexed.tokens;
    let (start, end) = cl.body;
    for (i, tok) in toks
        .iter()
        .enumerate()
        .take(end.min(toks.len()))
        .skip(start)
    {
        let Some(name) = ident_at(file, i) else {
            continue;
        };
        let line = tok.line;
        let prev_dot = i > 0 && punct_at(file, i - 1) == Some('.');

        if prev_dot && is_draw_name(name) {
            // Method draw: the chain head must be bound by the closure.
            match receiver_root(file, i) {
                Some((root, false)) if allowed.contains(root.as_str()) => {}
                root => {
                    let source = match root {
                        Some((r, true)) => format!("the result of `{r}(…)`"),
                        Some((r, false)) => format!("`{r}`, captured from the enclosing scope"),
                        None => "a receiver the analyzer cannot trace".to_string(),
                    };
                    out.push(xt08_diag(file, line, cl, name, &source));
                }
            }
        } else if !prev_dot && name == "fork" && punct_at(file, i + 1) == Some('(') {
            // `fork` inside a worker closure re-splits the RNG stream on a
            // worker thread; any operand not bound by the closure means the
            // stream order depends on scheduling.
            for arg in call_arg_idents(file, i + 1) {
                if !allowed.contains(arg.as_str()) {
                    let source = format!("`{arg}`, captured from the enclosing scope");
                    out.push(xt08_diag(file, line, cl, name, &source));
                }
            }
        } else if !prev_dot && is_draw_name(name) && punct_at(file, i + 1) == Some('(') {
            // Free-fn draw, e.g. `laplace_sample(scale, &mut rng)`: the
            // `&mut` operands are the RNG; bare-ident operands are data
            // (known precision limit, DESIGN.md §13).
            for arg in call_ref_mut_arg_idents(file, i + 1) {
                if !allowed.contains(arg.as_str()) {
                    let source = format!("`{arg}`, captured from the enclosing scope");
                    out.push(xt08_diag(file, line, cl, name, &source));
                }
            }
        }
    }
}

fn xt08_diag(file: &SourceFile, line: u32, cl: &Closure, call: &str, source: &str) -> Diagnostic {
    Diagnostic {
        rule: "XT08",
        file: file.rel_path.clone(),
        line,
        message: format!(
            "`{call}` draws randomness from {source} inside the parallel-seam \
             closure at {}:{} — the draw order then depends on worker \
             scheduling; fork per-item child RNGs sequentially before fan-out \
             and move each child into the closure (DESIGN.md §12)",
            file.rel_path, cl.line
        ),
    }
}

/// Every identifier in the argument list opened by the `(` at `open`
/// (excluding `mut`/`ref` and method/path tails).
fn call_arg_idents(file: &SourceFile, open: usize) -> Vec<String> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Ident(s)
                if s != "mut" && s != "ref" && punct_at(file, i - 1) != Some('.') =>
            {
                out.push(s.clone());
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Identifiers appearing as `&mut ident` in the argument list at `open`.
fn call_ref_mut_arg_idents(file: &SourceFile, open: usize) -> Vec<String> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Punct('&') if ident_at(file, i + 1) == Some("mut") => {
                if let Some(s) = ident_at(file, i + 2) {
                    out.push(s.to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

// ---- XT09 --------------------------------------------------------------

/// Breadth-first search from each entry point; an edge is *dominated* once
/// any fn on the path issued a `spend_*` call at an earlier token position
/// than the outgoing call. Reaching a dp-crate sampler undominated is a
/// privacy bug, reported at the entry's definition with the call chain.
fn xt09_budget_dominance(graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let samplers: HashSet<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.file_path.starts_with("crates/dp/") && n.direct_draw)
        .map(|(i, _)| i)
        .collect();
    if samplers.is_empty() {
        return;
    }

    let entries: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            XT09_ENTRIES.contains(&n.name.as_str())
                || XT09_QUALIFIED_ENTRIES.contains(&n.qualified.as_str())
        })
        .map(|(i, _)| i)
        .collect();

    for &entry in &entries {
        let mut seen: HashSet<(usize, bool)> = HashSet::new();
        let mut reported: HashSet<usize> = HashSet::new();
        let mut queue: VecDeque<(usize, bool, Vec<usize>)> = VecDeque::new();
        seen.insert((entry, false));
        queue.push_back((entry, false, vec![entry]));

        while let Some((node, dominated, path)) = queue.pop_front() {
            for call in &graph.nodes[node].calls {
                let edge_dominated = dominated
                    || graph.nodes[node]
                        .first_spend
                        .is_some_and(|p| p < call.token);
                for &target in &call.targets {
                    if target == node {
                        continue;
                    }
                    if samplers.contains(&target) && !edge_dominated && reported.insert(target) {
                        let chain: Vec<String> = path
                            .iter()
                            .chain(std::iter::once(&target))
                            .map(|&n| graph.nodes[n].qualified.clone())
                            .collect();
                        let e = &graph.nodes[entry];
                        let s = &graph.nodes[target];
                        out.push(Diagnostic {
                            rule: "XT09",
                            file: e.file_path.clone(),
                            line: e.line,
                            message: format!(
                                "noise draw reachable without a dominating budget spend: \
                                 {} (sampler `{}` at {}:{}) — every path from a release \
                                 entry point to a crates/dp sampler must pass a \
                                 `spend_*_with` accountant call first, or carry \
                                 `// xtask-allow(XT09): <why no central budget applies>`",
                                chain.join(" -> "),
                                s.qualified,
                                s.file_path,
                                s.line
                            ),
                        });
                    }
                    if seen.insert((target, edge_dominated)) {
                        let mut next = path.clone();
                        next.push(target);
                        queue.push_back((target, edge_dominated, next));
                    }
                }
            }
        }
    }
}

/// Unconditional sampler reachability from the post-processing crate.
/// Unlike the dominance pass, a budget spend on the path does NOT clear the
/// diagnostic: post-processing must be a pure function of the release
/// (Theorem 3), so *any* reachable noise sampler — and any draw performed
/// directly by a postprocess-crate function — is flagged.
fn xt09_postprocess_purity(graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let samplers: HashSet<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.file_path.starts_with("crates/dp/") && n.direct_draw)
        .map(|(i, _)| i)
        .collect();

    for (entry, e) in graph.nodes.iter().enumerate() {
        if !e.file_path.starts_with(XT09_POSTPROCESS_PREFIX) {
            continue;
        }
        if e.direct_draw {
            out.push(Diagnostic {
                rule: "XT09",
                file: e.file_path.clone(),
                line: e.line,
                message: format!(
                    "`{}` draws randomness inside {XT09_POSTPROCESS_PREFIX} — \
                     post-processing must be a deterministic function of the \
                     released data for its ε = 0 proof (Theorem 3) to hold; \
                     move the draw behind the accountant in crates/dp",
                    e.qualified
                ),
            });
        }
        let mut seen: HashSet<usize> = HashSet::new();
        let mut reported: HashSet<usize> = HashSet::new();
        let mut queue: VecDeque<(usize, Vec<usize>)> = VecDeque::new();
        seen.insert(entry);
        queue.push_back((entry, vec![entry]));
        while let Some((node, path)) = queue.pop_front() {
            for call in &graph.nodes[node].calls {
                for &target in &call.targets {
                    if target == node {
                        continue;
                    }
                    // Do not traverse the vendored shims: their ubiquitous
                    // method names (`collect`, `run`, `new`) resolve by
                    // bare-name fan-out to half the workspace, creating
                    // phantom paths. Release dataflow never routes through
                    // vendor code, and the samplers themselves live in
                    // crates/dp, which stays fully visible.
                    if graph.nodes[target].file_path.starts_with("vendor/") {
                        continue;
                    }
                    if samplers.contains(&target) && reported.insert(target) {
                        let chain: Vec<String> = path
                            .iter()
                            .chain(std::iter::once(&target))
                            .map(|&n| graph.nodes[n].qualified.clone())
                            .collect();
                        let s = &graph.nodes[target];
                        out.push(Diagnostic {
                            rule: "XT09",
                            file: e.file_path.clone(),
                            line: e.line,
                            message: format!(
                                "noise sampler reachable from the post-processing \
                                 crate: {} (sampler `{}` at {}:{}) — post-processing \
                                 is ε-free only as a function of the release \
                                 (Theorem 3), so no path from \
                                 {XT09_POSTPROCESS_PREFIX} may reach a crates/dp \
                                 sampler, budget-dominated or not",
                                chain.join(" -> "),
                                s.qualified,
                                s.file_path,
                                s.line
                            ),
                        });
                    }
                    if seen.insert(target) {
                        let mut next = path.clone();
                        next.push(target);
                        queue.push_back((target, next));
                    }
                }
            }
        }
    }
}

// ---- XT10 --------------------------------------------------------------

/// Flag `env::var` / `env::var_os` reads outside the sanctioned
/// configuration choke points. Test targets are exempt (they orchestrate
/// the env to *test* the choke points).
fn xt10_hermeticity(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.role() == FileRole::Test
        || XT10_CHOKE_POINTS
            .iter()
            .any(|p| file.rel_path.starts_with(p))
    {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if file.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if name != "var" && name != "var_os" {
            continue;
        }
        let env_path = i >= 3
            && punct_at(file, i - 1) == Some(':')
            && punct_at(file, i - 2) == Some(':')
            && ident_at(file, i - 3) == Some("env");
        if env_path {
            out.push(Diagnostic {
                rule: "XT10",
                file: file.rel_path.clone(),
                line: tok.line,
                message: format!(
                    "`env::{name}` outside the configuration choke points \
                     (vendor/rayon STPT_THREADS; the bench harness entry \
                     ExperimentEnv::from_env, which parses the scale knobs and \
                     the stpt-obs STPT_TRACE*/STPT_METRICS_*/STPT_RESOURCES/telemetry \
                     settings into ObsConfig) — ambient env reads make runs \
                     non-hermetic; plumb the value through explicit config or \
                     justify with `// xtask-allow(XT10): <reason>`"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, s)| SourceFile::new(*p, lex(s)))
            .collect();
        check_workspace(&files)
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn xt08_flags_captured_rng_in_par_closure() {
        let diags = check(&[(
            "crates/core/src/a.rs",
            "fn f(xs: &[u64], rng: &mut DpRng) -> Vec<f64> {
                 xs.par_iter().map(|x| rng.gen::<f64>() + *x as f64).collect()
             }",
        )]);
        assert_eq!(rules_of(&diags), vec!["XT08"], "{diags:?}");
        assert!(diags[0].message.contains("`rng`"));
        assert!(
            diags[0].message.contains("crates/core/src/a.rs:2"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn xt08_accepts_pre_forked_children() {
        let diags = check(&[(
            "crates/core/src/a.rs",
            "fn f(jobs: Vec<(usize, DpRng)>) -> Vec<f64> {
                 jobs.into_par_iter().map(|(i, mut child)| child.gen::<f64>() + i as f64).collect()
             }",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn xt08_flags_fork_inside_par_closure() {
        let diags = check(&[(
            "crates/core/src/a.rs",
            "fn f(xs: &[u64], rng: &mut DpRng) {
                 xs.par_iter().for_each(|x| { let mut c = fork(rng); });
             }",
        )]);
        assert_eq!(rules_of(&diags), vec!["XT08"], "{diags:?}");
    }

    #[test]
    fn xt08_ignores_sequential_closures() {
        let diags = check(&[(
            "crates/core/src/a.rs",
            "fn f(xs: &[u64], rng: &mut DpRng) -> Vec<f64> {
                 xs.iter().map(|_| rng.gen::<f64>()).collect()
             }",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn xt09_reports_chain_to_unspent_sampler() {
        let diags = check(&[
            (
                "crates/baselines/src/bad.rs",
                "impl Bad { pub fn sanitize(&self, rng: &mut DpRng) -> f64 { helper(rng) } }
                 fn helper(rng: &mut DpRng) -> f64 { laplace_sample(1.0, rng) }",
            ),
            (
                "crates/dp/src/mechanism.rs",
                "pub fn laplace_sample(scale: f64, rng: &mut DpRng) -> f64 { rng.gen::<f64>() * scale }",
            ),
        ]);
        assert_eq!(rules_of(&diags), vec!["XT09"], "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.file, "crates/baselines/src/bad.rs");
        assert_eq!(d.line, 1, "reported at the entry definition");
        assert!(
            d.message
                .contains("Bad::sanitize -> helper -> laplace_sample"),
            "{}",
            d.message
        );
    }

    #[test]
    fn xt09_spend_before_draw_dominates() {
        let diags = check(&[
            (
                "crates/core/src/good.rs",
                "pub fn sanitize_partitions(acc: &mut A, rng: &mut DpRng) -> Result<f64, E> {
                     acc.spend_parallel_with(a, b, c, d)?;
                     Ok(laplace_sample(1.0, rng))
                 }",
            ),
            (
                "crates/dp/src/mechanism.rs",
                "pub fn laplace_sample(scale: f64, rng: &mut DpRng) -> f64 { rng.gen::<f64>() * scale }",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn xt09_spend_in_caller_dominates_callee_draws() {
        let diags = check(&[
            (
                "crates/core/src/good.rs",
                "pub fn run_stpt(acc: &mut A, rng: &mut DpRng) -> Result<f64, E> {
                     acc.spend_sequential(eps)?;
                     Ok(inner(rng))
                 }
                 fn inner(rng: &mut DpRng) -> f64 { laplace_sample(1.0, rng) }",
            ),
            (
                "crates/dp/src/mechanism.rs",
                "pub fn laplace_sample(scale: f64, rng: &mut DpRng) -> f64 { rng.gen::<f64>() * scale }",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn xt09_spend_after_draw_does_not_dominate() {
        let diags = check(&[
            (
                "crates/core/src/bad.rs",
                "pub fn run_stpt(acc: &mut A, rng: &mut DpRng) -> Result<f64, E> {
                     let v = laplace_sample(1.0, rng);
                     acc.spend_sequential(eps)?;
                     Ok(v)
                 }",
            ),
            (
                "crates/dp/src/mechanism.rs",
                "pub fn laplace_sample(scale: f64, rng: &mut DpRng) -> f64 { rng.gen::<f64>() * scale }",
            ),
        ]);
        assert_eq!(rules_of(&diags), vec!["XT09"], "{diags:?}");
    }

    #[test]
    fn xt09_qualified_entry_covers_pipeline_run() {
        // `run` is too generic for the bare-name entry list; the qualified
        // entry must still treat `ReleasePipeline::run` as release surface.
        let diags = check(&[
            (
                "crates/core/src/pipeline.rs",
                "impl ReleasePipeline {
                     pub fn run(&self, rng: &mut DpRng) -> f64 { laplace_sample(1.0, rng) }
                 }",
            ),
            (
                "crates/dp/src/mechanism.rs",
                "pub fn laplace_sample(scale: f64, rng: &mut DpRng) -> f64 { rng.gen::<f64>() * scale }",
            ),
        ]);
        assert_eq!(rules_of(&diags), vec!["XT09"], "{diags:?}");
        assert!(
            diags[0]
                .message
                .contains("ReleasePipeline::run -> laplace_sample"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn xt09_flags_sampler_reachable_from_postprocess_even_after_spend() {
        // A dominating budget spend clears the release-entry rule but NOT
        // the post-processing purity rule: ε-freeness (Theorem 3) requires
        // the stage to be a deterministic function of the release, so the
        // sampler is flagged regardless of accounting.
        let diags = check(&[
            (
                "crates/postprocess/src/project.rs",
                "pub fn project(acc: &mut A, rng: &mut DpRng) -> f64 {
                     acc.spend_sequential(eps);
                     laplace_sample(1.0, rng)
                 }",
            ),
            (
                "crates/dp/src/mechanism.rs",
                "pub fn laplace_sample(scale: f64, rng: &mut DpRng) -> f64 { rng.gen::<f64>() * scale }",
            ),
        ]);
        assert_eq!(rules_of(&diags), vec!["XT09"], "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.file, "crates/postprocess/src/project.rs");
        assert!(
            d.message.contains("project -> laplace_sample") && d.message.contains("Theorem 3"),
            "{}",
            d.message
        );
    }

    #[test]
    fn xt09_flags_direct_draw_inside_postprocess() {
        let diags = check(&[(
            "crates/postprocess/src/jitter.rs",
            "pub fn jitter(v: &mut [f64], rng: &mut DpRng) {
                 for x in v { *x += rng.gen::<f64>(); }
             }",
        )]);
        assert_eq!(rules_of(&diags), vec!["XT09"], "{diags:?}");
        assert!(
            diags[0].message.contains("draws randomness inside"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn xt10_flags_env_reads_outside_choke_points() {
        let src = "fn f() -> String { std::env::var(\"STPT_SECRET\").unwrap_or_default() }";
        let diags = check(&[("crates/core/src/a.rs", src)]);
        assert_eq!(rules_of(&diags), vec!["XT10"], "{diags:?}");
        // stpt-obs reads no environment: a read there is flagged too.
        let obs = check(&[("crates/obs/src/lib.rs", src)]);
        assert_eq!(rules_of(&obs), vec!["XT10"], "{obs:?}");
        // The rayon choke point and test targets stay silent.
        assert!(check(&[("vendor/rayon/src/lib.rs", src)]).is_empty());
        assert!(check(&[("tests/e2e.rs", src)]).is_empty());
    }

    #[test]
    fn xt10_ignores_env_macro_and_local_var_fns() {
        let diags = check(&[(
            "crates/core/src/a.rs",
            "fn f() { let p = env!(\"CARGO_MANIFEST_DIR\"); let v = var(3); stats.var_os(); }",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
