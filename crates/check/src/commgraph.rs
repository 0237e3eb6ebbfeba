//! Static communication-graph extraction with cycle detection.
//!
//! For each application source file the extractor recovers the entry-point
//! graph: every `match msg.ep { EP_X => … }` arm becomes a node, and every
//! `EP_Y` mentioned inside an arm (a `Msg::signal(EP_Y)` /
//! `Msg::sized(EP_Y, …)` / `Msg::value(EP_Y, …)` send) becomes an edge
//! `EP_X → EP_Y`. The one-sided plane is folded in through two synthetic
//! nodes: an arm or callback that issues a
//! `direct_put` gets an edge to `<put>`, the `direct_callback` body is the
//! `<callback>` node with edges to whatever it sends, and `<put>` →
//! `<callback>` closes the loop (a put completes by firing the receiver's
//! callback).
//!
//! A cycle through `<put>` is a **ready-wait loop**: a round trip that only
//! makes progress if every participant re-arms its receive window each time
//! around. The report is informational — steady-state application loops
//! (pingpong's bounce, jacobi's halo exchange) are legitimate cycles — but
//! each reported loop names exactly the paths the typestate `skip-ready`
//! rule and the dynamic explorer probe.

use std::collections::{BTreeMap, BTreeSet};

/// The communication graph of one source file.
#[derive(Clone, Debug, Default)]
pub struct CommGraph {
    /// File label the graph was extracted from.
    pub file: String,
    /// Directed edges (from-node, to-node), deduplicated and sorted.
    pub edges: Vec<(String, String)>,
    /// Simple cycles found by DFS (each is the node sequence, first node
    /// repeated at the end).
    pub cycles: Vec<Vec<String>>,
}

impl CommGraph {
    /// Cycles that pass through the one-sided plane (`<put>`): the
    /// ready-wait loops.
    pub fn ready_wait_loops(&self) -> Vec<&Vec<String>> {
        self.cycles
            .iter()
            .filter(|c| c.iter().any(|n| n == "<put>"))
            .collect()
    }

    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!("{}: {} edge(s)\n", self.file, self.edges.len());
        for (a, b) in &self.edges {
            out.push_str(&format!("  {a} -> {b}\n"));
        }
        if self.cycles.is_empty() {
            out.push_str("  no cycles\n");
        }
        for c in &self.cycles {
            let tag = if c.iter().any(|n| n == "<put>") {
                "ready-wait loop"
            } else {
                "message cycle"
            };
            out.push_str(&format!("  {tag}: {}\n", c.join(" -> ")));
        }
        out
    }
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn matching_brace(b: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        if c == b'{' {
            depth += 1;
        } else if c == b'}' {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    b.len()
}

/// Every `EP_*` identifier in `text`, in order of appearance.
fn ep_idents(text: &str) -> Vec<String> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = text[from..].find("EP_") {
        let at = from + p;
        if at > 0 && is_ident(b[at - 1]) {
            from = at + 3;
            continue;
        }
        let name: String = text[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        from = at + name.len();
        out.push(name);
    }
    out
}

/// Split a `match` body into `(arm pattern, arm body)` pairs by scanning
/// for depth-0 `=>`.
fn match_arms(body: &str) -> Vec<(String, String)> {
    let b = body.as_bytes();
    let mut arms = Vec::new();
    let mut i = 0;
    let mut pat_start = 0;
    let mut depth = 0usize;
    while i < b.len() {
        match b[i] {
            b'(' | b'[' => {
                depth += 1;
                i += 1;
            }
            b')' | b']' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            b'{' => {
                i = matching_brace(b, i) + 1;
            }
            b'=' if depth == 0 && i + 1 < b.len() && b[i + 1] == b'>' => {
                let pat = body[pat_start..i].trim().to_owned();
                let mut j = i + 2;
                while j < b.len() && (b[j] as char).is_whitespace() {
                    j += 1;
                }
                let (arm_body, next) = if j < b.len() && b[j] == b'{' {
                    let close = matching_brace(b, j);
                    (body[j + 1..close].to_owned(), close + 1)
                } else {
                    let mut k = j;
                    let mut d = 0usize;
                    while k < b.len() {
                        match b[k] {
                            b'(' | b'[' => d += 1,
                            b')' | b']' => d = d.saturating_sub(1),
                            b'{' => k = matching_brace(b, k),
                            b',' if d == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    (body[j..k].to_owned(), k + 1)
                };
                arms.push((pat, arm_body));
                i = next;
                pat_start = next;
            }
            _ => i += 1,
        }
    }
    arms
}

/// Extract the communication graph of one source file.
pub fn extract(file: &str, src: &str) -> CommGraph {
    let b = src.as_bytes();
    let mut edges: BTreeSet<(String, String)> = BTreeSet::new();

    // entry-point dispatch: match msg.ep { EP_X => … }
    let mut from = 0;
    while let Some(p) = src[from..].find("match msg.ep") {
        let at = from + p;
        from = at + 1;
        let Some(rel_open) = src[at..].find('{') else {
            continue;
        };
        let open = at + rel_open;
        let close = matching_brace(b, open);
        for (pat, body) in match_arms(&src[open + 1..close]) {
            let Some(node) = ep_idents(&pat).into_iter().next() else {
                continue;
            };
            for target in ep_idents(&body) {
                if target != node {
                    edges.insert((node.clone(), target));
                }
            }
            if body.contains("direct_put(") {
                edges.insert((node.clone(), "<put>".to_owned()));
            }
        }
    }

    // the one-sided completion plane
    let mut from = 0;
    while let Some(p) = src[from..].find("fn direct_callback") {
        let at = from + p;
        from = at + 1;
        let Some(rel_open) = src[at..].find('{') else {
            continue;
        };
        let open = at + rel_open;
        let close = matching_brace(b, open);
        let body = &src[open + 1..close];
        for target in ep_idents(body) {
            edges.insert(("<callback>".to_owned(), target));
        }
        if body.contains("direct_put(") {
            edges.insert(("<callback>".to_owned(), "<put>".to_owned()));
        }
        edges.insert(("<put>".to_owned(), "<callback>".to_owned()));
    }

    let edges: Vec<(String, String)> = edges.into_iter().collect();
    let cycles = find_cycles(&edges);
    CommGraph {
        file: file.to_owned(),
        edges,
        cycles,
    }
}

/// DFS cycle detection: one cycle reported per back edge.
fn find_cycles(edges: &[(String, String)]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (a, b) in edges {
        adj.entry(a).or_default().push(b);
        nodes.insert(a);
        nodes.insert(b);
    }
    let mut cycles = Vec::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &root in &nodes {
        if done.contains(root) {
            continue;
        }
        // iterative DFS with an explicit path stack
        let mut path: Vec<&str> = Vec::new();
        let mut stack: Vec<(&str, usize)> = vec![(root, 0)];
        while let Some((node, next)) = stack.pop() {
            if next == 0 {
                path.push(node);
            }
            let succ = adj.get(node).map_or(&[][..], Vec::as_slice);
            if next < succ.len() {
                stack.push((node, next + 1));
                let t = succ[next];
                if let Some(pos) = path.iter().position(|&n| n == t) {
                    let mut cyc: Vec<String> =
                        path[pos..].iter().map(|s| (*s).to_owned()).collect();
                    cyc.push(t.to_owned());
                    if !cycles.contains(&cyc) {
                        cycles.push(cyc);
                    }
                } else if !done.contains(t) {
                    stack.push((t, 0));
                }
            } else {
                path.pop();
                done.insert(node);
            }
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_shape_yields_a_ready_wait_loop() {
        let src = r#"
impl Pinger {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_START => {
                ctx.send(peer, Msg::signal(EP_HANDSHAKE));
            }
            EP_HANDSHAKE => {
                let _ = ctx.direct_put(h);
            }
            other => panic!("unexpected ep"),
        }
    }
    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, _h: HandleId) {
        let _ = ctx.direct_put(self.send_handle);
    }
}
"#;
        let g = extract("pp.rs", src);
        assert!(g
            .edges
            .contains(&("EP_START".into(), "EP_HANDSHAKE".into())));
        assert!(g.edges.contains(&("EP_HANDSHAKE".into(), "<put>".into())));
        assert!(g.edges.contains(&("<callback>".into(), "<put>".into())));
        assert!(g.edges.contains(&("<put>".into(), "<callback>".into())));
        let loops = g.ready_wait_loops();
        assert_eq!(loops.len(), 1, "{:?}", g.cycles);
        assert!(loops[0].contains(&"<callback>".to_owned()));
    }

    #[test]
    fn acyclic_dispatch_reports_no_cycles() {
        let src = r#"
fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
    match msg.ep {
        EP_A => ctx.send(peer, Msg::signal(EP_B)),
        EP_B => ctx.send(peer, Msg::signal(EP_C)),
        EP_C => {}
        other => panic!("unexpected"),
    }
}
"#;
        let g = extract("x.rs", src);
        assert!(g.cycles.is_empty(), "{:?}", g.cycles);
        assert!(g.ready_wait_loops().is_empty());
    }
}
