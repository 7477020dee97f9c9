//! Static sync-graph extraction: a zero-dependency source scan that builds
//! the lock-acquisition-order graph and channel topology of the workspace
//! without executing anything.
//!
//! The scan is deliberately lexical — no parser, no syn. Source text is
//! first stripped of comments and string/char literals (preserving line
//! structure), then:
//!
//! * **Lock classes** — every `OrderedMutex::new("<class>"` declaration is
//!   recorded together with the binding or field identifier it is assigned
//!   to, giving an identifier → class map.
//! * **Static order edges** — within one `fn` body, every ordered pair of
//!   `.lock()` calls on classed identifiers yields an edge
//!   `earlier class → later class`. This *over-approximates* the dynamic
//!   lock-order graph (the `order-check` feature of `dooc-sync`): the
//!   dynamic detector only records an edge when the first guard is still
//!   held, while the static scan cannot see drops and assumes it is. The
//!   over-approximation direction is the useful one — every dynamically
//!   observable function-local edge is guaranteed to be in the static set
//!   (the mirror test in `tests/syncgraph_mirror.rs` pins this), and a
//!   cycle-free static graph therefore proves the stronger property.
//!   Cross-function nesting (guard held across a call into another
//!   function that locks) is out of scope for the lexical pass and remains
//!   the dynamic detector's job.
//! * **Channel topology** — every bounded/unbounded channel construction
//!   site, with the capacity expression for bounded ones. Rule 3 of the
//!   lint keeps runtime crates bounded; this scan makes the topology
//!   reviewable in one listing.
//!
//! Inconsistent lock orders show up as cycles in the class graph
//! ([`SyncGraph::find_cycle`]); the workspace test asserts the library
//! trees are cycle-free.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// Assembled with `concat!` so the lint pass (rule 3 bans the unbounded
// constructor by name in non-sync crates) does not flag this file's own
// pattern constants.
const PAT_ORDERED_NEW: &str = concat!("OrderedMutex::", "new(");
const PAT_LOCK_CALL: &str = concat!(".lock", "()");
const PAT_CHAN_IDENT: &str = concat!("boun", "ded");
const PAT_CONNECT_WITH: &str = "connect_with(";

/// One `OrderedMutex::new("class", ...)` declaration site.
#[derive(Clone, Debug)]
pub struct ClassDecl {
    /// The lock class string literal.
    pub class: String,
    /// The `let` binding or struct field the mutex is assigned to, when
    /// the scan could determine one.
    pub binding: Option<String>,
    /// File the declaration is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
}

/// One static lock-order edge: `from` locked textually before `to` inside
/// the same function body.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StaticEdge {
    /// Class locked first.
    pub from: String,
    /// Class locked second.
    pub to: String,
    /// File both lock calls are in.
    pub file: PathBuf,
    /// Line of the first lock call.
    pub line_from: usize,
    /// Line of the second lock call.
    pub line_to: usize,
}

impl fmt::Display for StaticEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "'{}' ({}:{}) then '{}' ({}:{})",
            self.from,
            self.file.display(),
            self.line_from,
            self.to,
            self.file.display(),
            self.line_to
        )
    }
}

/// One channel construction site.
#[derive(Clone, Debug)]
pub struct ChanSite {
    /// True for the bounded constructor.
    pub bounded: bool,
    /// Capacity expression text for bounded channels.
    pub capacity: Option<String>,
    /// File of the call.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
}

/// One explicit stream-lane wiring site: a `connect_with(from, "out_port",
/// to, "in_port", Delivery::…, capacity)` call. These are the bounded lanes
/// the runtime's capacity audit sizes against the graph; extracting them
/// makes the `done`/`prog` broadcast topology visible to the static pass.
#[derive(Clone, Debug)]
pub struct LaneSite {
    /// Sender port name.
    pub from_port: String,
    /// Receiver port name.
    pub to_port: String,
    /// Delivery-mode expression text (e.g. `Delivery::Broadcast`).
    pub delivery: String,
    /// Capacity expression text (whitespace-normalized across wrapped
    /// lines), e.g. `2 * graph.len() + 64`.
    pub capacity: String,
    /// File of the call.
    pub file: PathBuf,
    /// 1-based line of the `connect_with(` token.
    pub line: usize,
}

/// The extracted static sync graph of a source tree.
#[derive(Clone, Debug, Default)]
pub struct SyncGraph {
    /// Every lock-class declaration found.
    pub classes: Vec<ClassDecl>,
    /// Function-local static order edges (deduplicated per class pair; the
    /// recorded site is the first occurrence).
    pub edges: Vec<StaticEdge>,
    /// Channel construction sites.
    pub channels: Vec<ChanSite>,
    /// Stream-lane wiring sites (`connect_with` calls).
    pub lanes: Vec<LaneSite>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl SyncGraph {
    /// Whether the graph contains a `from → to` edge between these classes.
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }

    /// Finds a lock-order cycle in the class graph, returned as the edge
    /// list along it, or `None` when the graph is acyclic (consistent
    /// global lock order).
    pub fn find_cycle(&self) -> Option<Vec<&StaticEdge>> {
        // Iterative DFS with colors over class nodes; on finding a back
        // edge, reconstruct the cycle from the current path.
        let mut adj: HashMap<&str, Vec<&StaticEdge>> = HashMap::new();
        for e in &self.edges {
            adj.entry(&e.from).or_default().push(e);
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: HashMap<&str, Color> = HashMap::new();
        let nodes: Vec<&str> = adj.keys().copied().collect();
        for &start in &nodes {
            if color.get(start).copied().unwrap_or(Color::White) != Color::White {
                continue;
            }
            // Path of edges taken to reach the current node.
            let mut path: Vec<&StaticEdge> = Vec::new();
            // Stack of (node, next child index).
            let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
            color.insert(start, Color::Gray);
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let children = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
                if *idx >= children.len() {
                    color.insert(node, Color::Black);
                    stack.pop();
                    path.pop();
                    continue;
                }
                let edge = children[*idx];
                *idx += 1;
                match color.get(edge.to.as_str()).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        // Back edge: the cycle is the path suffix from the
                        // first visit of `edge.to`, closed by `edge`.
                        let from = path
                            .iter()
                            .position(|e| e.from == edge.to)
                            .unwrap_or(path.len());
                        let mut cycle: Vec<&StaticEdge> = path[from..].to_vec();
                        cycle.push(edge);
                        return Some(cycle);
                    }
                    Color::White => {
                        color.insert(&edge.to, Color::Gray);
                        path.push(edge);
                        stack.push((&edge.to, 0));
                    }
                    Color::Black => {}
                }
            }
        }
        None
    }

    /// Multi-line summary: classes, edges, channel counts.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sync-graph: {} files, {} lock classes, {} order edges, {} channel sites, {} lanes",
            self.files_scanned,
            self.classes.len(),
            self.edges.len(),
            self.channels.len(),
            self.lanes.len()
        );
        for c in &self.classes {
            let _ = writeln!(
                out,
                "  class '{}' ({}:{}){}",
                c.class,
                c.file.display(),
                c.line,
                c.binding
                    .as_deref()
                    .map(|b| format!(" bound to `{b}`"))
                    .unwrap_or_default()
            );
        }
        for e in &self.edges {
            let _ = writeln!(out, "  edge {e}");
        }
        for ch in &self.channels {
            let _ = writeln!(
                out,
                "  channel {} ({}:{}){}",
                if ch.bounded { "bounded" } else { "UNBOUNDED" },
                ch.file.display(),
                ch.line,
                ch.capacity
                    .as_deref()
                    .map(|c| format!(" cap `{c}`"))
                    .unwrap_or_default()
            );
        }
        for l in &self.lanes {
            let _ = writeln!(
                out,
                "  lane {} -> {} [{}] cap `{}` ({}:{})",
                l.from_port,
                l.to_port,
                l.delivery,
                l.capacity,
                l.file.display(),
                l.line
            );
        }
        out
    }
}

/// Replaces comments and string/char literal contents with spaces,
/// preserving every newline so line numbers survive. Handles line and
/// nested block comments, plain and raw strings, and char literals
/// (distinguished from lifetimes by requiring a closing quote within a
/// short window).
pub fn strip_source(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let n = b.len();
    let mut i = 0;
    // Emits `c` for structure, space for erased content, newlines always.
    let keep_nl = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            out.push(' ');
            out.push(' ');
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    i += 1;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    i += 1;
                }
                out.push(keep_nl(b[i]));
                i += 1;
            }
            continue;
        }
        // Raw string r"..." / r#"..."# (any hash depth).
        if c == 'r' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#') {
            let mut j = i + 1;
            let mut hashes = 0;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                // Erase from `r` through the closing quote+hashes. Keep
                // the quotes so the literal stays a token.
                out.push(' ');
                for _ in i + 1..=j {
                    out.push(' ');
                }
                out.push('"');
                i = j + 1;
                loop {
                    if i >= n {
                        break;
                    }
                    if b[i] == '"' {
                        let mut k = i + 1;
                        let mut h = 0;
                        while k < n && b[k] == '#' && h < hashes {
                            h += 1;
                            k += 1;
                        }
                        if h == hashes {
                            out.push('"');
                            for _ in 0..hashes {
                                out.push(' ');
                            }
                            i = k;
                            break;
                        }
                    }
                    out.push(keep_nl(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        // Plain string. Keep the contents of *short single-line* literals
        // (class names!) — erase multiline/escaped ones.
        if c == '"' {
            let mut j = i + 1;
            while j < n && b[j] != '"' {
                if b[j] == '\\' {
                    j += 1;
                }
                j += 1;
            }
            let body: String = b[i + 1..j.min(n)].iter().collect();
            out.push('"');
            if !body.contains('\n') && !body.contains('\\') && body.len() <= 80 {
                out.push_str(&body);
            } else {
                for ch in body.chars() {
                    out.push(keep_nl(ch));
                }
            }
            out.push('"');
            i = j + 1;
            continue;
        }
        // Char literal vs lifetime: 'x' or '\n' closes within 3 chars.
        if c == '\'' {
            let close = if i + 2 < n && b[i + 1] == '\\' {
                // Escaped char: find the quote within a few chars.
                (i + 2..(i + 5).min(n)).find(|&k| b[k] == '\'')
            } else if i + 2 < n && b[i + 2] == '\'' {
                Some(i + 2)
            } else {
                None
            };
            if let Some(end) = close {
                out.push('\'');
                for _ in i + 1..end {
                    out.push(' ');
                }
                out.push('\'');
                i = end + 1;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier ending at byte offset `end` (exclusive), if any.
fn ident_before(s: &str, end: usize) -> Option<&str> {
    let head = &s[..end];
    let start = head
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident_char(c))
        .last()?
        .0;
    let id = &head[start..];
    id.chars().next().filter(|c| !c.is_numeric())?;
    Some(id)
}

/// The binding a declaration on this line head assigns to: the identifier
/// before the rightmost `=` (a `let`) or single `:` (a struct field
/// initializer — `::` path separators do not count), whichever comes last.
fn binding_before(head: &str) -> Option<String> {
    let bytes = head.as_bytes();
    let mut colon = None;
    for (idx, c) in head.char_indices().rev() {
        if c == ':' {
            let double = (idx > 0 && bytes[idx - 1] == b':')
                || (idx + 1 < bytes.len() && bytes[idx + 1] == b':');
            if !double {
                colon = Some(idx);
                break;
            }
        }
    }
    let sep = match (head.rfind('='), colon) {
        (Some(e), Some(c)) => e.max(c),
        (Some(e), None) => e,
        (None, Some(c)) => c,
        (None, None) => return None,
    };
    ident_before(head, head[..sep].trim_end().len()).map(str::to_string)
}

/// Per-file scan result (stripped-source lexical extraction).
#[derive(Clone, Debug, Default)]
pub struct FileScan {
    /// Class declarations in this file.
    pub classes: Vec<ClassDecl>,
    /// Lock-call sequence per function body: `(identifier, line)`.
    pub lock_calls: Vec<Vec<(String, usize)>>,
    /// Channel construction sites in this file.
    pub channels: Vec<ChanSite>,
    /// `connect_with` lane-wiring sites in this file.
    pub lanes: Vec<LaneSite>,
}

/// Extracts `connect_with(...)` lane sites from stripped source. The calls
/// are rustfmt-wrapped across lines, so arguments are collected across the
/// whole text to paren balance and split on depth-1 commas; every argument
/// is whitespace-normalized. Calls whose argument count is not the
/// six-argument `connect_with` shape are skipped.
fn scan_lanes(file: &Path, stripped: &str) -> Vec<LaneSite> {
    let mut lanes = Vec::new();
    let mut search = 0;
    while let Some(p) = stripped[search..].find(PAT_CONNECT_WITH) {
        let pos = search + p;
        search = pos + PAT_CONNECT_WITH.len();
        // Require a method/function call position (`.connect_with(` or a
        // `fn connect_with(` definition — the latter is filtered below by
        // its argument shape not being six comma-separated expressions).
        let pre = stripped[..pos].chars().next_back();
        if pre.is_some_and(is_ident_char) {
            continue;
        }
        let line = stripped[..pos].matches('\n').count() + 1;
        let body = &stripped[pos + PAT_CONNECT_WITH.len()..];
        let mut depth = 1usize;
        let mut args: Vec<String> = Vec::new();
        let mut cur = String::new();
        for c in body.chars() {
            match c {
                '(' | '[' | '{' => {
                    depth += 1;
                    cur.push(c);
                }
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    cur.push(c);
                }
                ',' if depth == 1 => {
                    args.push(std::mem::take(&mut cur));
                }
                c => cur.push(c),
            }
        }
        if !cur.trim().is_empty() {
            args.push(cur);
        }
        let norm: Vec<String> = args
            .iter()
            .map(|a| a.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        if norm.len() != 6 {
            continue;
        }
        let unquote = |s: &str| {
            s.strip_prefix('"')
                .and_then(|t| t.strip_suffix('"'))
                .unwrap_or(s)
                .to_string()
        };
        lanes.push(LaneSite {
            from_port: unquote(&norm[1]),
            to_port: unquote(&norm[3]),
            delivery: norm[4].clone(),
            capacity: norm[5].clone(),
            file: file.to_path_buf(),
            line,
        });
    }
    lanes
}

/// Scans one file's source text. `file` is used only for locations.
pub fn scan_source(file: &Path, src: &str) -> FileScan {
    let stripped = strip_source(src);
    let mut scan = FileScan {
        lanes: scan_lanes(file, &stripped),
        ..FileScan::default()
    };
    // Current function's lock-call sequence; a new `fn ` token starts a
    // fresh scope (closures and nested items conservatively share the
    // enclosing scope until the next `fn`).
    let mut current: Vec<(String, usize)> = Vec::new();
    let lines: Vec<&str> = stripped.lines().collect();
    for (ln0, &line) in lines.iter().enumerate() {
        let line_no = ln0 + 1;
        // Function boundary?
        let mut search = line;
        let mut is_fn_line = false;
        while let Some(p) = search.find("fn ") {
            let pre_ok = p == 0 || !is_ident_char(search[..p].chars().next_back().unwrap_or(' '));
            if pre_ok {
                is_fn_line = true;
                break;
            }
            search = &search[p + 3..];
        }
        if is_fn_line && !current.is_empty() {
            scan.lock_calls.push(std::mem::take(&mut current));
        }
        // OrderedMutex::new("class"
        let mut rest = line;
        let mut col = 0;
        while let Some(p) = rest.find(PAT_ORDERED_NEW) {
            let after = &rest[p + PAT_ORDERED_NEW.len()..];
            // The class literal usually follows on the same line; when the
            // call is wrapped (rustfmt splits long `Arc::new(OrderedMutex::
            // new(` chains), it opens the next line instead.
            let lit_src = if after.trim_start().starts_with('"') {
                Some(after)
            } else if after.trim_start().is_empty() {
                lines.get(ln0 + 1).copied()
            } else {
                None
            };
            if let Some(lit) = lit_src.and_then(|s| s.trim_start().strip_prefix('"')) {
                if let Some(endq) = lit.find('"') {
                    // Binding: `let <id> =` or `<id>:` earlier on the line.
                    let binding = binding_before(&line[..col + p]);
                    scan.classes.push(ClassDecl {
                        class: lit[..endq].to_string(),
                        binding,
                        file: file.to_path_buf(),
                        line: line_no,
                    });
                }
            }
            col += p + PAT_ORDERED_NEW.len();
            rest = &rest[p + PAT_ORDERED_NEW.len()..];
        }
        // <ident>.lock() calls.
        let mut rest = line;
        let mut col = 0;
        while let Some(p) = rest.find(PAT_LOCK_CALL) {
            if let Some(id) = ident_before(line, col + p) {
                current.push((id.to_string(), line_no));
            }
            col += p + PAT_LOCK_CALL.len();
            rest = &rest[p + PAT_LOCK_CALL.len()..];
        }
        // Channel constructors: the identifier `bounded`/`unbounded`
        // followed by `(` or a `::<...>` turbofish. `unbounded` embeds
        // `bounded`, so each match checks its two leading characters.
        let mut idx = 0;
        while let Some(p) = line[idx..].find(PAT_CHAN_IDENT) {
            let pos = idx + p;
            idx = pos + PAT_CHAN_IDENT.len();
            let is_ub = line[..pos].ends_with("un");
            let start = if is_ub { pos - 2 } else { pos };
            let pre = line[..start].chars().next_back();
            if pre.is_some_and(is_ident_char) {
                continue;
            }
            let after = &line[pos + PAT_CHAN_IDENT.len()..];
            if !(after.starts_with('(') || after.starts_with("::<")) {
                continue;
            }
            let capacity = if is_ub {
                None
            } else {
                after
                    .strip_prefix('(')
                    .and_then(|args| args.find(')').map(|e| args[..e].trim().to_string()))
            };
            scan.channels.push(ChanSite {
                bounded: !is_ub,
                capacity,
                file: file.to_path_buf(),
                line: line_no,
            });
        }
    }
    if !current.is_empty() {
        scan.lock_calls.push(current);
    }
    scan
}

/// Merges per-file scans into a [`SyncGraph`]: resolves lock-call
/// identifiers through the union of all binding → class mappings (an
/// identifier bound to several classes maps to all of them — another
/// over-approximation in the safe direction) and forms function-local
/// ordered-pair edges.
pub fn build_graph(scans: Vec<FileScan>) -> SyncGraph {
    let mut graph = SyncGraph {
        files_scanned: scans.len(),
        ..Default::default()
    };
    let mut ident2classes: HashMap<String, Vec<String>> = HashMap::new();
    for s in &scans {
        for c in &s.classes {
            if let Some(b) = &c.binding {
                let v = ident2classes.entry(b.clone()).or_default();
                if !v.contains(&c.class) {
                    v.push(c.class.clone());
                }
            }
        }
        graph.classes.extend(s.classes.iter().cloned());
        graph.channels.extend(s.channels.iter().cloned());
        graph.lanes.extend(s.lanes.iter().cloned());
    }
    let mut seen: HashMap<(String, String), ()> = HashMap::new();
    for s in &scans {
        for body in &s.lock_calls {
            // Resolve each call to its classes; unclassed idents (plain
            // facade mutexes) are invisible to the order graph.
            let resolved: Vec<(&[String], usize)> = body
                .iter()
                .filter_map(|(id, ln)| ident2classes.get(id).map(|cs| (cs.as_slice(), *ln)))
                .collect();
            for (i, (from_cs, from_ln)) in resolved.iter().enumerate() {
                for (to_cs, to_ln) in resolved.iter().skip(i + 1) {
                    for fc in *from_cs {
                        for tc in *to_cs {
                            if fc == tc {
                                continue;
                            }
                            let key = (fc.clone(), tc.clone());
                            if seen.contains_key(&key) {
                                continue;
                            }
                            seen.insert(key, ());
                            let file = graph
                                .classes
                                .iter()
                                .find(|c| &c.class == fc)
                                .map(|c| c.file.clone())
                                .unwrap_or_default();
                            graph.edges.push(StaticEdge {
                                from: fc.clone(),
                                to: tc.clone(),
                                file,
                                line_from: *from_ln,
                                line_to: *to_ln,
                            });
                        }
                    }
                }
            }
        }
    }
    graph
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every `crates/*/src` tree under `root` (library code only —
/// `tests/` trees contain deliberate lock-order violations as negative
/// tests for the dynamic detector) and builds the workspace sync graph.
pub fn scan_workspace(root: &Path) -> io::Result<SyncGraph> {
    let mut scans = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in &crate_dirs {
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_sources(&src, &mut files)?;
        files.sort();
        for file in files {
            let content = fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file);
            scans.push(scan_source(rel, &content));
        }
    }
    Ok(build_graph(scans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_preserves_lines_and_class_literals() {
        let src = "let a = 1; // comment with OrderedMutex::new(\"x\"\n\
                   /* block\ncomment */ let m = OrderedMutex::new(\"real.class\", ());\n";
        let s = strip_source(src);
        assert_eq!(s.lines().count(), src.lines().count());
        assert!(!s.contains("comment with"));
        assert!(s.contains("\"real.class\""));
    }

    #[test]
    fn char_literals_stripped_lifetimes_surviveable() {
        let src = "fn f<'a>(x: &'a str) { let c = 'y'; let d = '\\n'; }\n";
        let s = strip_source(src);
        assert!(s.contains("'a str"), "{s}");
        assert!(!s.contains('y'), "{s}");
    }

    #[test]
    fn classes_and_function_local_edges_extracted() {
        let src = "\
struct S;
impl S {
    fn build() {
        let outer = OrderedMutex::new(\"t.outer\", ());
        let inner = OrderedMutex::new(\"t.inner\", ());
    }
    fn nested(&self) {
        let _a = outer.lock();
        let _b = inner.lock();
    }
    fn separate(&self) {
        let _b = inner.lock();
    }
}
";
        let g = build_graph(vec![scan_source(Path::new("t.rs"), src)]);
        assert_eq!(g.classes.len(), 2, "{g:?}");
        assert!(g.has_edge("t.outer", "t.inner"), "{}", g.render());
        assert!(!g.has_edge("t.inner", "t.outer"), "{}", g.render());
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn wrapped_constructor_class_on_next_line() {
        // rustfmt splits long `Arc::new(OrderedMutex::new(` chains so the
        // class literal opens the following line (storage/cluster.rs form).
        let src = "\
fn mk() {
    let port_map = Arc::new(OrderedMutex::new(
        \"storage.cluster.port_map\",
        ClientPortMap::default(),
    ));
}
";
        let g = build_graph(vec![scan_source(Path::new("t.rs"), src)]);
        assert_eq!(g.classes.len(), 1, "{g:?}");
        assert_eq!(g.classes[0].class, "storage.cluster.port_map");
        assert_eq!(g.classes[0].binding.as_deref(), Some("port_map"));
        assert_eq!(g.classes[0].line, 2);
    }

    #[test]
    fn field_bindings_resolve() {
        let src = "\
struct Sinks {
    trace: OrderedMutex<Vec<u8>>,
}
fn mk() {
    let s = Sinks { trace: OrderedMutex::new(\"s.trace\", Vec::new()) };
}
fn use_it(s: &Sinks) {
    let _g = s.trace.lock();
    let _h = other.lock();
}
";
        let g = build_graph(vec![scan_source(Path::new("t.rs"), src)]);
        assert_eq!(g.classes.len(), 1);
        assert_eq!(g.classes[0].binding.as_deref(), Some("trace"));
    }

    #[test]
    fn opposite_orders_in_two_functions_form_a_cycle() {
        let src = "\
fn mk() {
    let a = OrderedMutex::new(\"c.a\", ());
    let b = OrderedMutex::new(\"c.b\", ());
}
fn one() {
    let _x = a.lock();
    let _y = b.lock();
}
fn two() {
    let _y = b.lock();
    let _x = a.lock();
}
";
        let g = build_graph(vec![scan_source(Path::new("t.rs"), src)]);
        assert!(g.has_edge("c.a", "c.b"));
        assert!(g.has_edge("c.b", "c.a"));
        let cycle = g.find_cycle().expect("cycle");
        assert_eq!(cycle.len(), 2, "{cycle:?}");
    }

    #[test]
    fn channel_sites_classified() {
        let b = concat!("let (tx, rx) = channel::", "bounded", "(cfg.depth);\n");
        let u = concat!("let (tx2, rx2) = channel::", "un", "bounded", "::<u8>(");
        let src = format!("fn f() {{\n{b}{u});\n}}\n");
        let g = build_graph(vec![scan_source(Path::new("t.rs"), &src)]);
        assert_eq!(g.channels.len(), 2, "{g:?}");
        let bounded: Vec<_> = g.channels.iter().filter(|c| c.bounded).collect();
        assert_eq!(bounded.len(), 1);
        assert_eq!(bounded[0].capacity.as_deref(), Some("cfg.depth"));
    }

    #[test]
    fn wrapped_connect_with_lane_extracted() {
        // The exact rustfmt-wrapped shape of the runtime's completion-lane
        // wiring: arguments across lines, capacity an arithmetic expression.
        let src = "\
fn wire() {
    layout.connect_with(
        workers,
        \"done_out\",
        workers,
        \"done_in\",
        Delivery::Broadcast,
        graph.len() + 16,
    );
    layout.connect_with(a, \"req\", b, \"rep\", Delivery::Direct, 32);
}
";
        let g = build_graph(vec![scan_source(Path::new("t.rs"), src)]);
        assert_eq!(g.lanes.len(), 2, "{}", g.render());
        let done = &g.lanes[0];
        assert_eq!(done.from_port, "done_out");
        assert_eq!(done.to_port, "done_in");
        assert_eq!(done.delivery, "Delivery::Broadcast");
        assert_eq!(done.capacity, "graph.len() + 16");
        assert_eq!(done.line, 2);
        assert_eq!(g.lanes[1].from_port, "req");
        assert_eq!(g.lanes[1].capacity, "32");
    }

    #[test]
    fn connect_with_definition_site_skipped() {
        // The `fn connect_with(` definition has a different argument shape
        // (&mut self + 6 params) and must not register as a lane.
        let src = "\
impl Layout {
    pub fn connect_with(
        &mut self,
        from: FilterGroup,
        from_port: &str,
        to: FilterGroup,
        to_port: &str,
        delivery: Delivery,
        capacity: usize,
    ) {
    }
}
";
        let g = build_graph(vec![scan_source(Path::new("t.rs"), src)]);
        assert!(g.lanes.is_empty(), "{}", g.render());
    }

    #[test]
    fn lock_calls_in_comments_and_strings_ignored() {
        let src = "\
fn mk() {
    let a = OrderedMutex::new(\"i.a\", ());
    let b = OrderedMutex::new(\"i.b\", ());
}
fn f() {
    // let _x = a.lock(); then b.lock() — commented out
    let _y = b.lock();
}
";
        let g = build_graph(vec![scan_source(Path::new("t.rs"), src)]);
        assert!(g.edges.is_empty(), "{}", g.render());
    }
}
