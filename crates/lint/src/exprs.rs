//! Expression/statement-level analysis: function bodies as event streams.
//!
//! [`crate::items`] deliberately skips expression bodies; this module is
//! the other half. It walks the same [`FileView`] token stream, finds
//! every function *definition* (free functions, inherent and trait
//! methods, default trait bodies, functions nested in bodies) and
//! reduces each body to the events the dataflow rules consume:
//!
//! * **calls** — path calls (`Vec::new(…)`, `kernel::m1_current(…)`),
//!   method calls (`.push(…)`, `.collect::<Vec<_>>(…)` — turbofish
//!   handled), bare calls (`helper(…)`), and macro invocations
//!   (`format!(…)`),
//! * **casts** — `expr as u32` with the numeric target type,
//! * **reductions** — `.sum::<f64>()` / `.product::<f64>()` /
//!   `.fold(0.0, …)` terminators together with the method-chain
//!   adapters walked backwards to the chain head, so a rule can ask
//!   "was this float accumulation iterated in a provable order?".
//!
//! This is still not type inference: closures belong to their enclosing
//! function, a method call resolves by name, and blocks/`for`/`while`/
//! `match` bodies are scanned as flat token ranges (their structure
//! does not move an event to a different function). Test code
//! (`#[cfg(test)]` / `#[test]`) and `macro_rules!` bodies are invisible,
//! exactly as for every other rule.

use crate::analyze::FileView;
use crate::lexer::TokenKind;

/// Numeric primitive type names an `as` cast can target.
pub const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Keywords that look like `name(` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

/// How a call site spells its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `Qualifier::name(…)` — the qualifier is the segment before the
    /// final `::` (`Vec`, `kernel`, `Self` resolved to the owner).
    Path,
    /// `.name(…)` — receiver type unknown; resolved by name.
    Method,
    /// `name(…)` with no qualifier — a free function or a closure.
    Bare,
    /// `name!(…)` — a macro invocation.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// How the callee is spelled.
    pub kind: CallKind,
    /// The path segment before the final `::` for [`CallKind::Path`]
    /// (`Self` is replaced with the enclosing impl/trait owner).
    pub qualifier: Option<String>,
    /// The callee name (method, function, or macro).
    pub name: String,
    /// 1-based line of the callee token.
    pub line: u32,
    /// 1-based column of the callee token.
    pub col: u32,
}

impl CallEvent {
    /// `Qualifier::name` when qualified, bare `name` otherwise.
    pub fn display(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `as` cast to a numeric primitive.
#[derive(Debug, Clone)]
pub struct CastEvent {
    /// The target type (`u32`, `f64`, …).
    pub target: String,
    /// 1-based line of the target-type token.
    pub line: u32,
    /// 1-based column of the target-type token.
    pub col: u32,
}

/// One floating-point reduction terminator with its backwards-walked
/// method chain.
#[derive(Debug, Clone)]
pub struct ReduceEvent {
    /// `sum`, `product` or `fold`.
    pub terminator: String,
    /// Chain names walked backwards from the terminator: adapter
    /// methods first, then the head identifier if one is visible
    /// (`[iter, results]` for `results.iter().map(…).sum::<f64>()`).
    pub chain: Vec<String>,
    /// 1-based line of the terminator token.
    pub line: u32,
    /// 1-based column of the terminator token.
    pub col: u32,
}

/// One function definition with its body reduced to events.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Enclosing impl/trait type, if any.
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Every call site in the body, in source order.
    pub calls: Vec<CallEvent>,
    /// Every numeric `as` cast in the body.
    pub casts: Vec<CastEvent>,
    /// Every float reduction terminator in the body.
    pub reduces: Vec<ReduceEvent>,
}

impl FnDef {
    /// `Owner::name` when owned, bare `name` otherwise.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Parses every non-test function definition of one source file.
pub fn parse_fns(path: &str, src: &str) -> Vec<FnDef> {
    let view = FileView::new(path, src);
    let mut walker = ExprWalker {
        view: &view,
        defs: Vec::new(),
    };
    walker.walk(0, view.code.len(), None);
    walker.defs
}

struct ExprWalker<'a, 'b> {
    view: &'b FileView<'a>,
    defs: Vec<FnDef>,
}

impl<'a, 'b> ExprWalker<'a, 'b> {
    fn text(&self, ci: usize) -> &'a str {
        self.view.ctext(ci).unwrap_or("")
    }

    fn kind(&self, ci: usize) -> Option<TokenKind> {
        self.view.ctok(ci).map(|t| t.kind)
    }

    /// Walks the code range `[start, end)` at item position, descending
    /// into `mod`/`impl`/`trait` blocks and recording `fn` definitions.
    fn walk(&mut self, start: usize, end: usize, owner: Option<&str>) {
        let mut i = start;
        while i < end {
            if self.view.is_excluded(i) || self.view.is_in_macro(i) {
                i += 1;
                continue;
            }
            if let Some((close, _)) = self.view.parse_attr(i) {
                i = close + 1;
                continue;
            }
            match self.text(i) {
                "impl" => {
                    if let Some((impl_owner, open, close)) = self.impl_header(i) {
                        self.walk(open + 1, close, impl_owner.as_deref());
                        i = close + 1;
                        continue;
                    }
                }
                "trait" => {
                    if let Some((name, open, close)) = self.named_block(i) {
                        self.walk(open + 1, close, Some(&name));
                        i = close + 1;
                        continue;
                    }
                }
                "mod" => {
                    if let Some((_, open, close)) = self.named_block(i) {
                        self.walk(open + 1, close, owner);
                        i = close + 1;
                        continue;
                    }
                }
                "fn" => {
                    if let Some(next) = self.parse_fn(i, owner) {
                        i = next;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Parses `impl [<…>] [Trait for] Type [where …] { … }`, returning
    /// the self-type name and the body braces.
    fn impl_header(&self, i: usize) -> Option<(Option<String>, usize, usize)> {
        let mut j = self.skip_generics(i + 1);
        let mut angle = 0i32;
        let mut saw_for = false;
        let mut before_for: Vec<usize> = Vec::new();
        let mut after_for: Vec<usize> = Vec::new();
        let mut open = None;
        while j < self.view.code.len() {
            match self.text(j) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "for" if angle == 0 => {
                    saw_for = true;
                    j += 1;
                    continue;
                }
                "where" if angle == 0 => {
                    while j < self.view.code.len() && self.kind(j) != Some(TokenKind::OpenBrace) {
                        j += 1;
                    }
                    open = Some(j);
                    break;
                }
                _ => {}
            }
            if self.kind(j) == Some(TokenKind::OpenBrace) && angle <= 0 {
                open = Some(j);
                break;
            }
            if saw_for {
                after_for.push(j);
            } else {
                before_for.push(j);
            }
            j += 1;
        }
        let open = open?;
        let close = self
            .view
            .matching_close(open, TokenKind::OpenBrace, TokenKind::CloseBrace)?;
        let self_type = if saw_for { &after_for } else { &before_for };
        let mut angle = 0i32;
        let mut name = None;
        for &ci in self_type {
            match self.text(ci) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                t if angle == 0
                    && self.kind(ci) == Some(TokenKind::Ident)
                    && !NON_CALL_KEYWORDS.contains(&t) =>
                {
                    name = Some(t.trim_start_matches("r#").to_string());
                }
                _ => {}
            }
        }
        Some((name, open, close))
    }

    /// `trait Name … { … }` / `mod name { … }`: the name and body braces.
    /// Returns `None` for `mod name;` declarations.
    fn named_block(&self, i: usize) -> Option<(String, usize, usize)> {
        let name = self.text(i + 1).trim_start_matches("r#").to_string();
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < self.view.code.len() {
            match self.text(j) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                ";" if angle <= 0 => return None,
                _ => {}
            }
            if self.kind(j) == Some(TokenKind::OpenBrace) && angle <= 0 {
                break;
            }
            j += 1;
        }
        let close = self
            .view
            .matching_close(j, TokenKind::OpenBrace, TokenKind::CloseBrace)?;
        Some((name, j, close))
    }

    /// Parses one `fn name …` definition starting at the `fn` keyword.
    /// Returns the code index just past it, or `None` if this `fn` token
    /// is not a definition (e.g. an `fn(…)` pointer type).
    fn parse_fn(&mut self, i: usize, owner: Option<&str>) -> Option<usize> {
        if self.kind(i + 1) != Some(TokenKind::Ident) {
            return None;
        }
        let name = self.text(i + 1).trim_start_matches("r#").to_string();
        if NON_CALL_KEYWORDS.contains(&name.as_str()) {
            return None;
        }
        let j = self.skip_generics(i + 2);
        if self.kind(j) != Some(TokenKind::OpenParen) {
            return None;
        }
        let params_close =
            self.view
                .matching_close(j, TokenKind::OpenParen, TokenKind::CloseParen)?;
        // Find the body `{` (or a `;` for bodiless trait declarations),
        // crossing the return type and where clause.
        let mut k = params_close + 1;
        let mut depth = 0i32;
        let mut angle = 0i32;
        let open = loop {
            let kind = self.kind(k)?;
            let t = self.text(k);
            match kind {
                TokenKind::OpenParen | TokenKind::OpenBracket => depth += 1,
                TokenKind::CloseParen | TokenKind::CloseBracket => depth -= 1,
                TokenKind::OpenBrace if depth == 0 && angle <= 0 => break k,
                _ => match t {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "<<" => angle += 2,
                    ">>" => angle -= 2,
                    "->" => {}
                    ";" if depth == 0 && angle <= 0 => {
                        // Declaration without a body (trait method).
                        self.record(owner, name, i);
                        return Some(k + 1);
                    }
                    _ => {}
                },
            }
            k += 1;
        };
        let close = self
            .view
            .matching_close(open, TokenKind::OpenBrace, TokenKind::CloseBrace)?;
        let def_index = self.record(owner, name, i);
        self.scan_body(open + 1, close, def_index, owner);
        Some(close + 1)
    }

    /// Pushes an empty definition record and returns its index.
    fn record(&mut self, owner: Option<&str>, name: String, i: usize) -> usize {
        let (line, col) = self.view.ctok(i).map(|t| (t.line, t.col)).unwrap_or((0, 0));
        self.defs.push(FnDef {
            owner: owner.map(str::to_string),
            name,
            line,
            col,
            calls: Vec::new(),
            casts: Vec::new(),
            reduces: Vec::new(),
        });
        self.defs.len() - 1
    }

    /// Scans a body range for events, recursing into nested `fn`/`impl`
    /// items so their events land on their own definitions.
    fn scan_body(&mut self, start: usize, end: usize, def: usize, owner: Option<&str>) {
        let mut i = start;
        while i < end {
            if self.view.is_excluded(i) || self.view.is_in_macro(i) {
                i += 1;
                continue;
            }
            let t = self.text(i);
            if t == "fn" {
                if let Some(next) = self.parse_fn(i, None) {
                    i = next;
                    continue;
                }
            }
            if t == "impl" && self.kind(i - 1) != Some(TokenKind::Op) {
                // A nested `impl Type { … }` item (return-position
                // `impl Trait` always follows an operator or `(`).
                if let Some((impl_owner, open, close)) = self.impl_header(i) {
                    self.walk(open + 1, close, impl_owner.as_deref());
                    i = close + 1;
                    continue;
                }
            }
            if t == "as" {
                if let Some(target) = self.cast_target(i) {
                    let tok = self.view.ctok(i + 1);
                    if let Some(tok) = tok {
                        self.defs[def].casts.push(CastEvent {
                            target,
                            line: tok.line,
                            col: tok.col,
                        });
                    }
                }
                i += 1;
                continue;
            }
            if self.kind(i) == Some(TokenKind::Ident) && !NON_CALL_KEYWORDS.contains(&t) {
                if let Some(event) = self.call_at(i, owner) {
                    if event.kind == CallKind::Method {
                        if let Some(reduce) = self.reduce_at(i) {
                            self.defs[def].reduces.push(reduce);
                        }
                    }
                    self.defs[def].calls.push(event);
                }
            }
            i += 1;
        }
    }

    /// The numeric target of an `as` cast at code index `i` (the `as`).
    fn cast_target(&self, i: usize) -> Option<String> {
        let t = self.text(i + 1);
        NUMERIC_TYPES.contains(&t).then(|| t.to_string())
    }

    /// Classifies the identifier at `i` as a call site, if it is one.
    fn call_at(&self, i: usize, owner: Option<&str>) -> Option<CallEvent> {
        let tok = self.view.ctok(i).copied()?;
        let name = self.text(i).trim_start_matches("r#").to_string();
        // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
        if self.text(i + 1) == "!"
            && matches!(
                self.kind(i + 2),
                Some(TokenKind::OpenParen | TokenKind::OpenBracket | TokenKind::OpenBrace)
            )
        {
            return Some(CallEvent {
                kind: CallKind::Macro,
                qualifier: None,
                name,
                line: tok.line,
                col: tok.col,
            });
        }
        // Call parenthesis, with an optional turbofish in between.
        let after = if self.text(i + 1) == "::" && self.text(i + 2) == "<" {
            self.skip_generics(i + 2)
        } else {
            i + 1
        };
        if self.kind(after) != Some(TokenKind::OpenParen) {
            return None;
        }
        let prev = if i > 0 { self.text(i - 1) } else { "" };
        let (kind, qualifier) = if prev == "." {
            // A bare-`self` receiver pins the callee to the enclosing
            // type: `self.step_slot(…)` inside `impl SrlrLink` is
            // `SrlrLink::step_slot`, not every `step_slot` in the
            // workspace.
            if i >= 2 && self.text(i - 2) == "self" && owner.is_some() {
                (CallKind::Path, owner.map(str::to_string))
            } else {
                (CallKind::Method, None)
            }
        } else if prev == "::" {
            let q = (i >= 2)
                .then(|| self.text(i - 2))
                .filter(|_| self.kind(i - 2) == Some(TokenKind::Ident))
                .map(|t| t.trim_start_matches("r#").to_string());
            let q = match (q, owner) {
                (Some(q), Some(o)) if q == "Self" => Some(o.to_string()),
                (q, _) => q,
            };
            (CallKind::Path, q)
        } else {
            (CallKind::Bare, None)
        };
        Some(CallEvent {
            kind,
            qualifier,
            name,
            line: tok.line,
            col: tok.col,
        })
    }

    /// Detects a float-reduction terminator at method-call position `i`
    /// and walks its chain backwards.
    fn reduce_at(&self, i: usize) -> Option<ReduceEvent> {
        let name = self.text(i);
        let is_float_reduce = match name {
            "sum" | "product" => {
                // `.sum::<f64>()`: the turbofish names the accumulator.
                self.text(i + 1) == "::"
                    && self.text(i + 2) == "<"
                    && (i + 2..self.skip_generics(i + 2))
                        .any(|k| matches!(self.text(k), "f64" | "f32"))
            }
            "fold" => {
                // `.fold(0.0, …)` (optionally negated seed).
                let open = i + 1;
                self.kind(open) == Some(TokenKind::OpenParen)
                    && (self.kind(open + 1) == Some(TokenKind::Float)
                        || (self.text(open + 1) == "-"
                            && self.kind(open + 2) == Some(TokenKind::Float)))
            }
            _ => false,
        };
        if !is_float_reduce {
            return None;
        }
        let tok = self.view.ctok(i).copied()?;
        Some(ReduceEvent {
            terminator: name.to_string(),
            chain: self.chain_back(i),
            line: tok.line,
            col: tok.col,
        })
    }

    /// Walks a method chain backwards from the terminator ident at `i`,
    /// collecting adapter names and, finally, the head identifier.
    fn chain_back(&self, i: usize) -> Vec<String> {
        let mut names = Vec::new();
        let mut dot = i.checked_sub(1);
        while let Some(d) = dot {
            if self.text(d) != "." {
                break;
            }
            let Some(before) = d.checked_sub(1) else {
                break;
            };
            match self.kind(before) {
                Some(TokenKind::CloseParen) => {
                    // `…adapter(…)` — find the adapter name before `(`.
                    let Some(open) =
                        self.matching_open(before, TokenKind::OpenParen, TokenKind::CloseParen)
                    else {
                        break;
                    };
                    let Some(mut name_ci) = open.checked_sub(1) else {
                        break;
                    };
                    // Cross a turbofish: `adapter::<T>(…)`.
                    if matches!(self.text(name_ci), ">" | ">>") {
                        let Some(lt) = self.matching_open_angle(name_ci) else {
                            break;
                        };
                        if lt < 2 || self.text(lt - 1) != "::" {
                            break;
                        }
                        name_ci = lt - 2;
                    }
                    if self.kind(name_ci) != Some(TokenKind::Ident) {
                        break;
                    }
                    names.push(self.text(name_ci).to_string());
                    dot = name_ci.checked_sub(1);
                    if dot.is_some_and(|k| self.text(k) != ".") {
                        // Chain head was a call: `helper().sum…` or a
                        // path call `Type::make().sum…`; the call name
                        // is already recorded.
                        break;
                    }
                }
                Some(TokenKind::Ident) => {
                    // Head identifier (or field access tail).
                    names.push(self.text(before).to_string());
                    let further = before.checked_sub(1);
                    if further.is_some_and(|k| self.text(k) == ".") {
                        dot = further;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        names
    }

    /// Finds the code index of the open delimiter matching the close
    /// delimiter at code index `close_ci`, walking backwards.
    fn matching_open(&self, close_ci: usize, open: TokenKind, close: TokenKind) -> Option<usize> {
        let mut depth = 0usize;
        for ci in (0..=close_ci).rev() {
            let kind = self.kind(ci)?;
            if kind == close {
                depth += 1;
            } else if kind == open {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(ci);
                }
            }
        }
        None
    }

    /// Finds the code index of the `<` matching the `>` at `close_ci`,
    /// walking backwards (shift tokens counted double).
    fn matching_open_angle(&self, close_ci: usize) -> Option<usize> {
        let mut depth = 0i32;
        for ci in (0..=close_ci).rev() {
            match self.text(ci) {
                ">" => depth += 1,
                ">>" => depth += 2,
                "<" => {
                    depth -= 1;
                    if depth <= 0 {
                        return Some(ci);
                    }
                }
                "<<" => {
                    depth -= 2;
                    if depth <= 0 {
                        return Some(ci);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Skips a generic list `<…>` starting at `j` (no-op otherwise).
    fn skip_generics(&self, j: usize) -> usize {
        if self.text(j) != "<" {
            return j;
        }
        let mut angle = 0i32;
        let mut k = j;
        while k < self.view.code.len() {
            match self.text(k) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                _ => {}
            }
            k += 1;
            if angle <= 0 {
                break;
            }
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defs(src: &str) -> Vec<FnDef> {
        parse_fns("test.rs", src)
    }

    fn calls_of(d: &FnDef) -> Vec<String> {
        d.calls.iter().map(CallEvent::display).collect()
    }

    #[test]
    fn free_fn_records_path_method_bare_and_macro_calls() {
        let d = defs(
            "fn work(n: usize) -> Vec<u8> {\n\
                 let mut v = Vec::new();\n\
                 v.push(1);\n\
                 helper(n);\n\
                 format!(\"{n}\");\n\
                 v\n\
             }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].display(), "work");
        let calls = calls_of(&d[0]);
        assert!(calls.contains(&"Vec::new".to_string()), "{calls:?}");
        assert!(calls.contains(&"push".to_string()));
        assert!(calls.contains(&"helper".to_string()));
        assert!(calls.contains(&"format".to_string()));
        let kinds: Vec<CallKind> = d[0].calls.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&CallKind::Path));
        assert!(kinds.contains(&CallKind::Method));
        assert!(kinds.contains(&CallKind::Bare));
        assert!(kinds.contains(&CallKind::Macro));
    }

    #[test]
    fn inherent_methods_carry_their_owner_and_resolve_self() {
        let d = defs(
            "struct B;\n\
             impl B {\n\
                 fn new() -> Self { Self::make() }\n\
                 fn make() -> Self { B }\n\
             }",
        );
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].display(), "B::new");
        assert_eq!(d[0].calls[0].qualifier.as_deref(), Some("B"));
        assert_eq!(d[0].calls[0].name, "make");
    }

    #[test]
    fn trait_impl_and_default_bodies_are_walked() {
        let d = defs(
            "trait T { fn go(&self) { helper(); } fn must(&self); }\n\
             struct S;\n\
             impl T for S { fn must(&self) { other(); } }",
        );
        let names: Vec<String> = d.iter().map(FnDef::display).collect();
        assert_eq!(names, ["T::go", "T::must", "S::must"]);
        assert_eq!(calls_of(&d[0]), ["helper"]);
        assert_eq!(calls_of(&d[2]), ["other"]);
    }

    #[test]
    fn bare_self_receiver_resolves_to_the_owner() {
        let d = defs("impl L { fn go(&mut self) { self.step(); self.inner.step(); } }");
        let c = &d[0].calls;
        assert_eq!(c[0].kind, CallKind::Path);
        assert_eq!(c[0].qualifier.as_deref(), Some("L"));
        assert_eq!(
            c[1].kind,
            CallKind::Method,
            "field receivers stay name-resolved"
        );
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let d = defs("fn f(v: Vec<u8>) -> Vec<u8> { v.iter().copied().collect::<Vec<u8>>() }");
        let calls = calls_of(&d[0]);
        assert!(calls.contains(&"collect".to_string()), "{calls:?}");
    }

    #[test]
    fn casts_record_their_numeric_target() {
        let d = defs("fn f(x: u64, y: f64) -> u32 { let _ = y as f32; x as u32 }");
        let targets: Vec<&str> = d[0].casts.iter().map(|c| c.target.as_str()).collect();
        assert_eq!(targets, ["f32", "u32"]);
    }

    #[test]
    fn non_numeric_as_is_not_a_cast() {
        let d = defs("fn f(x: &dyn std::fmt::Debug) { let _ = x as &dyn std::fmt::Debug; }");
        assert!(d[0].casts.is_empty());
    }

    #[test]
    fn sum_reduction_walks_the_chain_back() {
        let d = defs("fn f(v: &[f64]) -> f64 { v.iter().map(|x| x * 2.0).sum::<f64>() }");
        assert_eq!(d[0].reduces.len(), 1);
        let r = &d[0].reduces[0];
        assert_eq!(r.terminator, "sum");
        assert_eq!(r.chain, ["map", "iter", "v"]);
    }

    #[test]
    fn fold_with_float_seed_is_a_reduction() {
        let d = defs("fn f(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, x| a + x) }");
        assert_eq!(d[0].reduces.len(), 1);
        assert_eq!(d[0].reduces[0].terminator, "fold");
    }

    #[test]
    fn integer_sum_is_not_a_reduction() {
        let d = defs("fn f(v: &[u64]) -> u64 { v.iter().sum::<u64>() }");
        assert!(d[0].reduces.is_empty());
        let d = defs("fn f(v: &[u64]) -> u64 { v.iter().fold(0, |a, x| a + x) }");
        assert!(d[0].reduces.is_empty());
    }

    #[test]
    fn test_code_is_invisible() {
        let src = "#[cfg(test)]\nmod tests { fn t() { Vec::new(); } }\nfn real() { go(); }";
        let d = defs(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].name, "real");
    }

    #[test]
    fn fn_pointer_types_are_not_definitions() {
        let d = defs("fn apply(f: fn(u8) -> u8, x: u8) -> u8 { f(x) }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].name, "apply");
        assert_eq!(calls_of(&d[0]), ["f"]);
    }

    #[test]
    fn nested_fns_own_their_events() {
        let d = defs("fn outer() { fn inner() { deep(); } inner(); }");
        let names: Vec<String> = d.iter().map(FnDef::display).collect();
        assert_eq!(names, ["outer", "inner"]);
        assert_eq!(calls_of(&d[0]), ["inner"]);
        assert_eq!(calls_of(&d[1]), ["deep"]);
    }

    #[test]
    fn closures_belong_to_the_enclosing_fn() {
        let d = defs("fn f(v: Vec<u8>) -> Vec<u8> { v.into_iter().map(|x| bump(x)).collect() }");
        let calls = calls_of(&d[0]);
        assert!(calls.contains(&"bump".to_string()));
        assert!(calls.contains(&"collect".to_string()));
    }

    #[test]
    fn chain_back_crosses_turbofish_adapters() {
        let d = defs(
            "fn f(v: &[f64]) -> f64 { v.chunks(2).flat_map(|c| c.iter()).copied().sum::<f64>() }",
        );
        let r = &d[0].reduces[0];
        assert_eq!(r.chain, ["copied", "flat_map", "chunks", "v"]);
    }

    #[test]
    fn mod_blocks_are_descended() {
        let d = defs("mod inner { fn hidden() { go(); } }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].name, "hidden");
    }

    #[test]
    fn where_clause_and_return_types_are_crossed() {
        let d = defs(
            "fn f<T>(x: T) -> Vec<[u8; 4]> where T: Into<u64> { let _ = x.into() as u16; Vec::new() }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].casts.len(), 1);
        assert_eq!(d[0].casts[0].target, "u16");
    }
}
