//! The linter's one front end: a small recursive-descent Rust parser.
//!
//! Built directly on [`crate::lexer`] — no `syn`, no rustc internals. The
//! goal is not fidelity to the full grammar but a *recoverable* syntactic
//! skeleton: items with bodies, statements, and a Pratt-parsed expression
//! tree precise enough to flow unit types (L5), stream-id expressions (L6)
//! and key strings (L7) through function bodies. Every lint reads the one
//! [`Ast`] of a file: L1 and L4 its items, L5–L7 its expressions, and the
//! lexical lints L2 and L3 its token stream, with the test-code and
//! fn-body spans the parser records ([`Ast::in_test`],
//! [`Ast::in_fn_body`]). Anything the parser does not understand is
//! recorded as a structured [`ParseGap`] and skipped to a safe
//! synchronization point (`;` or a balanced `}`) — the parser never panics
//! and never silently drops tokens without a gap record, and a gap fails
//! the lint run.
//!
//! Test code has one rule: an item is test code when it or an enclosing
//! item carries `#[cfg(test)]`, or when it is a fn carrying `#[test]` or
//! `#[should_panic]`. `#[cfg(not(test))]` and `#[cfg(any(test, …))]` items
//! are library code.
//!
//! Deliberate simplifications (all recorded in DESIGN.md §14):
//!
//! - Patterns are opaque: a `let` pattern binds a name only when it is a
//!   plain (possibly `mut`/`ref`) identifier; destructured bindings simply
//!   stay untyped, which can only suppress findings, never invent them.
//! - Generic argument lists and type expressions are token-skipped; only
//!   the identifiers inside a type are retained (enough to spot `Joules`
//!   or `f64`).
//! - Macro invocations are parsed speculatively as expression lists; when
//!   the body is not expression-shaped (e.g. `matches!` patterns) the
//!   arguments fall back to the string literals found inside, so `format!`
//!   keys stay visible to L7 without a gap. An item-position macro's
//!   `{ … }` body is parsed speculatively as items the same way.

use crate::lexer::{lex, Lexed, Token, TokenKind};
use std::ops::Range;

/// A construct the parser could not understand at `line`; the surrounding
/// analysis degrades gracefully instead of failing.
#[derive(Debug, Clone)]
pub struct ParseGap {
    /// 1-based line of the unparsed construct.
    pub line: u32,
    /// What the parser was trying to parse (`item`, `stmt`, `expr`, …).
    pub context: &'static str,
    /// The token that stopped it.
    pub found: String,
}

/// A type reference, token-skipped but with its identifiers retained.
#[derive(Debug, Clone, Default)]
pub struct TypeRef {
    /// Identifiers appearing in the type, in source order.
    pub idents: Vec<String>,
}

impl TypeRef {
    /// The sole identifier, when the type is a plain path like `f64` or
    /// `Joules` (`&T` and `mut` wrappers stripped).
    pub fn single(&self) -> Option<&str> {
        let named: Vec<&String> = self
            .idents
            .iter()
            .filter(|i| !matches!(i.as_str(), "mut" | "dyn" | "impl"))
            .collect();
        match named.as_slice() {
            [one] => Some(one.as_str()),
            _ => None,
        }
    }
}

/// One function parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name, when the pattern is a plain identifier.
    pub name: Option<String>,
    /// Declared type, when present.
    pub ty: Option<TypeRef>,
}

/// A parsed `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the fn's name.
    pub line: u32,
    /// Whether the item is unrestricted `pub` (`pub(crate)` and
    /// `pub(super)` are not public API).
    pub is_pub: bool,
    /// Whether the item is test code (see the module docs).
    pub in_test: bool,
    /// Whether the fn is declared inside another fn's body.
    pub nested: bool,
    /// Parameters in order; a receiver (`self`, `&mut self`) is an entry
    /// with neither name nor type.
    pub params: Vec<Param>,
    /// Return type, when present.
    pub ret: Option<TypeRef>,
    /// Body block; `None` for trait method signatures.
    pub body: Option<Block>,
}

/// A parsed `const` or `static` item.
#[derive(Debug)]
pub struct ConstItem {
    /// Item name.
    pub name: String,
    /// 1-based line of the item's name.
    pub line: u32,
    /// Whether the item is a `static` rather than a `const`.
    pub is_static: bool,
    /// Whether the item is test code (see the module docs).
    pub in_test: bool,
    /// Declared type.
    pub ty: Option<TypeRef>,
    /// Initializer expression.
    pub init: Option<Expr>,
}

/// A parsed `use` declaration, flattened: `use a::b::{c, d as e}` yields
/// leaves `["c", "e"]` under prefix `["a", "b"]`.
#[derive(Debug)]
pub struct UseItem {
    /// Path segments before any brace group.
    pub prefix: Vec<String>,
    /// Final imported names (aliases applied; `*` recorded verbatim).
    pub leaves: Vec<String>,
    /// 1-based line.
    pub line: u32,
}

/// One top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// A function with (optionally) its body.
    Fn(FnItem),
    /// A `const` or `static`.
    Const(ConstItem),
    /// An inline module with its items.
    Mod {
        /// Module name.
        name: String,
        /// Contained items.
        items: Vec<Item>,
    },
    /// An `impl` or `trait` block's items (the self type is not resolved),
    /// or the items of an item-position macro whose body parses as items.
    ImplLike {
        /// Contained items.
        items: Vec<Item>,
    },
    /// A `use` declaration.
    Use(UseItem),
    /// A `struct` with named fields (tuple and unit structs are `Other`).
    Struct {
        /// Struct name.
        name: String,
        /// `(field name, declared type)` pairs.
        fields: Vec<(String, TypeRef)>,
    },
    /// Any other item (enum/type/macro_rules/extern), skipped.
    Other,
}

/// A `{ … }` block.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Trailing expression present (last stmt without `;`).
    pub line: u32,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let [mut] name[: ty] = init;` — name is `None` for destructuring.
    Let {
        /// Binding name for plain-identifier patterns.
        name: Option<String>,
        /// Declared type, when annotated.
        ty: Option<TypeRef>,
        /// Initializer.
        init: Option<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// An expression statement (with or without `;`).
    Expr(Expr),
    /// A nested item (fn/const/…), parsed like any other.
    Item(Item),
}

/// Binary operators L5 cares about; everything else is `Opaque`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` or `-` (dimension-preserving, operands must agree).
    AddSub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `==ieq`, `!=`, `<`, `>`, `<=`, `>=` (operands must agree).
    Cmp,
    /// Anything else (`%`, shifts, bitwise, logical).
    Opaque,
}

/// An expression tree node. Lines point at the operator or head token.
#[derive(Debug)]
pub enum Expr {
    /// Numeric literal.
    Num {
        /// Literal text.
        text: String,
        /// 1-based line.
        line: u32,
    },
    /// String/char literal.
    Str {
        /// Raw literal text (quotes included).
        text: String,
        /// 1-based line.
        line: u32,
    },
    /// A (possibly qualified) path such as `x`, `Joules::new`, `u64::MAX`.
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// 1-based line.
        line: u32,
    },
    /// Unary `-`, `!` or `*`.
    Unary {
        /// The operand.
        expr: Box<Expr>,
    },
    /// `lhs op rhs`.
    Binary {
        /// Operator class.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// 1-based line of the operator.
        line: u32,
    },
    /// `lhs = rhs` or `lhs op= rhs`.
    Assign {
        /// Assignment target.
        lhs: Box<Expr>,
        /// Compound operator class, when `op=`.
        op: Option<BinOp>,
        /// Assigned value.
        rhs: Box<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `callee(args…)`.
    Call {
        /// The called expression (usually a `Path`).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `recv.name(args…)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `recv.name` or `recv.0`.
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name or tuple index.
        name: String,
        /// 1-based line.
        line: u32,
    },
    /// `recv[index]`.
    Index {
        /// Receiver.
        recv: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `expr as Ty`.
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// Target type.
        ty: TypeRef,
    },
    /// `path { fields… }` struct literal (field values kept, names not).
    StructLit {
        /// Struct path segments.
        segs: Vec<String>,
        /// Field value expressions.
        fields: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// Tuple or array literal.
    Seq {
        /// Element expressions.
        elems: Vec<Expr>,
    },
    /// A block expression (also bodies of `loop`/`unsafe`).
    Block(Block),
    /// `if cond { … } else …` (also `if let` — pattern opaque).
    If {
        /// Condition (for `if let`, the matched expression).
        cond: Box<Expr>,
        /// Then block.
        then: Block,
        /// Else branch.
        else_: Option<Box<Expr>>,
    },
    /// `match scrutinee { arms… }` — patterns opaque, guards skipped.
    Match {
        /// Matched expression.
        scrutinee: Box<Expr>,
        /// Arm body expressions.
        arms: Vec<Expr>,
    },
    /// `while`/`while let`/`for … in`/`loop` — bodies kept, the loop
    /// header expression (condition or iterator) kept when present.
    Loop {
        /// Condition or iterator expression.
        head: Option<Box<Expr>>,
        /// Loop body.
        body: Block,
    },
    /// `|params| body` closure.
    Closure {
        /// Parameters (names only; types when annotated).
        params: Vec<Param>,
        /// Closure body.
        body: Box<Expr>,
    },
    /// `path!(args…)` macro invocation, speculatively parsed.
    Macro {
        /// Macro path segments (without the `!`).
        segs: Vec<String>,
        /// Arguments when the body parsed as an expression list, else the
        /// string literals found inside.
        args: Vec<Expr>,
        /// 1-based line.
        line: u32,
    },
    /// `expr?`, `&expr`, ranges, `return`/`break` values — wrappers that
    /// forward their operand.
    Wrap {
        /// The wrapped operand.
        expr: Box<Expr>,
    },
    /// A placeholder for something unparsed (gap already recorded) or
    /// valueless (`return;`, `continue`).
    Opaque {
        /// 1-based line.
        line: u32,
    },
}

impl Expr {
    /// The 1-based line most representative of this expression.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Num { line, .. }
            | Expr::Str { line, .. }
            | Expr::Path { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Opaque { line } => *line,
            Expr::Unary { expr } | Expr::Wrap { expr } | Expr::Cast { expr, .. } => expr.line(),
            Expr::Index { recv, .. } => recv.line(),
            Expr::Seq { elems } => elems.first().map_or(0, Expr::line),
            Expr::Block(b) => b.line,
            Expr::If { cond, .. } => cond.line(),
            Expr::Match { scrutinee, .. } => scrutinee.line(),
            Expr::Loop { body, .. } => body.line,
            Expr::Closure { body, .. } => body.line(),
        }
    }
}

/// A parsed file: the item tree plus the lexer side tables and any gaps.
#[derive(Debug)]
pub struct Ast {
    /// Top-level items.
    pub items: Vec<Item>,
    /// Constructs the parser could not understand.
    pub gaps: Vec<ParseGap>,
    /// The underlying lex: the token stream the spans index, doc lines and
    /// allow markers.
    pub lexed: Lexed,
    /// Token spans of the outermost test-code items, attributes included,
    /// in source order (so sorted and disjoint, as [`covers`] needs).
    test_spans: Vec<Range<usize>>,
    /// Token spans of the outermost fn bodies, braces included, in source
    /// order.
    fn_bodies: Vec<Range<usize>>,
}

/// Whether one of `spans` (sorted, disjoint) contains token `i`.
fn covers(spans: &[Range<usize>], i: usize) -> bool {
    let k = spans.partition_point(|s| s.end <= i);
    spans.get(k).is_some_and(|s| s.contains(&i))
}

impl Ast {
    /// Whether token `i` lies in test code.
    pub fn in_test(&self, i: usize) -> bool {
        covers(&self.test_spans, i)
    }

    /// Whether token `i` lies in a fn body.
    pub fn in_fn_body(&self, i: usize) -> bool {
        covers(&self.fn_bodies, i)
    }

    /// Indices of the tokens outside attributes (`#[…]`, `#![…]`), in
    /// source order: the code the lexical lints read.
    pub fn code_tokens(&self) -> impl Iterator<Item = usize> + '_ {
        let toks = &self.lexed.tokens;
        let mut i = 0;
        std::iter::from_fn(move || loop {
            let t = toks.get(i)?;
            i += 1;
            if t.is_punct('#') {
                let open = i + usize::from(toks.get(i).is_some_and(|n| n.is_punct('!')));
                if toks.get(open).is_some_and(|n| n.is_punct('[')) {
                    i = balanced_end(toks, open);
                    continue;
                }
            }
            return Some(i - 1);
        })
    }

    /// Walks every function item (at any nesting depth) in source order.
    pub fn for_each_fn(&self, f: &mut impl FnMut(&FnItem)) {
        fn walk(items: &[Item], f: &mut impl FnMut(&FnItem)) {
            for item in items {
                match item {
                    Item::Fn(func) => {
                        f(func);
                        if let Some(body) = &func.body {
                            walk_block(body, f);
                        }
                    }
                    Item::Mod { items, .. } | Item::ImplLike { items } => walk(items, f),
                    _ => {}
                }
            }
        }
        fn walk_block(b: &Block, f: &mut impl FnMut(&FnItem)) {
            for s in &b.stmts {
                if let Stmt::Item(Item::Fn(func)) = s {
                    f(func);
                    if let Some(body) = &func.body {
                        walk_block(body, f);
                    }
                }
            }
        }
        walk(&self.items, f);
    }

    /// Walks every const/static item (at any nesting depth) in source order.
    pub fn for_each_const(&self, f: &mut impl FnMut(&ConstItem)) {
        fn walk(items: &[Item], f: &mut impl FnMut(&ConstItem)) {
            for item in items {
                match item {
                    Item::Const(c) => f(c),
                    Item::Mod { items, .. } | Item::ImplLike { items } => walk(items, f),
                    _ => {}
                }
            }
        }
        walk(&self.items, f);
    }

    /// Walks every named-field struct (at any nesting depth).
    pub fn for_each_struct(&self, f: &mut impl FnMut(&str, &[(String, TypeRef)])) {
        fn walk(items: &[Item], f: &mut impl FnMut(&str, &[(String, TypeRef)])) {
            for item in items {
                match item {
                    Item::Struct { name, fields } => f(name, fields),
                    Item::Mod { items, .. } | Item::ImplLike { items } => walk(items, f),
                    _ => {}
                }
            }
        }
        walk(&self.items, f);
    }

    /// Walks every `use` declaration (at any nesting depth).
    pub fn for_each_use(&self, f: &mut impl FnMut(&UseItem)) {
        fn walk(items: &[Item], f: &mut impl FnMut(&UseItem)) {
            for item in items {
                match item {
                    Item::Use(u) => f(u),
                    Item::Mod { items, .. } | Item::ImplLike { items } => walk(items, f),
                    _ => {}
                }
            }
        }
        walk(&self.items, f);
    }
}

/// Visits every expression nested in `block`'s statements (including the
/// expressions of nested items' bodies is the caller's concern — nested
/// `fn` items are *not* descended into, mirroring `for_each_fn`).
pub fn walk_block_exprs(block: &Block, f: &mut impl FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    walk_exprs(e, f);
                }
            }
            Stmt::Expr(e) => walk_exprs(e, f),
            Stmt::Item(_) => {}
        }
    }
}

/// Recursively visits `expr` and every sub-expression, parents first.
pub fn walk_exprs(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    match expr {
        Expr::Num { .. } | Expr::Str { .. } | Expr::Path { .. } | Expr::Opaque { .. } => {}
        Expr::Unary { expr } | Expr::Wrap { expr } | Expr::Cast { expr, .. } => {
            walk_exprs(expr, f);
        }
        Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
            walk_exprs(lhs, f);
            walk_exprs(rhs, f);
        }
        Expr::Call { callee, args, .. } => {
            walk_exprs(callee, f);
            for a in args {
                walk_exprs(a, f);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_exprs(recv, f);
            for a in args {
                walk_exprs(a, f);
            }
        }
        Expr::Field { recv, .. } => walk_exprs(recv, f),
        Expr::Index { recv, index } => {
            walk_exprs(recv, f);
            walk_exprs(index, f);
        }
        Expr::StructLit { fields, .. } => {
            for e in fields {
                walk_exprs(e, f);
            }
        }
        Expr::Seq { elems } => {
            for e in elems {
                walk_exprs(e, f);
            }
        }
        Expr::Block(b) => walk_block_exprs(b, f),
        Expr::If { cond, then, else_ } => {
            walk_exprs(cond, f);
            walk_block_exprs(then, f);
            if let Some(e) = else_ {
                walk_exprs(e, f);
            }
        }
        Expr::Match { scrutinee, arms } => {
            walk_exprs(scrutinee, f);
            for a in arms {
                walk_exprs(a, f);
            }
        }
        Expr::Loop { head, body } => {
            if let Some(h) = head {
                walk_exprs(h, f);
            }
            walk_block_exprs(body, f);
        }
        Expr::Closure { body, .. } => walk_exprs(body, f),
        Expr::Macro { args, .. } => {
            for a in args {
                walk_exprs(a, f);
            }
        }
    }
}

/// Parses `src` into an [`Ast`]. Never panics; unknown constructs become
/// [`ParseGap`]s.
pub fn parse(src: &str) -> Ast {
    let lexed = lex(src);
    let mut p = Parser {
        toks: &lexed.tokens,
        i: 0,
        gaps: Vec::new(),
        no_struct: 0,
        in_test: false,
        in_body: false,
        test_spans: Vec::new(),
        fn_bodies: Vec::new(),
    };
    let items = p.parse_items(None);
    let (gaps, test_spans, fn_bodies) = (p.gaps, p.test_spans, p.fn_bodies);
    Ast {
        items,
        gaps,
        lexed,
        test_spans,
        fn_bodies,
    }
}

/// The one test-code rule, for one outer attribute's tokens (brackets
/// excluded): `#[cfg(test)]` marks any item, and `#[test]` or
/// `#[should_panic…]` a fn, as test code. `cfg(not(test))` and
/// `cfg(any(test, …))` do not.
fn is_test_attr(attr: &[Token]) -> bool {
    let text: Vec<&str> = attr.iter().map(|t| t.text.as_str()).collect();
    matches!(
        text.as_slice(),
        ["cfg", "(", "test", ")"] | ["test"] | ["should_panic", ..]
    )
}

/// Index just past the group that opens at `toks[open]` (`(`, `[` or `{`),
/// counting only that bracket kind; the end of input when it never closes.
fn balanced_end(toks: &[Token], open: usize) -> usize {
    let Some(opener) = toks.get(open) else {
        return open;
    };
    let (open_c, close_c) = match opener.text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return open + 1,
    };
    let mut depth = 0u32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    toks.len()
}

struct Parser<'a> {
    toks: &'a [Token],
    i: usize,
    gaps: Vec<ParseGap>,
    /// Depth counter: while > 0, `path {` is not a struct literal (we are
    /// in an `if`/`while`/`match`/`for` header).
    no_struct: u32,
    /// Whether the item being parsed is test code.
    in_test: bool,
    /// Whether the parser is inside a fn body.
    in_body: bool,
    /// The test-code spans recorded so far.
    test_spans: Vec<Range<usize>>,
    /// The fn-body spans recorded so far.
    fn_bodies: Vec<Range<usize>>,
}

const EOF_LINE: u32 = 0;

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.i)
    }

    fn peek_at(&self, n: usize) -> Option<&'a Token> {
        self.toks.get(self.i + n)
    }

    fn line(&self) -> u32 {
        self.peek().map_or(EOF_LINE, |t| t.line)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.i);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek().is_some_and(|t| t.is_punct(c))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(s))
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.at_punct(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// Two adjacent punct tokens forming `ab`? (The lexer emits single
    /// chars; valid Rust never separates compound operators.)
    fn at_punct2(&self, a: char, b: char) -> bool {
        self.at_punct(a) && self.peek_at(1).is_some_and(|t| t.is_punct(b))
    }

    fn gap(&mut self, context: &'static str) {
        let found = self
            .peek()
            .map_or_else(|| "<eof>".to_string(), |t| t.text.clone());
        self.gaps.push(ParseGap {
            line: self.line(),
            context,
            found,
        });
    }

    /// Skips one balanced group assuming the opener is the current token.
    fn skip_balanced(&mut self) {
        self.i = balanced_end(self.toks, self.i);
    }

    /// Recovery: skip to the next `;` or balanced `}` at the current depth.
    fn recover_stmt(&mut self) {
        while let Some(t) = self.peek() {
            if t.is_punct(';') {
                self.i += 1;
                return;
            }
            if t.is_punct('}') {
                return; // caller's block close
            }
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                self.skip_balanced();
            } else {
                self.i += 1;
            }
        }
    }

    /// Skips outer attributes `#[…]` and inner attributes `#![…]`,
    /// returning whether an outer one marks test code ([`is_test_attr`]).
    fn skip_attrs(&mut self) -> bool {
        let mut test = false;
        while self.at_punct('#') {
            let start = self.i;
            self.i += 1;
            let inner = self.eat_punct('!');
            if !self.at_punct('[') {
                self.i = start;
                break;
            }
            let open = self.i;
            self.skip_balanced();
            let body = self.toks.get(open + 1..self.i - 1).unwrap_or_default();
            test |= !inner && is_test_attr(body);
        }
        test
    }

    /// Skips a `<…>` generic group if present (handles nesting).
    fn skip_generics(&mut self) {
        if !self.at_punct('<') {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            } else if t.is_punct('-') && self.peek_at(1).is_some_and(|n| n.is_punct('>')) {
                // `->` inside an `Fn(…) -> R` bound: consume both.
                self.i += 1;
            } else if t.is_punct(';') || t.is_punct('{') {
                return; // malformed; bail before eating a body
            }
            self.i += 1;
        }
    }

    /// Token-skips a type, collecting identifiers, until a terminator at
    /// depth 0 (one of `terms`, `{`, or `;`).
    fn parse_type(&mut self, terms: &[char]) -> TypeRef {
        let mut ty = TypeRef::default();
        let mut angle = 0i32;
        let mut paren = 0i32;
        while let Some(t) = self.peek() {
            if angle == 0 && paren == 0 {
                if t.kind == TokenKind::Punct {
                    let c = t.text.chars().next().unwrap_or(' ');
                    if terms.contains(&c) || c == '{' || c == '}' || c == ';' {
                        break;
                    }
                }
                if t.is_ident("where") {
                    break;
                }
            }
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "(" | "[" => paren += 1,
                ")" | "]" => {
                    if paren == 0 {
                        break;
                    }
                    paren -= 1;
                }
                "-" if self.peek_at(1).is_some_and(|n| n.is_punct('>')) => {
                    self.i += 2;
                    continue;
                }
                _ => {}
            }
            if t.kind == TokenKind::Ident {
                ty.idents.push(t.text.clone());
            }
            self.i += 1;
        }
        ty
    }

    // ----- items ---------------------------------------------------------

    /// Parses items until EOF (top level) or a closing `}`.
    fn parse_items(&mut self, close: Option<char>) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if let Some(c) = close {
                if self.at_punct(c) {
                    self.i += 1;
                    return items;
                }
            }
            if self.peek().is_none() {
                return items;
            }
            let before = self.i;
            match self.parse_item() {
                Some(item) => items.push(item),
                None => {
                    // Unknown item: record and resynchronize.
                    self.gap("item");
                    self.recover_item();
                }
            }
            if self.i == before {
                // A stray close brace (or other recovery dead-end) at a
                // level that has no closer: force progress, never spin.
                self.i += 1;
            }
        }
    }

    /// Recovery at item level: skip to after the next `;` or balanced
    /// `{}`, or stop (after at least one token) at a likely item start so
    /// garbage before an item does not swallow the item itself.
    fn recover_item(&mut self) {
        let start = self.i;
        while let Some(t) = self.peek() {
            if self.i > start
                && matches!(
                    t.text.as_str(),
                    "pub" | "fn" | "struct" | "enum" | "impl" | "mod" | "use" | "trait"
                )
            {
                return;
            }
            if t.is_punct(';') {
                self.i += 1;
                return;
            }
            if t.is_punct('{') {
                self.skip_balanced();
                return;
            }
            if t.is_punct('}') {
                return;
            }
            if t.is_punct('(') || t.is_punct('[') {
                self.skip_balanced();
            } else {
                self.i += 1;
            }
        }
    }

    /// Parses one item with its attributes, recording its span when it is
    /// the outermost test-code item.
    fn parse_item(&mut self) -> Option<Item> {
        let start = self.i;
        let outer = self.in_test;
        self.in_test |= self.skip_attrs();
        let item = self.parse_unattributed_item();
        if self.in_test && !outer {
            self.test_spans.push(start..self.i);
        }
        self.in_test = outer;
        item
    }

    fn parse_unattributed_item(&mut self) -> Option<Item> {
        let mut is_pub = false;
        if self.eat_ident("pub") {
            // `pub(crate)`, `pub(super)`, … are not public API.
            is_pub = !self.at_punct('(');
            if !is_pub {
                self.skip_balanced();
            }
        }
        // Leading qualifiers.
        let mut is_unsafe = false;
        loop {
            if self.eat_ident("unsafe") {
                is_unsafe = true;
            } else if self.at_ident("default") && self.peek_at(1).is_some_and(|t| t.is_ident("fn"))
            {
                self.i += 1;
            } else if self.at_ident("const")
                && self
                    .peek_at(1)
                    .is_some_and(|t| t.is_ident("fn") || t.is_ident("unsafe"))
            {
                self.i += 1; // `const fn`
            } else if self.at_ident("async") || self.at_ident("extern") && is_unsafe {
                self.i += 1;
            } else {
                break;
            }
        }
        let t = self.peek()?;
        match t.text.as_str() {
            "fn" => self.parse_fn(is_pub).map(Item::Fn),
            "const" | "static" => self.parse_const().map(Item::Const),
            "mod" => self.parse_mod(),
            "use" => Some(self.parse_use()),
            "impl" | "trait" => self.parse_impl_like(),
            "struct" => Some(self.parse_struct()),
            "enum" | "union" => {
                self.i += 1;
                self.recover_item();
                Some(Item::Other)
            }
            "type" => {
                // Skipped as a type up to its `;`: item recovery would stop
                // at the `fn` of a `type F = fn(…) -> R;` pointer alias.
                self.i += 1;
                self.parse_type(&[]);
                if !self.eat_punct(';') {
                    self.recover_item();
                }
                Some(Item::Other)
            }
            "macro_rules" => {
                self.i += 1;
                self.eat_punct('!');
                if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) {
                    self.i += 1;
                }
                if self.at_punct('{') || self.at_punct('(') || self.at_punct('[') {
                    self.skip_balanced();
                }
                self.eat_punct(';');
                Some(Item::Other)
            }
            "extern" => {
                self.i += 1;
                self.recover_item();
                Some(Item::Other)
            }
            _ => {
                // Item-position macro invocation (`proptest! { … }`,
                // `relate! { … }`): an ident (path) followed by `!` and a
                // balanced body.
                if t.kind == TokenKind::Ident {
                    let mut j = self.i + 1;
                    while self.toks.get(j).is_some_and(|n| n.is_punct(':'))
                        && self.toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                        && self
                            .toks
                            .get(j + 2)
                            .is_some_and(|n| n.kind == TokenKind::Ident)
                    {
                        j += 3;
                    }
                    if self.toks.get(j).is_some_and(|n| n.is_punct('!')) {
                        self.i = j + 1;
                        let item = if self.at_punct('{') {
                            self.parse_macro_items()
                        } else {
                            if self.at_punct('(') || self.at_punct('[') {
                                self.skip_balanced();
                            }
                            Item::Other
                        };
                        self.eat_punct(';');
                        return Some(item);
                    }
                }
                None
            }
        }
    }

    /// Parses an item-position macro's `{ … }` body as items when it is
    /// item-shaped (`proptest! { #[test] fn … }`), so its fns are test code
    /// and fn bodies like any other; any other body is consumed opaquely,
    /// leaving no gap or span behind.
    fn parse_macro_items(&mut self) -> Item {
        let end = balanced_end(self.toks, self.i);
        let mark = self.mark();
        self.i += 1;
        let items = self.parse_items(Some('}'));
        if self.gaps.len() > mark[0] || self.i != end {
            self.roll_back(mark);
            self.i = end;
            return Item::Other;
        }
        Item::ImplLike { items }
    }

    /// How many gaps and spans are recorded, for [`Self::roll_back`].
    fn mark(&self) -> [usize; 3] {
        [self.gaps.len(), self.test_spans.len(), self.fn_bodies.len()]
    }

    /// Drops the gaps and spans a failed speculative parse recorded.
    fn roll_back(&mut self, mark: [usize; 3]) {
        self.gaps.truncate(mark[0]);
        self.test_spans.truncate(mark[1]);
        self.fn_bodies.truncate(mark[2]);
    }

    fn parse_fn(&mut self, is_pub: bool) -> Option<FnItem> {
        debug_assert!(self.at_ident("fn"));
        self.i += 1;
        let name_tok = self.peek()?;
        if name_tok.kind != TokenKind::Ident {
            return None;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        self.i += 1;
        self.skip_generics();
        if !self.at_punct('(') {
            return None;
        }
        let params = self.parse_params();
        let mut ret = None;
        if self.at_punct('-') && self.peek_at(1).is_some_and(|t| t.is_punct('>')) {
            self.i += 2;
            ret = Some(self.parse_type(&[]));
        }
        if self.eat_ident("where") {
            // Skip the where clause up to the body or `;`.
            let _ = self.parse_type(&[]);
        }
        let nested = self.in_body;
        let body = if self.at_punct('{') {
            let open = self.i;
            self.in_body = true;
            let body = self.parse_block();
            self.in_body = nested;
            if !nested {
                self.fn_bodies.push(open..self.i);
            }
            Some(body)
        } else {
            self.eat_punct(';');
            None
        };
        Some(FnItem {
            name,
            line,
            is_pub,
            in_test: self.in_test,
            nested,
            params,
            ret,
            body,
        })
    }

    /// Parses `( pattern: Type, … )`; receiver `self` forms keep no name or
    /// type.
    fn parse_params(&mut self) -> Vec<Param> {
        let mut params = Vec::new();
        debug_assert!(self.at_punct('('));
        self.i += 1;
        loop {
            if self.eat_punct(')') || self.peek().is_none() {
                return params;
            }
            self.skip_attrs();
            // Pattern side: plain ident (after mut/ref) binds a name.
            let mut name = None;
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                if depth == 0 && (t.is_punct(':') || t.is_punct(',') || t.is_punct(')')) {
                    break;
                }
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    _ => {}
                }
                if t.kind == TokenKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "self")
                {
                    name = Some(t.text.clone());
                } else if !matches!(t.text.as_str(), "mut" | "ref" | "self" | "&" | "_") {
                    name = None; // destructuring pattern
                }
                self.i += 1;
            }
            let ty = if self.eat_punct(':') {
                Some(self.parse_type(&[',', ')']))
            } else {
                None
            };
            if ty.is_none() {
                name = None; // `self`, `&mut self`
            }
            params.push(Param { name, ty });
            if !self.eat_punct(',') && self.eat_punct(')') {
                return params;
            }
        }
    }

    fn parse_const(&mut self) -> Option<ConstItem> {
        let is_static = self.at_ident("static");
        self.i += 1; // const | static
        self.eat_ident("mut");
        if self.at_punct('_') {
            // `const _: () = …`
            self.recover_stmt();
            return Some(ConstItem {
                name: "_".into(),
                line: self.line(),
                is_static,
                in_test: self.in_test,
                ty: None,
                init: None,
            });
        }
        let name_tok = self.peek()?;
        if name_tok.kind != TokenKind::Ident {
            return None;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        self.i += 1;
        let ty = if self.eat_punct(':') {
            Some(self.parse_type(&['=']))
        } else {
            None
        };
        let init = if self.eat_punct('=') {
            Some(self.parse_expr())
        } else {
            None
        };
        self.eat_punct(';');
        Some(ConstItem {
            name,
            line,
            is_static,
            in_test: self.in_test,
            ty,
            init,
        })
    }

    /// Parses `struct Name { field: Type, … }`; tuple/unit structs become
    /// [`Item::Other`].
    fn parse_struct(&mut self) -> Item {
        self.i += 1; // struct
        let Some(name_tok) = self.peek() else {
            return Item::Other;
        };
        if name_tok.kind != TokenKind::Ident {
            self.recover_item();
            return Item::Other;
        }
        let name = name_tok.text.clone();
        self.i += 1;
        self.skip_generics();
        if self.eat_ident("where") {
            let _ = self.parse_type(&[]);
        }
        if !self.at_punct('{') {
            // Tuple or unit struct.
            self.recover_item();
            return Item::Other;
        }
        self.i += 1;
        let mut fields = Vec::new();
        loop {
            if self.eat_punct('}') || self.peek().is_none() {
                break;
            }
            self.skip_attrs();
            if self.eat_ident("pub") && self.at_punct('(') {
                self.skip_balanced();
            }
            let Some(t) = self.peek() else { break };
            if t.kind != TokenKind::Ident {
                self.recover_item();
                break;
            }
            let field = t.text.clone();
            self.i += 1;
            if !self.eat_punct(':') {
                self.recover_item();
                break;
            }
            let ty = self.parse_type(&[',']);
            fields.push((field, ty));
            if !self.eat_punct(',') {
                self.eat_punct('}');
                break;
            }
        }
        Item::Struct { name, fields }
    }

    fn parse_mod(&mut self) -> Option<Item> {
        self.i += 1; // mod
        let name = self.bump().map(|t| t.text.clone())?;
        if self.eat_punct(';') {
            return Some(Item::Other); // out-of-line module
        }
        if !self.eat_punct('{') {
            return None;
        }
        let items = self.parse_items(Some('}'));
        Some(Item::Mod { name, items })
    }

    fn parse_use(&mut self) -> Item {
        let line = self.line();
        self.i += 1; // use
        let mut prefix = Vec::new();
        let mut leaves = Vec::new();
        // Walk `a::b::…` until `{`, `;` or `*`.
        loop {
            match self.peek() {
                Some(t) if t.kind == TokenKind::Ident => {
                    let seg = t.text.clone();
                    self.i += 1;
                    if self.at_punct2(':', ':') {
                        self.i += 2;
                        prefix.push(seg);
                    } else if self.eat_ident("as") {
                        if let Some(alias) = self.bump() {
                            leaves.push(alias.text.clone());
                        }
                        break;
                    } else {
                        leaves.push(seg);
                        break;
                    }
                }
                Some(t) if t.is_punct('{') => {
                    self.i += 1;
                    let mut depth = 1u32;
                    let mut last: Option<String> = None;
                    while let Some(t) = self.bump() {
                        if t.is_punct('{') {
                            depth += 1;
                        } else if t.is_punct('}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        } else if t.is_punct(',') && depth == 1 {
                            leaves.extend(last.take());
                        } else if t.kind == TokenKind::Ident && t.text != "as" && t.text != "self" {
                            last = Some(t.text.clone());
                        } else if t.is_punct('*') {
                            last = Some("*".into());
                        }
                    }
                    leaves.extend(last);
                    break;
                }
                Some(t) if t.is_punct('*') => {
                    self.i += 1;
                    leaves.push("*".into());
                    break;
                }
                _ => break,
            }
        }
        self.eat_punct(';');
        Item::Use(UseItem {
            prefix,
            leaves,
            line,
        })
    }

    fn parse_impl_like(&mut self) -> Option<Item> {
        self.i += 1; // impl | trait
        self.skip_generics();
        // Skip the type / trait-for-type header up to the body.
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            if angle == 0 && (t.is_punct('{') || t.is_punct(';')) {
                break;
            }
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "-" if self.peek_at(1).is_some_and(|n| n.is_punct('>')) => {
                    self.i += 1;
                }
                _ => {}
            }
            self.i += 1;
        }
        if self.eat_punct(';') {
            return Some(Item::Other);
        }
        if !self.eat_punct('{') {
            return None;
        }
        let items = self.parse_items(Some('}'));
        Some(Item::ImplLike { items })
    }

    // ----- statements and blocks -----------------------------------------

    fn parse_block(&mut self) -> Block {
        let line = self.line();
        let mut block = Block {
            stmts: Vec::new(),
            line,
        };
        if !self.eat_punct('{') {
            return block;
        }
        loop {
            if self.eat_punct('}') || self.peek().is_none() {
                return block;
            }
            if self.eat_punct(';') {
                continue;
            }
            let before = self.i;
            if let Some(stmt) = self.parse_stmt() {
                block.stmts.push(stmt);
            } else {
                if self.i == before {
                    self.gap("stmt");
                    self.recover_stmt();
                }
                if self.i == before {
                    self.i += 1; // last-resort forward progress
                }
            }
        }
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        // Items can appear in statement position.
        if self
            .peek()
            .is_some_and(|t| matches!(t.text.as_str(), "fn" | "struct" | "enum" | "impl" | "mod"))
            || self.at_punct('#') && self.peek_at(1).is_some_and(|t| t.is_punct('['))
            || self.at_ident("use")
            || (self.at_ident("const")
                && self
                    .peek_at(1)
                    .is_some_and(|t| t.kind == TokenKind::Ident && t.text != "fn"))
            || self.at_ident("static")
        {
            return self.parse_item().map(Stmt::Item);
        }
        if self.at_ident("let") {
            return self.parse_let();
        }
        let expr = self.parse_expr();
        self.eat_punct(';');
        Some(Stmt::Expr(expr))
    }

    fn parse_let(&mut self) -> Option<Stmt> {
        let line = self.line();
        self.i += 1; // let
                     // Pattern: plain ident (after mut/ref) binds; anything else opaque.
        let mut name = None;
        let mut plain = true;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if self.at_punct2(':', ':') {
                // Path segment (`let StepResult::Ran { .. } = …`), not the
                // type annotation — skip both colons as one unit.
                self.i += 2;
                plain = false;
                name = None;
                continue;
            }
            if depth == 0
                && (t.is_punct(':') || t.is_punct('=') || t.is_punct(';') || t.is_punct('}'))
            {
                break;
            }
            match t.text.as_str() {
                // Braces nest: struct patterns (`let Foo { a: b } = …`)
                // carry both braces and colons that must not end the skip.
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            if t.kind == TokenKind::Ident {
                if matches!(t.text.as_str(), "mut" | "ref") {
                    // qualifier
                } else if name.is_none() && plain {
                    name = Some(t.text.clone());
                } else {
                    plain = false;
                    name = None;
                }
            } else if !t.is_punct('_') {
                plain = false;
                name = None;
            }
            self.i += 1;
        }
        let ty = if self.eat_punct(':') {
            Some(self.parse_type(&['=']))
        } else {
            None
        };
        let init = if self.eat_punct('=') {
            Some(self.parse_expr())
        } else {
            None
        };
        // `let … else { … }` diverging fallback.
        if self.at_ident("else") {
            self.i += 1;
            if self.at_punct('{') {
                self.skip_balanced();
            }
        }
        self.eat_punct(';');
        Some(Stmt::Let {
            name,
            ty,
            init,
            line,
        })
    }

    // ----- expressions ----------------------------------------------------

    /// Full expression, including assignment.
    pub(crate) fn parse_expr(&mut self) -> Expr {
        let lhs = self.parse_range();
        // Assignment / compound assignment: `=`, `+=`, `-=` …
        if let Some(t) = self.peek() {
            if t.kind == TokenKind::Punct {
                let c = t.text.chars().next().unwrap_or(' ');
                let next_eq = self.peek_at(1).is_some_and(|n| n.is_punct('='));
                let next2_eq = self.peek_at(2).is_some_and(|n| n.is_punct('='));
                if c == '=' && !next_eq && !self.at_punct2('=', '>') {
                    let line = t.line;
                    self.i += 1;
                    let rhs = self.parse_expr();
                    return Expr::Assign {
                        lhs: Box::new(lhs),
                        op: None,
                        rhs: Box::new(rhs),
                        line,
                    };
                }
                let compound = match c {
                    '+' | '-' if next_eq => Some(BinOp::AddSub),
                    '*' if next_eq => Some(BinOp::Mul),
                    '/' if next_eq => Some(BinOp::Div),
                    '%' | '^' | '|' | '&' if next_eq => Some(BinOp::Opaque),
                    '<' | '>' if self.at_punct2(c, c) && next2_eq => {
                        // `<<=` / `>>=`
                        self.i += 1;
                        Some(BinOp::Opaque)
                    }
                    _ => None,
                };
                if let Some(op) = compound {
                    let line = t.line;
                    self.i += 2;
                    let rhs = self.parse_expr();
                    return Expr::Assign {
                        lhs: Box::new(lhs),
                        op: Some(op),
                        rhs: Box::new(rhs),
                        line,
                    };
                }
            }
        }
        lhs
    }

    fn parse_range(&mut self) -> Expr {
        // Leading `..`/`..=`.
        if self.at_punct2('.', '.') {
            self.i += 2;
            self.eat_punct('=');
            if self.range_operand_follows() {
                let hi = self.parse_or();
                return Expr::Wrap { expr: Box::new(hi) };
            }
            return Expr::Opaque { line: self.line() };
        }
        let lo = self.parse_or();
        if self.at_punct2('.', '.') && !self.peek_at(2).is_some_and(|t| t.is_punct('.')) {
            self.i += 2;
            self.eat_punct('=');
            if self.range_operand_follows() {
                let hi = self.parse_or();
                return Expr::Seq {
                    elems: vec![lo, hi],
                };
            }
            return Expr::Wrap { expr: Box::new(lo) };
        }
        lo
    }

    fn range_operand_follows(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => match t.kind {
                TokenKind::Punct => matches!(t.text.as_str(), "(" | "-" | "!" | "*" | "&" | "["),
                TokenKind::Ident => !matches!(t.text.as_str(), "if" | "else" | "in"),
                _ => true,
            },
        }
    }

    fn parse_or(&mut self) -> Expr {
        let mut lhs = self.parse_and();
        while self.at_punct2('|', '|') {
            let line = self.line();
            self.i += 2;
            let rhs = self.parse_and();
            lhs = Expr::Binary {
                op: BinOp::Opaque,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_and(&mut self) -> Expr {
        let mut lhs = self.parse_cmp();
        while self.at_punct2('&', '&')
            && !self
                .peek_at(2)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            let line = self.line();
            self.i += 2;
            let rhs = self.parse_cmp();
            lhs = Expr::Binary {
                op: BinOp::Opaque,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_cmp(&mut self) -> Expr {
        let lhs = self.parse_bitor();
        let Some(t) = self.peek() else { return lhs };
        if t.kind != TokenKind::Punct {
            return lhs;
        }
        let line = t.line;
        let c = t.text.chars().next().unwrap_or(' ');
        let next_eq = self.peek_at(1).is_some_and(|n| n.is_punct('='));
        let matched = match c {
            '=' if next_eq => {
                self.i += 2;
                true
            }
            '!' if next_eq => {
                self.i += 2;
                true
            }
            '<' | '>' if !self.at_punct2(c, c) => {
                self.i += 1;
                self.eat_punct('=');
                true
            }
            _ => false,
        };
        if !matched {
            return lhs;
        }
        let rhs = self.parse_bitor();
        Expr::Binary {
            op: BinOp::Cmp,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            line,
        }
    }

    fn parse_bitor(&mut self) -> Expr {
        let mut lhs = self.parse_bitxor();
        while self.at_punct('|') && !self.at_punct2('|', '|') && !self.at_punct2('|', '=') {
            let line = self.line();
            self.i += 1;
            let rhs = self.parse_bitxor();
            lhs = Expr::Binary {
                op: BinOp::Opaque,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_bitxor(&mut self) -> Expr {
        let mut lhs = self.parse_bitand();
        while self.at_punct('^') && !self.at_punct2('^', '=') {
            let line = self.line();
            self.i += 1;
            let rhs = self.parse_bitand();
            lhs = Expr::Binary {
                op: BinOp::Opaque,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_bitand(&mut self) -> Expr {
        let mut lhs = self.parse_shift();
        while self.at_punct('&') && !self.at_punct2('&', '&') && !self.at_punct2('&', '=') {
            let line = self.line();
            self.i += 1;
            let rhs = self.parse_shift();
            lhs = Expr::Binary {
                op: BinOp::Opaque,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_shift(&mut self) -> Expr {
        let mut lhs = self.parse_addsub();
        while (self.at_punct2('<', '<') || self.at_punct2('>', '>'))
            && !self.peek_at(2).is_some_and(|t| t.is_punct('='))
        {
            let line = self.line();
            self.i += 2;
            let rhs = self.parse_addsub();
            lhs = Expr::Binary {
                op: BinOp::Opaque,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_addsub(&mut self) -> Expr {
        let mut lhs = self.parse_muldiv();
        loop {
            let Some(t) = self.peek() else { return lhs };
            let is_add = t.is_punct('+');
            let is_sub = t.is_punct('-') && !self.at_punct2('-', '>');
            if (!is_add && !is_sub) || self.peek_at(1).is_some_and(|n| n.is_punct('=')) {
                return lhs;
            }
            let line = t.line;
            self.i += 1;
            let rhs = self.parse_muldiv();
            lhs = Expr::Binary {
                op: BinOp::AddSub,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
    }

    fn parse_muldiv(&mut self) -> Expr {
        let mut lhs = self.parse_cast();
        loop {
            let Some(t) = self.peek() else { return lhs };
            let op = if t.is_punct('*') {
                BinOp::Mul
            } else if t.is_punct('/') {
                BinOp::Div
            } else if t.is_punct('%') {
                BinOp::Opaque
            } else {
                return lhs;
            };
            if self.peek_at(1).is_some_and(|n| n.is_punct('=')) {
                return lhs;
            }
            let line = t.line;
            self.i += 1;
            let rhs = self.parse_cast();
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
    }

    fn parse_cast(&mut self) -> Expr {
        let mut expr = self.parse_unary();
        while self.at_ident("as") {
            self.i += 1;
            // Reference / raw-pointer casts: the sigils that would end a
            // *trailing* type position are valid *leading* here
            // (`as &dyn Trait`, `as *const u8`) — consume them first.
            while self.at_punct('&') {
                self.i += 1;
                self.eat_punct('&');
                self.eat_ident("mut");
            }
            if self.at_punct('*')
                && self
                    .peek_at(1)
                    .is_some_and(|t| t.is_ident("const") || t.is_ident("mut"))
            {
                self.i += 2;
            }
            self.eat_ident("dyn");
            let ty = self.parse_type(&[
                ',', ';', ')', ']', '}', '+', '-', '*', '/', '%', '<', '>', '=', '?', '.', '&',
                '|', '^',
            ]);
            expr = Expr::Cast {
                expr: Box::new(expr),
                ty,
            };
        }
        expr
    }

    fn parse_unary(&mut self) -> Expr {
        let Some(t) = self.peek() else {
            return Expr::Opaque { line: EOF_LINE };
        };
        if t.is_punct('-') || t.is_punct('!') {
            self.i += 1;
            let expr = self.parse_unary();
            return Expr::Unary {
                expr: Box::new(expr),
            };
        }
        if t.is_punct('*') {
            self.i += 1;
            let expr = self.parse_unary();
            return Expr::Unary {
                expr: Box::new(expr),
            };
        }
        if t.is_punct('&') {
            self.i += 1;
            self.eat_punct('&');
            self.eat_ident("mut");
            let expr = self.parse_unary();
            return Expr::Wrap {
                expr: Box::new(expr),
            };
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Expr {
        let mut expr = self.parse_primary();
        loop {
            if self.at_punct('?') {
                self.i += 1;
                expr = Expr::Wrap {
                    expr: Box::new(expr),
                };
            } else if self.at_punct('.') && !self.at_punct2('.', '.') {
                let line = self.line();
                self.i += 1;
                if self.eat_ident("await") {
                    expr = Expr::Wrap {
                        expr: Box::new(expr),
                    };
                    continue;
                }
                let Some(name_tok) = self.peek() else {
                    return expr;
                };
                if name_tok.kind == TokenKind::Num {
                    // Tuple index `.0`; the lexer may glue `0.0` in `x.0.0`.
                    let name = name_tok.text.clone();
                    self.i += 1;
                    for part in name.split('.') {
                        expr = Expr::Field {
                            recv: Box::new(expr),
                            name: part.to_string(),
                            line,
                        };
                    }
                    continue;
                }
                if name_tok.kind != TokenKind::Ident {
                    self.gap("field");
                    return expr;
                }
                let name = name_tok.text.clone();
                self.i += 1;
                if self.at_punct2(':', ':') {
                    // Turbofish: `.collect::<Vec<_>>()`.
                    self.i += 2;
                    self.skip_generics();
                }
                if self.at_punct('(') {
                    let args = self.parse_args();
                    expr = Expr::MethodCall {
                        recv: Box::new(expr),
                        name,
                        args,
                        line,
                    };
                } else {
                    expr = Expr::Field {
                        recv: Box::new(expr),
                        name,
                        line,
                    };
                }
            } else if self.at_punct('(') {
                let line = self.line();
                let args = self.parse_args();
                expr = Expr::Call {
                    callee: Box::new(expr),
                    args,
                    line,
                };
            } else if self.at_punct('[') {
                self.i += 1;
                let saved = self.no_struct;
                self.no_struct = 0;
                let index = self.parse_expr();
                self.no_struct = saved;
                self.eat_punct(']');
                expr = Expr::Index {
                    recv: Box::new(expr),
                    index: Box::new(index),
                };
            } else {
                return expr;
            }
        }
    }

    /// Parses a `( … )` argument list (the opener is the current token).
    fn parse_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        self.i += 1; // (
        let saved = self.no_struct;
        self.no_struct = 0;
        loop {
            if self.eat_punct(')') || self.peek().is_none() {
                self.no_struct = saved;
                return args;
            }
            args.push(self.parse_expr());
            if !self.eat_punct(',') {
                if !self.eat_punct(')') {
                    self.gap("args");
                    self.recover_stmt();
                }
                self.no_struct = saved;
                return args;
            }
        }
    }

    fn parse_primary(&mut self) -> Expr {
        let Some(t) = self.peek() else {
            return Expr::Opaque { line: EOF_LINE };
        };
        let line = t.line;
        match t.kind {
            TokenKind::Num => {
                self.i += 1;
                Expr::Num {
                    text: t.text.clone(),
                    line,
                }
            }
            TokenKind::Literal => {
                self.i += 1;
                Expr::Str {
                    text: t.text.clone(),
                    line,
                }
            }
            TokenKind::Lifetime => {
                // Labeled loop/block: `'outer: loop { … }`.
                self.i += 1;
                self.eat_punct(':');
                self.parse_primary()
            }
            TokenKind::Punct => match t.text.as_str() {
                "(" => {
                    self.i += 1;
                    let saved = self.no_struct;
                    self.no_struct = 0;
                    let mut elems = Vec::new();
                    let mut tuple = false;
                    loop {
                        if self.eat_punct(')') || self.peek().is_none() {
                            break;
                        }
                        elems.push(self.parse_expr());
                        if self.eat_punct(',') {
                            tuple = true;
                        } else {
                            if !self.eat_punct(')') {
                                self.gap("paren");
                                self.recover_stmt();
                            }
                            break;
                        }
                    }
                    self.no_struct = saved;
                    if !tuple && elems.len() == 1 {
                        elems.pop().unwrap_or(Expr::Opaque { line })
                    } else {
                        Expr::Seq { elems }
                    }
                }
                "[" => {
                    self.i += 1;
                    let saved = self.no_struct;
                    self.no_struct = 0;
                    let mut elems = Vec::new();
                    loop {
                        if self.eat_punct(']') || self.peek().is_none() {
                            break;
                        }
                        elems.push(self.parse_expr());
                        if self.eat_punct(';') {
                            // `[elem; N]` repeat
                            elems.push(self.parse_expr());
                            self.eat_punct(']');
                            break;
                        }
                        if !self.eat_punct(',') {
                            self.eat_punct(']');
                            break;
                        }
                    }
                    self.no_struct = saved;
                    Expr::Seq { elems }
                }
                "{" => Expr::Block(self.parse_block()),
                "|" => self.parse_closure(),
                "#" => {
                    // Expression attribute (`#[allow] expr` in stmt position).
                    self.i += 1;
                    if self.at_punct('[') {
                        self.skip_balanced();
                    }
                    self.parse_primary()
                }
                "<" => {
                    // Qualified path `<T as Trait>::f` — skip the qualifier.
                    self.skip_generics();
                    if self.at_punct2(':', ':') {
                        self.i += 2;
                    }
                    self.parse_postfix_path(line)
                }
                _ => {
                    self.gap("expr");
                    self.i += 1;
                    Expr::Opaque { line }
                }
            },
            TokenKind::Ident => match t.text.as_str() {
                "if" => self.parse_if(),
                "match" => self.parse_match(),
                "while" => {
                    self.i += 1;
                    let head = self.parse_loop_head();
                    let body = self.parse_block();
                    Expr::Loop { head, body }
                }
                "loop" => {
                    self.i += 1;
                    let body = self.parse_block();
                    Expr::Loop { head: None, body }
                }
                "for" => {
                    self.i += 1;
                    // Skip the pattern up to `in` at depth 0.
                    let mut depth = 0i32;
                    while let Some(t) = self.peek() {
                        if depth == 0 && t.is_ident("in") {
                            break;
                        }
                        match t.text.as_str() {
                            // A brace before `in` starts a struct pattern
                            // (`for Foo { x } in …`) — nest, don't bail.
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "}" if depth > 0 => depth -= 1,
                            "}" | ";" => break,
                            _ => {}
                        }
                        self.i += 1;
                    }
                    let head = if self.eat_ident("in") {
                        self.no_struct += 1;
                        let e = self.parse_expr();
                        self.no_struct -= 1;
                        Some(Box::new(e))
                    } else {
                        None
                    };
                    let body = self.parse_block();
                    Expr::Loop { head, body }
                }
                "unsafe" => {
                    self.i += 1;
                    Expr::Block(self.parse_block())
                }
                "return" | "break" => {
                    self.i += 1;
                    if self.peek().is_some_and(|t| {
                        !t.is_punct(';') && !t.is_punct('}') && !t.is_punct(')') && !t.is_punct(',')
                    }) {
                        if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                            self.i += 1; // break 'label
                        }
                        if self.peek().is_some_and(|t| {
                            !t.is_punct(';') && !t.is_punct('}') && !t.is_punct(')')
                        }) {
                            let expr = self.parse_expr();
                            return Expr::Wrap {
                                expr: Box::new(expr),
                            };
                        }
                    }
                    Expr::Opaque { line }
                }
                "continue" => {
                    self.i += 1;
                    if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                        self.i += 1;
                    }
                    Expr::Opaque { line }
                }
                "move" => {
                    self.i += 1;
                    if self.at_punct('|') || self.at_punct2('|', '|') {
                        self.parse_closure()
                    } else {
                        self.parse_primary()
                    }
                }
                "let" => {
                    // `let PAT = expr` in a condition: skip the pattern.
                    // Braces nest (struct patterns); a brace would only sit
                    // at depth 0 here if the `=` is missing entirely.
                    self.i += 1;
                    let mut depth = 0i32;
                    while let Some(t) = self.peek() {
                        if depth == 0 && t.is_punct('=') && !self.at_punct2('=', '=') {
                            break;
                        }
                        match t.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "}" if depth > 0 => depth -= 1,
                            "}" | ";" => break,
                            _ => {}
                        }
                        self.i += 1;
                    }
                    if self.eat_punct('=') {
                        let expr = self.parse_or();
                        Expr::Wrap {
                            expr: Box::new(expr),
                        }
                    } else {
                        Expr::Opaque { line }
                    }
                }
                _ => self.parse_postfix_path(line),
            },
        }
    }

    /// Parses a path (`a::b::c`, with optional turbofish) then decides
    /// between a macro call, struct literal or plain path.
    fn parse_postfix_path(&mut self, line: u32) -> Expr {
        let mut segs = Vec::new();
        while let Some(t) = self.peek() {
            if t.kind != TokenKind::Ident {
                break;
            }
            segs.push(t.text.clone());
            self.i += 1;
            if self.at_punct2(':', ':') {
                self.i += 2;
                if self.at_punct('<') {
                    self.skip_generics(); // turbofish
                    if self.at_punct2(':', ':') {
                        self.i += 2;
                        continue;
                    }
                    break;
                }
                continue;
            }
            break;
        }
        if segs.is_empty() {
            self.gap("path");
            self.i += 1;
            return Expr::Opaque { line };
        }
        if self.at_punct('!') && !self.at_punct2('!', '=') {
            self.i += 1;
            return self.parse_macro_call(segs, line);
        }
        if self.at_punct('{') && self.no_struct == 0 {
            let last = segs.last().map(String::as_str).unwrap_or("");
            let struct_like =
                last.chars().next().is_some_and(|c| c.is_ascii_uppercase()) || last == "self";
            if struct_like {
                return self.parse_struct_lit(segs, line);
            }
        }
        Expr::Path { segs, line }
    }

    fn parse_struct_lit(&mut self, segs: Vec<String>, line: u32) -> Expr {
        self.i += 1; // {
        let saved = self.no_struct;
        self.no_struct = 0;
        let mut fields = Vec::new();
        loop {
            if self.eat_punct('}') || self.peek().is_none() {
                break;
            }
            if self.at_punct2('.', '.') {
                self.i += 2;
                if !self.at_punct('}') {
                    fields.push(self.parse_expr()); // ..base
                }
                continue;
            }
            // `name: value` or shorthand `name`.
            let Some(name_tok) = self.peek() else { break };
            if name_tok.kind != TokenKind::Ident {
                self.gap("struct-lit");
                self.recover_stmt();
                break;
            }
            let field_line = name_tok.line;
            let name = name_tok.text.clone();
            self.i += 1;
            if self.eat_punct(':') {
                fields.push(self.parse_expr());
            } else {
                fields.push(Expr::Path {
                    segs: vec![name],
                    line: field_line,
                });
            }
            if !self.eat_punct(',') {
                self.eat_punct('}');
                break;
            }
        }
        self.no_struct = saved;
        Expr::StructLit { segs, fields, line }
    }

    /// Speculatively parses macro arguments as an expression list; on
    /// failure falls back to the string literals inside the body.
    fn parse_macro_call(&mut self, segs: Vec<String>, line: u32) -> Expr {
        let Some(open) = self.peek() else {
            return Expr::Macro {
                segs,
                args: Vec::new(),
                line,
            };
        };
        let close = match open.text.as_str() {
            "(" => ')',
            "[" => ']',
            "{" => '}',
            _ => {
                return Expr::Macro {
                    segs,
                    args: Vec::new(),
                    line,
                }
            }
        };
        let start = self.i;
        // Find the end of the balanced body first (for fallback + resync).
        self.skip_balanced();
        let end = self.i;
        // Attempt: re-parse the interior as `expr, expr, …`.
        let mark = self.mark();
        self.i = start + 1;
        let mut args = Vec::new();
        let mut ok = true;
        let saved = self.no_struct;
        self.no_struct = 0;
        loop {
            if self.i >= end.saturating_sub(1) {
                break;
            }
            args.push(self.parse_expr());
            if self.i >= end.saturating_sub(1) {
                break;
            }
            if !self.eat_punct(',') {
                ok = false;
                break;
            }
        }
        self.no_struct = saved;
        if !ok || self.gaps.len() > mark[0] || self.i > end.saturating_sub(1) {
            // Not expression-shaped: keep only the string literals.
            self.roll_back(mark);
            args = self.toks[start..end]
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .map(|t| Expr::Str {
                    text: t.text.clone(),
                    line: t.line,
                })
                .collect();
        }
        self.i = end;
        let _ = close;
        Expr::Macro { segs, args, line }
    }

    fn parse_closure(&mut self) -> Expr {
        let mut params = Vec::new();
        if self.at_punct2('|', '|') {
            self.i += 2;
        } else {
            self.i += 1; // |
            loop {
                if self.eat_punct('|') || self.peek().is_none() {
                    break;
                }
                self.eat_ident("mut");
                self.eat_ident("ref");
                let name = match self.peek() {
                    Some(t) if t.kind == TokenKind::Ident => {
                        let n = t.text.clone();
                        self.i += 1;
                        Some(n)
                    }
                    _ => {
                        // Destructuring closure param: skip to `,` or `|`.
                        let mut depth = 0i32;
                        while let Some(t) = self.peek() {
                            if depth == 0 && (t.is_punct(',') || t.is_punct('|')) {
                                break;
                            }
                            match t.text.as_str() {
                                "(" | "[" => depth += 1,
                                ")" | "]" => depth -= 1,
                                _ => {}
                            }
                            self.i += 1;
                        }
                        None
                    }
                };
                let ty = if self.eat_punct(':') {
                    Some(self.parse_type(&[',', '|']))
                } else {
                    None
                };
                params.push(Param { name, ty });
                if !self.eat_punct(',') {
                    self.eat_punct('|');
                    break;
                }
            }
        }
        if self.at_punct('-') && self.peek_at(1).is_some_and(|t| t.is_punct('>')) {
            self.i += 2;
            let _ = self.parse_type(&[]);
        }
        let body = self.parse_expr();
        Expr::Closure {
            params,
            body: Box::new(body),
        }
    }

    fn parse_if(&mut self) -> Expr {
        self.i += 1; // if
        self.no_struct += 1;
        let cond = self.parse_expr();
        self.no_struct -= 1;
        let then = self.parse_block();
        let else_ = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.parse_if()))
            } else {
                Some(Box::new(Expr::Block(self.parse_block())))
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then,
            else_,
        }
    }

    fn parse_loop_head(&mut self) -> Option<Box<Expr>> {
        self.no_struct += 1;
        let e = self.parse_expr();
        self.no_struct -= 1;
        Some(Box::new(e))
    }

    fn parse_match(&mut self) -> Expr {
        self.i += 1; // match
        self.no_struct += 1;
        let scrutinee = self.parse_expr();
        self.no_struct -= 1;
        let mut arms = Vec::new();
        if self.eat_punct('{') {
            loop {
                if self.eat_punct('}') || self.peek().is_none() {
                    break;
                }
                self.skip_attrs();
                // Skip the pattern (and any guard) to `=>` at depth 0.
                let mut depth = 0i32;
                while let Some(t) = self.peek() {
                    if depth == 0 && self.at_punct2('=', '>') {
                        break;
                    }
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "}" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        _ => {}
                    }
                    self.i += 1;
                }
                if !self.at_punct2('=', '>') {
                    break;
                }
                self.i += 2;
                arms.push(self.parse_expr());
                self.eat_punct(',');
            }
        }
        Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_clean(src: &str) -> Ast {
        let ast = parse(src);
        assert!(ast.gaps.is_empty(), "gaps: {:?}", ast.gaps);
        ast
    }

    #[test]
    fn fn_with_params_and_body() {
        let ast = parse_clean("pub fn f(a: Joules, b: f64) -> Watts { a.value() + b }\n");
        let mut seen = 0;
        ast.for_each_fn(&mut |f| {
            seen += 1;
            assert_eq!(f.name, "f");
            assert!(f.is_pub);
            assert_eq!(f.params.len(), 2);
            assert_eq!(f.params[0].name.as_deref(), Some("a"));
            assert_eq!(
                f.params[0].ty.as_ref().and_then(TypeRef::single),
                Some("Joules")
            );
            assert_eq!(f.ret.as_ref().and_then(TypeRef::single), Some("Watts"));
            assert_eq!(f.body.as_ref().map(|b| b.stmts.len()), Some(1));
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn precedence_builds_the_right_tree() {
        let ast = parse_clean("fn f() { let x = a + b * c; }\n");
        ast.for_each_fn(&mut |f| {
            let body = f.body.as_ref().unwrap();
            let Stmt::Let { init: Some(e), .. } = &body.stmts[0] else {
                panic!("expected let");
            };
            let Expr::Binary {
                op: BinOp::AddSub,
                rhs,
                ..
            } = e
            else {
                panic!("expected + at the root, got {e:?}");
            };
            assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
        });
    }

    #[test]
    fn method_chains_and_fields() {
        let ast = parse_clean("fn f() { let y = x.energy().value(); let z = q.0; }\n");
        ast.for_each_fn(&mut |f| {
            let body = f.body.as_ref().unwrap();
            assert_eq!(body.stmts.len(), 2);
            let Stmt::Let {
                init: Some(Expr::MethodCall { name, recv, .. }),
                ..
            } = &body.stmts[0]
            else {
                panic!("expected method call");
            };
            assert_eq!(name, "value");
            assert!(matches!(**recv, Expr::MethodCall { .. }));
            let Stmt::Let {
                init: Some(Expr::Field { name, .. }),
                ..
            } = &body.stmts[1]
            else {
                panic!("expected field access");
            };
            assert_eq!(name, "0");
        });
    }

    #[test]
    fn if_while_for_match_and_closures_parse() {
        parse_clean(
            "fn f(v: Vec<u64>) -> u64 {\n\
             let mut acc = 0;\n\
             for x in v.iter().map(|i| i + 1) { acc += x; }\n\
             while acc > 10 { acc -= 1; }\n\
             if let Some(y) = v.first() { acc += *y; } else { acc = 0; }\n\
             match acc { 0 => 1, n if n > 5 => n, _ => 2 }\n\
             }\n",
        );
    }

    #[test]
    fn struct_literals_do_not_eat_blocks() {
        let ast = parse_clean(
            "fn f() -> P { if x { P { a: 1 } } else { P { a: 2 } } }\n\
             fn g() -> P { P { a: 1, ..Default::default() } }\n",
        );
        let mut names = Vec::new();
        ast.for_each_fn(&mut |f| names.push(f.name.clone()));
        assert_eq!(names, ["f", "g"]);
    }

    #[test]
    fn macro_args_parse_as_exprs_with_string_capture() {
        let ast = parse_clean("fn f() { m.inc(format!(\"power.rail.{}.uj\", name)); }\n");
        let mut found = false;
        ast.for_each_fn(&mut |f| {
            let Stmt::Expr(Expr::MethodCall { args, .. }) = &f.body.as_ref().unwrap().stmts[0]
            else {
                panic!("expected method call");
            };
            let Expr::Macro { segs, args, .. } = &args[0] else {
                panic!("expected macro arg");
            };
            assert_eq!(segs, &["format"]);
            assert!(matches!(&args[0], Expr::Str { text, .. } if text.contains("power.rail")));
            found = true;
        });
        assert!(found);
    }

    #[test]
    fn non_expr_macros_fall_back_to_literals() {
        parse_clean("fn f() { let b = matches!(x, Some(_) | None); }\n");
    }

    #[test]
    fn consts_keep_their_initializers() {
        let ast = parse_clean("pub const SINK_STREAM: u64 = u64::MAX - 1;\n");
        let mut seen = false;
        ast.for_each_const(&mut |c| {
            assert_eq!(c.name, "SINK_STREAM");
            assert!(matches!(
                c.init,
                Some(Expr::Binary {
                    op: BinOp::AddSub,
                    ..
                })
            ));
            seen = true;
        });
        assert!(seen);
    }

    #[test]
    fn use_trees_flatten() {
        let ast =
            parse("use picocube_telemetry::keys::{RADIO_TX_PACKETS, NODE_WAKES};\nuse a::b::c;\n");
        let mut uses = Vec::new();
        ast.for_each_use(&mut |u| uses.push((u.prefix.clone(), u.leaves.clone())));
        assert_eq!(uses.len(), 2);
        assert_eq!(
            uses[0].1,
            vec!["RADIO_TX_PACKETS".to_string(), "NODE_WAKES".to_string()]
        );
        assert_eq!(uses[1].1, vec!["c".to_string()]);
    }

    #[test]
    fn type_aliases_of_fn_pointers_parse() {
        let ast = parse_clean(
            "type Horizon = fn(&Stack) -> Option<SimTime>;\n\
             trait T { type Out: Clone; }\n\
             fn after() {}\n",
        );
        let mut names = Vec::new();
        ast.for_each_fn(&mut |f| names.push(f.name.clone()));
        assert_eq!(names, vec!["after".to_string()]);
    }

    #[test]
    fn unknown_constructs_become_gaps_not_panics() {
        let ast = parse("fn f() { yield 3; }\n@@@\n");
        assert!(!ast.gaps.is_empty());
    }

    #[test]
    fn cfg_test_modules_mark_their_fns() {
        let ast = parse_clean(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(true); }\n}\n\
             fn lib_fn() {}\n",
        );
        let mut flags = Vec::new();
        ast.for_each_fn(&mut |f| flags.push((f.name.clone(), f.in_test)));
        assert_eq!(
            flags,
            vec![("t".to_string(), true), ("lib_fn".to_string(), false)]
        );
    }

    #[test]
    fn one_test_code_rule() {
        let ast = parse_clean(
            "#[test]\nfn a() { fn inner() {} }\n\
             #[should_panic(expected = \"x\")]\nfn b() {}\n\
             #[cfg(test)]\nfn c() {}\n\
             #[cfg(not(test))]\nfn d() {}\n\
             #[cfg(any(test, feature = \"x\"))]\nfn e() {}\n\
             #[cfg(doctest)]\nfn f() {}\n\
             #[inline]\nfn g() {}\n",
        );
        let mut test_fns = Vec::new();
        ast.for_each_fn(&mut |f| {
            if f.in_test {
                test_fns.push(f.name.clone());
            }
        });
        assert_eq!(test_fns, ["a", "inner", "b", "c"]);
    }

    #[test]
    fn spans_mark_test_code_and_fn_bodies() {
        let ast = parse_clean(
            "fn f() { a }\n#[test]\nfn t() { b }\nconst C: u8 = c;\n\
             #[cfg(test)]\nmod m { const D: u8 = d; }\n",
        );
        let at = |name: &str| {
            let i = ast
                .lexed
                .tokens
                .iter()
                .position(|t| t.is_ident(name))
                .unwrap();
            (ast.in_test(i), ast.in_fn_body(i))
        };
        assert_eq!(at("a"), (false, true));
        assert_eq!(at("b"), (true, true));
        assert_eq!(at("c"), (false, false));
        assert_eq!(at("d"), (true, false));
        assert_eq!(at("f"), (false, false), "a signature is not its body");
    }

    #[test]
    fn item_shaped_macro_bodies_parse_as_items() {
        let ast = parse_clean(
            "proptest! {\n    #![proptest_config(ProptestConfig::with_cases(4))]\n    \
             #[test]\n    fn p(x in 0u8..4, v in prop::collection::vec(0u8..2, 1..3)) { a }\n}\n\
             relate! { Volts * Amps = Watts }\nfn f() { b }\n",
        );
        let mut fns = Vec::new();
        ast.for_each_fn(&mut |f| fns.push((f.name.clone(), f.in_test)));
        assert_eq!(fns, [("p".to_string(), true), ("f".to_string(), false)]);
        let at = |name: &str| {
            let i = ast
                .lexed
                .tokens
                .iter()
                .position(|t| t.is_ident(name))
                .unwrap();
            (ast.in_test(i), ast.in_fn_body(i))
        };
        assert_eq!(at("a"), (true, true));
        assert_eq!(
            at("Amps"),
            (false, false),
            "a body that is not items stays opaque"
        );
        assert_eq!(at("b"), (false, true));
    }

    #[test]
    fn code_tokens_skip_attributes() {
        let ast = parse_clean("#![allow(x)]\n#[derive(Debug)]\nstruct S { a: [u8; 2] }\n");
        let code: Vec<&str> = ast
            .code_tokens()
            .map(|i| ast.lexed.tokens[i].text.as_str())
            .collect();
        assert_eq!(code.first(), Some(&"struct"));
        assert!(!code.contains(&"derive") && !code.contains(&"allow"));
    }

    #[test]
    fn generics_turbofish_and_qualified_paths() {
        parse_clean(
            "fn f<T: Into<f64>>(x: T) -> Vec<f64> {\n\
             let v = Vec::<f64>::new();\n\
             let y = <u64 as Default>::default();\n\
             v.iter().copied().collect::<Vec<_>>()\n\
             }\n",
        );
    }

    #[test]
    fn impl_blocks_nest() {
        let ast = parse_clean(
            "struct S;\nimpl S {\n    pub fn m(&self) -> f64 { 1.0 }\n}\n\
             impl Default for S { fn default() -> Self { S } }\n",
        );
        let mut names = Vec::new();
        ast.for_each_fn(&mut |f| names.push(f.name.clone()));
        assert_eq!(names, ["m", "default"]);
    }
}
