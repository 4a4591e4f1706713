//! Seeded random P4R program generator for the differential fuzz harness.
//!
//! [`generate`] produces a structured [`GenProgram`] — declarations, one
//! reaction signature, and the reaction body as a list of statements — so
//! the fuzz runner can minimize a failing program with generic ddmin over
//! the statement list and re-[`render`](GenProgram::render) each candidate.
//!
//! The generator deliberately concentrates on the value-domain and
//! control-flow corners the differential tests probe:
//!
//! * widths from 1 to 64 bits, constants at and beyond width boundaries
//!   (wrap-around), negative literals, `__cast_{u,i}N` truncations;
//! * division/modulo with non-constant divisors (division-by-zero paths);
//! * register-array reads with occasionally out-of-bounds indices;
//! * `static` state, nested `if`/`while`/`for`, loops that only terminate
//!   via the engines' step limit;
//! * narrowing stores: a value wider than an 8- or 16-bit local or static
//!   stored into it, then published;
//! * malleable reads/writes and the interpreted table-method convention
//!   (`addEntry`/`size`/`setDefault`);
//! * with small probability, an undeclared identifier — the program must
//!   then be *rejected with a spanned diagnostic*, never panic.
//!
//! Everything is a pure function of the seed (SplitMix64), so a corpus
//! campaign is reproducible from `results/fuzz.json` alone.

/// SplitMix64: tiny, seedable, no external dependency. Good enough
/// dispersion for program-shape choices; NOT cryptographic.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// Uniform pick from a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        let i = self.below(xs.len() as u64) as usize;
        &xs[i]
    }
}

/// Generator knobs.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Upper bound on top-level statements in the reaction body.
    pub max_stmts: usize,
    /// Percent chance that a program references an undeclared identifier
    /// (exercising the typechecker's spanned-rejection path).
    pub invalid_pct: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_stmts: 10,
            invalid_pct: 6,
        }
    }
}

/// A generated program in ddmin-friendly parts: `render()` re-assembles
/// source from any subset of `body`, so statement-level minimization is
/// "drop lines, recompile, re-run".
#[derive(Clone, Debug)]
pub struct GenProgram {
    pub seed: u64,
    /// Header/register/malleable/action/table declarations, in order.
    pub decls: Vec<String>,
    /// `reaction fz(<args>)` argument list.
    pub reaction_args: String,
    /// Reaction body, one statement (possibly nested) per entry.
    pub body: Vec<String>,
    /// The `control ingress { ... }` block.
    pub control: String,
}

impl GenProgram {
    /// Full P4R source for this program.
    pub fn render(&self) -> String {
        Self::render_parts(&self.decls, &self.reaction_args, &self.body, &self.control)
    }

    /// Source with `body` replaced (the ddmin callback path).
    pub fn render_with_body(&self, body: &[String]) -> String {
        Self::render_parts(&self.decls, &self.reaction_args, body, &self.control)
    }

    fn render_parts(decls: &[String], args: &str, body: &[String], control: &str) -> String {
        let mut out = String::new();
        for d in decls {
            out.push_str(d);
            out.push('\n');
        }
        out.push_str(&format!("reaction fz({args}) {{\n"));
        for s in body {
            out.push_str("    ");
            out.push_str(s);
            out.push('\n');
        }
        out.push_str("}\n");
        out.push_str(control);
        out.push('\n');
        out
    }
}

/// State threaded through body generation: what names exist and may be
/// referenced.
struct Scope {
    /// Scalar names readable in expressions (reaction args + locals).
    scalars: Vec<String>,
    /// Writable local/static names.
    writable: Vec<String>,
    /// The register-array argument name.
    array: String,
    /// Array length (indices `0..len` are in bounds).
    array_len: u64,
    /// Malleable value names.
    mbls: Vec<String>,
    /// Declared table names usable as method receivers (with their action
    /// ordinal arity: `(name, key_cols, data_arity_of_action0)`).
    tables: Vec<(String, usize, usize)>,
    /// Fresh-name counter.
    next_id: u32,
    /// Whether this program still owes one undeclared-name reference
    /// (decided once per program, consumed by the first eligible atom).
    pub want_invalid: bool,
}

impl Scope {
    fn fresh(&mut self, prefix: &str) -> String {
        let n = format!("{prefix}{}", self.next_id);
        self.next_id += 1;
        n
    }
}

const WIDTHS: [u16; 4] = [8, 16, 32, 64];
/// Corner constants: identities, width boundaries, negatives.
const CORNERS: [i128; 12] = [0, 1, 2, 3, 5, 7, 255, 256, 65_535, 1 << 20, -1, -128];

/// Generate one program from `seed`.
pub fn generate(seed: u64, cfg: &GenConfig) -> GenProgram {
    let mut rng = Rng::new(seed ^ 0xfa57_f00d);
    let mut decls = Vec::new();

    // Fixed packet header: three fields of varying widths.
    let fw0 = *rng.pick(&WIDTHS);
    let fw1 = *rng.pick(&WIDTHS);
    decls.push(format!(
        "header_type fz_t {{ fields {{ f0 : {fw0}; f1 : {fw1}; f2 : 8; }} }}"
    ));
    decls.push("header fz_t pkt;".to_string());

    // One register file, measured whole by the reaction.
    let reg_len = 4 + rng.below(5); // 4..=8 cells
    decls.push(format!(
        "register regs {{ width : 32; instance_count : {reg_len}; }}"
    ));

    // 1..=3 malleable values.
    let n_mbls = 1 + rng.below(3);
    let mut mbls = Vec::new();
    for i in 0..n_mbls {
        let w = *rng.pick(&WIDTHS);
        let init = rng.below(1 << w.min(16));
        decls.push(format!(
            "malleable value m{i} {{ width : {w}; init : {init}; }}"
        ));
        mbls.push(format!("m{i}"));
    }

    // Actions shared by the tables.
    decls.push("action fwd(port) { modify_field(intr.egress_spec, port); }".to_string());
    decls.push("action nop() { no_op(); }".to_string());

    // A malleable ACL table half the time (method-call receiver).
    let mut tables = Vec::new();
    let mut applies = vec![];
    if rng.chance(60) {
        decls.push(
            "malleable table acl {\n    reads { pkt.f0 : exact; }\n    \
             actions { fwd; nop; }\n    size : 32;\n}"
                .to_string(),
        );
        // addEntry(ordinal, key, data...): ordinal 0 = fwd (1 datum).
        tables.push(("acl".to_string(), 1usize, 1usize));
        applies.push("apply(acl);");
    }
    decls.push("table t0 { actions { nop; } default_action : nop(); }".to_string());
    applies.push("apply(t0);");
    let control = format!("control ingress {{ {} }}", applies.join(" "));

    // Reaction arguments: pkt.f0 always, pkt.f1 sometimes (maybe masked),
    // and the whole register file.
    let mut args = vec!["ing pkt.f0".to_string()];
    let mut scalars = vec!["pkt_f0".to_string()];
    if rng.chance(60) {
        if rng.chance(40) {
            args.push("ing pkt.f1 mask 0xff".to_string());
        } else {
            args.push("ing pkt.f1".to_string());
        }
        scalars.push("pkt_f1".to_string());
    }
    args.push(format!("reg regs[0:{}]", reg_len - 1));

    let mut scope = Scope {
        scalars,
        writable: Vec::new(),
        array: "regs".to_string(),
        array_len: reg_len,
        mbls,
        tables,
        next_id: 0,
        want_invalid: rng.chance(cfg.invalid_pct),
    };

    let n_stmts = 2 + rng.below(cfg.max_stmts.saturating_sub(2).max(1) as u64) as usize;
    let mut body = Vec::new();
    for _ in 0..n_stmts {
        body.push(gen_stmt(&mut rng, &mut scope, cfg, 0));
    }
    let mut narrow_rng = Rng::new(seed ^ 0x6e61_7277_0000_0000);
    for stmt in narrowing_stores(&mut narrow_rng, &scope) {
        let at = narrow_rng.below(body.len() as u64 + 1) as usize;
        body.insert(at, stmt);
    }
    // Make every run observable even if earlier statements error out:
    // publish something through a malleable.
    let obs = gen_expr(&mut rng, &mut scope, cfg, 1);
    let m = scope.mbls[0].clone();
    body.push(format!("${{{m}}} = ${{{m}}} + ({obs});"));

    GenProgram {
        seed,
        decls,
        reaction_args: args.join(", "),
        body,
        control,
    }
}

/// A local and a static of 8 or 16 bits, each stored values wider than
/// itself that reach a malleable before anything narrows them again (a
/// later narrowing store would hide a skipped one: truncation commutes with
/// `+` and `*`). Drawn from a stream of their own, naming only what every
/// program declares: all other choices, and which programs compile, stay.
fn narrowing_stores(rng: &mut Rng, sc: &Scope) -> [String; 2] {
    let mut draw = || {
        let m = format!("${{{}}}", rng.pick(&sc.mbls));
        let cell = format!("{}[{}]", sc.array, rng.below(sc.array_len));
        let atom = [String::from("pkt_f0"), m.clone(), cell][rng.below(3) as usize].clone();
        let ty = format!("{}int{}_t", rng.pick(&["u", ""]), rng.pick(&[8, 16]));
        let (wide, k) = (
            rng.pick(&[300i128, 65_537, -129, 1 << 40]),
            rng.pick(&[3, 1_000, 70_000]),
        );
        (ty, wide, atom, m, k)
    };
    let (ty, wide, atom, m, k) = draw();
    let local = format!("{ty} nw = {wide}; {m} = {m} + nw; nw = {atom} * {k}; {m} = {m} ^ nw;");
    let (ty, wide, atom, m, k) = draw();
    let stat = format!("static {ty} zw = 1; zw = zw + {wide}; {m} = {m} + zw; zw = {atom} * {k};");
    [local, stat]
}

/// One statement; `depth` bounds nesting.
fn gen_stmt(rng: &mut Rng, sc: &mut Scope, cfg: &GenConfig, depth: u32) -> String {
    let roll = rng.below(100);
    match roll {
        // Local declaration (typed or `int`).
        0..=19 => {
            let name = sc.fresh("x");
            let e = gen_expr(rng, sc, cfg, depth + 1);
            let ty = if rng.chance(50) {
                let sign = if rng.chance(50) { "uint" } else { "int" };
                let w = *rng.pick(&WIDTHS);
                format!("{sign}{w}_t")
            } else {
                "int".to_string()
            };
            sc.scalars.push(name.clone());
            sc.writable.push(name.clone());
            format!("{ty} {name} = {e};")
        }
        // Static declaration (persistent across runs).
        20..=29 => {
            let name = sc.fresh("s");
            let init = *rng.pick(&CORNERS[..9]);
            sc.scalars.push(name.clone());
            sc.writable.push(name.clone());
            format!("static uint32_t {name} = {init};")
        }
        // Assignment (plain or compound) to a local or malleable.
        30..=54 => {
            let e = gen_expr(rng, sc, cfg, depth + 1);
            let op = *rng.pick(&["=", "+=", "-=", "*=", "&=", "|=", "^=", "<<=", ">>="]);
            if !sc.writable.is_empty() && rng.chance(60) {
                let t = rng.pick(&sc.writable).clone();
                format!("{t} {op} {e};")
            } else {
                let m = rng.pick(&sc.mbls).clone();
                format!("${{{m}}} {op} {e};")
            }
        }
        // Increment/decrement.
        55..=59 if !sc.writable.is_empty() => {
            let t = rng.pick(&sc.writable).clone();
            (*rng.pick(&[
                format!("{t}++;"),
                format!("{t}--;"),
                format!("++{t};"),
                format!("--{t};"),
            ]))
            .to_string()
        }
        // If / if-else.
        60..=74 if depth < 2 => {
            let c = gen_expr(rng, sc, cfg, depth + 1);
            let then_ = gen_stmt(rng, sc, cfg, depth + 1);
            if rng.chance(40) {
                let else_ = gen_stmt(rng, sc, cfg, depth + 1);
                format!("if ({c}) {{ {then_} }} else {{ {else_} }}")
            } else {
                format!("if ({c}) {{ {then_} }}")
            }
        }
        // Bounded while (occasionally unbounded: the step-limit corner).
        75..=82 if depth < 2 => {
            if rng.chance(12) {
                let inner = gen_stmt(rng, sc, cfg, depth + 1);
                format!("while (1) {{ {inner} }}")
            } else {
                let i = sc.fresh("w");
                let k = 1 + rng.below(6);
                let inner = gen_stmt(rng, sc, cfg, depth + 1);
                sc.scalars.push(i.clone());
                format!("int {i} = 0; while ({i} < {k}) {{ {inner} {i} += 1; }}")
            }
        }
        // For loop.
        83..=88 if depth < 2 => {
            let i = sc.fresh("k");
            let k = 1 + rng.below(5);
            let inner = gen_stmt(rng, sc, cfg, depth + 1);
            format!("for (int {i} = 0; {i} < {k}; {i}++) {{ {inner} }}")
        }
        // Table method call.
        89..=93 if !sc.tables.is_empty() => {
            let (t, keys, data) = rng.pick(&sc.tables).clone();
            match rng.below(3) {
                0 => {
                    // addEntry(ordinal 0 = fwd, key..., port)
                    let mut a = vec!["0".to_string()];
                    for _ in 0..keys {
                        a.push(format!("{}", rng.below(16)));
                    }
                    for _ in 0..data {
                        a.push(format!("{}", 1 + rng.below(4)));
                    }
                    format!("{t}.addEntry({});", a.join(", "))
                }
                1 => {
                    let m = rng.pick(&sc.mbls).clone();
                    format!("${{{m}}} = {t}.size();")
                }
                _ => format!("{t}.setDefault(1);"),
            }
        }
        // Early return.
        94..=95 => {
            let e = gen_expr(rng, sc, cfg, depth + 1);
            format!("return {e};")
        }
        // Fallthrough: publish an expression through a malleable.
        _ => {
            let m = rng.pick(&sc.mbls).clone();
            let e = gen_expr(rng, sc, cfg, depth + 1);
            format!("${{{m}}} = {e};")
        }
    }
}

/// One expression; `depth` bounds recursion.
fn gen_expr(rng: &mut Rng, sc: &mut Scope, cfg: &GenConfig, depth: u32) -> String {
    if depth >= 3 || rng.chance(35) {
        return gen_atom(rng, sc, cfg);
    }
    match rng.below(10) {
        0..=5 => {
            let op = *rng.pick(&[
                "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "<", "<=", ">", ">=", "==",
                "!=", "&&", "||",
            ]);
            let a = gen_expr(rng, sc, cfg, depth + 1);
            let b = gen_expr(rng, sc, cfg, depth + 1);
            format!("({a} {op} {b})")
        }
        6 => {
            let op = *rng.pick(&["-", "!", "~"]);
            let a = gen_expr(rng, sc, cfg, depth + 1);
            format!("({op}{a})")
        }
        7 => {
            let c = gen_expr(rng, sc, cfg, depth + 1);
            let a = gen_expr(rng, sc, cfg, depth + 1);
            let b = gen_expr(rng, sc, cfg, depth + 1);
            format!("({c} ? {a} : {b})")
        }
        8 => {
            // Width-truncating cast.
            let sign = if rng.chance(70) { "u" } else { "i" };
            let w = *rng.pick(&[1u16, 8, 16, 32, 64]);
            let a = gen_expr(rng, sc, cfg, depth + 1);
            format!("__cast_{sign}{w}({a})")
        }
        _ => {
            // Engine-native builtin.
            let a = gen_expr(rng, sc, cfg, depth + 1);
            match rng.below(3) {
                0 => format!("abs({a})"),
                1 => {
                    let b = gen_expr(rng, sc, cfg, depth + 1);
                    format!("min({a}, {b})")
                }
                _ => {
                    let b = gen_expr(rng, sc, cfg, depth + 1);
                    format!("max({a}, {b})")
                }
            }
        }
    }
}

fn gen_atom(rng: &mut Rng, sc: &mut Scope, _cfg: &GenConfig) -> String {
    // Rarely (decided once per program), an undeclared name: the whole
    // program must then be rejected by the typechecker with a span (the
    // proptest asserts this).
    if sc.want_invalid && rng.chance(25) {
        sc.want_invalid = false;
        return "fz_undeclared".to_string();
    }
    match rng.below(10) {
        0..=3 => format!("{}", *rng.pick(&CORNERS)),
        4..=6 => rng.pick(&sc.scalars).clone(),
        7 => {
            let m = rng.pick(&sc.mbls).clone();
            format!("${{{m}}}")
        }
        _ => {
            // Register read; ~1 in 8 deliberately out of bounds.
            let idx = if rng.chance(12) {
                sc.array_len + rng.below(90)
            } else {
                rng.below(sc.array_len)
            };
            format!("{}[{idx}]", sc.array)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate(42, &cfg);
        let b = generate(42, &cfg);
        assert_eq!(a.render(), b.render());
        let c = generate(43, &cfg);
        assert_ne!(a.render(), c.render());
    }

    #[test]
    fn rendered_subset_drops_statements() {
        let p = generate(7, &GenConfig::default());
        let full = p.render();
        let half: Vec<String> = p.body.iter().take(p.body.len() / 2).cloned().collect();
        let sub = p.render_with_body(&half);
        assert!(sub.len() < full.len());
        assert!(sub.contains("reaction fz("));
    }

    #[test]
    fn most_seeds_compile_or_reject_cleanly() {
        // Smoke: the first 40 seeds must never panic the pipeline, and a
        // healthy majority must compile.
        let cfg = GenConfig::default();
        let mut compiled = 0;
        for seed in 0..40 {
            let p = generate(seed, &cfg);
            let src = p.render();
            match crate::compile_source(&src, &crate::CompilerOptions::default()) {
                Ok(_) => compiled += 1,
                Err(e) => {
                    // Rejections must be actionable, not internal.
                    let msg = e.to_string();
                    assert!(!msg.is_empty(), "seed {seed}: empty error");
                }
            }
        }
        assert!(compiled >= 25, "only {compiled}/40 seeds compiled");
    }
}
