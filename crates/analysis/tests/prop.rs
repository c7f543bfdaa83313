//! Property test (hand-rolled generator, no external property-testing
//! crate) tying the static analyzer to the compiler's actual behaviour:
//! **analyzer-clean ⇔ compiles**. A program with no error-level
//! findings under the default [`Target`] must pass
//! `mp5_compiler::compile` with that target, and a compiled program
//! never carries analyzer errors.

use mp5_analysis::analyze_source;
use mp5_compiler::{compile, Target};

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Generates a random well-formed MP5 program exercising the
/// shardability-relevant corners: pure hash indexes, stateful indexes,
/// repeated vs distinct indexes, predicated updates (pure and stateful
/// predicates), and read-back into packet fields.
fn gen_program(rng: &mut Rng) -> String {
    let nregs = 1 + rng.below(3) as usize;
    let mut decls = String::new();
    let mut body = String::new();
    let sizes = [1usize, 4, 8, 16];

    for r in 0..nregs {
        let size = sizes[rng.below(sizes.len() as u64) as usize];
        decls.push_str(&format!("int reg{r}[{size}] = {{0}};\n"));
        let idx = |rng: &mut Rng| -> String {
            if size == 1 {
                "0".to_string()
            } else {
                match rng.below(3) {
                    0 => format!("p.h % {size}"),
                    1 => format!("hash2(p.h, {}) % {size}", 1 + rng.below(97)),
                    _ => format!("p.g % {size}"),
                }
            }
        };
        let i = idx(rng);
        match rng.below(5) {
            // Plain counter at one index (the common, shardable case).
            0 => body.push_str(&format!("reg{r}[{i}] = reg{r}[{i}] + 1;\n")),
            // Counter plus read-back into a field.
            1 => {
                body.push_str(&format!("reg{r}[{i}] = reg{r}[{i}] + p.h;\n"));
                body.push_str(&format!("p.out = reg{r}[{i}];\n"));
            }
            // Purely-predicated update (resolvable predicate).
            2 => body.push_str(&format!(
                "if (p.h > {}) {{ reg{r}[{i}] = reg{r}[{i}] + 1; }}\n",
                rng.below(100)
            )),
            // Stateful predicate over a single-index access: the access
            // still shards via a speculative phantom.
            3 => body.push_str(&format!(
                "if (reg{r}[{i}] < {}) {{ reg{r}[{i}] = reg{r}[{i}] + 1; }}\n",
                1 + rng.below(1000)
            )),
            // Two accesses, possibly at distinct indexes (may pin).
            _ => {
                let j = idx(rng);
                body.push_str(&format!("reg{r}[{i}] = reg{r}[{i}] + 1;\n"));
                body.push_str(&format!("p.out = reg{r}[{j}];\n"));
            }
        }
        // Occasionally index a later register with this register's value
        // (stateful index: pins the later register).
        if r + 1 < nregs && rng.chance(20) {
            let size2 = 8;
            decls.push_str(&format!("int sidx{r}[{size2}] = {{0}};\n"));
            body.push_str(&format!("sidx{r}[reg{r}[{i}] % {size2}] = p.h;\n"));
        }
    }

    format!(
        "struct Packet {{ int h; int g; int out; }};\n{decls}void func(struct Packet p) {{\n{body}}}\n"
    )
}

#[test]
fn analyzer_clean_programs_compile() {
    let target = Target::default();
    let mut compiled_ok = 0usize;
    let mut pinned_seen = 0usize;
    for seed in 0..300u64 {
        let src = gen_program(&mut Rng::new(seed));
        let analysis = analyze_source(&src, &target);

        match compile(&src, &target) {
            Ok(prog) => {
                compiled_ok += 1;
                // Property 1 direction: compiler-accepted programs never
                // carry analyzer errors (warnings are fine).
                assert!(
                    !analysis.has_errors(),
                    "seed {seed}: compiler accepted but analyzer errored\n{src}\n{:?}",
                    analysis.diagnostics
                );
                pinned_seen += prog.regs.iter().filter(|m| !m.shardable).count();
            }
            Err(e) => {
                // Property 1: analyzer-clean programs always compile.
                assert!(
                    analysis.has_errors(),
                    "seed {seed}: analyzer was clean but compile failed: {e}\n{src}"
                );
            }
        }
    }
    // The generator must actually exercise both regimes.
    assert!(compiled_ok > 200, "only {compiled_ok}/300 compiled");
    assert!(pinned_seen > 10, "only {pinned_seen} pinned registers seen");
}
