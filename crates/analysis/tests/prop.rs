//! Property test (a hand-rolled program generator over seeded
//! `SmallRng` draws) tying the static analyzer to the compiler's actual behaviour:
//! **analyzer-clean ⇔ compiles**. A program with no error-level
//! findings under the default [`Target`] must pass
//! `mp5_compiler::compile` with that target, and a compiled program
//! never carries analyzer errors.

use mp5_analysis::analyze_source;
use mp5_compiler::{compile, Target};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates a random well-formed MP5 program exercising the
/// shardability-relevant corners: pure hash indexes, stateful indexes,
/// repeated vs distinct indexes, predicated updates (pure and stateful
/// predicates), and read-back into packet fields.
fn gen_program(rng: &mut SmallRng) -> String {
    let nregs = rng.gen_range(1..4);
    let mut decls = String::new();
    let mut body = String::new();
    let sizes = [1usize, 4, 8, 16];

    for r in 0..nregs {
        let size = sizes[rng.gen_range(0..sizes.len())];
        decls.push_str(&format!("int reg{r}[{size}] = {{0}};\n"));
        let idx = |rng: &mut SmallRng| -> String {
            if size == 1 {
                "0".to_string()
            } else {
                match rng.gen_range(0..3) {
                    0 => format!("p.h % {size}"),
                    1 => format!("hash2(p.h, {}) % {size}", rng.gen_range(1..98)),
                    _ => format!("p.g % {size}"),
                }
            }
        };
        let i = idx(rng);
        match rng.gen_range(0..5) {
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
                rng.gen_range(0..100)
            )),
            // Stateful predicate over a single-index access: the access
            // still shards via a speculative phantom.
            3 => body.push_str(&format!(
                "if (reg{r}[{i}] < {}) {{ reg{r}[{i}] = reg{r}[{i}] + 1; }}\n",
                rng.gen_range(1..1001)
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
        if r + 1 < nregs && rng.gen_bool(0.2) {
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
        let src = gen_program(&mut SmallRng::seed_from_u64(seed));
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
