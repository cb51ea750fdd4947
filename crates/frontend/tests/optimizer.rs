//! A parsed program goes through the analysis like a built one.

#[test]
fn parsed_program_round_trips_through_the_optimizer() {
    let prog = frontend::parse(include_str!("../../../kernels/jacobi.be")).unwrap();
    let n = prog
        .syms
        .iter()
        .position(|s| s.name == "n")
        .map(|k| ir::SymId(k as u32))
        .unwrap();
    let t = ir::SymId(1);
    let bind = analysis::Bindings::new(4).set(n, 64).set(t, 5);
    // The parsed stencil pair must classify as neighbor communication.
    let q = analysis::CommQuery::new(&prog, bind);
    let st = prog.all_statements();
    let pat = q.comm_stmts(&st[1], &st[2], analysis::CommMode::LoopIndependent);
    assert!(
        matches!(
            pat,
            analysis::CommPattern::NoComm | analysis::CommPattern::Neighbor { .. }
        ),
        "unexpected pattern {pat:?}"
    );
}
