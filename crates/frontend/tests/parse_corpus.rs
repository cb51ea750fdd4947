//! Parser corpus tests: valid-program shapes and every diagnostic path.

use frontend::parse;

fn ok(src: &str) -> ir::Program {
    match parse(src) {
        Ok(p) => p,
        Err(e) => panic!("expected parse success, got: {e}\nsource:\n{src}"),
    }
}

fn err(src: &str) -> frontend::ParseError {
    match parse(src) {
        Ok(_) => panic!("expected parse failure\nsource:\n{src}"),
        Err(e) => e,
    }
}

#[test]
fn minimal_program() {
    let p = ok("\nprogram tiny\nsym n\narray A(n) block\ndoall i = 0, n-1\n  A(i) = 1.0\nend\n");
    assert_eq!(p.name, "tiny");
    assert_eq!(p.num_statements(), 1);
}

#[test]
fn all_distribution_spellings() {
    let p = ok("
program dists
sym n
array A(n) block
array B(n) cyclic
array C(n) cyclic(4)
array D(n, n) block@1
array E(n, n) cyclic(2)@1
array F(n) repl
array G(n) private
doall i = 0, n-1
  A(i) = 0.0
end
");
    use ir::DimDist::*;
    assert_eq!(p.arrays[0].dist.dims[0], Block);
    assert_eq!(p.arrays[1].dist.dims[0], Cyclic);
    assert_eq!(p.arrays[2].dist.dims[0], BlockCyclic(4));
    assert_eq!(p.arrays[3].dist.dims[1], Block);
    assert_eq!(p.arrays[4].dist.dims[1], BlockCyclic(2));
    assert!(p.arrays[5].dist.is_replicated());
    assert!(p.arrays[6].privatizable);
}

#[test]
fn expressions_and_builtins() {
    let p = ok("
program exprs
sym n
array A(n) block
scalar s = -2.5
doall i = 0, n-1
  A(i) = sqrt(abs(sin(i) * cos(i))) + exp(0.1) / (1.0 + s) - min(s, max(s, 2))
end
");
    assert_eq!(p.scalars[0].init, -2.5);
}

#[test]
fn nested_loops_guards_reductions() {
    let p = ok("
program nest
sym n
array A(n, n) block
scalar acc = 0.0
do k = 0, n-1
  doall i = 0, n-1
    do j = 0, n-1
      if i - j >= 0 and k == 0 then
        A(i, j) = i * 2 - j + k
      end
    end
  end
  doall i2 = 0, n-1
    acc += A(i2, k)
  end
  minreduce acc = A(k, k)
end
");
    assert_eq!(p.parallel_loops().len(), 2);
    assert!(p.validate().is_empty());
}

#[test]
fn undeclared_sym_in_bound() {
    let e = err("\nprogram p\narray A(m) block\ndoall i = 0, 3\n  A(i) = 1.0\nend\n");
    assert!(e.msg.contains("m"), "{e}");
}

#[test]
fn wrong_rank_subscript_rejected() {
    let e = err("\nprogram p\nsym n\narray A(n, n) block\ndoall i = 0, n-1\n  A(i) = 1.0\nend\n");
    assert!(e.msg.contains("rank"), "{e}");
}

#[test]
fn reserved_statement_shapes() {
    // `end` too many times.
    let e = err("\nprogram p\nsym n\ndoall i = 0, n\nend\nend\n");
    assert!(e.msg.contains("nothing open"), "{e}");
    // condition must use ==, >=, <=.
    let e2 = err("\nprogram p\nsym n\ndoall i = 0, n\n  if i = 0 then\n  end\nend\n");
    assert!(e2.msg.contains("=="), "{e2}");
}

#[test]
fn duplicate_declarations_rejected() {
    let e = err("\nprogram p\nsym n, n\n");
    assert!(e.msg.contains("duplicate"), "{e}");
    let e2 = err("\nprogram p\nsym n\narray A(n) block\narray A(n) block\n");
    assert!(e2.msg.contains("duplicate"), "{e2}");
    let e3 = err("\nprogram p\nscalar s\nscalar s\n");
    assert!(e3.msg.contains("duplicate"), "{e3}");
}

#[test]
fn division_in_affine_context_rejected() {
    let e = err("\nprogram p\nsym n\narray A(n) block\ndoall i = 0, n/2\n  A(i) = 0.0\nend\n");
    assert!(e.msg.contains("affine"), "{e}");
}

#[test]
fn float_in_subscript_rejected() {
    let e = err("\nprogram p\nsym n\narray A(n) block\ndoall i = 0, n-1\n  A(0.5) = 1.0\nend\n");
    assert!(e.msg.contains("affine") || e.msg.contains("float"), "{e}");
}

#[test]
fn shadowed_loop_names_resolve_innermost() {
    // Two sibling loops may reuse a name; inner references bind to the
    // innermost open loop.
    let p = ok("
program shadow
sym n
array A(n) block
doall i = 0, n-1
  A(i) = 1.0
end
doall i = 0, n-1
  A(i) = A(i) + 1.0
end
");
    assert_eq!(p.parallel_loops().len(), 2);
}

#[test]
fn comments_and_blank_lines_everywhere() {
    ok("
! leading comment
program c   ! trailing
! between
sym n

array A(n) block  ! dist comment

doall i = 0, n-1   ! loop
  ! inside
  A(i) = 1.0       ! stmt
end
! after
");
}

/// Input the IR builder would panic on is a parse error with its line.
#[test]
fn malformed_input_is_an_error_not_a_panic() {
    let stmt =
        |s: &str| format!("\nprogram p\nsym n\narray A(n) block\ndoall i = 0, n-1\n  {s}\nend\n");
    let e = err(&stmt("A(i + 9223372036854775807 + 1) = 1.0"));
    assert_eq!(e.line, 6, "{e}");
    assert!(e.msg.contains("overflow"), "{e}");
    let e = err(&stmt("A(4611686018427387904*2*i) = 1.0"));
    assert_eq!(e.line, 6, "{e}");
    assert!(e.msg.contains("overflow"), "{e}");
    let e = err("\nprogram p\nsym n\narray A(n) cyclic(0)\n");
    assert_eq!(e.line, 4, "{e}");
    assert!(e.msg.contains("block size"), "{e}");
    let e = err("\nprogram p\nsym n\narray A(n) block@3\n");
    assert_eq!(e.line, 4, "{e}");
    assert!(e.msg.contains("rank"), "{e}");
}

#[test]
fn a_lexer_error_names_its_line_once() {
    let e = err("\nprogram p\nsym n\narray A(n) block\nscalar s = 99999999999999999999\n");
    assert_eq!(e.to_string(), "line 5: bad integer `99999999999999999999`");
}

const PARAM_SRC: &str = "
program r
sym n
param h = 2
array A(n) block
doall i = h, n-1
  A(i - h) = sin(real(i*31 + h))
end
";

#[test]
fn real_reads_an_affine_value_and_params_are_literals() {
    let p = ok(PARAM_SRC);
    let i = ir::Affine::index(ir::LoopId(0));
    let ir::Node::Assign(a) = p.node(p.all_statements()[0].node) else {
        panic!("not an assignment")
    };
    assert_eq!(a.lhs, ir::LhsRef::Elem(ir::ArrayId(0), vec![i.clone() - 2]));
    let value = ir::Expr::Idx(i * 31 + 2);
    assert_eq!(a.rhs, ir::Expr::Un(ir::UnOp::Sin, Box::new(value)));
    let ir::Node::Loop(l) = p.node(p.body[0]) else {
        panic!("not a loop")
    };
    assert_eq!(l.lo, ir::Affine::constant(2));
}

#[test]
fn a_supplied_param_replaces_the_default() {
    let p = ir::text::parse_with(PARAM_SRC, &[("h", 5)]).unwrap();
    let ir::Node::Loop(l) = p.node(p.body[0]) else {
        panic!("not a loop")
    };
    assert_eq!(l.lo, ir::Affine::constant(5));
    let e = ir::text::parse_with(PARAM_SRC, &[("k", 5)]).unwrap_err();
    assert!(e.msg.contains("param k"), "{e}");
}
