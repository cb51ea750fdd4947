//! Rendering of SPMD schedules (used by the transformation-example
//! figure and for debugging).

use crate::plan::{PhaseKind, RItem, Region, SpmdProgram, SyncOp, TopItem};
use crate::sites::{sync_sites, SyncSite};
use analysis::CommPattern;
use ir::pretty::pretty_node;
use ir::Program;
use std::fmt::Write;

/// The plan's sites, which the rendering consumes in walk order.
type Sites<'a> = std::slice::Iter<'a, SyncSite>;

/// The annotation of the next site's sync, if it holds one.
fn sync_str(sites: &mut Sites) -> Option<String> {
    let site = sites.next().expect("the rendering walks the site walk");
    let waits = match &site.op {
        SyncOp::None => return None,
        SyncOp::Barrier => return Some("-- BARRIER --".into()),
        SyncOp::Cells { waits } => waits,
    };
    Some(match (waits.class(), site.counter) {
        (CommPattern::Neighbor { fwd, bwd }, _) => {
            let dir = match (fwd, bwd) {
                (true, true) => "both",
                (true, false) => "fwd",
                (false, true) => "bwd",
                (false, false) => "none",
            };
            format!("-- neighbor post/wait ({dir}) --")
        }
        (_, Some(id)) => format!("-- counter #{id} incr/wait --"),
        _ => {
            let extra = |n: usize, what| match n {
                0 => String::new(),
                n => format!(" + {n} {what}(s)"),
            };
            format!(
                "-- pairwise post/wait (dists {}{}{}) --",
                waits.dists.render(),
                extra(waits.producers.len(), "producer"),
                extra(waits.collectors.len(), "collector")
            )
        }
    })
}

fn render_items(
    prog: &Program,
    items: &[RItem],
    indent: usize,
    sites: &mut Sites,
    out: &mut String,
) {
    let pad = "  ".repeat(indent);
    for it in items {
        match it {
            RItem::Phase(p) => {
                let hdr = match &p.kind {
                    PhaseKind::Par { .. } => "",
                    PhaseKind::Master => "IF (myproc == 0) THEN  ! guarded\n",
                    PhaseKind::Replicated => "! replicated on all processors\n",
                };
                if !hdr.is_empty() {
                    write!(out, "{pad}{hdr}").unwrap();
                }
                out.push_str(&pretty_node(prog, p.node, indent));
                if matches!(p.kind, PhaseKind::Master) {
                    writeln!(out, "{pad}ENDIF").unwrap();
                }
                if let Some(s) = sync_str(sites) {
                    writeln!(out, "{pad}{s}").unwrap();
                }
            }
            RItem::Seq {
                node,
                body,
                merge_last,
                ..
            } => {
                let l = prog.expect_loop(*node);
                writeln!(
                    out,
                    "{pad}DO {} = {}, {}   ! replicated control",
                    l.name,
                    ir::pretty::affine_str(prog, &l.lo),
                    ir::pretty::affine_str(prog, &l.hi)
                )
                .unwrap();
                render_items(prog, body, indent + 1, sites, out);
                if let Some(s) = sync_str(sites) {
                    let merged = if *merge_last {
                        " (merged into the next on the last trip)"
                    } else {
                        ""
                    };
                    writeln!(out, "{pad}  {s}{merged}").unwrap();
                }
                writeln!(out, "{pad}ENDDO").unwrap();
                if let Some(s) = sync_str(sites) {
                    writeln!(out, "{pad}{s}").unwrap();
                }
            }
        }
    }
}

fn render_region(prog: &Program, r: &Region, indent: usize, sites: &mut Sites, out: &mut String) {
    let pad = "  ".repeat(indent);
    writeln!(out, "{pad}PARALLEL REGION (all processors)").unwrap();
    render_items(prog, &r.items, indent + 1, sites, out);
    if let Some(s) = sync_str(sites) {
        writeln!(out, "{pad}  {s} (region end)").unwrap();
    }
    writeln!(out, "{pad}END REGION").unwrap();
}

/// Render a schedule as pseudo-Fortran with sync annotations.
pub fn render_plan(prog: &Program, plan: &SpmdProgram) -> String {
    let mut out = String::new();
    writeln!(out, "SCHEDULE {}", plan.name).unwrap();
    fn rec(prog: &Program, items: &[TopItem], indent: usize, sites: &mut Sites, out: &mut String) {
        let pad = "  ".repeat(indent);
        for it in items {
            match it {
                TopItem::SerialStmt(n) => {
                    writeln!(out, "{pad}! master only").unwrap();
                    out.push_str(&pretty_node(prog, *n, indent));
                }
                TopItem::MasterLoop { node, body } => {
                    let l = prog.expect_loop(*node);
                    writeln!(
                        out,
                        "{pad}DO {} = {}, {}   ! master drives",
                        l.name,
                        ir::pretty::affine_str(prog, &l.lo),
                        ir::pretty::affine_str(prog, &l.hi)
                    )
                    .unwrap();
                    rec(prog, body, indent + 1, sites, out);
                    writeln!(out, "{pad}ENDDO").unwrap();
                }
                TopItem::Region(r) => render_region(prog, r, indent, sites, out),
            }
        }
    }
    rec(
        prog,
        &plan.items,
        1,
        &mut sync_sites(prog, plan).iter(),
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use crate::build::{fork_join, optimize};
    use analysis::Bindings;
    use ir::build::*;

    #[test]
    fn renders_sync_annotations() {
        let mut pb = ProgramBuilder::new("r");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]));
        pb.end();
        let j = pb.begin_par("j", con(1), sym(n) - 1);
        pb.assign(elem(a, [idx(j)]), arr(b, [idx(j) - 1]));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 64);
        let opt = super::render_plan(&prog, &optimize(&prog, &bind));
        assert!(opt.contains("PARALLEL REGION"), "{opt}");
        assert!(opt.contains("neighbor post/wait"), "{opt}");
        let fj = super::render_plan(&prog, &fork_join(&prog, &bind));
        assert!(fj.contains("BARRIER"), "{fj}");
    }
}
