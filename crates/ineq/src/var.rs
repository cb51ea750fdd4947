//! Variables and the scan-order variable table.
//!
//! The paper sorts variables into the scan order *symbolics, processors,
//! loop index variables, array indices* before scanning a system with
//! Fourier-Motzkin elimination. Variables eliminated first are the ones
//! scanned *last* (innermost), so feasibility testing eliminates array
//! indices first and symbolics last.

use std::borrow::Cow;
use std::fmt;

/// Opaque handle for a variable in a [`VarTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The four variable classes of the paper's scan order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum VarKind {
    /// Symbolic program constants (problem sizes, number of processors…).
    Symbolic,
    /// Processor identifiers (`p`, `q`).
    Processor,
    /// Loop index variables.
    LoopIndex,
    /// Array subscript variables.
    ArrayIndex,
}

impl VarKind {
    /// Position in the scan order: lower scans earlier (outermost).
    pub fn scan_rank(self) -> u8 {
        match self {
            VarKind::Symbolic => 0,
            VarKind::Processor => 1,
            VarKind::LoopIndex => 2,
            VarKind::ArrayIndex => 3,
        }
    }
}

/// Registry mapping [`VarId`]s to names and [`VarKind`]s. A name is
/// only read when a system is printed, so a `&'static str` is taken as
/// is and only a computed one is stored as a `String`.
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    vars: Vec<(Cow<'static, str>, VarKind)>,
}

impl VarTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `n` variables.
    pub fn with_capacity(n: usize) -> Self {
        VarTable {
            vars: Vec::with_capacity(n),
        }
    }

    /// Register a new variable and return its id.
    pub fn fresh(&mut self, name: impl Into<Cow<'static, str>>, kind: VarKind) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push((name.into(), kind));
        id
    }

    /// The variable's display name.
    pub fn name(&self, v: VarId) -> &str {
        &self.vars[v.0 as usize].0
    }

    /// The variable's class.
    pub fn kind(&self, v: VarId) -> VarKind {
        self.vars[v.0 as usize].1
    }

    /// Number of registered variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True if no variables are registered.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// All variable ids, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// Variables sorted by scan order (symbolics first, array indices
    /// last); ties broken by registration order so results are
    /// deterministic.
    #[cfg(test)]
    pub fn scan_order(&self) -> Vec<VarId> {
        let mut vs: Vec<VarId> = self.iter().collect();
        vs.sort_by_key(|v| (self.kind(*v).scan_rank(), v.0));
        vs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_order_groups_by_kind() {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        let n = vt.fresh("n", VarKind::Symbolic);
        let p = vt.fresh("p", VarKind::Processor);
        let x = vt.fresh("x", VarKind::ArrayIndex);
        let j = vt.fresh("j", VarKind::LoopIndex);
        assert_eq!(vt.scan_order(), vec![n, p, i, j, x]);
    }

    #[test]
    fn names_and_kinds_roundtrip() {
        let mut vt = VarTable::new();
        let p = vt.fresh("p", VarKind::Processor);
        assert_eq!(vt.name(p), "p");
        assert_eq!(vt.kind(p), VarKind::Processor);
        assert_eq!(vt.len(), 1);
        assert!(!vt.is_empty());
    }
}
