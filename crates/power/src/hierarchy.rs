//! The hierarchical power infrastructure of Fig. 1(a):
//! ATS → UPS → cluster PDU → rack.
//!
//! Every level is subject to a capacity limit and can be oversubscribed;
//! the paper focuses on UPS-level oversubscription (the UPS dominates the
//! per-kilowatt capital cost) while assuming PDUs and racks have adequate
//! capacity. This module models the tree generically: leaf loads are
//! attached to racks, sums propagate upward, and any level can be queried
//! for overload.

use std::fmt;

use mpr_core::Watts;

/// The role of a node in the power tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LevelKind {
    /// Automatic transfer switch (utility/generator source selection).
    Ats,
    /// Uninterruptible power supply — the paper's oversubscription point.
    Ups,
    /// Cluster power distribution unit.
    Pdu,
    /// Server rack (leaf loads attach here).
    Rack,
}

impl fmt::Display for LevelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelKind::Ats => write!(f, "ATS"),
            LevelKind::Ups => write!(f, "UPS"),
            LevelKind::Pdu => write!(f, "PDU"),
            LevelKind::Rack => write!(f, "rack"),
        }
    }
}

/// Errors from hierarchy construction and load attachment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HierarchyError {
    /// Referenced a node id that does not exist.
    UnknownNode(usize),
    /// Attached a load to a non-rack node.
    NotARack(usize),
    /// Child/parent kinds violate the ATS → UPS → PDU → rack ordering.
    InvalidNesting {
        /// Parent node kind.
        parent: LevelKind,
        /// Child node kind.
        child: LevelKind,
    },
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            HierarchyError::NotARack(id) => write!(f, "node {id} is not a rack"),
            HierarchyError::InvalidNesting { parent, child } => {
                write!(f, "a {child} cannot feed from a {parent}")
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: LevelKind,
    capacity: Watts,
    parent: Option<usize>,
    /// Leaf load attached directly to this node (racks only).
    load: Watts,
    /// Cached aggregate: this node's leaf load plus everything below it.
    /// Maintained eagerly by [`PowerHierarchy::set_load`], which walks the
    /// ancestor chain — so queries at *every* level are O(1) and a single
    /// rack update is O(depth) instead of recomputing the whole tree.
    aggregate: Watts,
}

/// A report of one overloaded level.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadedNode {
    /// Node id within the hierarchy.
    pub id: usize,
    /// Node name.
    pub name: String,
    /// Node kind.
    pub kind: LevelKind,
    /// Aggregate load seen by the node.
    pub load: Watts,
    /// The node's capacity.
    pub capacity: Watts,
    /// Distance from the node's root (root = 0).
    pub depth: usize,
}

/// A power-infrastructure tree with per-level capacities.
///
/// ```
/// use mpr_core::Watts;
/// use mpr_power::{LevelKind, PowerHierarchy};
///
/// # fn main() -> Result<(), mpr_power::HierarchyError> {
/// let mut h = PowerHierarchy::new();
/// let ats = h.add_root("ats", LevelKind::Ats, Watts::new(1_000_000.0));
/// let ups = h.add_child("ups-1", LevelKind::Ups, Watts::new(250_000.0), ats)?;
/// let pdu = h.add_child("pdu-1", LevelKind::Pdu, Watts::new(300_000.0), ups)?;
/// let rack = h.add_child("rack-1", LevelKind::Rack, Watts::new(300_000.0), pdu)?;
/// h.set_load(rack, Watts::new(260_000.0))?;
/// // The UPS is the binding constraint: it is the only overloaded level.
/// let over = h.overloaded();
/// assert_eq!(over.len(), 1);
/// assert_eq!(over[0].kind, LevelKind::Ups);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerHierarchy {
    nodes: Vec<Node>,
}

impl PowerHierarchy {
    /// Creates an empty hierarchy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a root node (typically the ATS) and returns its id.
    pub fn add_root(&mut self, name: impl Into<String>, kind: LevelKind, capacity: Watts) -> usize {
        self.push_node(name, kind, capacity, None)
    }

    /// Appends a node unconditionally; nesting rules are the caller's job.
    fn push_node(
        &mut self,
        name: impl Into<String>,
        kind: LevelKind,
        capacity: Watts,
        parent: Option<usize>,
    ) -> usize {
        self.nodes.push(Node {
            name: name.into(),
            kind,
            capacity,
            parent,
            load: Watts::ZERO,
            aggregate: Watts::ZERO,
        });
        self.nodes.len() - 1
    }

    /// Adds a child node feeding from `parent`, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::UnknownNode`] for a bad parent id and
    /// [`HierarchyError::InvalidNesting`] if the child's kind cannot feed
    /// from the parent's kind.
    pub fn add_child(
        &mut self,
        name: impl Into<String>,
        kind: LevelKind,
        capacity: Watts,
        parent: usize,
    ) -> Result<usize, HierarchyError> {
        let Some(p) = self.nodes.get(parent) else {
            return Err(HierarchyError::UnknownNode(parent));
        };
        let ok = matches!(
            (p.kind, kind),
            (LevelKind::Ats, LevelKind::Ups)
                | (LevelKind::Ups, LevelKind::Pdu)
                | (LevelKind::Pdu, LevelKind::Rack)
        );
        if !ok {
            return Err(HierarchyError::InvalidNesting {
                parent: p.kind,
                child: kind,
            });
        }
        Ok(self.push_node(name, kind, capacity, Some(parent)))
    }

    /// Sets the leaf load of a rack and propagates the change up through
    /// *all* ancestor levels (PDU, UPS, ATS), so every level's aggregate is
    /// current the moment this returns.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError::UnknownNode`] or
    /// [`HierarchyError::NotARack`].
    pub fn set_load(&mut self, rack: usize, load: Watts) -> Result<(), HierarchyError> {
        let Some(node) = self.nodes.get_mut(rack) else {
            return Err(HierarchyError::UnknownNode(rack));
        };
        if node.kind != LevelKind::Rack {
            return Err(HierarchyError::NotARack(rack));
        }
        let delta = load.get() - node.load.get();
        node.load = load;
        let mut cursor = Some(rack);
        while let Some(id) = cursor {
            let Some(n) = self.nodes.get_mut(id) else {
                break;
            };
            n.aggregate = Watts::new(n.aggregate.get() + delta);
            cursor = n.parent;
        }
        Ok(())
    }

    /// Aggregate load seen by a node: its own leaf load plus everything
    /// below it. O(1) — aggregates are maintained on every `set_load`.
    #[must_use]
    pub fn load_at(&self, id: usize) -> Watts {
        self.nodes.get(id).map_or(Watts::ZERO, |n| n.aggregate)
    }

    /// Distance from `id` to its root (root = 0); `None` for an unknown
    /// node. Bounded by the node count, so a (malformed) parent cycle
    /// cannot hang the walk.
    #[must_use]
    pub fn depth(&self, id: usize) -> Option<usize> {
        let mut depth = 0usize;
        let mut cursor = self.nodes.get(id)?.parent;
        while let Some(pid) = cursor {
            depth += 1;
            if depth > self.nodes.len() {
                return None;
            }
            cursor = self.nodes.get(pid)?.parent;
        }
        Some(depth)
    }

    /// All nodes whose aggregate load exceeds their capacity, in
    /// deterministic (depth, id) order — shallow levels first, ids
    /// ascending within a level. Simultaneous overloads at nested levels
    /// (e.g. a rack *and* its UPS) are all reported; a federated clearing
    /// walk iterates this list in reverse for its bottom-up sweep.
    #[must_use]
    pub fn overloaded(&self) -> Vec<OverloadedNode> {
        let mut over: Vec<OverloadedNode> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.aggregate > n.capacity)
            .map(|(id, n)| OverloadedNode {
                id,
                name: n.name.clone(),
                kind: n.kind,
                load: n.aggregate,
                capacity: n.capacity,
                depth: self.depth(id).unwrap_or(0),
            })
            .collect();
        over.sort_by_key(|o| (o.depth, o.id));
        over
    }

    /// Spare capacity at a node: `capacity − aggregate load` (negative when
    /// the subtree is overloaded). `Watts::ZERO` for unknown nodes.
    #[must_use]
    pub fn subtree_headroom(&self, id: usize) -> Watts {
        self.nodes.get(id).map_or(Watts::ZERO, |n| {
            Watts::new(n.capacity.get() - n.aggregate.get())
        })
    }

    /// Ids of every rack in the subtree rooted at `id`, ascending. A rack
    /// id queries as its own (single-element) leaf set; unknown ids yield
    /// an empty set. The reference the [`SubtreeRows`] index is checked
    /// against.
    #[cfg(test)]
    pub(crate) fn leaf_racks(&self, id: usize) -> Vec<usize> {
        if self.nodes.get(id).is_none() {
            return Vec::new();
        }
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == LevelKind::Rack)
            .filter(|&(rid, _)| self.is_ancestor_or_self(id, rid))
            .map(|(rid, _)| rid)
            .collect()
    }

    /// `id` itself, then its parent, and so on up to its root; empty for
    /// an unknown id. Bounded by the node count, so a (malformed) parent
    /// cycle cannot hang the walk.
    fn ancestors(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.nodes.get(id).map(|_| id), |&i| {
            self.nodes.get(i).and_then(|n| n.parent)
        })
        .take(self.nodes.len())
    }

    /// `true` when `ancestor` is `node` itself or lies on `node`'s parent
    /// chain, i.e. when `node` lies inside the subtree rooted at
    /// `ancestor`.
    pub(crate) fn is_ancestor_or_self(&self, ancestor: usize, node: usize) -> bool {
        self.ancestors(node).any(|id| id == ancestor)
    }

    /// The parent id of a node, if it has one.
    #[must_use]
    pub fn parent(&self, id: usize) -> Option<usize> {
        self.nodes.get(id)?.parent
    }

    /// The capacity of a node (`Watts::ZERO` for unknown ids).
    #[must_use]
    pub fn capacity_of(&self, id: usize) -> Watts {
        self.nodes.get(id).map_or(Watts::ZERO, |n| n.capacity)
    }

    /// The kind of a node, if it exists.
    #[must_use]
    pub fn kind_of(&self, id: usize) -> Option<LevelKind> {
        Some(self.nodes.get(id)?.kind)
    }

    /// The name of a node (empty for unknown ids).
    #[must_use]
    pub fn name_of(&self, id: usize) -> &str {
        self.nodes.get(id).map_or("", |n| n.name.as_str())
    }

    /// Number of nodes in the hierarchy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the hierarchy has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Builds the paper's canonical single-UPS layout: one ATS feeding one
    /// UPS of capacity `ups_capacity`, one PDU and one rack (both given
    /// ample headroom, per Section II's assumption). Returns
    /// `(hierarchy, ups_id, rack_id)`.
    #[must_use]
    pub fn single_ups(ups_capacity: Watts) -> (Self, usize, usize) {
        let ample = ups_capacity * 10.0;
        let mut h = Self::new();
        let ats = h.push_node("ats", LevelKind::Ats, ample, None);
        let ups = h.push_node("ups", LevelKind::Ups, ups_capacity, Some(ats));
        let pdu = h.push_node("pdu", LevelKind::Pdu, ample, Some(ups));
        let rack = h.push_node("rack", LevelKind::Rack, ample, Some(pdu));
        (h, ups, rack)
    }
}

/// Instance rows grouped by the subtrees that contain them: a flat
/// compressed-sparse-row index (per-node offsets into one row vector)
/// over a row → rack assignment.
///
/// Row `r` assigned to rack `k` belongs to `k` and to every ancestor of
/// `k`; [`SubtreeRows::rows`] returns a node's rows in ascending order,
/// exactly the rows (and the order) a scan of the whole assignment
/// filtered by the node's racks yields. Building counts each rack's rows,
/// then writes every row once per node on its rack's ancestor chain:
/// O(rows × depth), after which every node's rows are one slice. A row
/// whose entry is not a rack of the hierarchy belongs to no subtree.
#[derive(Debug, Clone, Default)]
pub struct SubtreeRows {
    /// `offsets[node]..offsets[node + 1]` is `node`'s range of `rows`.
    offsets: Vec<usize>,
    rows: Vec<u32>,
}

impl SubtreeRows {
    /// Indexes `assignment` (instance row → rack id) over `hierarchy`.
    #[must_use]
    pub fn new(hierarchy: &PowerHierarchy, assignment: &[usize]) -> Self {
        // Each rack's ancestor chain (itself first), flattened; any other
        // node's chain is empty, so a row naming it joins no subtree.
        let mut chains = Vec::new();
        let mut chain_at = vec![0..0; hierarchy.len()];
        for (node, at) in chain_at.iter_mut().enumerate() {
            if hierarchy.kind_of(node) == Some(LevelKind::Rack) {
                let start = chains.len();
                chains.extend(hierarchy.ancestors(node));
                *at = start..chains.len();
            }
        }
        let chain = |rack: usize| -> &[usize] {
            chain_at
                .get(rack)
                .and_then(|at| chains.get(at.clone()))
                .unwrap_or_default()
        };
        // Count each rack's rows, add the counts up each rack's chain one
        // slot to the right, then prefix-sum them into start offsets.
        let mut per_rack = vec![0usize; hierarchy.len()];
        for &rack in assignment {
            if let Some(count) = per_rack.get_mut(rack) {
                *count += 1;
            }
        }
        let mut offsets = vec![0usize; hierarchy.len() + 1];
        for (rack, &count) in per_rack.iter().enumerate() {
            for &node in chain(rack) {
                if let Some(slot) = offsets.get_mut(node + 1) {
                    *slot += count;
                }
            }
        }
        let mut total = 0;
        for offset in &mut offsets {
            total += *offset;
            *offset = total;
        }
        // Ascending rows fill each node's range front to back.
        let mut next = offsets.clone();
        let mut rows = vec![0u32; total];
        for (row, &rack) in assignment.iter().enumerate() {
            for &node in chain(rack) {
                if let Some(at) = next.get_mut(node) {
                    if let Some(slot) = rows.get_mut(*at) {
                        *slot = row as u32;
                    }
                    *at += 1;
                }
            }
        }
        Self { offsets, rows }
    }

    /// The ascending instance rows inside the subtree rooted at `node`
    /// (empty for an unknown node).
    #[must_use]
    pub fn rows(&self, node: usize) -> &[u32] {
        match (self.offsets.get(node), self.offsets.get(node + 1)) {
            (Some(&start), Some(&end)) => self.rows.get(start..end).unwrap_or_default(),
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ups_layout_detects_ups_overload() {
        let (mut h, ups, rack) = PowerHierarchy::single_ups(Watts::new(1000.0));
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
        h.set_load(rack, Watts::new(1200.0)).unwrap();
        let over = h.overloaded();
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].id, ups);
        assert_eq!(over[0].kind, LevelKind::Ups);
        assert_eq!(over[0].load, Watts::new(1200.0));
    }

    #[test]
    fn loads_aggregate_across_subtrees() {
        let mut h = PowerHierarchy::new();
        let ats = h.add_root("ats", LevelKind::Ats, Watts::new(1e6));
        let ups = h
            .add_child("ups", LevelKind::Ups, Watts::new(5000.0), ats)
            .unwrap();
        let pdu1 = h
            .add_child("pdu1", LevelKind::Pdu, Watts::new(3000.0), ups)
            .unwrap();
        let pdu2 = h
            .add_child("pdu2", LevelKind::Pdu, Watts::new(3000.0), ups)
            .unwrap();
        let r1 = h
            .add_child("r1", LevelKind::Rack, Watts::new(2000.0), pdu1)
            .unwrap();
        let r2 = h
            .add_child("r2", LevelKind::Rack, Watts::new(2000.0), pdu2)
            .unwrap();
        h.set_load(r1, Watts::new(1500.0)).unwrap();
        h.set_load(r2, Watts::new(1500.0)).unwrap();
        assert_eq!(h.load_at(ups), Watts::new(3000.0));
        assert_eq!(h.load_at(pdu1), Watts::new(1500.0));
        assert_eq!(h.load_at(ats), Watts::new(3000.0));
        assert!(h.overloaded().is_empty());
        // Push one PDU over.
        h.set_load(r1, Watts::new(4000.0)).unwrap();
        let over = h.overloaded();
        let kinds: Vec<LevelKind> = over.iter().map(|o| o.kind).collect();
        assert!(kinds.contains(&LevelKind::Pdu));
        assert!(kinds.contains(&LevelKind::Ups));
        assert!(kinds.contains(&LevelKind::Rack));
    }

    #[test]
    fn nested_rack_and_ups_simultaneous_overloads() {
        // A rack whose own capacity binds *and* a UPS two levels up whose
        // aggregate binds: both must be reported at once, with correct
        // per-level aggregates.
        let mut h = PowerHierarchy::new();
        let ats = h.add_root("ats", LevelKind::Ats, Watts::new(1e6));
        let ups = h
            .add_child("ups", LevelKind::Ups, Watts::new(4000.0), ats)
            .unwrap();
        let pdu1 = h
            .add_child("pdu1", LevelKind::Pdu, Watts::new(10_000.0), ups)
            .unwrap();
        let pdu2 = h
            .add_child("pdu2", LevelKind::Pdu, Watts::new(10_000.0), ups)
            .unwrap();
        let r1 = h
            .add_child("r1", LevelKind::Rack, Watts::new(2000.0), pdu1)
            .unwrap();
        let r2 = h
            .add_child("r2", LevelKind::Rack, Watts::new(5000.0), pdu2)
            .unwrap();
        h.set_load(r1, Watts::new(2500.0)).unwrap(); // rack overloaded
        h.set_load(r2, Watts::new(2000.0)).unwrap(); // within rack capacity
        let over = h.overloaded();
        let ids: Vec<usize> = over.iter().map(|o| o.id).collect();
        assert_eq!(
            ids,
            vec![ups, r1],
            "UPS (4500 > 4000) and rack r1 (2500 > 2000)"
        );
        let ups_over = &over[0];
        assert_eq!(ups_over.kind, LevelKind::Ups);
        assert_eq!(ups_over.load, Watts::new(4500.0));
        let rack_over = &over[1];
        assert_eq!(rack_over.kind, LevelKind::Rack);
        assert_eq!(rack_over.load, Watts::new(2500.0));
        // The PDUs in between have headroom and are not reported.
        assert_eq!(h.load_at(pdu1), Watts::new(2500.0));
        assert_eq!(h.load_at(pdu2), Watts::new(2000.0));
        assert_eq!(h.load_at(ats), Watts::new(4500.0));
    }

    #[test]
    fn repeated_set_load_keeps_ancestor_aggregates_exact() {
        // Updates replace (not accumulate) the rack's load; every ancestor
        // level must track the delta exactly through many updates.
        let (mut h, ups, rack) = PowerHierarchy::single_ups(Watts::new(1000.0));
        for w in [500.0, 1200.0, 0.0, 800.0, 800.0, 350.0] {
            h.set_load(rack, Watts::new(w)).unwrap();
            assert_eq!(h.load_at(rack), Watts::new(w));
            assert_eq!(h.load_at(ups), Watts::new(w));
            assert_eq!(h.load_at(0), Watts::new(w), "root tracks every update");
        }
        assert!(h.overloaded().is_empty());
    }

    #[test]
    fn load_at_unknown_node_is_zero() {
        let (h, _, _) = PowerHierarchy::single_ups(Watts::new(1000.0));
        assert_eq!(h.load_at(99), Watts::ZERO);
    }

    #[test]
    fn nesting_rules_enforced() {
        let mut h = PowerHierarchy::new();
        let ats = h.add_root("ats", LevelKind::Ats, Watts::new(1e6));
        assert!(matches!(
            h.add_child("bad", LevelKind::Rack, Watts::new(1.0), ats),
            Err(HierarchyError::InvalidNesting { .. })
        ));
        assert!(matches!(
            h.add_child("bad", LevelKind::Ups, Watts::new(1.0), 99),
            Err(HierarchyError::UnknownNode(99))
        ));
    }

    #[test]
    fn load_attach_validation() {
        let (mut h, ups, _rack) = PowerHierarchy::single_ups(Watts::new(1000.0));
        assert_eq!(
            h.set_load(ups, Watts::new(10.0)),
            Err(HierarchyError::NotARack(ups))
        );
        assert_eq!(
            h.set_load(77, Watts::new(10.0)),
            Err(HierarchyError::UnknownNode(77))
        );
    }

    /// Two UPS subtrees under one ATS: `(h, ups_a, ups_b, racks_a, racks_b)`.
    fn two_ups_tree() -> (PowerHierarchy, usize, usize, Vec<usize>, Vec<usize>) {
        let mut h = PowerHierarchy::new();
        let ats = h.add_root("ats", LevelKind::Ats, Watts::new(10_000.0));
        let ups_a = h
            .add_child("ups-a", LevelKind::Ups, Watts::new(3000.0), ats)
            .unwrap();
        let ups_b = h
            .add_child("ups-b", LevelKind::Ups, Watts::new(3000.0), ats)
            .unwrap();
        let pdu_a = h
            .add_child("pdu-a", LevelKind::Pdu, Watts::new(4000.0), ups_a)
            .unwrap();
        let pdu_b = h
            .add_child("pdu-b", LevelKind::Pdu, Watts::new(4000.0), ups_b)
            .unwrap();
        let racks_a: Vec<usize> = (0..2)
            .map(|i| {
                h.add_child(
                    format!("rack-a{i}"),
                    LevelKind::Rack,
                    Watts::new(2000.0),
                    pdu_a,
                )
                .unwrap()
            })
            .collect();
        let racks_b: Vec<usize> = (0..2)
            .map(|i| {
                h.add_child(
                    format!("rack-b{i}"),
                    LevelKind::Rack,
                    Watts::new(2000.0),
                    pdu_b,
                )
                .unwrap()
            })
            .collect();
        (h, ups_a, ups_b, racks_a, racks_b)
    }

    #[test]
    fn overloaded_is_sorted_by_depth_then_id() {
        let (mut h, ups_a, ups_b, racks_a, racks_b) = two_ups_tree();
        // Overload a deep rack in subtree B first, then both UPSes: the
        // report must still come out shallow-first, ids ascending per level,
        // regardless of set_load order.
        h.set_load(racks_b[1], Watts::new(2500.0)).unwrap();
        h.set_load(racks_b[0], Watts::new(1000.0)).unwrap();
        h.set_load(racks_a[0], Watts::new(2200.0)).unwrap();
        h.set_load(racks_a[1], Watts::new(1500.0)).unwrap();
        let over = h.overloaded();
        let order: Vec<(usize, usize)> = over.iter().map(|o| (o.depth, o.id)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "must be (depth, id)-sorted");
        // Both UPSes (depth 1) precede every rack (depth 3).
        assert_eq!(over[0].id, ups_a);
        assert_eq!(over[1].id, ups_b);
        assert!(over[2..].iter().all(|o| o.depth == 3));
    }

    #[test]
    fn depth_counts_hops_from_the_root() {
        let (h, ups_a, _, racks_a, _) = two_ups_tree();
        assert_eq!(h.depth(0), Some(0));
        assert_eq!(h.depth(ups_a), Some(1));
        assert_eq!(h.depth(racks_a[0]), Some(3));
        assert_eq!(h.depth(99), None);
    }

    #[test]
    fn subtree_headroom_tracks_loads_and_goes_negative_on_overload() {
        let (mut h, ups_a, ups_b, racks_a, _) = two_ups_tree();
        assert_eq!(h.subtree_headroom(ups_a), Watts::new(3000.0));
        h.set_load(racks_a[0], Watts::new(1800.0)).unwrap();
        assert_eq!(h.subtree_headroom(ups_a), Watts::new(1200.0));
        assert_eq!(h.subtree_headroom(ups_b), Watts::new(3000.0));
        h.set_load(racks_a[1], Watts::new(1800.0)).unwrap();
        assert!(
            h.subtree_headroom(ups_a).get() < 0.0,
            "overloaded ⇒ negative"
        );
        assert_eq!(h.subtree_headroom(0), Watts::new(10_000.0 - 3600.0));
        assert_eq!(h.subtree_headroom(42), Watts::ZERO);
    }

    #[test]
    fn leaf_racks_collects_each_subtrees_racks() {
        let (h, ups_a, ups_b, racks_a, racks_b) = two_ups_tree();
        assert_eq!(h.leaf_racks(ups_a), racks_a);
        assert_eq!(h.leaf_racks(ups_b), racks_b);
        let mut all = racks_a.clone();
        all.extend(&racks_b);
        assert_eq!(h.leaf_racks(0), all, "root sees every rack");
        // A rack is its own leaf set; unknown ids are empty.
        assert_eq!(h.leaf_racks(racks_a[1]), vec![racks_a[1]]);
        assert!(h.leaf_racks(99).is_empty());
    }

    #[test]
    fn ancestors_walk_from_the_node_to_its_root() {
        let (h, ups_a, _, racks_a, racks_b) = two_ups_tree();
        let pdu_a = h.parent(racks_a[0]).unwrap();
        let chain: Vec<usize> = h.ancestors(racks_a[0]).collect();
        assert_eq!(chain, vec![racks_a[0], pdu_a, ups_a, 0]);
        assert_eq!(h.ancestors(0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(h.ancestors(99).count(), 0);
        assert!(h.is_ancestor_or_self(ups_a, racks_a[1]));
        assert!(h.is_ancestor_or_self(racks_a[1], racks_a[1]));
        assert!(!h.is_ancestor_or_self(ups_a, racks_b[0]));
        assert!(!h.is_ancestor_or_self(racks_a[0], ups_a));
    }

    #[test]
    fn subtree_rows_index_each_row_under_every_ancestor_of_its_rack() {
        let (h, ups_a, ups_b, racks_a, racks_b) = two_ups_tree();
        // Rows 2 and 5 name a UPS and an unknown node: no subtree has them.
        let assignment = vec![racks_b[1], racks_a[0], ups_a, racks_a[1], racks_b[1], 99];
        let index = SubtreeRows::new(&h, &assignment);
        assert_eq!(index.rows(0), &[0, 1, 3, 4]);
        assert_eq!(index.rows(ups_a), &[1, 3]);
        assert_eq!(index.rows(ups_b), &[0, 4]);
        assert_eq!(index.rows(racks_a[0]), &[1]);
        assert_eq!(index.rows(racks_b[1]), &[0, 4]);
        assert!(index.rows(racks_b[0]).is_empty());
        assert!(index.rows(99).is_empty());
        assert!(SubtreeRows::new(&h, &[]).rows(0).is_empty());
    }

    #[test]
    fn node_accessors_expose_parent_capacity_kind_name() {
        let (h, ups_a, _, racks_a, _) = two_ups_tree();
        assert_eq!(h.parent(ups_a), Some(0));
        assert_eq!(h.parent(0), None);
        assert_eq!(h.capacity_of(ups_a), Watts::new(3000.0));
        assert_eq!(h.kind_of(racks_a[0]), Some(LevelKind::Rack));
        assert_eq!(h.kind_of(99), None);
        assert_eq!(h.name_of(ups_a), "ups-a");
        assert_eq!(h.name_of(99), "");
    }

    #[test]
    fn error_and_kind_display() {
        assert_eq!(LevelKind::Ups.to_string(), "UPS");
        let e = HierarchyError::InvalidNesting {
            parent: LevelKind::Ats,
            child: LevelKind::Rack,
        };
        assert!(e.to_string().contains("rack"));
        assert!(!HierarchyError::UnknownNode(3).to_string().is_empty());
        assert!(!HierarchyError::NotARack(3).to_string().is_empty());
    }
}
