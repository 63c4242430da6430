//! Property tests for placement stability under failures and elastic
//! membership changes (weighted add/remove/reweight).

use proptest::prelude::*;
use rablock_cluster::placement::{NodeId, OsdId, OsdMap, DEFAULT_OSD_WEIGHT};
use rablock_storage::GroupId;

/// A map equal to `map` that has never shared an acting-set cell with it:
/// what it answers is ranked from `osds` there and then.
fn ranked_afresh(map: &OsdMap) -> OsdMap {
    let mut fresh = OsdMap::new(1, 1, map.pg_count, map.replication);
    fresh.osds = map.osds.clone();
    fresh.epoch = map.epoch;
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Acting sets are always the right size, span distinct nodes, contain
    /// only up OSDs, and failures move only affected groups — under any
    /// sequence of failures that leaves enough nodes.
    #[test]
    fn placement_invariants_under_failures(
        nodes in 3u32..8,
        osds_per_node in 1u32..4,
        kills in proptest::collection::vec(any::<u32>(), 0..4),
    ) {
        let mut map = OsdMap::new(nodes, osds_per_node, 32, 2);
        for k in kills {
            // Keep at least two distinct up nodes.
            let up_nodes: std::collections::HashSet<_> =
                map.up_osds().map(|o| o.node).collect();
            if up_nodes.len() <= 2 {
                break;
            }
            let candidates: Vec<OsdId> = map.up_osds().map(|o| o.id).collect();
            let victim = candidates[(k as usize) % candidates.len()];
            let before: Vec<_> = (0..32).map(|g| map.acting_set(GroupId(g))).collect();
            map.mark_down(victim);
            for (g, old) in before.iter().enumerate() {
                let new = map.acting_set(GroupId(g as u32));
                prop_assert_eq!(new.len(), 2);
                // Distinct nodes.
                prop_assert_ne!(map.osd(new[0]).node, map.osd(new[1]).node);
                // Only live members.
                for &o in &new {
                    prop_assert!(map.osd(o).up);
                }
                // Minimal movement: untouched groups stay put.
                if !old.contains(&victim) {
                    prop_assert_eq!(&new, old, "group {} moved needlessly", g);
                }
            }
        }
    }

    /// Adding one OSD to an N-OSD cluster remaps only its fair share of
    /// groups: weighted rendezvous placement moves a group only when the
    /// newcomer out-scores an incumbent, which happens for ~pg_count/(N+1)
    /// groups per acting-set slot. Allow 2x per slot plus slack for the
    /// node-dedup second slot.
    #[test]
    fn adding_one_osd_remaps_bounded_share(
        nodes in 3u32..9,
        osds_per_node in 1u32..4,
        pg_count in 64u32..257,
    ) {
        let mut map = OsdMap::new(nodes, osds_per_node, pg_count, 2);
        let before: Vec<_> = (0..pg_count).map(|g| map.acting_set(GroupId(g))).collect();
        // A brand-new node, so the newcomer competes for both slots.
        let id = map.add_osd(NodeId(nodes), DEFAULT_OSD_WEIGHT);
        let mut moved = 0u32;
        let mut gained = 0u32;
        for (g, old) in before.iter().enumerate() {
            let new = map.acting_set(GroupId(g as u32));
            prop_assert_eq!(new.len(), 2);
            if new.contains(&id) {
                gained += 1;
            }
            if &new != old {
                moved += 1;
                prop_assert!(
                    new.contains(&id),
                    "group {g} changed without involving the new OSD: {old:?} -> {new:?}"
                );
            }
        }
        let n = nodes * osds_per_node;
        let fair = pg_count / (n + 1);
        let bound = 2 * 2 * fair + 8;
        prop_assert!(
            moved <= bound,
            "one added OSD moved {moved} of {pg_count} groups (fair {fair}, bound {bound})"
        );
        prop_assert_eq!(gained, moved, "every move pulled the newcomer in");
    }

    /// Epochs are strictly monotonic over any sequence of add/remove/
    /// reweight operations, every map stays placeable (full-size acting
    /// sets on distinct nodes), and no-op reweights do not bump the epoch.
    #[test]
    fn elastic_mutations_keep_epoch_monotonic_and_maps_placeable(
        nodes in 3u32..6,
        ops in proptest::collection::vec((0u8..3, any::<u32>(), any::<u32>()), 1..24),
    ) {
        let mut map = OsdMap::new(nodes, 2, 32, 2);
        for (kind, a, b) in ops {
            let before = map.epoch;
            let in_nodes: std::collections::HashSet<_> =
                map.in_osds().map(|o| o.node).collect();
            match kind {
                0 => {
                    // Add on a (possibly new) node, with a non-zero weight.
                    let node = NodeId(a % (nodes + 4));
                    let w = (b % (4 * DEFAULT_OSD_WEIGHT)).max(1);
                    let id = map.add_osd(node, w);
                    prop_assert_eq!(id.0 as usize, map.osds.len() - 1, "dense ids");
                    prop_assert!(map.epoch > before, "add bumps the epoch");
                }
                1 => {
                    // Remove, but never below two distinct in-service nodes.
                    let victims: Vec<OsdId> = map.in_osds().map(|o| o.id).collect();
                    let victim = victims[(a as usize) % victims.len()];
                    let survivors: std::collections::HashSet<_> = map
                        .in_osds()
                        .filter(|o| o.id != victim)
                        .map(|o| o.node)
                        .collect();
                    if in_nodes.len() <= 2 || survivors.len() < 2 {
                        continue;
                    }
                    map.remove_osd(victim);
                    prop_assert!(!map.osd(victim).in_set(), "removed OSD is out");
                    prop_assert!(map.epoch > before, "remove bumps the epoch");
                }
                _ => {
                    let targets: Vec<OsdId> = map.in_osds().map(|o| o.id).collect();
                    let target = targets[(a as usize) % targets.len()];
                    // Keep two in-service nodes: never zero-weight here.
                    let w = (b % (4 * DEFAULT_OSD_WEIGHT)).max(1);
                    let changed = map.set_weight(target, w);
                    if changed {
                        prop_assert!(map.epoch > before, "reweight bumps the epoch");
                    } else {
                        prop_assert_eq!(map.epoch, before, "no-op reweight is free");
                    }
                }
            }
            for g in 0..32 {
                let set = map.acting_set(GroupId(g));
                prop_assert_eq!(set.len(), 2, "group {} lost a replica slot", g);
                prop_assert_ne!(map.osd(set[0]).node, map.osd(set[1]).node);
                for &o in &set {
                    prop_assert!(map.osd(o).in_set(), "group {} placed on an out OSD", g);
                }
            }
        }
    }

    /// Clones share memoized acting sets and mutators leave them behind:
    /// whatever was looked up before, on whichever clone, every map answers
    /// every group — also groups past `pg_count`, which are never memoized
    /// — as a map ranked afresh from its own `osds`, and mutating one clone
    /// never changes what another answers.
    #[test]
    fn clones_answer_as_a_fresh_map_and_never_see_each_others_mutations(
        ops in proptest::collection::vec((0u8..7, any::<u32>(), any::<u32>()), 1..40),
    ) {
        const PGS: u32 = 16;
        let check = |map: &OsdMap| {
            let fresh = ranked_afresh(map);
            for g in 0..PGS + 3 {
                prop_assert_eq!(map.acting_set(GroupId(g)), fresh.acting_set(GroupId(g)));
            }
            Ok(())
        };
        let mut maps = vec![OsdMap::new(3, 2, PGS, 2)];
        for (kind, a, b) in ops {
            let at = a as usize % maps.len();
            let osd = OsdId(b % maps[at].osds.len() as u32);
            match kind {
                // A partial lookup, so later clones inherit half-filled cells.
                0 => {
                    let _ = maps[at].acting_set(GroupId(b % (PGS + 3)));
                }
                1 => {
                    let clone = maps[at].clone();
                    maps.push(clone);
                }
                2 => maps[at].mark_down(osd),
                3 => maps[at].mark_up(osd),
                4 => {
                    maps[at].add_osd(NodeId(b % 5), (a % (3 * DEFAULT_OSD_WEIGHT)).max(1));
                }
                5 => maps[at].remove_osd(osd),
                _ => {
                    maps[at].set_weight(osd, a % (3 * DEFAULT_OSD_WEIGHT));
                }
            }
            if kind >= 2 {
                for map in &maps {
                    check(map)?;
                }
            }
        }
        for map in &maps {
            check(map)?;
        }
    }
}
