//! Call-graph-driven co-location grouping.

use std::collections::HashMap;

use weaver_metrics::CallGraphSnapshot;

/// Tunables for the co-location optimizer.
#[derive(Debug, Clone)]
pub struct ColocationConfig {
    /// Maximum number of components per group (bounds blast radius — the
    /// fault-tolerance argument for *not* fusing everything into one
    /// process).
    pub max_group_size: usize,
    /// Ignore edges below this traffic volume (bytes + per-call overhead);
    /// co-locating quiet pairs buys nothing and costs scheduling freedom.
    pub min_traffic: u64,
    /// Per-component estimated CPU cost (fractions of a core); a group's
    /// total must stay under `max_group_cpu` so a single process does not
    /// exceed one machine. Missing components default to `default_cpu`.
    pub cpu_cost: HashMap<String, f64>,
    /// Default CPU estimate for components absent from `cpu_cost`.
    pub default_cpu: f64,
    /// CPU budget per group.
    pub max_group_cpu: f64,
}

impl Default for ColocationConfig {
    fn default() -> Self {
        ColocationConfig {
            max_group_size: 4,
            min_traffic: 1,
            cpu_cost: HashMap::new(),
            default_cpu: 0.5,
            max_group_cpu: 8.0,
        }
    }
}

/// Groups components by merging the chattiest call-graph edges first
/// (agglomerative clustering with union-find), subject to the config's
/// group-size and CPU budgets.
///
/// Returns the groups sorted deterministically (each group's members sorted,
/// groups ordered by first member). Every component in the graph appears in
/// exactly one group; components with no qualifying edges get singleton
/// groups.
pub fn colocate(graph: &CallGraphSnapshot, config: &ColocationConfig) -> Vec<Vec<String>> {
    let components = graph.components();
    let index: HashMap<&str, usize> = components
        .iter()
        .enumerate()
        .map(|(i, name)| (name.as_str(), i))
        .collect();

    // Symmetric traffic per component pair.
    let mut edges: HashMap<(usize, usize), u64> = HashMap::new();
    for (edge, stats) in &graph.edges {
        let (Some(&a), Some(&b)) = (
            index.get(edge.caller.as_str()),
            index.get(edge.callee.as_str()),
        ) else {
            continue; // Ingress ("") or unknown endpoints.
        };
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        *edges.entry(key).or_default() += stats.total_bytes() + stats.calls * 64;
    }

    let mut sorted_edges: Vec<((usize, usize), u64)> = edges.into_iter().collect();
    // Heaviest first; ties broken by index pair for determinism.
    sorted_edges.sort_by_key(|&((a, b), w)| (std::cmp::Reverse(w), a, b));

    // Union-find with group size and CPU tracking.
    let mut parent: Vec<usize> = (0..components.len()).collect();
    let mut size: Vec<usize> = vec![1; components.len()];
    let mut cpu: Vec<f64> = components
        .iter()
        .map(|name| {
            config
                .cpu_cost
                .get(name)
                .copied()
                .unwrap_or(config.default_cpu)
        })
        .collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // Path halving.
            x = parent[x];
        }
        x
    }

    for ((a, b), weight) in sorted_edges {
        if weight < config.min_traffic {
            break;
        }
        let ra = find(&mut parent, a);
        let rb = find(&mut parent, b);
        if ra == rb {
            continue;
        }
        if size[ra] + size[rb] > config.max_group_size {
            continue;
        }
        if cpu[ra] + cpu[rb] > config.max_group_cpu {
            continue;
        }
        // Union by size.
        let (big, small) = if size[ra] >= size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        parent[small] = big;
        size[big] += size[small];
        cpu[big] += cpu[small];
    }

    let mut groups: HashMap<usize, Vec<String>> = HashMap::new();
    for (i, name) in components.iter().enumerate() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(name.clone());
    }
    let mut out: Vec<Vec<String>> = groups.into_values().collect();
    for g in &mut out {
        g.sort();
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_metrics::{CallEdge, CallGraph};

    fn graph(edges: &[(&str, &str, u64)]) -> CallGraphSnapshot {
        let g = CallGraph::new();
        for &(a, b, bytes) in edges {
            g.record(
                CallEdge {
                    caller: a.into(),
                    callee: b.into(),
                    method: "m".into(),
                },
                bytes as usize,
                0,
                1000,
                false,
            );
        }
        g.snapshot()
    }

    #[test]
    fn chatty_pair_is_grouped() {
        let snap = graph(&[("a", "b", 1_000_000), ("a", "c", 10), ("c", "d", 10)]);
        let config = ColocationConfig {
            min_traffic: 1000,
            ..Default::default()
        };
        let groups = colocate(&snap, &config);
        let ab = groups
            .iter()
            .find(|g| g.contains(&"a".to_string()))
            .unwrap();
        assert!(ab.contains(&"b".to_string()), "groups: {groups:?}");
        // Quiet components stay separate.
        assert!(groups.iter().any(|g| g == &vec!["c".to_string()]));
        assert!(groups.iter().any(|g| g == &vec!["d".to_string()]));
    }

    #[test]
    fn group_size_budget_respected() {
        // A clique of 5 chatty components with max group size 3.
        let names = ["a", "b", "c", "d", "e"];
        let mut edges = Vec::new();
        for i in 0..names.len() {
            for j in (i + 1)..names.len() {
                edges.push((names[i], names[j], 100_000u64));
            }
        }
        let snap = graph(&edges);
        let config = ColocationConfig {
            max_group_size: 3,
            ..Default::default()
        };
        let groups = colocate(&snap, &config);
        assert!(groups.iter().all(|g| g.len() <= 3), "{groups:?}");
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn cpu_budget_respected() {
        let snap = graph(&[("a", "b", 1_000_000)]);
        let mut cpu_cost = HashMap::new();
        cpu_cost.insert("a".to_string(), 6.0);
        cpu_cost.insert("b".to_string(), 6.0);
        let config = ColocationConfig {
            cpu_cost,
            max_group_cpu: 8.0,
            ..Default::default()
        };
        let groups = colocate(&snap, &config);
        // 6 + 6 > 8: must not merge despite heavy traffic.
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn deterministic_output() {
        let snap = graph(&[("z", "y", 500), ("a", "b", 500), ("m", "n", 500)]);
        let config = ColocationConfig::default();
        assert_eq!(colocate(&snap, &config), colocate(&snap, &config));
    }

    #[test]
    fn empty_graph_no_groups() {
        let snap = CallGraphSnapshot::default();
        assert!(colocate(&snap, &ColocationConfig::default()).is_empty());
    }

    #[test]
    fn transitive_merging_chains_groups() {
        // a–b and b–c are chatty: with room, all three fuse.
        let snap = graph(&[("a", "b", 100_000), ("b", "c", 90_000)]);
        let config = ColocationConfig {
            max_group_size: 3,
            ..Default::default()
        };
        let groups = colocate(&snap, &config);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0], vec!["a", "b", "c"]);
    }
}
