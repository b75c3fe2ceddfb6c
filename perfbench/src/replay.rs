//! Independent replay of MBSP schedules.
//!
//! This module shares no code with `mbsp_model`'s validator or cost function:
//! it keeps its own edge-list DAG ([`Graph`]), its own schedule form
//! ([`Plan`]) and its own pebble state, and replays a schedule under the
//! paper's four-phase superstep semantics:
//!
//! 1. compute phase (computes and deletes, in order), per processor;
//! 2. save phase — slow memory is written here, so every save of a superstep
//!    is visible to every load of the same superstep;
//! 3. delete phase;
//! 4. load phase.
//!
//! Sources start in slow memory; a compute needs every parent cached on its
//! processor and room under `r`; a save needs the value cached; a load needs
//! the value in slow memory and room under `r`; every sink must be in slow
//! memory at the end. The synchronous cost is recomputed as
//! `Σ_s (max_p compute + g·max_p save + g·max_p load) + L·S`.

use std::fmt;

/// Slack on the memory bound, for weights that are sums of floats.
const MEMORY_EPS: f64 = 1e-9;

/// A weighted DAG as a plain parent list, the benchmark's own mirror.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// `parents[v]`: the nodes with an edge into `v`.
    pub parents: Vec<Vec<u32>>,
    /// Compute weight per node.
    pub compute: Vec<f64>,
    /// Memory weight per node.
    pub memory: Vec<f64>,
}

/// One edit of a [`Graph`], mirroring the engine's delta vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Append an isolated node.
    AddNode { compute: f64, memory: f64 },
    /// Remove an isolated node; the last node moves into its id.
    RemoveNode(u32),
    /// Insert the edge `from -> to`.
    AddEdge(u32, u32),
    /// Remove the edge `from -> to`.
    RemoveEdge(u32, u32),
    /// Replace a node's weights.
    Reweight {
        node: u32,
        compute: f64,
        memory: f64,
    },
}

impl Graph {
    /// Builds a graph from an edge list.
    pub fn from_edges(compute: Vec<f64>, memory: Vec<f64>, edges: &[(u32, u32)]) -> Graph {
        assert_eq!(compute.len(), memory.len());
        let mut parents = vec![Vec::new(); compute.len()];
        for &(u, v) in edges {
            parents[v as usize].push(u);
        }
        Graph {
            parents,
            compute,
            memory,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.parents.iter().map(Vec::len).sum()
    }

    fn has_children(&self) -> Vec<bool> {
        let mut has = vec![false; self.len()];
        for ps in &self.parents {
            for &u in ps {
                has[u as usize] = true;
            }
        }
        has
    }

    /// Applies one edit. Returns an error for an edit the engine would refuse
    /// (the benchmark only sends edits the engine accepts, so an error here
    /// means the mirror and the engine disagree).
    pub fn apply(&mut self, edit: &Edit) -> Result<(), String> {
        let n = self.len() as u32;
        let in_range = |v: u32| {
            if v < n {
                Ok(())
            } else {
                Err(format!("node {v} out of range ({n} nodes)"))
            }
        };
        match *edit {
            Edit::AddNode { compute, memory } => {
                self.parents.push(Vec::new());
                self.compute.push(compute);
                self.memory.push(memory);
            }
            Edit::RemoveNode(v) => {
                in_range(v)?;
                let isolated = self.parents[v as usize].is_empty()
                    && !self.parents.iter().any(|ps| ps.contains(&v));
                if !isolated {
                    return Err(format!("node {v} is not isolated"));
                }
                let last = n - 1;
                self.parents.swap_remove(v as usize);
                self.compute.swap_remove(v as usize);
                self.memory.swap_remove(v as usize);
                if v != last {
                    for ps in &mut self.parents {
                        for u in ps.iter_mut() {
                            if *u == last {
                                *u = v;
                            }
                        }
                    }
                }
            }
            Edit::AddEdge(u, v) => {
                in_range(u)?;
                in_range(v)?;
                if u == v || self.parents[v as usize].contains(&u) {
                    return Err(format!("edge {u}->{v} is a loop or a duplicate"));
                }
                self.parents[v as usize].push(u);
            }
            Edit::RemoveEdge(u, v) => {
                in_range(u)?;
                in_range(v)?;
                let ps = &mut self.parents[v as usize];
                let Some(at) = ps.iter().position(|&p| p == u) else {
                    return Err(format!("edge {u}->{v} does not exist"));
                };
                ps.swap_remove(at);
            }
            Edit::Reweight {
                node,
                compute,
                memory,
            } => {
                in_range(node)?;
                self.compute[node as usize] = compute;
                self.memory[node as usize] = memory;
            }
        }
        Ok(())
    }
}

/// A step of a compute phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Compute the node.
    Compute(u32),
    /// Evict the node.
    Delete(u32),
}

/// The four phases of one processor in one superstep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phases {
    pub compute: Vec<Step>,
    pub save: Vec<u32>,
    pub delete: Vec<u32>,
    pub load: Vec<u32>,
}

/// A schedule: `steps[s][p]` holds processor `p`'s phases in superstep `s`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    pub steps: Vec<Vec<Phases>>,
}

/// The machine: processors, fast-memory bound `r`, gap `g`, latency `L`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    pub procs: usize,
    pub r: f64,
    pub g: f64,
    pub latency: f64,
}

/// Why a schedule is illegal.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A superstep does not list exactly one phase tuple per processor.
    ProcCount { step: usize, found: usize },
    /// An operation names a node outside the DAG.
    NodeRange { step: usize, node: u32 },
    /// A source is computed (sources are only ever loaded).
    ComputeSource { step: usize, proc: usize, node: u32 },
    /// A compute runs while a parent is not cached on its processor.
    MissingParent {
        step: usize,
        proc: usize,
        node: u32,
        parent: u32,
    },
    /// A compute or load would push the processor over `r`.
    OverMemory { step: usize, proc: usize, node: u32 },
    /// A save of a value that is not cached.
    SaveUncached { step: usize, proc: usize, node: u32 },
    /// A delete of a value that is not cached.
    DeleteUncached { step: usize, proc: usize, node: u32 },
    /// A load of a value that is not in slow memory.
    LoadAbsent { step: usize, proc: usize, node: u32 },
    /// A sink is not in slow memory at the end.
    SinkNotSaved { node: u32 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Pebble state: one cached-bit per (processor, node), per-processor memory
/// in use, and one slow-memory bit per node.
struct State {
    n: usize,
    cached: Vec<bool>,
    used: Vec<f64>,
    slow: Vec<bool>,
}

impl State {
    fn cached(&self, p: usize, v: u32) -> bool {
        self.cached[p * self.n + v as usize]
    }

    fn place(&mut self, g: &Graph, m: &Machine, p: usize, v: u32) -> bool {
        let slot = p * self.n + v as usize;
        if !self.cached[slot] {
            let after = self.used[p] + g.memory[v as usize];
            if after > m.r + MEMORY_EPS {
                return false;
            }
            self.cached[slot] = true;
            self.used[p] = after;
        }
        true
    }

    fn evict(&mut self, g: &Graph, p: usize, v: u32) -> bool {
        let slot = p * self.n + v as usize;
        if !self.cached[slot] {
            return false;
        }
        self.cached[slot] = false;
        self.used[p] -= g.memory[v as usize];
        true
    }
}

/// Replays `plan` on `graph` and `machine`; returns the synchronous cost of a
/// legal schedule, or the first violation found.
pub fn replay(graph: &Graph, machine: &Machine, plan: &Plan) -> Result<f64, Violation> {
    let n = graph.len();
    let p_count = machine.procs;
    let mut st = State {
        n,
        cached: vec![false; n * p_count],
        used: vec![0.0; p_count],
        slow: graph.parents.iter().map(Vec::is_empty).collect(),
    };
    let mut cost = 0.0;
    for (s, step) in plan.steps.iter().enumerate() {
        if step.len() != p_count {
            return Err(Violation::ProcCount {
                step: s,
                found: step.len(),
            });
        }
        let check = |v: u32| {
            if (v as usize) < n {
                Ok(())
            } else {
                Err(Violation::NodeRange { step: s, node: v })
            }
        };
        let (mut max_comp, mut max_save, mut max_load) = (0.0f64, 0.0f64, 0.0f64);
        for (p, ph) in step.iter().enumerate() {
            let mut work = 0.0;
            for &c in &ph.compute {
                match c {
                    Step::Compute(v) => {
                        check(v)?;
                        let parents = &graph.parents[v as usize];
                        if parents.is_empty() {
                            return Err(Violation::ComputeSource {
                                step: s,
                                proc: p,
                                node: v,
                            });
                        }
                        if let Some(&parent) = parents.iter().find(|&&u| !st.cached(p, u)) {
                            return Err(Violation::MissingParent {
                                step: s,
                                proc: p,
                                node: v,
                                parent,
                            });
                        }
                        if !st.place(graph, machine, p, v) {
                            return Err(Violation::OverMemory {
                                step: s,
                                proc: p,
                                node: v,
                            });
                        }
                        work += graph.compute[v as usize];
                    }
                    Step::Delete(v) => {
                        check(v)?;
                        if !st.evict(graph, p, v) {
                            return Err(Violation::DeleteUncached {
                                step: s,
                                proc: p,
                                node: v,
                            });
                        }
                    }
                }
            }
            max_comp = max_comp.max(work);
        }
        for (p, ph) in step.iter().enumerate() {
            let mut volume = 0.0;
            for &v in &ph.save {
                check(v)?;
                if !st.cached(p, v) {
                    return Err(Violation::SaveUncached {
                        step: s,
                        proc: p,
                        node: v,
                    });
                }
                st.slow[v as usize] = true;
                volume += graph.memory[v as usize];
            }
            max_save = max_save.max(machine.g * volume);
        }
        for (p, ph) in step.iter().enumerate() {
            for &v in &ph.delete {
                check(v)?;
                if !st.evict(graph, p, v) {
                    return Err(Violation::DeleteUncached {
                        step: s,
                        proc: p,
                        node: v,
                    });
                }
            }
        }
        for (p, ph) in step.iter().enumerate() {
            let mut volume = 0.0;
            for &v in &ph.load {
                check(v)?;
                if !st.slow[v as usize] {
                    return Err(Violation::LoadAbsent {
                        step: s,
                        proc: p,
                        node: v,
                    });
                }
                if !st.place(graph, machine, p, v) {
                    return Err(Violation::OverMemory {
                        step: s,
                        proc: p,
                        node: v,
                    });
                }
                volume += graph.memory[v as usize];
            }
            max_load = max_load.max(machine.g * volume);
        }
        cost += max_comp + max_save + max_load;
    }
    let has_children = graph.has_children();
    if let Some(v) = (0..n).find(|&v| !has_children[v] && !st.slow[v]) {
        return Err(Violation::SinkNotSaved { node: v as u32 });
    }
    Ok(cost + machine.latency * plan.steps.len() as f64)
}

/// True if two costs agree to a relative `1e-9` (costs are sums of the same
/// weights, added in a possibly different order).
pub fn same_cost(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `0 -> 1 -> 2`, unit weights.
    fn path3() -> Graph {
        Graph::from_edges(vec![1.0; 3], vec![1.0; 3], &[(0, 1), (1, 2)])
    }

    fn machine(procs: usize, r: f64) -> Machine {
        Machine {
            procs,
            r,
            g: 2.0,
            latency: 5.0,
        }
    }

    fn phases(compute: &[Step], save: &[u32], delete: &[u32], load: &[u32]) -> Phases {
        Phases {
            compute: compute.to_vec(),
            save: save.to_vec(),
            delete: delete.to_vec(),
            load: load.to_vec(),
        }
    }

    fn idle() -> Phases {
        Phases::default()
    }

    /// Superstep 0 loads the source; superstep 1 computes 1 and 2 (deleting
    /// 0 on the way) and saves the sink.
    fn legal_path3() -> Plan {
        use Step::*;
        Plan {
            steps: vec![
                vec![phases(&[], &[], &[], &[0])],
                vec![phases(&[Compute(1), Delete(0), Compute(2)], &[2], &[], &[])],
            ],
        }
    }

    #[test]
    fn legal_single_processor_cost() {
        // compute 2, save g·1 = 2, load g·1 = 2, latency 2·5 = 10.
        let cost = replay(&path3(), &machine(1, 2.0), &legal_path3()).unwrap();
        assert_eq!(cost, 16.0);
    }

    #[test]
    fn load_sees_same_superstep_save_across_processors() {
        use Step::*;
        // Processor 0 computes and saves 1 in superstep 1; processor 1 loads
        // it in the same superstep and finishes the path.
        let plan = Plan {
            steps: vec![
                vec![phases(&[], &[], &[], &[0]), idle()],
                vec![
                    phases(&[Compute(1)], &[1], &[], &[]),
                    phases(&[], &[], &[], &[1]),
                ],
                vec![idle(), phases(&[Compute(2)], &[2], &[], &[])],
            ],
        };
        // Step costs: (0 + 0 + 2) + (1 + 2 + 2) + (1 + 2 + 0), plus 3·L.
        let cost = replay(&path3(), &machine(2, 2.0), &plan).unwrap();
        assert_eq!(cost, 10.0 + 15.0);
    }

    #[test]
    fn cost_takes_the_max_over_processors_per_phase() {
        use Step::*;
        // Two independent sources feeding two sinks, one chain per processor.
        let g = Graph::from_edges(vec![1.0, 1.0, 3.0, 1.0], vec![1.0; 4], &[(0, 2), (1, 3)]);
        let plan = Plan {
            steps: vec![
                vec![phases(&[], &[], &[], &[0]), phases(&[], &[], &[], &[1])],
                vec![
                    phases(&[Compute(2)], &[2], &[], &[]),
                    phases(&[Compute(3)], &[3], &[], &[]),
                ],
            ],
        };
        // max loads 2, then max compute 3 + max save 2, plus 2·L.
        let cost = replay(&g, &machine(2, 2.0), &plan).unwrap();
        assert_eq!(cost, 2.0 + 3.0 + 2.0 + 10.0);
    }

    fn violation(graph: &Graph, m: &Machine, plan: &Plan) -> Violation {
        replay(graph, m, plan).expect_err("schedule must be rejected")
    }

    #[test]
    fn rejects_missing_parent() {
        use Step::*;
        let plan = Plan {
            steps: vec![vec![phases(&[Compute(1)], &[], &[], &[])]],
        };
        assert!(matches!(
            violation(&path3(), &machine(1, 2.0), &plan),
            Violation::MissingParent {
                node: 1,
                parent: 0,
                ..
            }
        ));
    }

    #[test]
    fn rejects_computing_a_source() {
        use Step::*;
        let plan = Plan {
            steps: vec![vec![phases(&[Compute(0)], &[], &[], &[])]],
        };
        assert!(matches!(
            violation(&path3(), &machine(1, 2.0), &plan),
            Violation::ComputeSource { node: 0, .. }
        ));
    }

    #[test]
    fn rejects_compute_without_room() {
        // r = 1 holds the parent but not the child as well.
        let plan = legal_path3();
        assert!(matches!(
            violation(&path3(), &machine(1, 1.0), &plan),
            Violation::OverMemory { node: 1, .. }
        ));
    }

    #[test]
    fn rejects_load_without_room() {
        let g = Graph::from_edges(vec![1.0; 2], vec![1.0; 2], &[]);
        let plan = Plan {
            steps: vec![vec![phases(&[], &[], &[], &[0, 1])]],
        };
        assert!(matches!(
            violation(&g, &machine(1, 1.0), &plan),
            Violation::OverMemory { node: 1, .. }
        ));
    }

    #[test]
    fn rejects_save_of_uncached_value() {
        let plan = Plan {
            steps: vec![vec![phases(&[], &[0], &[], &[])]],
        };
        assert!(matches!(
            violation(&path3(), &machine(1, 2.0), &plan),
            Violation::SaveUncached { node: 0, .. }
        ));
    }

    #[test]
    fn rejects_delete_of_uncached_value() {
        let plan = Plan {
            steps: vec![vec![phases(&[], &[], &[0], &[])]],
        };
        assert!(matches!(
            violation(&path3(), &machine(1, 2.0), &plan),
            Violation::DeleteUncached { node: 0, .. }
        ));
    }

    #[test]
    fn rejects_load_of_value_saved_only_later() {
        use Step::*;
        // Processor 1 loads node 1 one superstep before processor 0 saves it.
        let plan = Plan {
            steps: vec![
                vec![phases(&[], &[], &[], &[0]), phases(&[], &[], &[], &[1])],
                vec![phases(&[Compute(1)], &[1], &[], &[]), idle()],
            ],
        };
        assert!(matches!(
            violation(&path3(), &machine(2, 2.0), &plan),
            Violation::LoadAbsent {
                step: 0,
                proc: 1,
                node: 1
            }
        ));
    }

    #[test]
    fn rejects_unsaved_sink() {
        let mut plan = legal_path3();
        plan.steps[1][0].save.clear();
        assert!(matches!(
            violation(&path3(), &machine(1, 2.0), &plan),
            Violation::SinkNotSaved { node: 2 }
        ));
    }

    #[test]
    fn rejects_wrong_processor_count_and_range() {
        let plan = Plan {
            steps: vec![vec![idle(), idle()]],
        };
        assert!(matches!(
            violation(&path3(), &machine(1, 2.0), &plan),
            Violation::ProcCount { found: 2, .. }
        ));
        let plan = Plan {
            steps: vec![vec![phases(&[], &[], &[], &[7])]],
        };
        assert!(matches!(
            violation(&path3(), &machine(1, 2.0), &plan),
            Violation::NodeRange { node: 7, .. }
        ));
    }

    #[test]
    fn mirror_edits_follow_swap_remove() {
        let mut g = Graph::from_edges(vec![1.0; 4], vec![1.0; 4], &[(0, 1), (1, 3)]);
        g.apply(&Edit::AddEdge(0, 3)).unwrap();
        assert!(g.apply(&Edit::AddEdge(0, 3)).is_err());
        assert!(g.apply(&Edit::RemoveNode(3)).is_err());
        // Node 2 is isolated; node 3 (the last) takes its id.
        g.apply(&Edit::RemoveNode(2)).unwrap();
        assert_eq!(g.len(), 3);
        let mut p2 = g.parents[2].clone();
        p2.sort_unstable();
        assert_eq!(p2, vec![0, 1]);
        g.apply(&Edit::RemoveEdge(1, 2)).unwrap();
        g.apply(&Edit::Reweight {
            node: 1,
            compute: 4.0,
            memory: 2.0,
        })
        .unwrap();
        g.apply(&Edit::AddNode {
            compute: 2.0,
            memory: 3.0,
        })
        .unwrap();
        assert_eq!((g.len(), g.num_edges()), (4, 2));
        assert_eq!((g.compute[1], g.memory[3]), (4.0, 3.0));
    }
}
