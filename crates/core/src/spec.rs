//! Declarative protocol specs: the serializable registry of every
//! forwarding algorithm, buildable against an [`AnyTopology`].
//!
//! A [`ProtocolSpec`] names an algorithm and its parameters as *data*
//! (`{"kind": "hpts", "levels": 2}` in a JSON scenario file).
//! [`ProtocolSpec::build`] checks **applicability** — PTS/PPTS/HPTS are
//! proven on paths, the tree protocols on directed trees, the greedy
//! baselines run anywhere — and returns a boxed
//! [`Protocol<AnyTopology>`](Protocol) whose planning, naming and
//! injection mode delegate verbatim to the concrete protocol, so a
//! spec-built run is byte-identical to one wired by hand (the scenario
//! differential suite pins this).

use std::fmt;

use aqt_model::{
    AnyTopology, DirectedTree, ForwardingPlan, InjectionMode, NetworkState, NodeId, Path, Protocol,
    Round, Topology,
};
use serde::{Deserialize, Serialize};

use crate::batched::Batched;
use crate::dag::DagGreedy;
use crate::greedy::{Greedy, GreedyPolicy};
use crate::hpts::Hpts;
use crate::pts::{Ppts, Pts};
use crate::tree::{TreePpts, TreePts};

/// A serializable description of a forwarding protocol.
///
/// # Examples
///
/// ```
/// use aqt_core::{GreedyPolicy, ProtocolSpec};
/// use aqt_model::TopologySpec;
///
/// let topo = TopologySpec::Path { n: 8 }.build()?;
/// let protocol = ProtocolSpec::Pts { dest: None, eager: false }.build(&topo)?;
/// assert_eq!(protocol.name(), "PTS(w=v7)");
///
/// // Applicability is checked: PTS is proven on paths only.
/// let grid = TopologySpec::Grid { rows: 2, cols: 2 }.build()?;
/// assert!(ProtocolSpec::Pts { dest: None, eager: false }.build(&grid).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ProtocolSpec {
    /// [`Pts`] (Alg. 1) — single destination, paths only.
    Pts {
        /// Destination node; defaults to the path's last node.
        dest: Option<usize>,
        /// Eager delivery variant (ablation A2); `false` when omitted.
        #[serde(default)]
        eager: bool,
    },
    /// [`Ppts`] (Alg. 2) — multi-destination, paths only.
    Ppts {
        /// Eager delivery variant; `false` when omitted.
        #[serde(default)]
        eager: bool,
    },
    /// [`Hpts`] (Algs. 3–5) — hierarchical, paths only; the hierarchy is
    /// sized to the path via [`Hpts::for_line`].
    Hpts {
        /// Level count ℓ ≥ 1.
        levels: u32,
    },
    /// [`TreePts`] (App. B.2) — directed trees only.
    TreePts {
        /// Destination node; defaults to the tree's root.
        dest: Option<usize>,
    },
    /// [`TreePpts`] (Alg. 6) — directed trees only.
    TreePpts,
    /// [`Greedy`] baseline under the given policy — any topology.
    Greedy {
        /// Packet-selection policy.
        policy: GreedyPolicy,
    },
    /// [`DagGreedy`] (per-link greedy) under the given policy — any
    /// topology; coincides with [`Greedy`] on paths and trees.
    DagGreedy {
        /// Packet-selection policy.
        policy: GreedyPolicy,
    },
    /// [`Batched`] phase-staging wrapper around another spec.
    Batched {
        /// The wrapped protocol (must not itself be batched).
        inner: Box<ProtocolSpec>,
        /// Phase length ℓ ≥ 1.
        phase: u64,
    },
}

/// Why a [`ProtocolSpec`] could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolSpecError {
    /// The protocol is not proven (or defined) on the given topology
    /// family.
    NotApplicable {
        /// The protocol kind, e.g. `"pts"`.
        protocol: &'static str,
        /// The family it needs, e.g. `"path"`.
        needs: &'static str,
        /// The family the scenario supplied.
        got: &'static str,
    },
    /// A parameter is out of range for the topology.
    InvalidParameter {
        /// The protocol kind.
        protocol: &'static str,
        /// What is wrong.
        reason: String,
    },
}

impl fmt::Display for ProtocolSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolSpecError::NotApplicable {
                protocol,
                needs,
                got,
            } => write!(f, "{protocol} requires a {needs} topology, got {got}"),
            ProtocolSpecError::InvalidParameter { protocol, reason } => {
                write!(f, "invalid {protocol} spec: {reason}")
            }
        }
    }
}

impl std::error::Error for ProtocolSpecError {}

impl ProtocolSpec {
    /// Short kind label (matches the serialized `kind` tag).
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolSpec::Pts { .. } => "pts",
            ProtocolSpec::Ppts { .. } => "ppts",
            ProtocolSpec::Hpts { .. } => "hpts",
            ProtocolSpec::TreePts { .. } => "tree_pts",
            ProtocolSpec::TreePpts => "tree_ppts",
            ProtocolSpec::Greedy { .. } => "greedy",
            ProtocolSpec::DagGreedy { .. } => "dag_greedy",
            ProtocolSpec::Batched { .. } => "batched",
        }
    }

    /// Builds the protocol against `topo`, checking applicability and
    /// parameters.
    ///
    /// # Errors
    ///
    /// [`ProtocolSpecError::NotApplicable`] when the algorithm is not
    /// defined on `topo`'s family, [`ProtocolSpecError::InvalidParameter`]
    /// for out-of-range parameters.
    pub fn build(
        &self,
        topo: &AnyTopology,
    ) -> Result<Box<dyn Protocol<AnyTopology> + Send + Sync>, ProtocolSpecError> {
        let n = topo.node_count();
        match self {
            ProtocolSpec::Pts { dest, eager } => {
                let path = require_path(topo, "pts")?;
                let dest = resolve_dest(*dest, path.last(), n, "pts")?;
                let pts = if *eager {
                    Pts::eager(dest)
                } else {
                    Pts::new(dest)
                };
                Ok(Box::new(OnPath(pts)))
            }
            ProtocolSpec::Ppts { eager } => {
                require_path(topo, "ppts")?;
                let ppts = if *eager {
                    Ppts::new().eager()
                } else {
                    Ppts::new()
                };
                Ok(Box::new(OnPath(ppts)))
            }
            ProtocolSpec::Hpts { levels } => {
                require_path(topo, "hpts")?;
                let hpts = Hpts::for_line(n, *levels).map_err(|e| {
                    ProtocolSpecError::InvalidParameter {
                        protocol: "hpts",
                        reason: e.to_string(),
                    }
                })?;
                Ok(Box::new(OnPath(hpts)))
            }
            ProtocolSpec::TreePts { dest } => {
                let tree = require_tree(topo, "tree_pts")?;
                let dest = resolve_dest(*dest, tree.root(), n, "tree_pts")?;
                Ok(Box::new(OnTree(TreePts::new(dest))))
            }
            ProtocolSpec::TreePpts => {
                require_tree(topo, "tree_ppts")?;
                Ok(Box::new(OnTree(TreePpts::new())))
            }
            ProtocolSpec::Greedy { policy } => Ok(Box::new(Greedy::new(*policy))),
            ProtocolSpec::DagGreedy { policy } => Ok(Box::new(DagGreedy::new(*policy))),
            ProtocolSpec::Batched { inner, phase } => {
                if *phase == 0 {
                    return Err(ProtocolSpecError::InvalidParameter {
                        protocol: "batched",
                        reason: "phase length must be at least 1".into(),
                    });
                }
                if matches!(**inner, ProtocolSpec::Batched { .. }) {
                    return Err(ProtocolSpecError::InvalidParameter {
                        protocol: "batched",
                        reason: "cannot batch an already-batched protocol".into(),
                    });
                }
                let inner = inner.build(topo)?;
                Ok(Box::new(Batched::new(inner, *phase)))
            }
        }
    }
}

fn require_path<'t>(
    topo: &'t AnyTopology,
    protocol: &'static str,
) -> Result<&'t Path, ProtocolSpecError> {
    topo.as_path().ok_or(ProtocolSpecError::NotApplicable {
        protocol,
        needs: "path",
        got: topo.family(),
    })
}

fn require_tree<'t>(
    topo: &'t AnyTopology,
    protocol: &'static str,
) -> Result<&'t DirectedTree, ProtocolSpecError> {
    topo.as_tree().ok_or(ProtocolSpecError::NotApplicable {
        protocol,
        needs: "tree",
        got: topo.family(),
    })
}

fn resolve_dest(
    dest: Option<usize>,
    default: NodeId,
    n: usize,
    protocol: &'static str,
) -> Result<NodeId, ProtocolSpecError> {
    match dest {
        None => Ok(default),
        Some(w) if w < n => Ok(NodeId::new(w)),
        Some(w) => Err(ProtocolSpecError::InvalidParameter {
            protocol,
            reason: format!("destination {w} out of range for {n} nodes"),
        }),
    }
}

/// Adapts a path protocol to [`AnyTopology`]: planning unwraps the path
/// the build-time applicability check guaranteed.
struct OnPath<P>(P);

impl<P: Protocol<Path>> Protocol<AnyTopology> for OnPath<P> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn injection_mode(&self) -> InjectionMode {
        self.0.injection_mode()
    }

    fn plan(
        &mut self,
        round: Round,
        topology: &AnyTopology,
        state: &NetworkState,
        plan: &mut ForwardingPlan,
    ) {
        let path = topology
            .as_path()
            .expect("applicability checked at build time");
        self.0.plan(round, path, state, plan);
    }
}

/// Adapts a tree protocol to [`AnyTopology`].
struct OnTree<P>(P);

impl<P: Protocol<DirectedTree>> Protocol<AnyTopology> for OnTree<P> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn injection_mode(&self) -> InjectionMode {
        self.0.injection_mode()
    }

    fn plan(
        &mut self,
        round: Round,
        topology: &AnyTopology,
        state: &NetworkState,
        plan: &mut ForwardingPlan,
    ) {
        let tree = topology
            .as_tree()
            .expect("applicability checked at build time");
        self.0.plan(round, tree, state, plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::TopologySpec;

    fn roundtrip(spec: &ProtocolSpec) -> ProtocolSpec {
        serde_json::from_str(&serde_json::to_string(spec).unwrap()).expect("roundtrip")
    }

    #[test]
    fn registry_builds_with_legacy_names() {
        let path = TopologySpec::Path { n: 8 }.build().unwrap();
        let tree = TopologySpec::Tree(aqt_model::TreeSpec::Star { leaves: 3 })
            .build()
            .unwrap();
        let grid = TopologySpec::Grid { rows: 2, cols: 2 }.build().unwrap();
        let cases: Vec<(ProtocolSpec, &AnyTopology, &str)> = vec![
            (
                ProtocolSpec::Pts {
                    dest: None,
                    eager: false,
                },
                &path,
                "PTS(w=v7)",
            ),
            (
                ProtocolSpec::Pts {
                    dest: Some(5),
                    eager: true,
                },
                &path,
                "PTS-eager(w=v5)",
            ),
            (ProtocolSpec::Ppts { eager: false }, &path, "PPTS"),
            (ProtocolSpec::Ppts { eager: true }, &path, "PPTS-eager"),
            (ProtocolSpec::Hpts { levels: 2 }, &path, "HPTS(m=3,l=2)"),
            (ProtocolSpec::TreePts { dest: None }, &tree, "TreePTS(w=v0)"),
            (ProtocolSpec::TreePpts, &tree, "TreePPTS"),
            (
                ProtocolSpec::Greedy {
                    policy: GreedyPolicy::Fifo,
                },
                &grid,
                "Greedy-FIFO",
            ),
            (
                ProtocolSpec::DagGreedy {
                    policy: GreedyPolicy::Lifo,
                },
                &grid,
                "DagGreedy-LIFO",
            ),
            (
                ProtocolSpec::Batched {
                    inner: Box::new(ProtocolSpec::Greedy {
                        policy: GreedyPolicy::Fifo,
                    }),
                    phase: 4,
                },
                &path,
                "Batched[l=4]-Greedy-FIFO",
            ),
        ];
        for (spec, topo, name) in cases {
            let built = spec.build(topo).expect("applicable");
            assert_eq!(built.name(), name, "{spec:?}");
            assert_eq!(roundtrip(&spec), spec);
        }
    }

    #[test]
    fn applicability_errors_name_both_families() {
        let grid = TopologySpec::Grid { rows: 2, cols: 2 }.build().unwrap();
        let path = TopologySpec::Path { n: 4 }.build().unwrap();
        let err = ProtocolSpec::Ppts { eager: false }
            .build(&grid)
            .map(|_| ())
            .expect_err("PPTS is path-only");
        assert_eq!(err.to_string(), "ppts requires a path topology, got dag");
        let err = ProtocolSpec::TreePpts
            .build(&path)
            .map(|_| ())
            .expect_err("TreePPTS is tree-only");
        assert_eq!(
            err.to_string(),
            "tree_ppts requires a tree topology, got path"
        );
        // Batched propagates the inner applicability check.
        let err = ProtocolSpec::Batched {
            inner: Box::new(ProtocolSpec::Pts {
                dest: None,
                eager: false,
            }),
            phase: 2,
        }
        .build(&grid)
        .map(|_| ())
        .expect_err("inner PTS is path-only");
        assert!(matches!(err, ProtocolSpecError::NotApplicable { .. }));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let path = TopologySpec::Path { n: 4 }.build().unwrap();
        assert!(ProtocolSpec::Pts {
            dest: Some(4),
            eager: false
        }
        .build(&path)
        .is_err());
        assert!(ProtocolSpec::Hpts { levels: 0 }.build(&path).is_err());
        assert!(ProtocolSpec::Batched {
            inner: Box::new(ProtocolSpec::Ppts { eager: false }),
            phase: 0
        }
        .build(&path)
        .is_err());
        assert!(ProtocolSpec::Batched {
            inner: Box::new(ProtocolSpec::Batched {
                inner: Box::new(ProtocolSpec::Ppts { eager: false }),
                phase: 2
            }),
            phase: 2
        }
        .build(&path)
        .is_err());
    }

    #[test]
    fn batched_spec_keeps_the_staging_mode() {
        let path = TopologySpec::Path { n: 4 }.build().unwrap();
        let built = ProtocolSpec::Batched {
            inner: Box::new(ProtocolSpec::Greedy {
                policy: GreedyPolicy::Fifo,
            }),
            phase: 3,
        }
        .build(&path)
        .unwrap();
        assert_eq!(built.injection_mode(), InjectionMode::Batched { len: 3 });
    }

    #[test]
    fn missing_eager_field_defaults_to_false() {
        assert_eq!(
            serde_json::from_str::<ProtocolSpec>(r#"{"kind": "ppts"}"#).unwrap(),
            ProtocolSpec::Ppts { eager: false }
        );
    }
}
