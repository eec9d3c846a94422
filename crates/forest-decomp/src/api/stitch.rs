//! The boundary stitch behind both sharded drivers,
//! [`Decomposer::run_sharded`](super::Decomposer::run_sharded) (shards
//! decomposed in parallel, in memory) and
//! [`Decomposer::run_out_of_core`](super::Decomposer::run_out_of_core)
//! (shards walked one at a time, colorings spilled to disk).
//!
//! It is Harris–Su–Vu's compose-per-part, then recolor-the-leftover step
//! (Section 4), applied to the edges that cross shards. Both drivers cut
//! with one [`ShardPlan`] and run one per-shard step,
//! [`decompose_planned_shard`]; `run_sharded` first relabels the graph
//! along the request's BFS or RCM order, if any, and plans the relabelled
//! graph. Shards are vertex-disjoint, so their forests merge into one color
//! space unchanged; only the boundary edges need a color. Each driver hands
//! every [`ShardOutcome`] to one [`Stitch`] in shard-index order, then:
//!
//! 1. **Representatives** ([`Stitch::absorb`]). Before a shard's per-color
//!    union-finds are dropped, the component representative of each of its
//!    boundary vertices is recorded for every color (a few words per
//!    boundary endpoint). Two vertices are connected in color `c` iff the
//!    stitch forest of `c` joins their representatives, so no whole-graph
//!    union pass ever runs.
//! 2. **Two-phase stitch** ([`Stitch::stitch`]). Phase 1 is the augmenting
//!    search's single-step fast path: each boundary edge joins the first
//!    shard forest that keeps its endpoints apart — almost always
//!    successful, because forests of different shards start out
//!    disconnected. Phase 2 recolors the residue by the same rule over
//!    *all* colors allocated so far (the shard budget first, then the
//!    stitch colors already opened) and opens a fresh color only when every
//!    forest connects the endpoints, so the stitch exceeds the shard budget
//!    only by what the residue's own density forces. The stitch forests are
//!    sparse union-finds over the representatives that actually occur:
//!    `O(boundary)` resident, not `O(n · colors)`.
//! 3. **Report tail** ([`Stitch::finish`]). The arboricity floor, the
//!    optional [`StitchPolicy::ExactAlpha`] exchange pass, the diameter
//!    measurement, the report and its validation.
//!
//! Steps 1 and 2 key vertices by the ids of the graph that was planned
//! (relabelled under a reorder); they read connectivity only, which no
//! relabelling changes. Step 3 reads the caller's graph. Every step is a
//! deterministic function of the shard outcomes (in index order) and the
//! ascending boundary list, so both drivers produce byte-identical reports
//! for the same request and shard count.

use super::engines::{self, ShardOutcome};
use super::{
    derive_seed, Artifact, DecompositionReport, DecompositionRequest, ProblemKind, StitchPolicy,
    Validate, ValidationStatus,
};
use crate::error::FdError;
use forest_graph::decomposition::PartialEdgeColoring;
use forest_graph::{
    Color, CsrRef, DynamicColorConnectivity, EdgeId, ExtractedShard, ForestDecomposition,
    GraphView, ShardPlan, VertexId,
};
use forest_obs::{clock::Stopwatch, Span};
use local_model::RoundLedger;
use rand::rngs::SmallRng;
use rand::SeedableRng;
#[expect(
    clippy::disallowed_types,
    reason = "for the lookup-only maps of SparseUf and Stitch"
)]
use std::collections::HashMap;

/// The checks both sharded drivers run before touching the graph: only
/// forest decompositions merge safely across shards, and the engine must
/// solve them.
pub(super) fn check_sharded(request: &DecompositionRequest) -> Result<(), FdError> {
    if request.problem != ProblemKind::Forest {
        return Err(FdError::ShardingUnsupported {
            problem: request.problem,
        });
    }
    if !engines::supports(request.engine, request.problem) {
        return Err(FdError::UnsupportedCombination {
            problem: request.problem,
            engine: request.engine,
        });
    }
    Ok(())
}

/// The per-shard step both drivers share: extracts shard `s` of `plan`
/// from `csr` and decomposes it seeded with [`derive_seed`]`(seed, s)`.
/// The shard's CSR is dropped here; the caller gets its local → global
/// edge map and the outcome.
pub(super) fn decompose_planned_shard(
    csr: CsrRef<'_>,
    plan: &ShardPlan,
    s: usize,
    request: &DecompositionRequest,
) -> Result<(Vec<u32>, ShardOutcome), FdError> {
    let ExtractedShard {
        csr: shard,
        global_edges,
    } = plan.extract_shard(&csr, s);
    let mut rng = SmallRng::seed_from_u64(derive_seed(request.seed, s as u64));
    let outcome = engines::decompose_shard(shard.view(), request, &mut rng)?;
    Ok((global_edges, outcome))
}

/// The endpoints of `boundary`, grouped by the `plan` shard owning them,
/// sorted and deduplicated: the vertices whose representatives
/// [`Stitch::absorb`] must record before each shard's connectivity is
/// dropped.
pub(super) fn boundary_vertices(
    csr: &CsrRef<'_>,
    boundary: &[EdgeId],
    plan: &ShardPlan,
) -> Vec<Vec<u32>> {
    let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); plan.num_shards()];
    for &e in boundary {
        let (u, v) = csr.endpoints(e);
        by_shard[plan.shard_of(u)].push(u.raw());
        by_shard[plan.shard_of(v)].push(v.raw());
    }
    for verts in &mut by_shard {
        verts.sort_unstable();
        verts.dedup();
    }
    by_shard
}

/// Union-find over a sparse set of `u32` keys: absent keys are their own
/// roots. Connectivity answers match a dense `UnionFind` over the same
/// unions, which is all the stitch observes — only boundary-endpoint
/// representatives ever enter, so this is `O(touched)` instead of `O(n)`
/// per color.
#[derive(Default)]
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only: find and try_union read parents by key, never iterate"
)]
struct SparseUf {
    parent: HashMap<u32, u32>,
}

impl SparseUf {
    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while let Some(&p) = self.parent.get(&root) {
            root = p;
        }
        // Path compression: point the chain straight at the root.
        let mut cur = x;
        while cur != root {
            let next = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = next;
        }
        root
    }

    /// Joins `a` and `b` unless they are already connected; returns whether
    /// it did.
    fn try_union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
        ra != rb
    }
}

/// The merged per-shard state of one sharded run: the boundary-vertex
/// representatives, the accounting every shard contributes, and the stitch
/// forests. See the [module docs](self).
#[derive(Default)]
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only: `reps` is read by vertex key, never iterated"
)]
pub(super) struct Stitch {
    /// Boundary vertex → its component representative in each color
    /// `0..span` of its shard; colors past a shard's span map to the vertex
    /// itself (the shard has no forest there).
    reps: HashMap<u32, Vec<u32>>,
    /// The shard color budget: the largest color *span* any shard used.
    /// HSV colorings leave index gaps, so this is not a distinct-color
    /// count (gap colors are legal, empty forests).
    budget: usize,
    /// Largest per-shard arboricity bound.
    arboricity: usize,
    /// Edges that went through a leftover/recoloring phase: per-shard
    /// leftovers plus the phase-2 residue.
    leftover_edges: usize,
    ledger: RoundLedger,
    /// One sparse forest per color the stitch has used.
    forests: Vec<SparseUf>,
}

impl Stitch {
    /// Folds shard `s`'s outcome in (call in shard-index order) and records
    /// the per-color representatives of its `boundary` vertices (global
    /// ids), mapping them through `plan`'s renumbering. The caller places
    /// the shard's own coloring before handing the outcome over.
    pub(super) fn absorb(
        &mut self,
        s: usize,
        outcome: ShardOutcome,
        boundary: &[u32],
        plan: &ShardPlan,
    ) {
        let mut connectivity = outcome.connectivity;
        for &gv in boundary {
            let local = plan.local_vertex(VertexId::new(gv as usize));
            let per_color: Vec<u32> = (0..outcome.color_span)
                .map(|c| match connectivity.cached_forest(Color::new(c)) {
                    Some(uf) => plan
                        .global_vertex(s, VertexId::new(uf.find(local.index())))
                        .raw(),
                    None => gv,
                })
                .collect();
            self.reps.insert(gv, per_color);
        }
        self.budget = self.budget.max(outcome.color_span);
        self.arboricity = self.arboricity.max(outcome.arboricity);
        self.leftover_edges += outcome.leftover_edges;
        self.ledger.absorb(&format!("shard {s}"), outcome.ledger);
    }

    /// Colors the `boundary` edges (ascending ids) of the planned graph
    /// `csr` by the two-phase rule and returns their colors in `boundary`
    /// order. Call once, after every shard was absorbed.
    pub(super) fn stitch(&mut self, csr: &CsrRef<'_>, boundary: &[EdgeId]) -> Vec<Color> {
        let budget = self.budget;
        self.forests = (0..budget).map(|_| SparseUf::default()).collect();
        let mut colors = vec![Color::new(0); boundary.len()];
        let mut remaining: Vec<usize> = Vec::new();
        for (i, &e) in boundary.iter().enumerate() {
            match self.place(csr, e) {
                Some(c) => colors[i] = c,
                None => remaining.push(i),
            }
        }
        let stitched_fast = boundary.len() - remaining.len();
        if stitched_fast > 0 {
            self.ledger.charge(
                format!(
                    "stitch {stitched_fast} of {} boundary edges into existing \
                     forests (single-step augmentations)",
                    boundary.len()
                ),
                stitched_fast,
            );
        }
        // Phase 2: the residue retries every color opened so far — the
        // shard forests are final and the stitch forests grew only through
        // the placements above, so the two-level connectivity stays exact —
        // and opens a fresh color only when every forest connects it.
        if !remaining.is_empty() {
            self.leftover_edges += remaining.len();
            for &i in &remaining {
                colors[i] = self.place(csr, boundary[i]).unwrap_or_else(|| {
                    let (u, v) = csr.endpoints(boundary[i]);
                    let mut fresh = SparseUf::default();
                    fresh.try_union(u.raw(), v.raw());
                    self.forests.push(fresh);
                    Color::new(self.forests.len() - 1)
                });
            }
            self.ledger.charge(
                format!(
                    "stitch leftover ({} residue boundary edges recolored, {} fresh \
                     colors beyond the shard budget)",
                    remaining.len(),
                    self.forests.len() - budget
                ),
                remaining.len(),
            );
        }
        colors
    }

    /// Joins `e` into the first stitch forest (in color order) that keeps
    /// its endpoints' representatives apart.
    fn place(&mut self, csr: &CsrRef<'_>, e: EdgeId) -> Option<Color> {
        let (u, v) = csr.endpoints(e);
        let (u_reps, v_reps) = (self.reps.get(&u.raw()), self.reps.get(&v.raw()));
        let rep = |reps: Option<&Vec<u32>>, c: usize, x: VertexId| {
            reps.and_then(|r| r.get(c)).copied().unwrap_or(x.raw())
        };
        for (c, forest) in self.forests.iter_mut().enumerate() {
            let (gu, gv) = (rep(u_reps, c, u), rep(v_reps, c, v));
            if gu != gv && forest.try_union(gu, gv) {
                return Some(Color::new(c));
            }
        }
        None
    }

    /// Conservative heap bytes of the stitch forests (entry plus hash-table
    /// overhead) — the out-of-core driver's accounting hook.
    pub(super) fn forest_bytes(&self) -> usize {
        self.forests.iter().map(|f| f.parent.len() * 48).sum()
    }

    /// The report tail over the caller's graph `csr`: floors the
    /// arboricity, runs the optional exact-α pass over the complete
    /// `colors`, measures the diameter and validates when the request asks
    /// to. `start` times the whole run.
    pub(super) fn finish(
        mut self,
        request: &DecompositionRequest,
        csr: &CsrRef<'_>,
        mut colors: Vec<Color>,
        start: &Stopwatch,
    ) -> Result<DecompositionReport, FdError> {
        // The per-shard maxima exclude boundary edges, so they can
        // under-shoot the global arboricity (e.g. K4 split in two: each
        // shard sees one edge). Report the caller's bound when given;
        // otherwise at least the Nash-Williams whole-graph lower bound —
        // still a lower bound on the true global alpha, which only an exact
        // full-graph partition could pin down.
        let arboricity = request.alpha.unwrap_or_else(|| {
            self.arboricity
                .max(forest_graph::matroid::arboricity_lower_bound(csr))
        });
        if request.sharding.stitch == StitchPolicy::ExactAlpha {
            exact_alpha_stitch(csr, &mut colors, arboricity, &mut self.ledger);
        }
        let decomposition = ForestDecomposition::from_colors(colors);
        let num_colors = decomposition.num_colors_used();
        let max_diameter = {
            let _span = Span::enter("decomp.max_diameter");
            decomposition.max_diameter(csr)?
        };
        let mut report = DecompositionReport {
            problem: request.problem,
            engine: request.engine,
            seed: request.seed,
            num_edges: csr.num_edges(),
            artifact: Artifact::Decomposition(decomposition),
            lists: None,
            arboricity,
            num_colors,
            max_diameter,
            leftover_edges: self.leftover_edges,
            ledger: self.ledger,
            wall_clock: start.elapsed(),
            validation: ValidationStatus::Skipped,
        };
        if request.validate {
            let _span = Span::enter("decomp.validate");
            report.validate(csr)?;
            report.validation = ValidationStatus::Validated;
        }
        Ok(report)
    }
}

/// BFS pop bound per overflow-edge exchange in the exact-α stitch: the pass
/// is *bounded* — an exchange that trips the bound leaves its edge on the
/// overflow color instead of stalling the stitch.
const EXACT_STITCH_POP_LIMIT: usize = 4096;

/// The [`StitchPolicy::ExactAlpha`] finishing pass: move every edge colored
/// outside `0..target` back inside the budget through bounded augmenting
/// exchanges, with one Euler-tour forest per color
/// ([`DynamicColorConnectivity`]) so each recoloring is a cut-and-link edit
/// instead of a cache rebuild. Edges whose exchange fails (a genuinely
/// denser-than-`target` residue, or the pop bound) keep their overflow
/// color — the pass improves, never breaks.
fn exact_alpha_stitch(
    csr: &CsrRef<'_>,
    colors: &mut [Color],
    target: usize,
    ledger: &mut RoundLedger,
) {
    let overflow: Vec<EdgeId> = colors
        .iter()
        .enumerate()
        .filter(|(_, c)| c.index() >= target)
        .map(|(i, _)| EdgeId::new(i))
        .collect();
    let total = overflow.len();
    let (mut moved, mut stuck) = (0usize, 0usize);
    if total > 0 && target > 0 {
        let mut coloring =
            PartialEdgeColoring::from_colors(colors.iter().map(|&c| Some(c)).collect());
        let mut conn = DynamicColorConnectivity::from_coloring(csr, &coloring);
        for e in overflow {
            let (u, v) = csr.endpoints(e);
            let old = coloring.color(e).expect("stitched colorings are complete");
            coloring.clear(e);
            conn.remove(e);
            // The cheap query first; the bounded exchange only when every
            // in-budget forest already connects the endpoints.
            if let Some(c) = conn.first_free_color(target, u, v) {
                coloring.set(e, c);
                conn.insert(e, c, u, v);
                moved += 1;
                continue;
            }
            match forest_graph::matroid::try_augment_traced(
                csr,
                &mut coloring,
                e,
                target,
                EXACT_STITCH_POP_LIMIT,
            ) {
                Some(steps) => {
                    conn.apply_exchange(csr, &steps);
                    moved += 1;
                }
                None => {
                    coloring.set(e, old);
                    conn.insert(e, old, u, v);
                    stuck += 1;
                }
            }
        }
        for (i, c) in colors.iter_mut().enumerate() {
            *c = coloring
                .color(EdgeId::new(i))
                .expect("exchanges keep the coloring complete");
        }
    }
    // Always charged, so the pass is observable even when the greedy stitch
    // already landed inside the budget.
    ledger.charge(
        format!(
            "exact-alpha stitch: {moved} of {total} overflow edges exchanged into the \
             alpha={target} budget ({stuck} kept an overflow color)"
        ),
        moved,
    );
}
