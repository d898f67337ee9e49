//! Fig. 8: convergence traces (recall and update counts vs scan rate) on
//! the Arxiv dataset.

use kiff_baselines::{GreedyConfig, HyRec, NnDescent};
use kiff_core::{Kiff, KiffConfig};
use kiff_dataset::{paper_k, PaperDataset};
use kiff_eval::table::Table;
use kiff_graph::{recall, IterationObserver, IterationTrace, KnnGraph, SharedKnn};
use kiff_similarity::WeightedCosine;

use super::Ctx;

/// One point of a convergence series.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ConvergencePoint {
    /// Cumulative scan rate after the iteration.
    pub scan_rate: f64,
    /// Recall after the iteration (Fig. 8a).
    pub recall: f64,
    /// Average updates per user during the iteration (Fig. 8b).
    pub updates_per_user: f64,
}

struct Tracer<'a> {
    exact: &'a KnnGraph,
    num_users: usize,
    possible_pairs: f64,
    points: Vec<ConvergencePoint>,
}

impl IterationObserver for Tracer<'_> {
    fn on_iteration(&mut self, trace: IterationTrace, state: &SharedKnn) {
        let snapshot = state.snapshot(1);
        self.points.push(ConvergencePoint {
            scan_rate: trace.cumulative_sim_evals as f64 / self.possible_pairs,
            recall: recall(self.exact, &snapshot),
            updates_per_user: trace.changes as f64 / self.num_users as f64,
        });
    }
}

/// Fig. 8a/8b on Arxiv: KIFF starts high and terminates at a small scan
/// rate; the greedy baselines start near zero and converge much later.
pub fn fig8(ctx: &mut Ctx) -> String {
    let d = PaperDataset::Arxiv;
    let k = paper_k(d);
    let ds = ctx.dataset(d);
    let exact = ctx.ground_truth(d, k);
    let sim = WeightedCosine::fit(&ds);
    let n = ds.num_users();
    let possible_pairs = n as f64 * (n as f64 - 1.0) / 2.0;

    let trace_of = |points: Vec<ConvergencePoint>| points;
    let mut series: Vec<(String, Vec<ConvergencePoint>)> = Vec::new();

    {
        let mut tracer = Tracer {
            exact: &exact,
            num_users: n,
            possible_pairs,
            points: Vec::new(),
        };
        let mut config = KiffConfig::new(k);
        config.threads = ctx.threads;
        Kiff::new(config).run_observed(&ds, &sim, &mut tracer);
        series.push(("KIFF".into(), trace_of(tracer.points)));
    }
    {
        let mut tracer = Tracer {
            exact: &exact,
            num_users: n,
            possible_pairs,
            points: Vec::new(),
        };
        let mut config = GreedyConfig::new(k);
        config.threads = ctx.threads;
        config.seed = ctx.seed;
        NnDescent::new(config).run_observed(&ds, &sim, &mut tracer);
        series.push(("NN-Descent".into(), trace_of(tracer.points)));
    }
    {
        let mut tracer = Tracer {
            exact: &exact,
            num_users: n,
            possible_pairs,
            points: Vec::new(),
        };
        let mut config = GreedyConfig::new(k);
        config.threads = ctx.threads;
        config.seed = ctx.seed;
        HyRec::new(config).run_observed(&ds, &sim, &mut tracer);
        series.push(("HyRec".into(), trace_of(tracer.points)));
    }

    let mut out = String::from("Fig. 8: convergence on Arxiv (per-iteration traces)\n");
    for (name, points) in &series {
        out.push_str(&format!("\n-- {name} --\n"));
        let mut table = Table::new(&["iter", "scan rate", "recall", "updates/user"]);
        for (i, p) in points.iter().enumerate() {
            table.push_row(&[
                format!("{}", i + 1),
                format!("{:.4}", p.scan_rate),
                format!("{:.3}", p.recall),
                format!("{:.2}", p.updates_per_user),
            ]);
        }
        out.push_str(&table.render());
    }
    out.push_str(
        "\nExpected shape (paper): KIFF's first iteration already reaches a high \
         recall and it terminates at a scan rate several times smaller than \
         NN-Descent's and HyRec's; the baselines start from ~0.08 recall and \
         need an order of magnitude more similarity evaluations.\n",
    );
    ctx.finish("fig8", "Convergence traces on Arxiv (Fig. 8)", out, &series)
}
