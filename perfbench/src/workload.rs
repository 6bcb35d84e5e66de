//! The workloads: their request pools, drawn from the workload seed, and
//! their fixed load settings.
//!
//! The benchmark keeps its own random generator (SplitMix64) so that the
//! inputs it generates depend on the seed alone, never on the program's
//! RNG internals.

use cvcp_constraints::folds::label_scenario_folds;
use cvcp_constraints::SideInformation;
use cvcp_core::{Algorithm, SelectionRequest, SideInfoSpec};

/// Seed named for later performance claims: never used while tuning.
pub const HELD_OUT_SEED: u64 = 20_140_324;

/// SplitMix64: a small, fixed generator for workload draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Warm FOSC selections over a small fixed seed set, served.
    ServedWarm,
    /// Repeated-trial experiments in-process, no server.
    OfflineGrid,
}

/// Everything fixed about a workload except its seed.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Which workload.
    pub kind: Kind,
    /// Environment of the `serve` process (served workloads).
    pub server_env: &'static [(&'static str, &'static str)],
    /// Offered rate of the load phase, per second.
    pub load_rate: f64,
    /// Offered rate of the idle probe, per second.
    pub idle_rate: f64,
    /// The fixed ladder of offered rates for `sustained_rps`, ascending.
    pub ladder: &'static [f64],
    /// Latency limit on the ladder's tail percentile, milliseconds.
    pub latency_limit_ms: f64,
    /// Requests in flight in the closed loop.
    pub closed_window: usize,
}

/// The ladder of offered rates both workloads climb for `sustained_rps`:
/// geometric steps of 8% from 50/s to 317/s.  On a quiet 2-thread host the
/// open-loop capacity is about 195/s for `served_warm` and 120/s for
/// `offline_grid`, so the ladder spans about 0.25 to 1.6 and 0.4 to 2.6
/// times them.  A change in capacity larger than a step moves the highest
/// passing rung.
pub const LADDER: [f64; 25] = [
    50.0, 54.0, 58.3, 63.0, 68.0, 73.5, 79.3, 85.7, 92.5, 100.0, 107.9, 116.6, 125.9, 136.0, 146.9,
    158.6, 171.3, 185.0, 199.8, 215.8, 233.0, 251.7, 271.8, 293.6, 317.1,
];

/// Rungs the ladder search skips while it climbs coarsely (see
/// [`crate::stats::ladder_search`]).
pub const LADDER_STRIDE: usize = 4;

/// The workloads `BENCHMARK.json` registers, in its order.
pub const NAMES: [&str; 2] = ["served_warm", "offline_grid"];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "served_warm" => Spec {
            name: "served_warm",
            kind: Kind::ServedWarm,
            server_env: &[],
            load_rate: 40.0,
            idle_rate: 20.0,
            ladder: &LADDER,
            latency_limit_ms: 100.0,
            closed_window: 2,
        },
        "offline_grid" => Spec {
            name: "offline_grid",
            kind: Kind::OfflineGrid,
            server_env: &[],
            load_rate: 40.0,
            idle_rate: 20.0,
            ladder: &LADDER,
            latency_limit_ms: 100.0,
            closed_window: 1,
        },
        _ => return None,
    })
}

/// One distinct request of a served workload, with the weight it is drawn
/// with.
#[derive(Debug, Clone)]
pub struct Template {
    /// The request (its `id` is assigned per send).
    pub request: SelectionRequest,
    /// Draw weight.
    pub weight: f64,
}

fn request(
    dataset: String,
    algorithm: Algorithm,
    params: Vec<usize>,
    fraction: f64,
    seed: u64,
) -> SelectionRequest {
    SelectionRequest {
        id: String::new(),
        dataset,
        algorithm,
        params,
        side_info: SideInfoSpec::LabelFraction(fraction),
        n_folds: 5,
        stratified: true,
        seed,
        priority: None,
        trace: false,
    }
}

/// Whether a request is valid for its replica: every parameter fits the
/// data set and every cross-validation fold holds out at least one
/// constraint to score.
pub fn is_valid(req: &SelectionRequest) -> bool {
    let Ok(realized) = req.realize() else {
        return false;
    };
    let n = realized.dataset.len();
    if realized.params.iter().any(|&p| p == 0 || p > n) {
        return false;
    }
    let SideInformation::Labels(labeled) = &realized.side else {
        return false;
    };
    if labeled.len() < req.n_folds {
        return false;
    }
    let mut rng = realized.rng.clone();
    label_scenario_folds(labeled, req.n_folds, req.stratified, &mut rng)
        .iter()
        .all(|split| !split.test_constraints.is_empty())
}

/// The FOSC grid of the warm workload (the ROADMAP's warm request).
pub const WARM_GRID: [usize; 4] = [3, 6, 9, 12];
/// The request pool of a served workload.  `served_warm`: FOSC on `aloi:0`
/// with [`WARM_GRID`] over four request seeds, equally weighted.
pub fn templates(kind: Kind, seed: u64) -> Vec<Template> {
    let mut rng = Rng::new(seed, 0x7E41);
    let mut out = Vec::new();
    let mut push = |req: SelectionRequest, weight: f64, rng: &mut Rng| {
        // Redraw the request seed until the request is valid, so no
        // request of the workload is refused for its content.
        let mut req = req;
        while !is_valid(&req) {
            req.seed = rng.next_u64() >> 16;
        }
        out.push(Template {
            request: req,
            weight,
        });
    };
    match kind {
        Kind::ServedWarm => {
            for _ in 0..4 {
                let s = rng.next_u64() >> 16;
                let req = request("aloi:0".into(), Algorithm::Fosc, WARM_GRID.to_vec(), 0.2, s);
                push(req, 1.0, &mut rng);
            }
        }
        Kind::OfflineGrid => unreachable!("the offline grid has no request templates"),
    }
    out
}

/// The deterministic sequence of template indices the phases draw from:
/// smooth weighted round robin over the templates in a seed-shuffled
/// order, so that every stretch of the sequence holds each template in
/// proportion to its weight (an i.i.d. draw would let a short phase's mix,
/// and so its percentiles, drift from run to run).
pub fn draws(templates: &[Template], seed: u64, salt: u64) -> impl Iterator<Item = usize> {
    let mut order: Vec<usize> = (0..templates.len()).collect();
    let mut rng = Rng::new(seed, salt);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let weights: Vec<f64> = order.iter().map(|&i| templates[i].weight).collect();
    let total: f64 = weights.iter().sum();
    let mut current = vec![0.0; weights.len()];
    std::iter::repeat_with(move || {
        for (c, w) in current.iter_mut().zip(&weights) {
            *c += w;
        }
        let best = (0..current.len())
            .max_by(|&a, &b| current[a].total_cmp(&current[b]).then(b.cmp(&a)))
            .expect("at least one template");
        current[best] -= total;
        order[best]
    })
}

/// One unit of the offline grid: repeated-trial experiments of both
/// algorithm families, each over its default grid, on one replica.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineUnit {
    /// Replica name.
    pub dataset: String,
    /// Replica seed.
    pub data_seed: u64,
    /// Experiment seed.
    pub seed: u64,
}

/// Trials per offline experiment.
pub const OFFLINE_TRIALS: usize = 2;
/// Label fraction of the offline experiments (Scenario I).
pub const OFFLINE_FRACTION: f64 = 0.2;
/// Replicas in the offline grid's cycle.
pub const OFFLINE_REPLICAS: usize = 5;

/// The offline grid's cycle of units: five drawn `aloi:k` replicas (the
/// paper's ALOI collection, all of one shape, so every unit costs about the
/// same).  Runs always execute whole cycles, so every run measures the
/// same mix.
pub fn offline_units(seed: u64) -> Vec<OfflineUnit> {
    let mut rng = Rng::new(seed, 0x0FF1);
    let mut units: Vec<OfflineUnit> = Vec::new();
    while units.len() < OFFLINE_REPLICAS {
        let dataset = format!("aloi:{}", rng.below(100));
        if units.iter().any(|u| u.dataset == dataset) {
            continue;
        }
        let mut data_seed = rng.next_u64() >> 16;
        // The unit's replica also serves the open-loop selections; keep
        // them valid.
        while !OFFLINE_SELECTION_FRACTIONS
            .iter()
            .all(|&f| is_valid(&offline_selection(&dataset, data_seed, f)))
        {
            data_seed = rng.next_u64() >> 16;
        }
        units.push(OfflineUnit {
            dataset,
            data_seed,
            seed: rng.next_u64() >> 16,
        });
    }
    units
}

/// The in-process selection the offline grid's open-loop phases send for
/// a unit's replica: FOSC over its default grid with label fraction
/// `fraction`.  The full grid (about 10 ms against 6 ms for
/// [`WARM_GRID`]) makes a selection long next to the thread wake-ups every
/// open-loop request pays, whose delay grows when other tenants load the
/// host.
pub fn offline_selection(dataset: &str, data_seed: u64, fraction: f64) -> SelectionRequest {
    request(
        dataset.to_string(),
        Algorithm::Fosc,
        Vec::new(),
        fraction,
        data_seed,
    )
}

/// Label fractions of the offline grid's open-loop selections: four
/// different side informations per replica.
pub const OFFLINE_SELECTION_FRACTIONS: [f64; 4] = [0.1, 0.15, 0.2, 0.25];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_deterministic_in_the_seed_and_valid() {
        let a = templates(Kind::ServedWarm, 7);
        let b = templates(Kind::ServedWarm, 7);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.request, y.request);
            assert!(is_valid(&x.request));
        }
        assert_ne!(templates(Kind::ServedWarm, 8)[0].request, a[0].request);
        let d1: Vec<usize> = draws(&a, 3, 1).take(50).collect();
        let d2: Vec<usize> = draws(&b, 3, 1).take(50).collect();
        assert_eq!(d1, d2);
        assert_eq!(offline_units(5), offline_units(5));
        assert_eq!(offline_units(5).len(), OFFLINE_REPLICAS);
    }

    #[test]
    fn draws_hold_every_template_in_proportion() {
        let pool = |w: &[f64]| -> Vec<Template> {
            w.iter()
                .map(|&weight| Template {
                    request: templates(Kind::ServedWarm, 1)[0].request.clone(),
                    weight,
                })
                .collect()
        };
        let t = pool(&[3.0, 1.0, 2.0, 2.0]);
        // Any window of 8 holds exactly 3, 1, 2 and 2 of each.
        let seq: Vec<usize> = draws(&t, 9, 1).take(80).collect();
        for window in seq.chunks(8) {
            let mut counts = [0usize; 4];
            for &i in window {
                counts[i] += 1;
            }
            assert_eq!(counts, [3, 1, 2, 2]);
        }
        assert_ne!(seq, draws(&t, 10, 1).take(80).collect::<Vec<_>>());
    }
}
