//! Integration tests of the later-phase components: GRAPE-4, the 2-D
//! hardware grid, the quadrupole treecode and the Ahmad–Cohen scheme —
//! all exercised through the workspace-level public API.

use grape6::core::neighbor::{AcConfig, AcHermiteIntegrator};
use grape6::g4::{Grape4Config, Grape4Engine};
use grape6::nbody::diagnostics::energy;
use grape6::nbody::force::{ForceEngine, ForceResult, IParticle, JParticle};
use grape6::nbody::ic::plummer::plummer_model;
use grape6::nbody::softening::Softening;
use grape6::tree::{tree_forces_ord, MultipoleOrder, Octree, TreeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn grape4_and_grape6_agree_physically_not_bitwise() {
    // Both machines compute the same gravity in the same word lengths;
    // their *summation architectures* differ.  Same probe, both engines:
    // close physically, generally different bits.
    use grape6::core::engine::Grape6Engine;
    use grape6::system::machine::MachineConfig;
    let n = 150;
    let set = plummer_model(n, &mut StdRng::seed_from_u64(600));
    let mut g6 = Grape6Engine::try_new(&MachineConfig::test_small(), n).unwrap();
    let mut g4 = Grape4Engine::new(&Grape4Config::test_small(), n);
    for i in 0..n {
        let j = JParticle {
            mass: set.mass[i],
            t0: 0.0,
            pos: set.pos[i],
            vel: set.vel[i],
            ..Default::default()
        };
        g6.set_j_particle(i, &j);
        g4.set_j_particle(i, &j);
    }
    g6.set_time(0.0);
    g4.set_time(0.0);
    let probes: Vec<IParticle> = (0..16)
        .map(|k| IParticle {
            pos: set.pos[k],
            vel: set.vel[k],
            eps2: 2.4e-4,
        })
        .collect();
    let mut f6 = vec![ForceResult::default(); 16];
    let mut f4 = vec![ForceResult::default(); 16];
    g6.compute(&probes, &mut f6);
    g4.compute(&probes, &mut f4);
    for k in 0..16 {
        let rel = (f6[k].acc - f4[k].acc).norm() / f6[k].acc.norm();
        assert!(rel < 1e-4, "k={k}: generations disagree by {rel:e}");
    }
}

#[test]
fn quadrupole_traversal_improves_forces_at_workspace_level() {
    let n = 800;
    let set = plummer_model(n, &mut StdRng::seed_from_u64(602));
    let tree = Octree::build(&set.mass, &set.pos, &TreeConfig::default());
    let exact = grape6::nbody::force::direct_all(&set.mass, &set.pos, &set.vel, 1e-4);
    let rms = |order: MultipoleOrder| -> f64 {
        let (acc, _, _) = tree_forces_ord(&tree, 0.8, 1e-4, order);
        let mut s = 0.0;
        for i in 0..n {
            let rel = (acc[i] - exact[i].acc).norm() / exact[i].acc.norm();
            s += rel * rel;
        }
        (s / n as f64).sqrt()
    };
    assert!(rms(MultipoleOrder::Quadrupole) < rms(MultipoleOrder::Monopole));
}

#[test]
fn ahmad_cohen_on_simulated_grape_hardware() {
    use grape6::core::engine::Grape6Engine;
    use grape6::system::machine::MachineConfig;
    let n = 64;
    let set = plummer_model(n, &mut StdRng::seed_from_u64(603));
    let eps2 = Softening::Constant.epsilon2(n);
    let e0 = energy(&set, eps2);
    let engine = Grape6Engine::try_new(&MachineConfig::test_small(), n).unwrap();
    let mut ac = AcHermiteIntegrator::new(engine, set, AcConfig::default());
    ac.run_until(0.2);
    let e1 = energy(&ac.synchronized_snapshot(), eps2);
    let err = ((e1.total() - e0.total()) / e0.total()).abs();
    assert!(err < 1e-4, "AC-on-GRAPE energy error {err:e}");
    assert!(ac.regular_evals() > 0 && ac.irregular_evals() > ac.regular_evals() / 2);
}
