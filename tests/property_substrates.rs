//! Property tests over the substrates added beyond the core AllReduce
//! path: collective primitives, multi-ring schedules, torus topologies,
//! the α/β fitter, the runtime's gradient queue, and the agreement of
//! the closed-form iteration timeline with the one scheduler.

use ccube::pipeline::{Mode, TrainingPipeline};
use ccube::systemjob::build_iteration_job;
use ccube_collectives::cost::{fit_params, CostParams};
use ccube_collectives::{
    primitives, ring_allreduce_multi, verify, BinaryTree, Chunking, Embedding, Overlap, Rank,
};
use ccube_sim::{simulate_system, SimOptions};
use ccube_topology::{dgx1, torus2d, Bandwidth, ByteSize, GpuId, Router, Seconds};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn tree_broadcast_is_correct(p in 2usize..24, k in 1usize..16) {
        let tree = BinaryTree::inorder(p).unwrap();
        let s = primitives::tree_broadcast(
            std::slice::from_ref(&tree),
            &Chunking::even(ByteSize::kib(64), k),
        );
        verify::check_broadcast(&s).unwrap();
    }

    #[test]
    fn tree_reduce_is_correct(p in 2usize..24, k in 1usize..16) {
        let tree = BinaryTree::inorder(p).unwrap();
        let s = primitives::tree_reduce(
            std::slice::from_ref(&tree),
            &Chunking::even(ByteSize::kib(64), k),
        );
        verify::check_reduce(&s, &[tree.root()]).unwrap();
    }

    #[test]
    fn ring_phases_are_correct(p in 2usize..20, kib in 1u64..256) {
        let n = ByteSize::kib(kib);
        verify::check_reduce_scatter(&primitives::ring_reduce_scatter(p, n)).unwrap();
        verify::check_all_gather(&primitives::ring_all_gather(p, n)).unwrap();
    }

    #[test]
    fn multi_ring_with_random_rotations_is_correct(
        p in 2usize..12,
        rings in 1usize..4,
        rot in 0usize..12,
    ) {
        // Ring orders that are rotations/reversals of the identity are
        // always valid permutations.
        let orders: Vec<Vec<Rank>> = (0..rings)
            .map(|r| {
                let mut order: Vec<Rank> =
                    (0..p).map(|i| Rank(((i + rot + r) % p) as u32)).collect();
                if r % 2 == 1 {
                    order.reverse();
                }
                order
            })
            .collect();
        let s = ring_allreduce_multi(ByteSize::kib(128), &orders);
        verify::check_allreduce(&s).unwrap();
    }

    #[test]
    fn torus_neighbors_route_directly(rows in 2usize..6, cols in 2usize..6) {
        let topo = torus2d(rows, cols);
        let router = Router::without_host_fallback(&topo);
        for r in 0..rows {
            for c in 0..cols {
                let a = GpuId((r * cols + c) as u32);
                let right = GpuId((r * cols + (c + 1) % cols) as u32);
                if a != right {
                    let route = router.route(a, right).unwrap();
                    prop_assert!(!route.is_detour());
                }
            }
        }
    }

    #[test]
    fn fit_inverts_step_time(
        alpha_us in 1u64..50,
        gbps in 1u64..200,
    ) {
        let truth = CostParams::new(
            Seconds::from_micros(alpha_us as f64),
            Bandwidth::gb_per_sec(gbps as f64),
        );
        let samples: Vec<(ByteSize, Seconds)> = [16u64, 64, 256, 1024, 4096]
            .iter()
            .map(|&k| {
                let b = ByteSize::kib(k);
                (b, truth.step_time(b))
            })
            .collect();
        let fitted = fit_params(&samples).unwrap();
        let rel_bw = (fitted.bandwidth().as_gb_per_sec() - gbps as f64).abs() / gbps as f64;
        prop_assert!(rel_bw < 1e-6, "bw off by {rel_bw}");
        let a_err = (fitted.alpha().as_micros() - alpha_us as f64).abs();
        prop_assert!(a_err < 1e-6, "alpha off by {a_err} us");
    }

    #[test]
    fn timeline_steady_state_equals_closed_form(
        net in 0usize..5,
        batch in 8usize..=256,
        mode in prop::sample::select(vec![Mode::Chained, Mode::CCube]),
    ) {
        // One steady-state iteration — backward, one-shot AllReduce,
        // chained forward — on the one scheduler is what the closed-form
        // chained modes price. B, C1 and R have no chained forward: their
        // closed form is `t_ideal + t_comm` by definition.
        let network = [
            ccube_dnn::zfnet(),
            ccube_dnn::vgg16(),
            ccube_dnn::resnet50(),
            ccube_dnn::gnmt(),
            ccube_dnn::transformer_big(),
        ][net]
            .clone();
        // C2 runs on the baseline double tree, CC on the overlapped one.
        let overlap = match mode {
            Mode::CCube => Overlap::ReductionBroadcast,
            _ => Overlap::None,
        };
        let pipeline = TrainingPipeline::dgx1(&network, batch);
        let job = build_iteration_job(&pipeline, overlap, &[1.0; 8]);
        let topo = dgx1();
        let emb = Embedding::dgx1_double_tree(&topo, &job.schedule).unwrap();
        let report = simulate_system(&topo, &job, &emb, &SimOptions::default()).unwrap();
        let steady = report.makespan.as_secs_f64();
        let closed = pipeline.iteration(mode).t_iter.as_secs_f64();
        prop_assert!(
            (steady - closed).abs() / closed < 0.01,
            "{} {mode} b={batch}: {steady} vs {closed}",
            network.name()
        );
    }

    #[test]
    fn gradient_queue_requirements_partition_chunks(
        num_trees in 1usize..4,
        table_step in 1usize..5,
        layers in 1usize..10,
    ) {
        use ccube_runtime::GradientQueue;
        let table: Vec<usize> = (1..=layers).map(|l| l * table_step).collect();
        let q = GradientQueue::new(num_trees, &table).unwrap();
        for (l, &upper) in table.iter().enumerate() {
            let total: i64 = (0..num_trees).map(|t| q.required(l, t)).sum();
            prop_assert_eq!(total, upper as i64, "layer {} needs {} chunks", l, upper);
        }
    }
}
