//! Explore ABD-HFL structures and their Byzantine-tolerance theory:
//! ECSM/ACSM hierarchies, Theorem 2 bounds per level, Corollary 3 depth
//! scaling, and a Definition 4 worst-case adversary placement.
//!
//! ```text
//! cargo run --release --example topology_explorer
//! ```

use abd_hfl::core::theory;
use abd_hfl::simnet::Hierarchy;

fn main() {
    // --- The paper's evaluation structure -------------------------------
    let h = Hierarchy::ecsm(3, 4, 4);
    println!("ECSM hierarchy (paper §V): 3 levels, m = 4, Nt = 4");
    for l in 0..h.num_levels() {
        let level = h.level(l);
        println!(
            "  level {l}: {:>3} nodes in {:>2} clusters (Corollary 1: Nt·m^ℓ = {})",
            level.num_nodes(),
            level.num_clusters(),
            theory::corollary1_level_size(4, 4, l)
        );
    }

    // --- Theorem 2 bounds ------------------------------------------------
    println!("\nTheorem 2 (γ1 = γ2 = 25 %): max Byzantine proportion per level");
    for l in 0..3 {
        println!(
            "  level {l}: {:.4}%",
            theory::theorem2_max_byzantine_ratio(0.25, 0.25, l) * 100.0
        );
    }

    // --- Corollary 3: depth scaling at fixed client count ---------------
    println!("\nCorollary 3: bottom-level tolerance vs structure depth");
    for levels in 2..=6 {
        println!(
            "  {levels} levels: {:.2}%",
            theory::corollary3_bottom_tolerance(0.25, 0.25, levels) * 100.0
        );
    }

    // --- Definition 4 worst-case placement ------------------------------
    let mask = theory::definition4_placement(&h, 1, 1);
    let bad = mask.iter().filter(|b| **b).count();
    println!("\nDefinition 4 placement (1 Byzantine top subtree + 1 per honest cluster):");
    println!(
        "  {bad}/{} bottom clients Byzantine = {:.4}% — exactly the Theorem 2 bound",
        mask.len(),
        bad as f64 / mask.len() as f64 * 100.0
    );

    // --- An ACSM structure ----------------------------------------------
    let acsm = Hierarchy::acsm_random(100, 3, 3, 7, 1);
    println!("\nACSM hierarchy: 100 clients, 3 levels, cluster sizes 3–7 (random)");
    for l in 0..acsm.num_levels() {
        let level = acsm.level(l);
        let sizes: Vec<usize> = level.clusters.iter().map(|c| c.len()).collect();
        println!(
            "  level {l}: {} nodes, cluster sizes {:?}",
            level.num_nodes(),
            &sizes[..sizes.len().min(10)]
        );
    }
    // Theorem 3: tolerance is inversely proportional to the relative
    // reliable number ψ.
    println!("\nTheorem 3 (ACSM): max Byzantine proportion = 1 − (1−γ2)·ψ");
    for psi in [1.0, 0.9, 0.75, 0.5] {
        println!(
            "  ψ = {psi:.2}: {:.2}%",
            theory::theorem3_max_byzantine_ratio(0.25, psi, false) * 100.0
        );
    }
}
