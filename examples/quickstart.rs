//! Quickstart: clear one MPR-STAT market by hand.
//!
//! Three users run jobs with different application profiles. Each derives
//! a cooperative bid from its (private) cost model; the HPC manager clears
//! the market for a 1 kW power-reduction target and pays rewards.
//!
//! ```text
//! cargo run -p mpr-examples --bin quickstart
//! ```

use mpr_core::bidding::{net_gain, StaticStrategy};
use mpr_core::{
    CostModel, MarketInstance, MclrMechanism, Mechanism, ParticipantSpec, ScaledCost, Watts,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three jobs: an insensitive RSBench (16 cores), a mid-range XSBench
    // (16 cores) and a very sensitive SimpleMOC (8 cores).
    let apps = ["RSBench", "XSBench", "SimpleMOC"];
    let cores = [16.0, 16.0, 8.0];
    let mut costs = Vec::new();
    let mut supplies = Vec::new();
    let mut rows = Vec::new();
    for (i, (name, c)) in apps.iter().zip(cores).enumerate() {
        let profile = mpr_apps::profile_by_name(name).expect("catalog app");
        // The user's perceived cost: extra execution, α = 1 (Eqn. 6).
        let cost = ScaledCost::new(profile.cost_model(1.0), c);
        // Cooperative bid: largest supply that never loses money (Fig. 4a).
        let supply = StaticStrategy::Cooperative.supply_for(&cost)?;
        println!(
            "{name:>10}: {c:>2.0} cores, Δ = {:>5.2} cores, cooperative bid b = {:.3}",
            cost.delta_max(),
            supply.bid()
        );
        rows.push(
            ParticipantSpec::new(
                i as u64,
                supply.delta_max(),
                Watts::new(profile.unit_dynamic_power_w()),
            )
            .with_bid(supply.bid()),
        );
        supplies.push(supply);
        costs.push(cost);
    }

    // A power overload: the manager must shed 1 kW.
    let instance: MarketInstance = rows.into_iter().collect();
    let clearing = MclrMechanism::strict().clear(&instance, Watts::new(1000.0))?;
    println!(
        "\nmarket cleared at price q' = {:.3}, total reduction {:.2} cores ({:.0} W)",
        clearing.price().get(),
        clearing.total_reduction(),
        clearing.total_power_reduction().get()
    );
    for (i, ((reduction, supply), cost)) in clearing
        .reductions()
        .iter()
        .zip(&supplies)
        .zip(&costs)
        .enumerate()
    {
        let gain = net_gain(cost, supply, clearing.price());
        println!(
            "  {:>10}: sheds {:>5.2} cores, reward {:>6.3}/h, cost {:>6.3}/h, net gain {:>6.3}/h",
            apps[i],
            reduction,
            clearing.payment(i).get(),
            cost.cost(*reduction),
            gain
        );
    }
    println!("\nthe insensitive app sheds the most; every user gains (cooperative bidding).");
    Ok(())
}
