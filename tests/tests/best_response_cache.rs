//! The cached MPR-INT best response on the Gaia traffic: every catalog
//! application profile, with a user's misestimate and scaled to a job's
//! cores as the simulator wraps it, answers a whole exchange from one sampled cost grid with exactly
//! the bids fresh best responses give.

use mpr_apps::NoisyCost;
use mpr_core::bidding::best_response;
use mpr_core::{BiddingAgent, NetGainAgent, Price, ScaledCost, Watts};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cached_agent_matches_fresh_best_responses_on_every_profile(
        alpha in 0.2f64..5.0,
        misestimate in 0.5f64..1.5,
        cores in 1.0f64..64.0,
        prices in prop::collection::vec(prop_oneof![Just(0.0), 0.0f64..3.0, 0.0f64..50.0], 1..30),
    ) {
        let profiles = mpr_apps::cpu_profiles()
            .into_iter()
            .chain(mpr_apps::gpu_profiles())
            .chain(mpr_apps::cpu_profiles_smooth());
        for profile in profiles {
            let cost = ScaledCost::new(NoisyCost::new(profile.cost_model(alpha), misestimate), cores);
            let mut agent = NetGainAgent::new(0, &cost, Watts::new(profile.unit_dynamic_power_w()));
            for &q in &prices {
                let cached = agent.respond(q).unwrap();
                let fresh = best_response(&cost, Price::new(q)).unwrap().bid;
                prop_assert_eq!(
                    cached.to_bits(),
                    fresh.to_bits(),
                    "{} at q = {}", profile.name(), q
                );
            }
        }
    }
}
