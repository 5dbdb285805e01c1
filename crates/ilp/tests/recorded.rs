//! Recorded exploitation instances keep the plans the reference solver
//! gave them (see the header of `data/profile_instances.txt`).

use bofl_ilp::{solve_profile, ConfigCost, ProfileError};

fn float(hex: &str) -> f64 {
    f64::from_bits(u64::from_str_radix(hex, 16).expect("hex float bits"))
}

#[test]
fn recorded_instances_keep_their_plans() {
    let data = include_str!("data/profile_instances.txt");
    let mut checked = 0;
    for line in data.lines().filter(|l| !l.starts_with('#')) {
        let mut fields = line.split(' ');
        let mut next = || fields.next().expect("truncated instance");
        let k: usize = next().parse().unwrap();
        let jobs: u64 = next().parse().unwrap();
        let deadline_s = float(next());
        let costs: Vec<ConfigCost> = (0..k)
            .map(|_| ConfigCost {
                latency_s: float(next()),
                energy_j: float(next()),
            })
            .collect();
        let got = solve_profile(&costs, jobs, deadline_s);
        match next() {
            "ok" => {
                let want: Vec<u64> = (0..k).map(|_| next().parse().unwrap()).collect();
                assert_eq!(got.map(|p| p.counts), Ok(want), "K = {k}, W = {jobs}");
            }
            "infeasible" => assert!(
                matches!(got, Err(ProfileError::Infeasible { .. })),
                "{got:?}"
            ),
            other => panic!("unknown outcome {other}"),
        }
        checked += 1;
    }
    assert_eq!(checked, 48);
}
