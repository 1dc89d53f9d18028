//! Equivalence oracles for the unbatched serving simulator.
//!
//! * `snapshot_of_exact_summaries` pins every [`simulate_with`] summary in
//!   [`MetricsMode::Exact`] over a fixed grid — integral and fractional
//!   service tables × the three built-in schedulers × under- and
//!   overloaded Poisson, bursty and closed-loop traffic — to values
//!   recorded from the standalone event loop `simulate` ran on before it
//!   became a configuration of the front-end core. Floats print in Rust's
//!   shortest round-trip form, so a match is bit-exact; the per-request
//!   records and the queue-depth trajectory are compared through a 64-bit
//!   FNV-1a hash of their bits.
//! * `front_end_replays_the_snapshot_timeline` holds the default front end
//!   to the same recorded makespans and shard usage. The fractional fleet
//!   has twin shards, so `FastestCompletion` meets exact ties that the
//!   backlog's float residue breaks: a queue leaving a shard must subtract
//!   exactly the work it added, never a clamped or recomputed amount.
//! * `simulate_equals_the_default_front_end` checks the same equivalence
//!   over random fleets, loads and schedulers.

use proptest::prelude::*;
use sparsenn_obs::{AttrKey, RingRecorder, SpanKind};
use sparsenn_serve::frontend::{
    simulate_frontend_traced, AdmitAll, FrontendConfig, FrontendSummary, Priority, SloPolicy,
};
use sparsenn_serve::{
    fleet_capacity_rps, simulate, simulate_with, FastestCompletion, FirstIdle, LeastQueued,
    MetricsMode, Scheduler, ServeSummary, ShardSpec, ShardUsage, Workload,
};

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn fleets() -> [(&'static str, Vec<ShardSpec>); 2] {
    [
        (
            "integral",
            vec![
                ShardSpec::uniform("fast", 10.0),
                ShardSpec::with_table("mixed", vec![12.0, 20.0, 16.0]),
                ShardSpec::uniform("slow", 40.0),
            ],
        ),
        (
            "fractional",
            vec![
                ShardSpec::with_table("a", vec![7.3, 11.9, 9.1, 8.7]),
                ShardSpec::with_table("b", vec![7.3, 11.9, 9.1, 8.7]),
                ShardSpec::with_table("c", vec![0.1, 33.3, 21.7]),
            ],
        ),
    ]
}

fn workloads(capacity_rps: f64) -> [(&'static str, Workload); 4] {
    [
        (
            "poisson-0.7",
            Workload::Poisson {
                rate_rps: 0.7 * capacity_rps,
                requests: 1500,
                seed: 11,
            },
        ),
        (
            "poisson-1.3",
            Workload::Poisson {
                rate_rps: 1.3 * capacity_rps,
                requests: 1500,
                seed: 12,
            },
        ),
        (
            "bursty",
            Workload::Bursty {
                low_rps: 0.2 * capacity_rps,
                high_rps: 2.5 * capacity_rps,
                period_us: 2_000.0,
                duty: 0.3,
                requests: 1500,
                seed: 13,
            },
        ),
        (
            "closed",
            Workload::ClosedLoop {
                concurrency: 7,
                requests: 1000,
                think_us: 5.0,
            },
        ),
    ]
}

fn scheduler_for(which: usize) -> &'static dyn Scheduler {
    match which % 3 {
        0 => &FirstIdle,
        1 => &LeastQueued,
        _ => &FastestCompletion,
    }
}

/// Every cell of the snapshot grid, in snapshot order.
fn grid() -> Vec<(&'static str, Vec<ShardSpec>, &'static str, Workload, usize)> {
    let mut cells = Vec::new();
    for (fleet_name, fleet) in fleets() {
        for (load, workload) in workloads(fleet_capacity_rps(&fleet)) {
            for which in 0..3 {
                cells.push((fleet_name, fleet.clone(), load, workload, which));
            }
        }
    }
    cells
}

/// The front end with every policy a no-op, traced so that per-shard
/// usage can be folded from its completed attempt spans (the front-end
/// summary has no per-shard table).
fn front_end(
    shards: &[ShardSpec],
    scheduler: &dyn Scheduler,
    workload: Workload,
) -> (FrontendSummary, Vec<ShardUsage>) {
    let recorder = RingRecorder::new(1 << 14);
    let slo = SloPolicy {
        high_us: 1e3,
        low_us: 1e3,
    };
    let cfg = FrontendConfig::new(workload, slo);
    let s = simulate_frontend_traced(shards, scheduler, &AdmitAll, &cfg, &recorder).unwrap();
    assert_eq!(recorder.dropped(), 0, "ring sized for the whole run");
    let mut usage: Vec<ShardUsage> = shards
        .iter()
        .map(|spec| ShardUsage {
            name: spec.name.clone(),
            served: 0,
            busy_us: 0.0,
            utilization: 0.0,
        })
        .collect();
    for span in recorder
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Attempt)
    {
        let u = &mut usage[span.attr_u64(AttrKey::Shard).unwrap() as usize];
        u.served += 1;
        u.busy_us += span.end_us - span.start_us;
    }
    for u in &mut usage {
        if s.makespan_us > 0.0 {
            u.utilization = u.busy_us / s.makespan_us;
        }
    }
    (s, usage)
}

fn usage_field(shards: &[ShardUsage]) -> String {
    let shards: Vec<String> = shards
        .iter()
        .map(|u| format!("{}/{:?}", u.served, u.busy_us))
        .collect();
    format!("shards=[{}]", shards.join(" "))
}

fn line(fleet: &str, load: &str, s: &ServeSummary) -> String {
    let l = &s.latency;
    let mut traj = Fnv::new();
    for &(t, d) in &s.queue.trajectory {
        traj.word(t.to_bits());
        traj.word(d as u64);
    }
    let mut records = Fnv::new();
    for r in &s.per_request {
        records.word(r.id as u64);
        records.word(r.shard as u64);
        records.word(r.arrival_us.to_bits());
        records.word(r.start_us.to_bits());
        records.word(r.completion_us.to_bits());
    }
    format!(
        "{fleet} {} {load}: n={} makespan={:?} latency=[{:?} {:?} {:?} {:?} {:?}] \
         queue_us={:?} service_us={:?} depth={}/{:?} traj={:#018x} {} records={:#018x}",
        s.scheduler,
        s.requests,
        s.makespan_us,
        l.mean_us,
        l.p50_us,
        l.p95_us,
        l.p99_us,
        l.max_us,
        s.queue_us_mean,
        s.service_us_mean,
        s.queue.max_depth,
        s.queue.mean_depth,
        traj.0,
        usage_field(&s.shards),
        records.0,
    )
}

fn snapshot() -> Vec<String> {
    grid()
        .into_iter()
        .map(|(fleet_name, fleet, load, workload, which)| {
            let s =
                simulate_with(&fleet, scheduler_for(which), &workload, MetricsMode::Exact).unwrap();
            line(fleet_name, load, &s)
        })
        .collect()
}

const SNAPSHOT: &[&str] = &[
    "integral first-idle poisson-0.7: n=1500 makespan=11556.524738237173 latency=[19.591765109368843 16.0 42.05752818168503 52.687345992064365 72.91169618641288] queue_us=3.4317651093688384 service_us=16.16 depth=7/0.4454321502917908 traj=0xf67a5183e1ba1279 shards=[824/8240.0 466/7600.0 210/8400.0] records=0xc80145d6e4238873",
    "integral least-queued poisson-0.7: n=1500 makespan=11556.524738237173 latency=[19.568335135937453 16.0 40.0 72.24300228010452 115.50553312946431] queue_us=3.6376684692708015 service_us=15.930666666666667 depth=7/0.4721577487609424 traj=0xeeab4280b0cbf0a2 shards=[828/8280.0 467/7416.0 205/8200.0] records=0x8a8bc82691fe48f7",
    "integral fastest-completion poisson-0.7: n=1500 makespan=11565.334115861375 latency=[19.93722317097616 17.882105719364517 36.63707305808475 42.36147690958683 52.836549951716734] queue_us=7.869223170976169 service_us=12.068 depth=7/1.020622027709151 traj=0x61ae35ce41e9e4f4 shards=[999/9990.0 483/7392.0 18/720.0000000000002] records=0xb97c6e0b165b22fe",
    "integral first-idle poisson-1.3: n=1500 makespan=8024.284957423363 latency=[935.9076635945727 907.7734857440678 1744.7974599061981 1822.2400780709368 1868.1648320315135] queue_us=919.8996635945723 service_us=16.008 depth=345/171.9591842405026 traj=0xfffbc3853b15e8c0 shards=[800/8000.0 500/8012.0 200/8000.0] records=0x7899b838c3dea9d1",
    "integral least-queued poisson-1.3: n=1500 makespan=10746.527122754218 latency=[1007.9301325631477 791.2946396187326 3346.6433377109024 4324.97528983375 4596.577836479701] queue_us=990.5767992298148 service_us=17.35333333333333 depth=344/138.2646860583099 traj=0x1cfaae9f67dccbf7 shards=[731/7310.0 501/8000.0 268/10720.0] records=0x1800bdf7708b3ebd",
    "integral fastest-completion poisson-1.3: n=1500 makespan=8026.527122754219 latency=[939.3383299251286 911.5053640141796 1746.688457170304 1825.853871804834 1857.120421032807] queue_us=923.3729965917955 service_us=15.965333333333334 depth=346/172.56024600741964 traj=0x32cc09b8e1bdb7be shards=[802/8020.0 500/8008.0 198/7920.0] records=0x5b49e4a7a70c7793",
    "integral first-idle bursty: n=1500 makespan=8772.413585108721 latency=[435.0761769905741 418.29940469746 868.1200895375996 939.1338554155177 1013.2101607757668] queue_us=419.11617699057393 service_us=15.96 depth=184/71.66491403837189 traj=0xcc231c4ae0615207 shards=[808/8079.999999999999 494/7940.0 198/7920.0] records=0xea7b88148bf23653",
    "integral least-queued bursty: n=1500 makespan=9842.59316098547 latency=[578.7241262490769 421.6571831580586 1976.0286321384847 2490.604146151225 2723.357881146575] queue_us=561.8681262490762 service_us=16.856 depth=205/85.6280632134987 traj=0xdaf1a606b274a9be shards=[764/7640.0 490/7804.0 246/9840.0] records=0x5250417cb3418437",
    "integral fastest-completion bursty: n=1500 makespan=8774.871319070096 latency=[434.35859004222806 416.26525994906297 866.6192986237529 944.9031874739244 994.5330452280755] queue_us=418.60525670889484 service_us=15.753333333333334 depth=184/71.55750349281294 traj=0x0fbc314e03ff0eb4 shards=[817/8170.0 493/7860.0 190/7600.0] records=0xb4da019a33bbe5d0",
    "integral first-idle closed: n=1000 makespan=5360.0 latency=[32.331 27.0 65.0 65.0 65.0] queue_us=16.305 service_us=16.026 depth=4/3.0419776119402986 traj=0x8d155492a3e9201c shards=[533/5330.0 333/5336.0 134/5360.0] records=0xdd3adb0049415df2",
    "integral least-queued closed: n=1000 makespan=5360.0 latency=[32.331 25.0 75.0 75.0 80.0] queue_us=16.305 service_us=16.026 depth=4/3.0419776119402986 traj=0x4b1e2ca2457eec09 shards=[533/5330.0 333/5336.0 134/5360.0] records=0xf41a80d5aeefe40a",
    "integral fastest-completion closed: n=1000 makespan=5560.0 latency=[33.838 35.0 40.0 40.0 40.0] queue_us=19.406 service_us=14.432 depth=5/3.4902877697841728 traj=0xeeaf8e72311ce0dc shards=[556/5560.0 361/5552.0 83/3320.0] records=0xaa1e91f0287ef13b",
    "fractional first-idle poisson-0.7: n=1500 makespan=8011.305725753489 latency=[14.076241302266599 11.899999999999636 33.30000000000018 39.849695126276856 51.65127662147552] queue_us=2.830507968933298 service_us=11.245733333333293 depth=8/0.5299712804307714 traj=0x6a6bf0c92f224687 shards=[657/6108.700000000003 584/5335.600000000006 259/5424.300000000014] records=0xb52b609150b363d4",
    "fractional least-queued poisson-0.7: n=1500 makespan=8011.305725753489 latency=[14.587268244728575 11.899999999999977 33.30000000000018 51.96781551884669 69.01209773852406] queue_us=3.331534911395291 service_us=11.255733333333318 depth=7/0.6237812584069026 traj=0xd1c3636671b07f59 shards=[690/6372.5999999999985 555/5119.100000000005 255/5391.900000000019] records=0x692cb4f76184a0d8",
    "fractional fastest-completion poisson-0.7: n=1500 makespan=8001.684003844032 latency=[6.959226944126521 8.699999999999818 14.707396492282896 18.677586257281973 22.857283587125494] queue_us=0.7341602774598305 service_us=6.225066666666719 depth=3/0.13762608166739734 traj=0xf2a33e958ae58e7d shards=[553/5202.699999999997 447/4041.7000000000035 500/93.20000000007266] records=0x57484b31b3a5b4a8",
    "fractional first-idle poisson-1.3: n=1500 makespan=5746.416632264428 latency=[734.6441795651275 714.1453817540059 1378.6290166324306 1436.6200391877965 1472.5959172863622] queue_us=723.2088462317942 service_us=11.435333333333302 depth=381/188.78082442835517 traj=0xbcbad9f16467d107 shards=[622/5713.000000000003 621/5721.1000000000095 257/5718.899999999996] records=0xe942cdca560c7ee8",
    "fractional least-queued poisson-1.3: n=1500 makespan=6151.31663226444 latency=[622.5319219870688 585.5313247247691 1416.968483745783 1778.7554273855126 1879.0831697533222] queue_us=611.3924553204015 service_us=11.139466666666687 depth=332/149.08819327724973 traj=0xc6d53d918956c1f1 shards=[572/5282.800000000002 570/5302.599999999995 358/6123.800000000009] records=0xa0270495e997bafd",
    "fractional fastest-completion poisson-1.3: n=1500 makespan=4306.340058836689 latency=[18.741216981770872 18.875988189009377 40.151311065316804 62.477599297414145 69.22786599578649] queue_us=11.48241698177087 service_us=7.258800000000042 depth=23/3.9995971607753384 traj=0x15a149229ce0d586 shards=[450/4174.2 461/4192.700000000002 589/2521.2999999999715] records=0xa2a36c02c803a55e",
    "fractional first-idle bursty: n=1500 makespan=6103.914179831848 latency=[492.1604891600338 489.42041764880696 956.4322680122664 1076.0052604653092 1107.7794418851877] queue_us=480.7532891600349 service_us=11.407199999999966 depth=286/118.14221374913166 traj=0x6df7c96f8976876e shards=[628/5762.6000000000095 616/5671.000000000005 256/5677.200000000001] records=0x17134d388836e426",
    "fractional least-queued bursty: n=1500 makespan=6392.996397234427 latency=[529.9806164441802 484.99133119177975 1383.8995903876066 1729.6662050012337 1901.8600438833282] queue_us=518.5095497775142 service_us=11.47106666666667 depth=292/121.6588085365931 traj=0x9fd4341ae83c65bf shards=[595/5520.499999999995 577/5294.900000000003 328/6391.200000000008] records=0xbdd4fbb2c586f2c4",
    "fractional fastest-completion bursty: n=1500 makespan=6068.072578176371 latency=[225.81493694577335 228.74123709658488 462.6976989343125 529.7814761143954 555.0104109166846] queue_us=218.23680361244013 service_us=7.578133333333377 depth=214/53.947147335709595 traj=0x36376d5f04e39381 shards=[457/4207.899999999998 403/3682.500000000005 640/3476.800000000021] records=0xf56555ad8d74739b",
    "fractional first-idle closed: n=1000 makespan=3822.1000000000017 latency=[21.70600000000001 20.399999999999977 38.000000000000455 43.2000000000005 44.70000000000027] queue_us=10.25279999999998 service_us=11.453199999999994 depth=4/2.6825043824075827 traj=0x0b6ab917dfeb8611 shards=[417/3822.1000000000017 414/3814.2000000000003 169/3816.899999999996] records=0x6485e355455f066b",
    "fractional least-queued closed: n=1000 makespan=3766.9000000000024 latency=[21.347600000000007 18.70000000000755 52.000000000007276 62.00000000000773 65.60000000000764] queue_us=10.215000000000018 service_us=11.132600000000004 depth=4/2.7117789163503137 traj=0xb80c2e98b661028b shards=[399/3766.3000000000034 414/3759.1999999999953 187/3607.0999999999954] records=0xafecec4db0645f8a",
    "fractional fastest-completion closed: n=1000 makespan=2683.1999999999975 latency=[13.746600000000035 16.09999999999998 21.700000000000045 22.90000000000009 23.1] queue_us=6.547799999999996 service_us=7.198800000000001 depth=4/2.440295169946341 traj=0x127ed3de501eb517 shards=[302/2683.199999999997 302/2683.1999999999975 396/1832.3999999999828] records=0xacfb85a8ddb32536",
];

#[test]
fn snapshot_of_exact_summaries() {
    assert_eq!(snapshot(), SNAPSHOT);
}

#[test]
fn front_end_replays_the_snapshot_timeline() {
    for ((_, fleet, _, workload, which), expect) in grid().into_iter().zip(SNAPSHOT) {
        let (s, usage) = front_end(&fleet, scheduler_for(which), workload);
        let timeline = format!("makespan={:?} ", s.makespan_us);
        assert!(
            expect.contains(&timeline),
            "{expect}\n  front end: {timeline}"
        );
        let shards = usage_field(&usage);
        assert!(expect.contains(&shards), "{expect}\n  front end: {shards}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `simulate` and the default front end agree on makespan, latency
    /// and per-shard usage for any fleet, load and built-in scheduler.
    /// Tables are integral or in tenths of a µs, and `twin` duplicates
    /// the first shard so that fastest-completion ties occur.
    #[test]
    fn simulate_equals_the_default_front_end(
        which_scheduler in 0usize..3,
        tables in prop::collection::vec(prop::collection::vec(1u32..400, 1..4), 1..4),
        twin in any::<bool>(),
        tenths in any::<bool>(),
        load in 0.2f64..1.6,
        requests in 1usize..400,
        seed in any::<u64>(),
        shape in 0usize..3,
        concurrency in 1usize..12,
    ) {
        let scale = if tenths { 0.1 } else { 1.0 };
        let mut shards: Vec<ShardSpec> = tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let table = t.iter().map(|&v| f64::from(v) * scale).collect();
                ShardSpec::with_table(format!("s{i}"), table)
            })
            .collect();
        if twin {
            shards.push(ShardSpec::with_table("twin", shards[0].service_us.clone()));
        }
        let capacity = fleet_capacity_rps(&shards);
        let workload = match shape {
            0 => Workload::Poisson { rate_rps: load * capacity, requests, seed },
            1 => Workload::Bursty {
                low_rps: 0.2 * load * capacity,
                high_rps: 2.5 * load * capacity,
                period_us: 2_000.0,
                duty: 0.3,
                requests,
                seed,
            },
            _ => Workload::ClosedLoop { concurrency, requests, think_us: (seed % 20) as f64 },
        };
        let scheduler = scheduler_for(which_scheduler);
        let serve = simulate(&shards, scheduler, &workload).unwrap();
        let (front, usage) = front_end(&shards, scheduler, workload);
        prop_assert_eq!(front.makespan_us, serve.makespan_us);
        prop_assert_eq!(&front.class(Priority::High).latency, &serve.latency);
        prop_assert_eq!(&usage, &serve.shards);
    }
}
