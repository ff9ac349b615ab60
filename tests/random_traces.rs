//! Seeded random traces × the four `pathological.rs` configurations,
//! pinned by `RunSummary` digest.
//!
//! The benchmark, scenario and compare goldens only see what the trace
//! generators emit: op latencies 1 and 3, short dependency distances and
//! regular memory patterns. These traces reach the issue rules the
//! goldens never exercise:
//!
//! - zero-latency ops, whose consumers issue in the same cycle (such ops
//!   reach the core only through `.mtr` replay);
//! - dependency distances up to 220, past the 168-entry ROB, so some
//!   producers have committed before their consumers dispatch;
//! - mispredicted branches (5%) that stall the front end mid-window;
//! - loads and stores over a few pages and lines, so offers are rejected,
//!   the LQ fills and stores wait on older stores.
//!
//! The table was recorded from the scan-based issue stage that preceded
//! wakeup/select. A change to `OoOCore`'s issue stage that alters any
//! cycle, counter or energy figure fails here.
//!
//! A second table runs the same traces on three edge configurations the
//! Table II sizes never reach: a 40-entry ROB (smaller than the window
//! the dependency distances span), a 300-entry ROB (past a power of two,
//! so the ROB ring has 512 slots and wraps unevenly) and MALEC with a
//! 2-entry uTLB over a 4-entry TLB (nearly every page group evicts a uTLB
//! entry and syncs its uWT entry). It was recorded from the `Vec`-scan
//! ROB, cache banks and TLBs that preceded the ring ROB and the flat
//! arrays. To re-record both tables after an *intentional* behaviour
//! change:
//!
//! ```sh
//! cargo test --release -p malec-harness --test random_traces -- --ignored --nocapture
//! ```

use malec_core::{digest, Simulator};
use malec_trace::{splitmix64, TraceInst};
use malec_types::addr::VAddr;
use malec_types::SimConfig;

/// Instructions per trace.
const INSTS: usize = 6_000;
/// Seed of trace 0; trace `i` uses `SEED + i`.
const SEED: u64 = 2013;

/// Names for diagnostics: `malec_wide` shares the `MALEC` label.
const CONFIG_NAMES: [&str; 4] = ["Base1ldst", "Base2ld1st", "MALEC", "MALEC-wide"];

fn configs() -> [SimConfig; 4] {
    [
        SimConfig::base1ldst(),
        SimConfig::base2ld1st(),
        SimConfig::malec(),
        SimConfig::malec_wide(),
    ]
}

/// Names for diagnostics of the edge table.
const EDGE_NAMES: [&str; 3] = ["Base2ld1st-rob40", "MALEC-rob300", "MALEC-utlb2-tlb4"];

fn edge_configs() -> [SimConfig; 3] {
    [
        SimConfig {
            rob_entries: 40,
            ..SimConfig::base2ld1st()
        },
        SimConfig {
            rob_entries: 300,
            ..SimConfig::malec()
        },
        SimConfig {
            utlb_entries: 2,
            tlb_entries: 4,
            ..SimConfig::malec()
        },
    ]
}

/// SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = splitmix64(self.0);
        self.0 % n
    }
}

fn dep(rng: &mut Rng) -> Option<u32> {
    match rng.below(8) {
        0 | 1 => None,
        // Up to 220: past the ROB, so the producer may have committed.
        2 => Some(1 + rng.below(220) as u32),
        _ => Some(1 + rng.below(6) as u32),
    }
}

/// One random trace. The load/store shares, page count and hot lines per
/// page vary by seed, so the set covers load-, store- and op-heavy windows.
fn trace(seed: u64) -> Vec<TraceInst> {
    let mut rng = Rng(seed);
    let loads = 15 + rng.below(25);
    let stores = 5 + rng.below(25);
    let branches = 10;
    let pages = 1 + rng.below(4);
    let lines = [2, 8, 64][rng.below(3) as usize];
    let addr = |rng: &mut Rng| {
        let page = 0x40_0000 + rng.below(pages) * 4096;
        VAddr::new(page + rng.below(lines) * 64 + rng.below(48))
    };
    (0..INSTS)
        .map(|_| {
            let size = [1, 2, 4, 8, 16][rng.below(5) as usize];
            let r = rng.below(100);
            if r < loads {
                TraceInst::Load {
                    vaddr: addr(&mut rng),
                    size,
                    addr_dep: dep(&mut rng),
                }
            } else if r < loads + stores {
                TraceInst::Store {
                    vaddr: addr(&mut rng),
                    size,
                    data_dep: dep(&mut rng),
                }
            } else if r < loads + stores + branches {
                TraceInst::Branch {
                    mispredicted: rng.below(100) < 5,
                    dep: dep(&mut rng),
                }
            } else {
                TraceInst::Op {
                    latency: rng.below(5) as u8,
                    dep: dep(&mut rng),
                }
            }
        })
        .collect()
}

fn digests_of<const N: usize>(seed: u64, configs: [SimConfig; N], names: [&str; N]) -> [u64; N] {
    let t = trace(seed);
    let mut names = names.iter();
    configs.map(|cfg| {
        let s = Simulator::new(cfg).run_trace(
            format!("random-{seed}"),
            "random",
            t.iter().copied(),
            seed,
        );
        let name = names.next().expect("one name per config");
        assert_eq!(s.core.committed, INSTS as u64, "{name}/{seed}");
        digest(&s)
    })
}

/// Every row of `table` against fresh digests of `configs`; returns one
/// line per cell that moved.
fn diverged<const N: usize>(
    table: &[[u64; N]],
    configs: impl Fn() -> [SimConfig; N],
    names: [&str; N],
) -> Vec<String> {
    let mut diverged = Vec::new();
    for (i, want) in table.iter().enumerate() {
        let seed = SEED + i as u64;
        let got = digests_of(seed, configs(), names);
        for ((name, got), want) in names.iter().zip(got).zip(want) {
            if got != *want {
                diverged.push(format!("seed {seed} {name}: {got:#018x} != {want:#018x}"));
            }
        }
    }
    diverged
}

#[test]
fn random_traces_match_recorded_digests() {
    let diverged = diverged(&DIGESTS, configs, CONFIG_NAMES);
    assert!(
        diverged.is_empty(),
        "issue behaviour diverged from the recorded digests:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn edge_configs_match_recorded_digests() {
    let diverged = diverged(&EDGE_DIGESTS, edge_configs, EDGE_NAMES);
    assert!(
        diverged.is_empty(),
        "edge-configuration behaviour diverged from the recorded digests:\n{}",
        diverged.join("\n")
    );
}

/// Prints `table` in source form, recomputed from `configs`.
fn print_table<const N: usize>(
    name: &str,
    rows: usize,
    configs: impl Fn() -> [SimConfig; N],
    names: [&str; N],
) {
    println!("const {name}: [[u64; {N}]; {rows}] = [");
    for i in 0..rows {
        let d = digests_of(SEED + i as u64, configs(), names);
        let cells: Vec<String> = d.iter().map(|d| format!("{d:#018x}")).collect();
        println!("    [{}],", cells.join(", "));
    }
    println!("];");
}

#[test]
#[ignore = "prints fresh digest tables; run only after an intentional behaviour change"]
fn record_random_trace_digests() {
    print_table("DIGESTS", DIGESTS.len(), configs, CONFIG_NAMES);
    print_table("EDGE_DIGESTS", EDGE_DIGESTS.len(), edge_configs, EDGE_NAMES);
}

/// Digests per seed, in `configs()` order.
const DIGESTS: [[u64; 4]; 24] = [
    [
        0xb73f6d56078ce289,
        0x6ed20163363951d9,
        0x4e75000ba68adb2c,
        0x2fe1f7a15be88b42,
    ],
    [
        0x938169529a8bbaaf,
        0x2337add1cbed7caf,
        0x43eefc6c042fdcda,
        0xdc63bccecc7e3f4d,
    ],
    [
        0x30f79b2782474eb9,
        0x2f1acaf2106e0a1f,
        0xff8a63f38f28e6aa,
        0xe77172babd0ed6c2,
    ],
    [
        0x31736d1e0b438ea9,
        0xde605c0a1b6c13d9,
        0x234820a959ef65fd,
        0xe265699ebd5c7e0b,
    ],
    [
        0x18676c4875e66d30,
        0x33df6b9516730b0b,
        0xea136531b3bfb302,
        0x536094237a66d8c8,
    ],
    [
        0x6da765b3087b4275,
        0x7106694091a0290d,
        0x0674e3368e1b2eea,
        0x27bc318c1d981e97,
    ],
    [
        0x74880ab9ca20b936,
        0xe3a30aa459735f8e,
        0xf497800397a6de8c,
        0x83084041a16adf80,
    ],
    [
        0x33a382b29306521c,
        0xe6228605e632c3bc,
        0x70abad95b687deb8,
        0x24566a04454d684b,
    ],
    [
        0x3a4e44ab88b957d2,
        0xc6a5fa6e869685bd,
        0xc4d25391cba813a8,
        0x688ceaf30905fd37,
    ],
    [
        0xbf755ee73f230b35,
        0xb769fc5c9a70d5f5,
        0x656d88694adf12a0,
        0x1a9358ebc5155ad8,
    ],
    [
        0x513fee1a59d83efd,
        0x13a7a525e4f7fd00,
        0xbf17f223242f9dd3,
        0xfab5a1487d69d2df,
    ],
    [
        0x8ab3cfad4bcc56c8,
        0xa56878c4b3ab936e,
        0xad5302056f4cf465,
        0x0968793e87e3692c,
    ],
    [
        0xfa5107d26258b810,
        0x7064c544b6ba7df3,
        0xe3082a9a21b0fb10,
        0x1b284e5706631614,
    ],
    [
        0xe1d18d68bad5b8d3,
        0x38223cb867b4bc70,
        0x66ead97c42373ae4,
        0x0564e1358010ea0e,
    ],
    [
        0x0dca0ef33b2a94a2,
        0x7d61df5f216c8e61,
        0x7354f505401a39b0,
        0x704295f18c29c175,
    ],
    [
        0xf62675f63ffe616f,
        0xe9cca10c071e9c78,
        0xa854becbe7b4386e,
        0x696b5ed81f95e359,
    ],
    [
        0x4c0ad93a9b5214b0,
        0x053c6c772ae31ac8,
        0x6fad3d1b7bb76366,
        0x4d0cf270216d33b0,
    ],
    [
        0xd28664262770bc8c,
        0x50238ee16a97c202,
        0x0c6d0a273ce8f9cb,
        0xa7b8565cb219a747,
    ],
    [
        0xc990c14e85b55d91,
        0x73ecf4605c1ff263,
        0xe310a6f30df25155,
        0xe0f759d3067563da,
    ],
    [
        0x84f49678ada18c48,
        0xf6ca2d9ab5a2dfe4,
        0x241f96371b3fbef6,
        0x59a61c212c3f9f9c,
    ],
    [
        0x533951659cde909d,
        0x9ce9518d51c3f02a,
        0xdcdfe8ea14086f8b,
        0xa986b1f5e5068c72,
    ],
    [
        0x6bf9ac6d02dd2add,
        0x3e3b29ac0feefffa,
        0x55d94fd7ddd52ae6,
        0xd6f92c68ee63a132,
    ],
    [
        0x6d6d800565794b54,
        0x7348490f8197bcf5,
        0x956a384374aa29ad,
        0x9149eb1cb5a4912e,
    ],
    [
        0xaec82564e78833d1,
        0xf25072c9d5193d74,
        0xd6ff59eff97d1775,
        0x723bded1e44b4f9c,
    ],
];

/// Digests per seed, in `edge_configs()` order.
const EDGE_DIGESTS: [[u64; 3]; 24] = [
    [0xa25568760b0291ea, 0x807eab4f5bf9791c, 0x523a8d9fc46eaa77],
    [0x2213af173cf2eaa0, 0x13b2b962bc60900a, 0x3fdb7e0583b2ef0c],
    [0xef6f9195703ea139, 0xe40964442065e9ae, 0x8d611c857133ff9a],
    [0x38d6565a725d8513, 0xe923f301bafb5269, 0x4056366f7554809f],
    [0x77b976743f708c9e, 0x50372fd2bfae9f66, 0x98ac9cddd7bc377b],
    [0x4ea0811b33c7a4df, 0x931f6d4355402258, 0xe51193c418a6b650],
    [0x2c89941c7f6f22d0, 0x96e609fc05ef760c, 0xaec9e294d6cc6546],
    [0x2fc26911ec4601a3, 0x5b5c42d9277d3018, 0x06be24dd85bd2ad0],
    [0x5939882bc8f21756, 0x054b528055eeac72, 0xc5084f979a2d32eb],
    [0xc0610ffa4a269ba1, 0xb1629b62979f8fdb, 0x731bd178772ae4d7],
    [0xe8dc6a453b8d7199, 0x2fe74401ef1fdc75, 0xcfb7cbb45853f974],
    [0x2f32f7587f57ae3d, 0x82a8176982b3ef6b, 0xfd54eab99311ac7f],
    [0xc395abb9423ed23a, 0x5012a8bb177fbb63, 0xe23af28e306ae83e],
    [0x98cca517d8af24de, 0xd8361bb4845a8624, 0x0b460c1d0c6df2e7],
    [0x6e97b46bc0d78035, 0xa9b2b4a474b89bc2, 0x2c73a13903625005],
    [0x05b6e91e06f10f87, 0x64b23e59b6e22b96, 0x32db5e15f6768c48],
    [0xe270618f4eedbc85, 0x00cb1211f48d4cbd, 0x94ef38d86cc57b9d],
    [0x46b9ff17c7e1b526, 0x44b1607cc8c43ee1, 0x6daf695191eb4e65],
    [0x39b7529e32395b9b, 0x9c61dfb848e3a12f, 0xa97468e6cffad76e],
    [0xad96bf8186523742, 0x64fdf5d20a8ef211, 0xee553208fc5e5d9c],
    [0xdc46ee288ce5010e, 0xdb15aa3f5f4cc80c, 0x3e65a40c2f857d29],
    [0x4ebd5083308151d1, 0x5dee18bd9d91cd31, 0x36a36c90d93171ae],
    [0x8c072ee56108dbbc, 0x1f27a27c191eadeb, 0x0aaaa34ab561c5b1],
    [0x6fc0c7ee95152a09, 0xccce17269c4a0240, 0xd3ccd622c9aea4f2],
];
