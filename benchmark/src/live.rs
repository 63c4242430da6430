//! `live_randwrite`: the real-thread data path. A `LiveCluster` of 2 OSD
//! threads, replication 2, DOP; closed-loop client threads each write 4 KiB
//! blocks uniformly at random through their own `BlockImage`, one op in
//! flight per client. No DES engine runs here.

use std::sync::Barrier;
use std::time::Instant;

use rablock::sim::SimRng;
use rablock::{BlockImage, ClusterBuilder, ImageSpec, PipelineMode};

use crate::host;
use crate::spans::Tracer;

const BLOCK: u64 = 4096;
const IMAGE_BYTES: u64 = 16 << 20;
const PG_COUNT: u32 = 16;
/// Closed-loop client threads of the measured cell.
pub const CLIENTS: usize = 2;
/// Writes per client per repeat at full size.
pub const OPS_PER_CLIENT: usize = 20_000;
/// Host seconds one repeat takes on the sizing host, read-back included.
pub const NOMINAL_REPEAT_SECONDS: f64 = 2.5;

pub struct LiveRepeat {
    /// Host seconds of `LiveCluster::start` and `BlockImage::create`.
    pub construct_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Host latency of every successful write, in ns.
    pub lat_ns: Vec<u64>,
    /// Blocks read back after the run, and how many held the wrong bytes.
    pub verified: u64,
    pub mismatched: u64,
}

struct ClientResult {
    lat_ns: Vec<u64>,
    failed: u64,
    /// Last fill byte written per block of the client's image.
    last: Vec<Option<u8>>,
}

/// Starts a fresh cluster, provisions one image per client (set-up), runs
/// `ops_per_client` writes on each of `clients` threads (timed), reads every
/// touched block back and shuts the cluster down.
pub fn run_once(seed: u64, clients: usize, ops_per_client: usize, tr: &mut Tracer) -> LiveRepeat {
    let whole = tr.begin("repeat");
    let span = tr.begin("LiveCluster::start");
    let t0 = Instant::now();
    // 1 GiB devices: Original-style space exhaustion is not what this cell
    // measures, and MemDisk pages lazily, so the room costs nothing.
    let cluster = ClusterBuilder::new(PipelineMode::Dop)
        .nodes(2)
        .osds_per_node(1)
        .pg_count(PG_COUNT)
        .replication(2)
        .device_bytes(1 << 30)
        .start_live();
    tr.end(span);
    let span = tr.begin("BlockImage::create");
    let images: Vec<BlockImage> = (0..clients)
        .map(|c| {
            let spec = ImageSpec::new(c as u8 + 1, IMAGE_BYTES, PG_COUNT);
            BlockImage::create(&cluster, spec).expect("provisioning fits a 1 GiB device")
        })
        .collect();
    // Inputs come from the seed, before the clock starts.
    let blocks = IMAGE_BYTES / BLOCK;
    let plans: Vec<Vec<u32>> = (0..clients)
        .map(|c| {
            let mut rng = SimRng::seed(seed).derive(c as u64);
            (0..ops_per_client)
                .map(|_| rng.below(blocks) as u32)
                .collect()
        })
        .collect();
    let construct_s = t0.elapsed().as_secs_f64();
    tr.end(span);

    let span = tr.begin("steady");
    let start = Barrier::new(clients + 1);
    let (wall_s, cpu_s, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = images
            .iter()
            .zip(&plans)
            .enumerate()
            .map(|(c, (image, plan))| {
                let start = &start;
                scope.spawn(move || {
                    let mut res = ClientResult {
                        lat_ns: Vec::with_capacity(plan.len()),
                        failed: 0,
                        last: vec![None; blocks as usize],
                    };
                    let mut buf = [0u8; BLOCK as usize];
                    start.wait();
                    for (i, &block) in plan.iter().enumerate() {
                        let fill = ((i * 7 + c * 13) % 251) as u8;
                        buf.fill(fill);
                        let t = Instant::now();
                        match image.write(block as u64 * BLOCK, &buf) {
                            Ok(()) => {
                                res.lat_ns.push(t.elapsed().as_nanos() as u64);
                                res.last[block as usize] = Some(fill);
                            }
                            Err(_) => res.failed += 1,
                        }
                    }
                    res
                })
            })
            .collect();
        start.wait();
        let cpu0 = host::cpu_seconds();
        let t = Instant::now();
        let results: Vec<ClientResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread finished"))
            .collect();
        (
            t.elapsed().as_secs_f64(),
            host::cpu_seconds() - cpu0,
            results,
        )
    });
    tr.end(span);

    let span = tr.begin("read-back");
    let (mut verified, mut mismatched) = (0u64, 0u64);
    for (image, res) in images.iter().zip(&results) {
        for (block, fill) in res.last.iter().enumerate() {
            let Some(fill) = fill else { continue };
            verified += 1;
            let ok = image
                .read(block as u64 * BLOCK, BLOCK)
                .is_ok_and(|data| data.len() == BLOCK as usize && data.iter().all(|b| b == fill));
            mismatched += u64::from(!ok);
        }
    }
    tr.end(span);
    let span = tr.begin("LiveCluster::shutdown");
    drop(images);
    cluster.shutdown();
    tr.end(span);
    tr.end(whole);

    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let mut lat_ns = Vec::with_capacity(clients * ops_per_client);
    for r in results {
        lat_ns.extend(r.lat_ns);
    }
    LiveRepeat {
        construct_s,
        wall_s,
        cpu_s,
        attempted: (clients * ops_per_client) as u64,
        failed,
        lat_ns,
        verified,
        mismatched,
    }
}
