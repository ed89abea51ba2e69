//! A GCBench-style binary-tree program written against the public `Vm`
//! API, and its host-side recomputation.
//!
//! The program keeps one long-lived tree for the whole session and builds
//! a sequence of short-lived trees, alternately bottom-up (children
//! first) and top-down (parent first, children stored into it, so the
//! write barrier sees old-to-young stores). Its answer hashes every node
//! of every tree in visit order. The seed only permutes a fixed multiset
//! of depths, so the sequence changes with the seed while the allocation
//! total does not.

use tilgc_mem::{Addr, SiteId};
use tilgc_programs::common::{mix, XorShift};
use tilgc_runtime::{DescId, FrameDesc, Trace, Value, Vm};

/// Depth of the long-lived tree: 2^14 - 1 nodes, 640 KiB. A collection
/// that copies it takes ~0.8 M simulated cycles, inside the 1.5 M-cycle
/// MMU window; a 1 MB tree would take longer than the window.
const LONG_DEPTH: u32 = 13;
/// Depths of the short-lived trees. The sequence is `ROUNDS` blocks;
/// each block holds `2^(MAX_DEPTH - d)` trees of each depth `d`, so each
/// depth class allocates the same number of nodes. A depth-8 tree
/// (20 KiB) fits the 32 KiB nursery; a depth-10 tree (80 KiB) does not,
/// so most of it is promoted before it dies.
const DEPTHS: [u32; 2] = [8, 10];
const MAX_DEPTH: u32 = 10;
const ROUNDS: usize = 320;
/// Fields of one node, as in GCBench: left, right and two integers (here
/// both hold the node's item).
const NODE_FIELDS: usize = 4;
/// Bytes of one node, header word included.
const NODE_BYTES: u64 = 8 * (1 + NODE_FIELDS as u64);
/// Items of top-down trees are offset so the two build orders hash
/// differently.
const TOP_DOWN_OFFSET: i64 = 64;

/// The depth sequence of one session.
#[derive(Clone, Debug)]
pub struct TreeSpec {
    pub depths: Vec<u32>,
}

impl TreeSpec {
    /// The depth sequence for `seed`. The seed shuffles the trees within
    /// each block. Every block holds the same depths, so the seed moves
    /// the sequence but neither the allocation total nor how densely the
    /// large trees arrive; that keeps the worst-window MMU steady across
    /// seeds.
    pub fn from_seed(seed: u64) -> TreeSpec {
        let block: Vec<u32> = DEPTHS
            .iter()
            .flat_map(|&d| std::iter::repeat_n(d, 1 << (MAX_DEPTH - d)))
            .collect();
        let mut rng = XorShift::new(seed ^ 0x7EE5);
        let mut depths = Vec::with_capacity(ROUNDS * block.len());
        for _ in 0..ROUNDS {
            let mut b = block.clone();
            for i in (1..b.len()).rev() {
                b.swap(i, rng.below(i as u64 + 1) as usize);
            }
            depths.extend(b);
        }
        TreeSpec { depths }
    }

    /// The program's answer, computed on the host without a `Vm`.
    pub fn expected_checksum(&self) -> u64 {
        let mut h = 0;
        for (i, &d) in self.depths.iter().enumerate() {
            h = host_hash(h, d, offset(i));
        }
        host_hash(h, LONG_DEPTH, 0)
    }

    /// Bytes the program allocates; independent of the seed.
    pub fn expected_alloc_bytes(&self) -> u64 {
        let nodes: u64 = self.depths.iter().map(|&d| tree_nodes(d)).sum();
        (nodes + tree_nodes(LONG_DEPTH)) * NODE_BYTES
    }

    /// A fingerprint of the depth sequence, to show the seed moves it.
    pub fn sequence_hash(&self) -> u64 {
        self.depths.iter().fold(0, |h, &d| mix(h, u64::from(d)))
    }
}

fn tree_nodes(depth: u32) -> u64 {
    (1u64 << (depth + 1)) - 1
}

fn offset(i: usize) -> i64 {
    if i % 2 == 0 {
        0
    } else {
        TOP_DOWN_OFFSET
    }
}

/// Pre-order hash of a complete tree whose node at height `d` holds
/// `d + off`.
fn host_hash(h: u64, d: u32, off: i64) -> u64 {
    let h = mix(h, (i64::from(d) + off) as u64);
    if d == 0 {
        return h;
    }
    let h = host_hash(h, d - 1, off);
    host_hash(h, d - 1, off)
}

struct Frames {
    main: DescId,
    make: DescId,
    populate: DescId,
}

/// Runs the program on `vm` and returns its answer.
///
/// # Panics
///
/// Panics if the heap budget is exhausted (the benchmark counts the
/// session as failed).
pub fn run(vm: &mut Vm, spec: &TreeSpec) -> u64 {
    let long_site = vm.site("trees::long_lived");
    let short_site = vm.site("trees::short_lived");
    let frames = Frames {
        main: vm.register_frame(FrameDesc::new("trees::main").slots(2, Trace::Pointer)),
        make: vm.register_frame(FrameDesc::new("trees::make").slots(2, Trace::Pointer)),
        populate: vm.register_frame(FrameDesc::new("trees::populate").slots(1, Trace::Pointer)),
    };
    vm.push_frame(frames.main);
    let long = make(vm, &frames, long_site, LONG_DEPTH);
    vm.set_slot(0, Value::Ptr(long));
    let mut h = 0;
    for (i, &d) in spec.depths.iter().enumerate() {
        let tree = if offset(i) == 0 {
            make(vm, &frames, short_site, d)
        } else {
            let root = node(vm, short_site, Addr::NULL, Addr::NULL, d, TOP_DOWN_OFFSET);
            vm.set_slot(1, Value::Ptr(root));
            populate(vm, &frames, short_site, d, root);
            vm.slot_ptr(1)
        };
        h = vm_hash(vm, h, tree);
        vm.set_slot(1, Value::NULL);
    }
    let long = vm.slot_ptr(0);
    h = vm_hash(vm, h, long);
    vm.pop_frame();
    h
}

fn node(vm: &mut Vm, site: SiteId, left: Addr, right: Addr, d: u32, off: i64) -> Addr {
    let mut fields = [Value::Int(i64::from(d) + off); NODE_FIELDS];
    fields[0] = Value::Ptr(left);
    fields[1] = Value::Ptr(right);
    vm.alloc_record(site, &fields)
        .unwrap_or_else(|e| panic!("tree node allocation failed: {e}"))
}

/// Bottom-up: both subtrees first, then their parent.
fn make(vm: &mut Vm, frames: &Frames, site: SiteId, d: u32) -> Addr {
    if d == 0 {
        return node(vm, site, Addr::NULL, Addr::NULL, 0, 0);
    }
    vm.push_frame(frames.make);
    let left = make(vm, frames, site, d - 1);
    vm.set_slot(0, Value::Ptr(left));
    let right = make(vm, frames, site, d - 1);
    vm.set_slot(1, Value::Ptr(right));
    let (left, right) = (vm.slot_ptr(0), vm.slot_ptr(1));
    let parent = node(vm, site, left, right, d, 0);
    vm.pop_frame();
    parent
}

/// Top-down: allocates the children of `parent` and stores each into
/// it (the parent may already be older than the child), then recurses.
fn populate(vm: &mut Vm, frames: &Frames, site: SiteId, d: u32, parent: Addr) {
    if d == 0 {
        return;
    }
    vm.push_frame(frames.populate);
    vm.set_slot(0, Value::Ptr(parent));
    for field in 0..2 {
        let child = node(vm, site, Addr::NULL, Addr::NULL, d - 1, TOP_DOWN_OFFSET);
        let parent = vm.slot_ptr(0);
        vm.store_ptr(parent, field, child);
        populate(vm, frames, site, d - 1, child);
    }
    vm.pop_frame();
}

/// Pre-order hash of the tree at `t`, read through the `Vm`.
fn vm_hash(vm: &mut Vm, h: u64, t: Addr) -> u64 {
    let h = mix(h, vm.load_int(t, 2) as u64);
    let (left, right) = (vm.load_ptr(t, 0), vm.load_ptr(t, 1));
    if left.is_null() {
        return h;
    }
    let h = vm_hash(vm, h, left);
    vm_hash(vm, h, right)
}
