(** Leveled LSM-tree models of NoveLSM (Kannan et al., ATC'18) and
    MatrixKV (Yao et al., ATC'20), the two Pmem key-value stores the paper
    compares against in Section 3.7 (Fig. 17).

    Both are LevelDB/RocksDB-style trees on the Pmem: a MemTable, an L0 of
    up to [l0_runs] runs, and three lower levels of one run each, each
    level [8x] the capacity of the one above, compacted by a single
    background thread.  Every run is built by comparison sort (the CPU
    cost the paper blames for their low Pmem bandwidth).  The {!shape}
    fixes the four places where the two designs differ:

    {v
                     NoveLSM                      MatrixKV
    MemTable         skiplist in Pmem: sub-256 B   DRAM hash table
                     writes, bulk-read at flush
    L0 runs          Bloom filter                 no filter; RowTable metadata
                                                  persisted per entry
    L0 probe         filter, then index search    cross-row hints (2 DRAM hits)
    lower probe      filter, then index search    filter
    v} *)

type shape = Novelsm | Matrixkv

type t

val create : shape -> memtable_cap:int -> l0_runs:int -> t
(** A fresh store on its own Optane device.  The MemTable flushes after
    [memtable_cap] entries and L0 compacts into L1 once it holds more
    than [l0_runs] runs. *)

val store : t -> Kv_common.Store_intf.store
(** First-class store (named "NoveLSM" or "MatrixKV") for the harness and
    the crash checker.  Its [check_invariants] verifies that L0 holds at
    most [l0_runs] runs, every lower level but the deepest is within its
    capacity, run tags are distinct, and the filter table holds exactly
    the live runs the shape filters. *)
