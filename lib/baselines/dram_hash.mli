(** Dram-Hash baseline: a volatile robin-hood hash index over the
    persistent value log (Section 3.2).

    Best put/get throughput (no LSM maintenance, all index traffic in DRAM)
    at the price of the largest DRAM footprint and a restart that must scan
    the {e entire} log to rebuild the index — the design ChameleonDB's ABI
    borrows speed from while bounding both costs. *)

type t

val create : unit -> t

val store : t -> Kv_common.Store_intf.store
(** First-class store for the harness and the crash checker.  Its
    [recover] is a full log scan, and its [check_invariants] verifies
    that every live index entry points at a log record for its own
    key. *)
