(** Pmem-LSM baselines: a legacy sharded LSM-tree KV store on the Pmem
    (Section 3.2), with hashed-key placement as in LSM-trie.

    Three variants, differing only in how gets avoid (or fail to avoid)
    multi-level Pmem probing:

    - {b NF} — no Bloom filters: every get walks the levels in the Pmem.
    - {b F} — an in-DRAM Bloom filter per table: gets skip most tables, but
      puts pay the filter-construction CPU cost at every flush/compaction
      (the paper measures a 2-3x put-throughput hit).
    - {b PinK} — upper levels pinned in DRAM (PinK-style): gets and
      compaction reads of upper tables cost DRAM time, while every table is
      still written through to the Pmem for persistence.  No filters.

    Unlike ChameleonDB there is no ABI: the multi-level structure is always
    maintained (size-tiered above, leveled into the last level) and is on
    the read path. *)

type variant = Nf | F | Pink

type t

val create :
  ?cfg:Chameleondb.Config.t -> ?bloom_bits:int -> ?dev:Pmem_sim.Device.t ->
  variant -> t
(** [bloom_bits] (default 10) sets bits-per-key of the F variant's filters
    (the abl-bloom sweep). *)

val get_with_level :
  t -> Pmem_sim.Clock.t -> Kv_common.Types.key ->
  Kv_common.Types.loc option * int
(** A verified get that also reports the number of persistent tables
    probed (Fig. 2 uses the per-level breakdown). *)

val store : t -> Kv_common.Store_intf.store
(** First-class store (named Pmem-LSM-NF / -F / -PinK) for the harness
    and the crash checker. *)
